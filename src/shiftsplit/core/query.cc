#include "shiftsplit/core/query.h"

#include <cmath>
#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "shiftsplit/tile/nonstandard_tiling.h"
#include "shiftsplit/tile/standard_tiling.h"
#include "shiftsplit/tile/tree_tiling.h"
#include "shiftsplit/util/bitops.h"
#include "shiftsplit/wavelet/nonstandard_transform.h"
#include "shiftsplit/wavelet/standard_transform.h"
#include "shiftsplit/wavelet/wavelet_index.h"

namespace shiftsplit {

namespace {

// One per-dimension read with its reconstruction weight: either a regular
// coefficient address or a pre-located physical slot.
struct DimRead {
  uint64_t index = 0;  // regular 1-d address (when !slot_based)
  BlockSlot part;      // per-dim (tile, slot) (when slot_based)
  double weight = 1.0;
};

// Full-path expansion of a point along one dimension (Lemma 1).
std::vector<DimRead> PointPathReads(uint32_t n, uint64_t t,
                                    Normalization norm) {
  std::vector<DimRead> reads;
  reads.reserve(n + 1);
  for (uint64_t idx : PathToRoot(n, t)) {
    reads.push_back({idx, {}, ReconstructionWeight(n, idx, t, norm)});
  }
  return reads;
}

// Deepest-tile expansion of a point along one dimension: the in-tile path
// details plus the tile's slot-0 scaling; all reads hit one tile.
std::vector<DimRead> PointSlotReads(const TreeTiling& tiling, uint64_t t,
                                    Normalization norm) {
  const uint32_t n = tiling.n();
  std::vector<DimRead> reads;
  // Deepest band root level.
  const uint32_t root_level = n - tiling.BandRootRow(tiling.num_bands() - 1);
  const double g = ReconstructionAttenuation(norm);
  // In-tile details: levels 1..root_level on the path.
  for (uint32_t j = 1; j <= root_level; ++j) {
    const uint64_t idx = DetailIndex(n, j, t >> j);
    DimRead r;
    r.part = tiling.Locate(idx);
    const double sign = ((t >> (j - 1)) & 1u) == 0 ? 1.0 : -1.0;
    r.weight = sign * std::pow(g, static_cast<double>(j));
    reads.push_back(r);
  }
  // The tile-root scaling.
  DimRead r;
  auto at = tiling.LocateScaling(root_level, t >> root_level);
  r.part = *at;  // root_level is a band root by construction
  r.weight = std::pow(g, static_cast<double>(root_level));
  reads.push_back(r);
  return reads;
}

// Errors a degradable query absorbs by skipping the term: corruption,
// pool-pin exhaustion, transient I/O that outlasted its retries, and the
// deadline itself. Cancellation and argument/layout errors propagate. This
// is the only such list: the serving and sharding layers defer to it.
bool IsDegradableError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kChecksumMismatch:
    case StatusCode::kResourceExhausted:
    case StatusCode::kIOError:
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
      return true;
    default:
      return false;
  }
}

DegradedReason ReasonFor(StatusCode code) {
  switch (code) {
    case StatusCode::kChecksumMismatch:
      return DegradedReason::kQuarantined;
    case StatusCode::kResourceExhausted:
      return DegradedReason::kPinExhaustion;
    case StatusCode::kDeadlineExceeded:
      return DegradedReason::kDeadline;
    default:
      return DegradedReason::kUnavailable;
  }
}

// One cross-product term: the physical slot it reads and its weight.
struct Term {
  BlockSlot at;
  double weight = 1.0;
};

// Lists the cross product of per-dimension read lists (Lemma 1 / Lemma 2)
// in the one fixed term order, last dimension fastest, calling
// visit(term, pick) for every term of nonzero weight (pick[i] indexes
// reads[i]). In slot-based mode the per-dimension parts are combined by
// `tiling` when present (the standard cross-product layout) or used
// directly (the 1-d tree layout).
template <typename Visit>
Status ForEachTerm(TiledStore* store, const StandardTiling* tiling,
                   bool slot_based,
                   const std::vector<std::vector<DimRead>>& reads,
                   const Visit& visit) {
  const size_t d = reads.size();
  std::vector<size_t> pick(d, 0);
  std::vector<uint64_t> address(d);
  std::vector<BlockSlot> parts(d);
  for (;;) {
    Term term;
    for (size_t i = 0; i < d; ++i) {
      const DimRead& r = reads[i][pick[i]];
      term.weight *= r.weight;
      if (slot_based) {
        parts[i] = r.part;
      } else {
        address[i] = r.index;
      }
    }
    if (term.weight != 0.0) {
      if (slot_based) {
        term.at = tiling != nullptr ? tiling->Combine(parts) : parts[0];
      } else {
        SS_ASSIGN_OR_RETURN(term.at, store->layout().Locate(address));
      }
      visit(term, std::span<const size_t>(pick));
    }
    size_t i = d;
    bool advanced = false;
    while (i-- > 0) {
      if (++pick[i] < reads[i].size()) {
        advanced = true;
        break;
      }
      pick[i] = 0;
    }
    if (!advanced) return Status::OK();
  }
}

// One term as the per-block step read it: the stored coefficient with its
// pending contributions folded in, or, when its block was skipped, those
// contributions folded into 0.0 (0.0 without an overlay) and the block's
// energy ceiling, read in the same overlay critical section.
struct TermRead {
  double merged = 0.0;
  bool skipped = false;
  double ceiling = 0.0;
};

// The per-block step of every standard-form evaluator. Each distinct block
// is visited once, in the order of its first term: one read pin (the only
// pin held), then, under an overlay, one FoldBlock over all of the block's
// terms. Returns one TermRead per term, in term order.
//
// A failed pin follows QueryOptions::max_error: exact mode returns its
// status; a degradable failure skips every term on the block at once,
// counts the block in out->blocks_missing and, if it is the first, sets
// out->reason.
Result<std::vector<TermRead>> FetchByBlock(TiledStore* store,
                                           std::span<const Term> terms,
                                           const QueryOptions& options,
                                           DegradedResult* out) {
  // Term indices grouped by block, term order within a group.
  std::vector<size_t> order(terms.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return terms[a].at.block < terms[b].at.block;
  });
  std::vector<std::pair<size_t, size_t>> groups;  // [begin, end) of order
  for (size_t begin = 0, end = 0; begin < order.size(); begin = end) {
    while (end < order.size() &&
           terms[order[end]].at.block == terms[order[begin]].at.block) {
      ++end;
    }
    groups.emplace_back(begin, end);
  }
  std::sort(groups.begin(), groups.end(), [&](const auto& a, const auto& b) {
    return order[a.first] < order[b.first];
  });
  std::vector<uint64_t> slots(order.size());
  for (size_t k = 0; k < order.size(); ++k) slots[k] = terms[order[k]].at.slot;
  std::vector<double> merged(order.size(), 0.0);
  std::vector<TermRead> reads(terms.size());
  for (const auto& [begin, end] : groups) {
    const uint64_t block = terms[order[begin]].at.block;
    const Result<PageGuard> page =
        store->PinForRead(block, end - begin, options.context);
    const bool skipped = !page.ok();
    if (skipped) {
      if (!options.approx_ok() || !IsDegradableError(page.status())) {
        return page.status();
      }
      ++out->blocks_missing;
      if (out->reason == DegradedReason::kNone) {
        out->reason = ReasonFor(page.status().code());
      }
    }
    const std::span<const double> stored =
        skipped ? std::span<const double>() : page->span();
    const std::span<const uint64_t> group_slots(&slots[begin], end - begin);
    const std::span<double> group_merged(&merged[begin], end - begin);
    double ceiling = 0.0;
    const auto read_ceiling = [&] {
      ceiling = store->BlockEnergyCeiling(block);
    };
    if (options.overlay != nullptr && skipped) {
      options.overlay->FoldSkippedBlock(block, group_slots, group_merged,
                                        read_ceiling);
    } else if (options.overlay != nullptr) {
      options.overlay->FoldBlock(block, stored, group_slots, group_merged);
    } else if (skipped) {
      read_ceiling();
    } else {
      for (size_t k = 0; k < group_slots.size(); ++k) {
        group_merged[k] = stored[group_slots[k]];
      }
    }
    for (size_t k = begin; k < end; ++k) {
      reads[order[k]] = {merged[k], skipped, ceiling};
    }
  }
  return reads;
}

// The standard-form evaluator: lists the cross-product terms, fetches them
// block by block, and sums them in term order — so with no faults degraded
// and exact answers are bit-identical. A term on a skipped block adds
// |weight| x sqrt(E_block) to the error bound and, under an overlay,
// weight x its pending contributions to the value.
Result<DegradedResult> EvaluateCrossProduct(
    TiledStore* store, const StandardTiling* tiling, bool slot_based,
    const std::vector<std::vector<DimRead>>& reads,
    const QueryOptions& options, const char* query) {
  std::vector<Term> terms;
  SS_RETURN_IF_ERROR(
      ForEachTerm(store, tiling, slot_based, reads,
                  [&](const Term& term, std::span<const size_t>) {
                    terms.push_back(term);
                  }));
  DegradedResult out;
  SS_ASSIGN_OR_RETURN(const std::vector<TermRead> fetched,
                      FetchByBlock(store, terms, options, &out));
  for (size_t t = 0; t < terms.size(); ++t) {
    const double weight = terms[t].weight;
    if (!fetched[t].skipped) {
      out.value += weight * fetched[t].merged;
      continue;
    }
    out.error_bound += std::abs(weight) * fetched[t].ceiling;
    if (options.overlay != nullptr) out.value += weight * fetched[t].merged;
  }
  SS_RETURN_IF_ERROR(CheckErrorBound(out, options, query));
  return out;
}

// Per-dimension reads of the sum over the box [lo, hi]: the union of the
// two boundary paths, with their nonzero Lemma-2 weights (every other
// detail has zero aggregate weight by the vanishing moment).
Result<std::vector<std::vector<DimRead>>> RangeSumReads(
    std::span<const uint32_t> log_dims, std::span<const uint64_t> lo,
    std::span<const uint64_t> hi, Normalization norm) {
  const uint32_t d = static_cast<uint32_t>(log_dims.size());
  if (lo.size() != d || hi.size() != d) {
    return Status::InvalidArgument("range dimensionality mismatch");
  }
  std::vector<std::vector<DimRead>> reads(d);
  for (uint32_t i = 0; i < d; ++i) {
    const uint32_t n = log_dims[i];
    if (lo[i] > hi[i] || hi[i] >= (uint64_t{1} << n)) {
      return Status::OutOfRange("bad range bounds");
    }
    std::vector<uint64_t> candidates = PathToRoot(n, lo[i]);
    for (uint64_t idx : PathToRoot(n, hi[i])) {
      if (std::find(candidates.begin(), candidates.end(), idx) ==
          candidates.end()) {
        candidates.push_back(idx);
      }
    }
    for (uint64_t idx : candidates) {
      const double w = RangeSumWeight(n, idx, lo[i], hi[i], norm);
      if (w != 0.0) reads[i].push_back({idx, {}, w});
    }
  }
  return reads;
}

}  // namespace

Status CheckErrorBound(const DegradedResult& answer,
                       const QueryOptions& options, const char* query) {
  if (answer.exact() || answer.error_bound <= options.max_error) {
    return Status::OK();
  }
  std::string message = std::string("degraded ") + query + " error bound " +
                        std::to_string(answer.error_bound) +
                        " exceeds max_error " +
                        std::to_string(options.max_error);
  if (!answer.shards_missing.empty()) {
    message += " (" + std::to_string(answer.shards_missing.size()) +
               " shards unavailable)";
  }
  return Status::Unavailable(message);
}

const char* DegradedReasonToString(DegradedReason reason) {
  switch (reason) {
    case DegradedReason::kNone:
      return "None";
    case DegradedReason::kQuarantined:
      return "Quarantined";
    case DegradedReason::kPinExhaustion:
      return "PinExhaustion";
    case DegradedReason::kDeadline:
      return "Deadline";
    case DegradedReason::kUnavailable:
      return "Unavailable";
    case DegradedReason::kShardUnavailable:
      return "ShardUnavailable";
  }
  return "Unknown";
}

double RangeWeightNormSquared(uint32_t n, uint64_t lo, uint64_t hi,
                              Normalization norm) {
  // Candidates with nonzero aggregate weight: the overall scaling
  // coefficient (index 0) and, per level, the details whose support
  // contains lo or hi — a detail fully inside or outside [lo, hi] sums to
  // zero (Lemma 2's vanishing moment), so everything else drops out.
  double sum = 0.0;
  const double w0 = RangeSumWeight(n, 0, lo, hi, norm);
  sum += w0 * w0;
  for (uint32_t level = 0; level < n; ++level) {
    const uint32_t shift = n - level;
    const uint64_t k_lo = lo >> shift;
    const uint64_t k_hi = hi >> shift;
    const double wl =
        RangeSumWeight(n, (uint64_t{1} << level) + k_lo, lo, hi, norm);
    sum += wl * wl;
    if (k_hi != k_lo) {
      const double wh =
          RangeSumWeight(n, (uint64_t{1} << level) + k_hi, lo, hi, norm);
      sum += wh * wh;
    }
  }
  return sum;
}

Result<DegradedResult> PointQueryStandard(TiledStore* store,
                                          std::span<const uint32_t> log_dims,
                                          std::span<const uint64_t> point,
                                          const QueryOptions& options) {
  const uint32_t d = static_cast<uint32_t>(log_dims.size());
  if (point.size() != d) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  for (uint32_t i = 0; i < d; ++i) {
    if (point[i] >= (uint64_t{1} << log_dims[i])) {
      return Status::OutOfRange("point beyond the dataset domain");
    }
  }
  const auto* tiling = dynamic_cast<const StandardTiling*>(&store->layout());
  const auto* tree_layout =
      d == 1 ? dynamic_cast<const TreeTilingLayout*>(&store->layout())
             : nullptr;
  const bool slots = options.use_scaling_slots &&
                     (tiling != nullptr || tree_layout != nullptr);
  std::vector<std::vector<DimRead>> reads(d);
  for (uint32_t i = 0; i < d; ++i) {
    if (!slots) {
      reads[i] = PointPathReads(log_dims[i], point[i], options.norm);
    } else {
      const TreeTiling& dim_tiling =
          tiling != nullptr ? tiling->dim_tiling(i) : tree_layout->tiling();
      reads[i] = PointSlotReads(dim_tiling, point[i], options.norm);
    }
  }
  return EvaluateCrossProduct(store, tiling, slots, reads, options,
                              "point query");
}

Result<double> PointQueryNonstandard(TiledStore* store, uint32_t n,
                                     std::span<const uint64_t> point,
                                     const QueryOptions& options) {
  const uint32_t d = static_cast<uint32_t>(point.size());
  for (uint64_t p : point) {
    if (p >= (uint64_t{1} << n)) {
      return Status::OutOfRange("point beyond the dataset domain");
    }
  }
  const auto* tiling =
      dynamic_cast<const NonstandardTiling*>(&store->layout());
  const bool slots = options.use_scaling_slots && tiling != nullptr;
  const uint64_t corners = uint64_t{1} << d;
  const double g = ReconstructionAttenuation(options.norm);
  const double g_d = std::pow(g, static_cast<double>(d));

  // Start from either the overall average (full path) or the deepest tile's
  // root-node scaling (slot mode), then add detail contributions downward.
  uint32_t top_level;
  double value;
  NsCoeffId id;
  id.node.assign(d, 0);
  if (slots) {
    top_level = n - tiling->BandRootRow(tiling->num_bands() - 1);
    std::vector<uint64_t> node(d);
    for (uint32_t i = 0; i < d; ++i) node[i] = point[i] >> top_level;
    SS_ASSIGN_OR_RETURN(const BlockSlot at,
                        tiling->LocateScaling(top_level, node));
    SS_ASSIGN_OR_RETURN(const double scaling,
                        store->GetAt(at, options.context));
    value = scaling * std::pow(g_d, static_cast<double>(top_level));
  } else {
    top_level = n;
    std::vector<uint64_t> zero(d, 0);
    SS_ASSIGN_OR_RETURN(const double root, store->Get(zero, options.context));
    value = root * std::pow(g_d, static_cast<double>(n));
  }
  std::vector<uint64_t> address(d);
  for (uint32_t level = top_level; level >= 1; --level) {
    uint64_t corner = 0;
    id.level = level;
    for (uint32_t i = 0; i < d; ++i) {
      id.node[i] = point[i] >> level;
      corner |= ((point[i] >> (level - 1)) & 1u) << i;
    }
    const double magnitude = std::pow(g_d, static_cast<double>(level));
    for (uint64_t sigma = 1; sigma < corners; ++sigma) {
      id.subband = sigma;
      address = NsAddress(n, id);
      SS_ASSIGN_OR_RETURN(const double coeff,
                          store->Get(address, options.context));
      value += NsSign(sigma, corner) * magnitude * coeff;
    }
  }
  return value;
}

Result<std::vector<DegradedResult>> BatchPointQueryStandard(
    TiledStore* store, std::span<const uint32_t> log_dims,
    const std::vector<std::vector<uint64_t>>& points,
    const QueryOptions& options) {
  // Validate EVERY point before any I/O: a bad point fails the batch up
  // front without disturbing the store or evaluating a prefix.
  const uint32_t d = static_cast<uint32_t>(log_dims.size());
  for (const std::vector<uint64_t>& point : points) {
    if (point.size() != d) {
      return Status::InvalidArgument("point dimensionality mismatch");
    }
    for (uint32_t i = 0; i < d; ++i) {
      if (point[i] >= (uint64_t{1} << log_dims[i])) {
        return Status::OutOfRange("point beyond the dataset domain");
      }
    }
  }
  const auto* tiling = dynamic_cast<const StandardTiling*>(&store->layout());
  std::vector<size_t> order(points.size());
  for (size_t i = 0; i < points.size(); ++i) order[i] = i;
  if (options.use_scaling_slots && tiling != nullptr) {
    // Schedule by the deepest-tile block each point reads from.
    std::vector<uint64_t> home(points.size());
    std::vector<BlockSlot> parts(d);
    for (size_t i = 0; i < points.size(); ++i) {
      for (uint32_t j = 0; j < d; ++j) {
        const TreeTiling& dt = tiling->dim_tiling(j);
        const uint32_t root_level =
            dt.n() - dt.BandRootRow(dt.num_bands() - 1);
        SS_ASSIGN_OR_RETURN(
            parts[j],
            dt.LocateScaling(root_level, points[i][j] >> root_level));
      }
      home[i] = tiling->Combine(parts).block;
    }
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return home[a] < home[b]; });
  }
  std::vector<DegradedResult> out(points.size());
  for (size_t i : order) {
    SS_ASSIGN_OR_RETURN(
        out[i], PointQueryStandard(store, log_dims, points[i], options));
  }
  return out;
}

double RangeSumWeight(uint32_t n, uint64_t index, uint64_t lo, uint64_t hi,
                      Normalization norm) {
  const uint64_t count = hi - lo + 1;
  if (index == 0) {
    const double w = (norm == Normalization::kAverage)
                         ? 1.0
                         : std::pow(2.0, -0.5 * static_cast<double>(n));
    return w * static_cast<double>(count);
  }
  const WaveletCoord c = CoordOfIndex(n, index);
  const DyadicInterval support{c.level, c.pos};
  const uint64_t s_lo = support.begin();
  const uint64_t s_mid = s_lo + support.length() / 2;  // first right-half cell
  const uint64_t s_hi = support.last();
  if (hi < s_lo || lo > s_hi) return 0.0;
  const auto overlap = [&](uint64_t a, uint64_t b) -> uint64_t {
    const uint64_t x = std::max(lo, a), y = std::min(hi, b);
    return x <= y ? (y - x + 1) : 0;
  };
  const double left = static_cast<double>(overlap(s_lo, s_mid - 1));
  const double right = static_cast<double>(overlap(s_mid, s_hi));
  const double w = (norm == Normalization::kAverage)
                       ? 1.0
                       : std::pow(2.0, -0.5 * static_cast<double>(c.level));
  return w * (left - right);
}

Result<DegradedResult> RangeSumStandard(TiledStore* store,
                                        std::span<const uint32_t> log_dims,
                                        std::span<const uint64_t> lo,
                                        std::span<const uint64_t> hi,
                                        const QueryOptions& options) {
  SS_ASSIGN_OR_RETURN(const auto reads,
                      RangeSumReads(log_dims, lo, hi, options.norm));
  return EvaluateCrossProduct(store, nullptr, false, reads, options,
                              "range sum");
}

Result<std::vector<ProgressiveEstimate>> ProgressiveRangeSumStandard(
    TiledStore* store, std::span<const uint32_t> log_dims,
    std::span<const uint64_t> lo, std::span<const uint64_t> hi,
    const QueryOptions& options) {
  SS_ASSIGN_OR_RETURN(const auto reads,
                      RangeSumReads(log_dims, lo, hi, options.norm));
  // Bucket the terms by total depth (per dimension n - level; the root is
  // 0), term order within a bucket, then evaluate coarse-to-fine.
  std::vector<std::vector<Term>> by_depth(1);
  SS_RETURN_IF_ERROR(ForEachTerm(
      store, nullptr, false, reads,
      [&](const Term& term, std::span<const size_t> pick) {
        uint32_t depth = 0;
        for (size_t i = 0; i < pick.size(); ++i) {
          const uint64_t idx = reads[i][pick[i]].index;
          if (idx != 0) {
            depth += log_dims[i] - CoordOfIndex(log_dims[i], idx).level;
          }
        }
        if (depth >= by_depth.size()) by_depth.resize(depth + 1);
        by_depth[depth].push_back(term);
      }));
  std::vector<Term> terms;
  for (const std::vector<Term>& bucket : by_depth) {
    terms.insert(terms.end(), bucket.begin(), bucket.end());
  }
  QueryOptions exact = options;
  exact.max_error = 0.0;
  DegradedResult unused;
  SS_ASSIGN_OR_RETURN(const std::vector<TermRead> fetched,
                      FetchByBlock(store, terms, exact, &unused));
  std::vector<ProgressiveEstimate> rounds;
  double estimate = 0.0;
  uint64_t read = 0;
  for (uint32_t depth = 0; depth < by_depth.size(); ++depth) {
    for (const Term& term : by_depth[depth]) {
      estimate += term.weight * fetched[read++].merged;
    }
    if (!by_depth[depth].empty() || depth + 1 == by_depth.size()) {
      rounds.push_back({depth, estimate, read});
    }
  }
  return rounds;
}

namespace {

// 1-d aggregate weight of a level-j basis factor over [lo, hi], for a
// scaling factor (sigma bit 0) or wavelet factor (sigma bit 1) at node p.
double NsFactorWeight(uint32_t level, uint64_t p, bool wavelet, uint64_t lo,
                      uint64_t hi, Normalization norm) {
  const DyadicInterval support{level, p};
  const uint64_t s_lo = support.begin();
  const uint64_t s_hi = support.last();
  if (hi < s_lo || lo > s_hi) return 0.0;
  const auto overlap = [&](uint64_t a, uint64_t b) -> uint64_t {
    const uint64_t x = std::max(lo, a), y = std::min(hi, b);
    return x <= y ? (y - x + 1) : 0;
  };
  const double mag = (norm == Normalization::kAverage)
                         ? 1.0
                         : std::pow(2.0, -0.5 * static_cast<double>(level));
  if (!wavelet) {
    return mag * static_cast<double>(overlap(s_lo, s_hi));
  }
  const uint64_t s_mid = s_lo + support.length() / 2;
  return mag * (static_cast<double>(overlap(s_lo, s_mid - 1)) -
                static_cast<double>(overlap(s_mid, s_hi)));
}

struct NsRangeSumState {
  TiledStore* store;
  uint32_t n;
  uint32_t d;
  std::span<const uint64_t> lo;
  std::span<const uint64_t> hi;
  Normalization norm;
  OperationContext* ctx;
  // Per-depth accumulators (depth = n - level); sized n + 1.
  std::vector<double>* sum_by_depth;
  std::vector<uint64_t>* reads_by_depth;
};

// Visits node (level, p): adds its subband contributions and recurses into
// children whose support intersects the range and crosses its boundary.
Status VisitNode(const NsRangeSumState& st, uint32_t level,
                 const std::vector<uint64_t>& p) {
  const uint64_t corners = uint64_t{1} << st.d;
  const uint32_t depth = st.n - level;
  // Subband contributions of this node.
  NsCoeffId id;
  id.level = level;
  id.node = p;
  for (uint64_t sigma = 1; sigma < corners; ++sigma) {
    double w = 1.0;
    for (uint32_t i = 0; i < st.d && w != 0.0; ++i) {
      w *= NsFactorWeight(level, p[i], ((sigma >> i) & 1u) != 0, st.lo[i],
                          st.hi[i], st.norm);
    }
    if (w == 0.0) continue;
    id.subband = sigma;
    const auto address = NsAddress(st.n, id);
    SS_ASSIGN_OR_RETURN(const double coeff,
                        st.store->Get(address, st.ctx));
    (*st.sum_by_depth)[depth] += w * coeff;
    ++(*st.reads_by_depth)[depth];
  }
  if (level == 1) return Status::OK();
  // Recurse into children that intersect the range but are not fully inside
  // (fully-inside subtrees contribute nothing: every subband has a wavelet
  // factor whose aggregate weight vanishes).
  std::vector<uint64_t> child(st.d);
  for (uint64_t eps = 0; eps < corners; ++eps) {
    bool intersects = true;
    bool fully_inside = true;
    for (uint32_t i = 0; i < st.d; ++i) {
      child[i] = 2 * p[i] + ((eps >> i) & 1u);
      const DyadicInterval support{level - 1, child[i]};
      if (st.hi[i] < support.begin() || st.lo[i] > support.last()) {
        intersects = false;
        break;
      }
      if (st.lo[i] > support.begin() || st.hi[i] < support.last()) {
        fully_inside = false;
      }
    }
    if (!intersects || fully_inside) continue;
    SS_RETURN_IF_ERROR(VisitNode(st, level - 1, child));
  }
  return Status::OK();
}

// Shared driver: fills per-depth sums/reads (depth 0 = the root round).
Status NsRangeSumByDepth(TiledStore* store, uint32_t n,
                         std::span<const uint64_t> lo,
                         std::span<const uint64_t> hi,
                         const QueryOptions& options,
                         std::vector<double>* sum_by_depth,
                         std::vector<uint64_t>* reads_by_depth) {
  const uint32_t d = static_cast<uint32_t>(lo.size());
  if (hi.size() != d) {
    return Status::InvalidArgument("range dimensionality mismatch");
  }
  for (uint32_t i = 0; i < d; ++i) {
    if (lo[i] > hi[i] || hi[i] >= (uint64_t{1} << n)) {
      return Status::OutOfRange("bad range bounds");
    }
  }
  sum_by_depth->assign(n + 1, 0.0);
  reads_by_depth->assign(n + 1, 0);
  // Root scaling contribution (depth 0).
  std::vector<uint64_t> zero(d, 0);
  SS_ASSIGN_OR_RETURN(const double root, store->Get(zero, options.context));
  double w = 1.0;
  for (uint32_t i = 0; i < d; ++i) {
    w *= NsFactorWeight(n, 0, false, lo[i], hi[i], options.norm);
  }
  (*sum_by_depth)[0] += root * w;
  ++(*reads_by_depth)[0];
  if (n == 0) return Status::OK();
  NsRangeSumState st{store,           n,
                     d,               lo,
                     hi,              options.norm,
                     options.context, sum_by_depth,
                     reads_by_depth};
  std::vector<uint64_t> p(d, 0);
  return VisitNode(st, n, p);
}

}  // namespace

Result<double> RangeSumNonstandard(TiledStore* store, uint32_t n,
                                   std::span<const uint64_t> lo,
                                   std::span<const uint64_t> hi,
                                   const QueryOptions& options) {
  std::vector<double> sums;
  std::vector<uint64_t> reads;
  SS_RETURN_IF_ERROR(
      NsRangeSumByDepth(store, n, lo, hi, options, &sums, &reads));
  double sum = 0.0;
  for (double s : sums) sum += s;
  return sum;
}

Result<std::vector<ProgressiveEstimate>> ProgressiveRangeSumNonstandard(
    TiledStore* store, uint32_t n, std::span<const uint64_t> lo,
    std::span<const uint64_t> hi, const QueryOptions& options) {
  std::vector<double> sums;
  std::vector<uint64_t> reads;
  SS_RETURN_IF_ERROR(
      NsRangeSumByDepth(store, n, lo, hi, options, &sums, &reads));
  std::vector<ProgressiveEstimate> rounds;
  double estimate = 0.0;
  uint64_t read = 0;
  for (uint32_t depth = 0; depth < sums.size(); ++depth) {
    estimate += sums[depth];
    read += reads[depth];
    if (reads[depth] > 0 || depth + 1 == sums.size()) {
      rounds.push_back({depth, estimate, read});
    }
  }
  return rounds;
}

bool ClipBoxToSlab(std::span<const uint64_t> lo, std::span<const uint64_t> hi,
                   uint32_t dim, uint64_t slab_lo, uint64_t slab_hi,
                   std::vector<uint64_t>* clipped_lo,
                   std::vector<uint64_t>* clipped_hi) {
  if (lo[dim] > slab_hi || hi[dim] < slab_lo) return false;
  clipped_lo->assign(lo.begin(), lo.end());
  clipped_hi->assign(hi.begin(), hi.end());
  (*clipped_lo)[dim] = std::max(lo[dim], slab_lo);
  (*clipped_hi)[dim] = std::min(hi[dim], slab_hi);
  return true;
}

}  // namespace shiftsplit
