#include "shiftsplit/core/md_shift_split.h"

#include <algorithm>
#include <unordered_map>
#include <cmath>
#include <utility>

#include "shiftsplit/tile/nonstandard_tiling.h"
#include "shiftsplit/tile/standard_tiling.h"
#include "shiftsplit/util/bitops.h"
#include "shiftsplit/wavelet/nonstandard_transform.h"
#include "shiftsplit/wavelet/standard_transform.h"
#include "shiftsplit/wavelet/wavelet_index.h"

namespace shiftsplit {

namespace {

// A per-dimension write target of the standard-form apply. The value written
// to the cross product of d targets is the expansion-weighted combination of
// chunk-transform entries; `final` distinguishes SHIFT (exact, single-writer)
// positions from SPLIT accumulation positions along this dimension.
struct DimTarget {
  uint64_t global_index = 0;  // 1-d wavelet index (regular targets)
  bool scaling_slot = false;  // redundant tile-root scaling (no 1-d index)
  BlockSlot part;             // per-dim (tile, slot) when parts are in use
  bool final = true;
  // Expansion entries (flat offset contribution, weight): the local index
  // along this dimension pre-multiplied by the chunk tensor's row-major
  // stride, so the enumerator indexes the transformed chunk without
  // per-coefficient tuple arithmetic. Nearly every target expands to exactly
  // one entry, stored inline in `entry` (no heap allocation); only
  // multi-entry tile-root scaling expansions spill to `multi`.
  std::pair<uint64_t, double> entry{0, 1.0};
  std::vector<std::pair<uint64_t, double>> multi;  // empty => single `entry`

  size_t expansion_size() const { return multi.empty() ? 1 : multi.size(); }
  std::span<const std::pair<uint64_t, double>> expansion() const {
    return multi.empty()
               ? std::span<const std::pair<uint64_t, double>>(&entry, 1)
               : std::span<const std::pair<uint64_t, double>>(multi);
  }
};

// Builds the target list for one dimension.
//   n, m, k: global log extent, chunk log extent, chunk dyadic position.
//   stride:  row-major stride of this dimension in the chunk tensor.
//   tiling:  per-dimension tree tiling (nullptr when the store's layout is
//            not the standard tiling — scaling slots are skipped then).
Status BuildDimTargets(uint32_t n, uint32_t m, uint64_t k, uint64_t stride,
                       Normalization norm, const TreeTiling* tiling,
                       bool maintain_scaling_slots,
                       std::vector<DimTarget>* out) {
  out->clear();
  const uint64_t chunk_size = uint64_t{1} << m;
  const double atten = ScalingAttenuation(norm);

  // SHIFT: within-chunk details, final.
  for (uint64_t local = 1; local < chunk_size; ++local) {
    DimTarget t;
    t.global_index = ShiftIndex(n, m, k, local);
    t.entry = {local * stride, 1.0};
    if (tiling != nullptr) t.part = tiling->Locate(t.global_index);
    out->push_back(std::move(t));
  }
  if (n == m) {
    // The chunk spans the whole dimension: its local scaling IS the global
    // scaling coefficient (index 0), final.
    DimTarget t;
    t.global_index = 0;
    t.entry = {0, 1.0};
    if (tiling != nullptr) t.part = tiling->Locate(0);
    out->push_back(std::move(t));
  } else {
    // SPLIT: covering details at levels (m, n], then the overall average.
    double magnitude = 1.0;
    for (uint32_t j = m + 1; j <= n; ++j) {
      magnitude *= atten;
      DimTarget t;
      t.global_index = DetailIndex(n, j, k >> (j - m));
      t.final = false;
      const double sign = InLeftHalf(m, k, j) ? 1.0 : -1.0;
      t.entry = {0, sign * magnitude};
      if (tiling != nullptr) t.part = tiling->Locate(t.global_index);
      out->push_back(std::move(t));
    }
    DimTarget root;
    root.global_index = 0;
    root.final = false;
    root.entry = {0, magnitude};  // atten^(n-m)
    if (tiling != nullptr) root.part = tiling->Locate(0);
    out->push_back(std::move(root));
  }

  if (tiling == nullptr || !maintain_scaling_slots) return Status::OK();

  // Redundant tile-root scaling slots along this dimension.
  for (const auto& [level, pos] : tiling->ScalingSlotsWithin(m, k)) {
    if (level == n) continue;  // index 0 already targeted above
    DimTarget t;
    t.scaling_slot = true;
    SS_ASSIGN_OR_RETURN(t.part, tiling->LocateScaling(level, pos));
    t.multi = ScalingExpansion(m, level, pos - (k << (m - level)), norm);
    for (auto& [offset, weight] : t.multi) offset *= stride;
    if (t.multi.size() == 1) {
      t.entry = t.multi.front();
      t.multi.clear();
    }
    out->push_back(std::move(t));
  }
  for (const auto& [level, pos] : tiling->ScalingSlotsAbove(m, k)) {
    if (level == n) continue;  // index 0 already targeted above
    DimTarget t;
    t.scaling_slot = true;
    t.final = false;
    SS_ASSIGN_OR_RETURN(t.part, tiling->LocateScaling(level, pos));
    t.entry = {0, std::pow(atten, static_cast<double>(level - m))};
    out->push_back(std::move(t));
  }
  return Status::OK();
}

// Groups planned writes by destination block as they are generated. The
// cross-product enumeration emits long runs of same-block writes, so a
// one-entry cache in front of a block → group hash map makes grouping O(1)
// per op with no global sort; Finish() orders the groups by block id
// (= layout order). Generation order is preserved within each group, though
// it cannot affect values: each (block, slot) is written at most once per
// chunk apply.
class PlanBuilder {
 public:
  void Add(uint64_t block, SlotUpdate op) {
    ++total_;
    if (last_ops_ != nullptr && last_block_ == block) {
      last_ops_->push_back(op);
      return;
    }
    const auto [it, inserted] = index_.try_emplace(block, plan_.blocks.size());
    if (inserted) plan_.blocks.push_back(ChunkBlockOps{block, {}});
    last_block_ = block;
    last_ops_ = &plan_.blocks[it->second].ops;
    last_ops_->push_back(op);
  }

  // Sink interface for FastEnumerateStandard: Switch selects the group,
  // Write appends to it without re-checking the block.
  Status Switch(uint64_t block, uint64_t /*gid*/) {
    if (last_ops_ == nullptr || last_block_ != block) {
      const auto [it, inserted] =
          index_.try_emplace(block, plan_.blocks.size());
      if (inserted) plan_.blocks.push_back(ChunkBlockOps{block, {}});
      last_block_ = block;
      last_ops_ = &plan_.blocks[it->second].ops;
    }
    return Status::OK();
  }

  void Write(uint64_t slot, double value, bool overwrite) {
    ++total_;
    last_ops_->push_back({slot, value, overwrite});
  }

  ChunkApplyPlan Finish() && {
    std::sort(plan_.blocks.begin(), plan_.blocks.end(),
              [](const ChunkBlockOps& a, const ChunkBlockOps& b) {
                return a.block < b.block;
              });
    plan_.total_ops = total_;
    return std::move(plan_);
  }

 private:
  ChunkApplyPlan plan_;
  std::unordered_map<uint64_t, size_t> index_;
  uint64_t last_block_ = 0;
  std::vector<SlotUpdate>* last_ops_ = nullptr;
  uint64_t total_ = 0;
};

// Validated + transformed inputs of one standard-form chunk apply, shared by
// the per-coefficient path and the plan builder.
struct StandardContext {
  uint32_t d = 0;
  Tensor transformed;
  const StandardTiling* std_tiling = nullptr;
  std::vector<std::vector<DimTarget>> targets;
};

Status PrepareStandard(const Tensor& chunk_data,
                       std::span<const uint64_t> chunk_pos,
                       std::span<const uint32_t> global_log_dims,
                       const TileLayout& layout, Normalization norm,
                       const ApplyOptions& options, StandardContext* ctx) {
  const TensorShape& shape = chunk_data.shape();
  const uint32_t d = shape.ndim();
  if (chunk_pos.size() != d || global_log_dims.size() != d) {
    return Status::InvalidArgument("dimensionality mismatch");
  }
  std::vector<uint32_t> m(d);
  for (uint32_t i = 0; i < d; ++i) {
    m[i] = Log2(shape.dim(i));
    if (m[i] > global_log_dims[i]) {
      return Status::InvalidArgument("chunk larger than the dataset");
    }
    if (chunk_pos[i] >= (uint64_t{1} << (global_log_dims[i] - m[i]))) {
      return Status::OutOfRange("chunk position beyond the global domain");
    }
  }

  // Transform the chunk in memory.
  ctx->d = d;
  ctx->transformed = chunk_data;
  SS_RETURN_IF_ERROR(ForwardStandard(&ctx->transformed, norm));

  // Per-dimension target lists. Parts (per-dim tile/slot pairs) are used
  // when the store's layout is the standard cross-product tiling.
  ctx->std_tiling = dynamic_cast<const StandardTiling*>(&layout);
  ctx->targets.assign(d, {});
  for (uint32_t i = 0; i < d; ++i) {
    const TreeTiling* tiling =
        ctx->std_tiling != nullptr ? &ctx->std_tiling->dim_tiling(i) : nullptr;
    SS_RETURN_IF_ERROR(BuildDimTargets(global_log_dims[i], m[i], chunk_pos[i],
                                       shape.stride(i), norm, tiling,
                                       options.maintain_scaling_slots,
                                       &ctx->targets[i]));
  }
  return Status::OK();
}

// Specialized standard-form enumeration for the cross-product tiling: every
// per-dimension target is flattened to precomputed mixed-radix block/slot
// contributions (matching StandardTiling::Combine exactly: block =
// sum of part.block * prod of later dims' tile counts, slot likewise with
// tile capacities), so the hot loop needs d integer adds instead of a
// virtual Locate/Combine per coefficient. Single-entry expansions (all SHIFT
// and SPLIT targets) carry their offset/weight inline; the rare multi-entry
// scaling expansions live in a shared pool and take the generic inner loop.
struct FastTarget {
  uint64_t block_c = 0;   // part.block pre-multiplied by the dim block stride
  uint64_t slot_c = 0;    // part.slot pre-multiplied by the dim slot stride
  uint64_t offset = 0;    // single-entry flat offset into the chunk tensor
  double weight = 1.0;    // single-entry weight
  uint32_t multi_lo = 0;  // multi-entry range in FastStandard::pool
  uint32_t multi_n = 0;   // 0 = single entry
  uint32_t group = 0;     // rank of block_c in the dim's distinct-id list
  bool is_final = true;
};

struct FastStandard {
  std::vector<std::vector<FastTarget>> targets;       // per dimension
  std::vector<std::pair<uint64_t, double>> pool;      // multi-entry entries
  std::vector<std::vector<uint64_t>> dim_block_ids;   // distinct, ascending
};

FastStandard BuildFastStandard(const StandardContext& ctx) {
  FastStandard f;
  const uint32_t d = ctx.d;
  std::vector<uint64_t> bstride(d), sstride(d);
  uint64_t bs = 1, ss = 1;
  for (uint32_t i = d; i-- > 0;) {
    bstride[i] = bs;
    sstride[i] = ss;
    bs *= ctx.std_tiling->dim_tiling(i).num_tiles();
    ss *= ctx.std_tiling->dim_tiling(i).tile_capacity();
  }
  f.targets.resize(d);
  f.dim_block_ids.resize(d);
  for (uint32_t i = 0; i < d; ++i) {
    f.targets[i].reserve(ctx.targets[i].size());
    for (const DimTarget& t : ctx.targets[i]) {
      FastTarget ft;
      ft.block_c = t.part.block * bstride[i];
      ft.slot_c = t.part.slot * sstride[i];
      ft.is_final = t.final;
      if (t.multi.empty()) {
        ft.offset = t.entry.first;
        ft.weight = t.entry.second;
      } else {
        ft.multi_lo = static_cast<uint32_t>(f.pool.size());
        ft.multi_n = static_cast<uint32_t>(t.multi.size());
        f.pool.insert(f.pool.end(), t.multi.begin(), t.multi.end());
      }
      f.targets[i].push_back(ft);
      f.dim_block_ids[i].push_back(ft.block_c);
    }
    // Group equal block contributions contiguously (stable, so the canonical
    // order is kept within each group): the cross-product enumeration then
    // emits long same-block runs and the sink rarely switches blocks. Safe to
    // reorder — each (block, slot) is written at most once per chunk apply.
    std::stable_sort(f.targets[i].begin(), f.targets[i].end(),
                     [](const FastTarget& a, const FastTarget& b) {
                       return a.block_c < b.block_c;
                     });
    std::sort(f.dim_block_ids[i].begin(), f.dim_block_ids[i].end());
    f.dim_block_ids[i].erase(
        std::unique(f.dim_block_ids[i].begin(), f.dim_block_ids[i].end()),
        f.dim_block_ids[i].end());
    // Sorted targets fall into runs of equal block_c; run r's contribution is
    // dim_block_ids[i][r], so the run rank doubles as the group index.
    uint32_t group = 0;
    for (size_t j = 0; j < f.targets[i].size(); ++j) {
      if (j > 0 && f.targets[i][j].block_c != f.targets[i][j - 1].block_c) {
        ++group;
      }
      f.targets[i][j].group = group;
    }
  }
  return f;
}

// The full destination block set of the chunk: the cross product of per-dim
// distinct tile contributions. Ascending by construction (later dims'
// contributions are always smaller than one earlier-dim stride step).
std::vector<uint64_t> FastBlockSet(const FastStandard& f) {
  std::vector<uint64_t> ids{0};
  for (const std::vector<uint64_t>& dim_ids : f.dim_block_ids) {
    std::vector<uint64_t> next;
    next.reserve(ids.size() * dim_ids.size());
    for (uint64_t id : ids) {
      for (uint64_t c : dim_ids) next.push_back(id + c);
    }
    ids = std::move(next);
  }
  return ids;
}

// Enumerates the same writes as EnumerateStandard (bit-identical values:
// identical multiplication/accumulation chains) but against FastTargets.
// The outer d-1 dimensions advance through an odometer with prefix
// accumulators; the innermost dimension — the overwhelmingly common case —
// is a flat pass over a contiguous target array with no per-op odometer
// work and no per-op Status round trip.
// Sink concept:
//   // Destination block changed (rare). `gid` is the block's rank in the
//   // chunk's ascending distinct-block list (the FastBlockSet order).
//   Status Switch(uint64_t block, uint64_t gid);
//   void Write(uint64_t slot, double value, bool overwrite);
template <typename Sink>
Status FastEnumerateStandard(const StandardContext& ctx,
                             const FastStandard& f,
                             const ApplyOptions& options, Sink&& sink) {
  const uint32_t d = ctx.d;
  const uint32_t outer = d - 1;
  const bool construct = options.mode == ApplyMode::kConstruct;
  const bool skip_zero = options.skip_zero_writes;
  const std::span<const double> data = ctx.transformed.data();
  const FastTarget* const in = f.targets[outer].data();
  const size_t in_n = f.targets[outer].size();
  std::vector<size_t> pick(d, 0);
  std::vector<size_t> epick(d);
  std::vector<uint64_t> pre_block(d), pre_slot(d), pre_off(d), pre_gid(d);
  std::vector<double> pre_w(d);
  std::vector<uint8_t> pre_final(d), pre_single(d);
  const auto refresh = [&](uint32_t from) {
    for (uint32_t i = from; i < outer; ++i) {
      const FastTarget& t = f.targets[i][pick[i]];
      if (i == 0) {
        pre_block[0] = t.block_c;
        pre_slot[0] = t.slot_c;
        pre_off[0] = t.offset;
        pre_gid[0] = t.group;
        pre_w[0] = t.weight;
        pre_final[0] = t.is_final;
        pre_single[0] = t.multi_n == 0;
      } else {
        pre_block[i] = pre_block[i - 1] + t.block_c;
        pre_slot[i] = pre_slot[i - 1] + t.slot_c;
        pre_off[i] = pre_off[i - 1] + t.offset;
        pre_gid[i] = pre_gid[i - 1] * f.dim_block_ids[i].size() + t.group;
        pre_w[i] = pre_w[i - 1] * t.weight;
        pre_final[i] = pre_final[i - 1] && t.is_final;
        pre_single[i] = pre_single[i - 1] && t.multi_n == 0;
      }
    }
  };
  refresh(0);
  // Generic expansion cross product for ops involving a multi-entry
  // (scaling-slot) expansion, in the same nested order — and thus the same
  // floating-point accumulation chain — as EnumerateStandard.
  const auto generic_value = [&](size_t inner_j) {
    double value = 0.0;
    std::fill(epick.begin(), epick.end(), 0);
    for (;;) {
      double weight = 1.0;
      uint64_t offset = 0;
      for (uint32_t i = 0; i < d; ++i) {
        const FastTarget& t = i == outer ? in[inner_j] : f.targets[i][pick[i]];
        if (t.multi_n == 0) {
          offset += t.offset;
          weight *= t.weight;
        } else {
          const auto& [off, w] = f.pool[t.multi_lo + epick[i]];
          offset += off;
          weight *= w;
        }
      }
      value += weight * data[offset];
      uint32_t i = d;
      bool advanced = false;
      while (i-- > 0) {
        const FastTarget& t = i == outer ? in[inner_j] : f.targets[i][pick[i]];
        const size_t size = t.multi_n == 0 ? 1 : t.multi_n;
        if (++epick[i] < size) {
          advanced = true;
          break;
        }
        epick[i] = 0;
      }
      if (!advanced) break;
    }
    return value;
  };
  bool have_block = false;
  uint64_t cur_block = 0;
  for (;;) {
    // Prefix over the outer dimensions (identity when d == 1). base_w is
    // exactly pre_w[d-2] of the reference chain, so base_w * t.weight below
    // reproduces the reference multiplication order.
    uint64_t base_block = 0, base_slot = 0, base_off = 0, base_gid = 0;
    double base_w = 1.0;
    bool base_final = true, base_single = true;
    if (outer > 0) {
      base_block = pre_block[outer - 1];
      base_slot = pre_slot[outer - 1];
      base_off = pre_off[outer - 1];
      base_gid = pre_gid[outer - 1] * f.dim_block_ids[outer].size();
      base_w = pre_w[outer - 1];
      base_final = pre_final[outer - 1] != 0;
      base_single = pre_single[outer - 1] != 0;
    }
    for (size_t j = 0; j < in_n; ++j) {
      const FastTarget& t = in[j];
      double value;
      if (base_single && t.multi_n == 0) [[likely]] {
        value = 0.0 + (base_w * t.weight) * data[base_off + t.offset];
      } else {
        value = generic_value(j);
      }
      if (skip_zero && value == 0.0) continue;
      const uint64_t block = base_block + t.block_c;
      if (!have_block || block != cur_block) {
        SS_RETURN_IF_ERROR(sink.Switch(block, base_gid + t.group));
        cur_block = block;
        have_block = true;
      }
      sink.Write(base_slot + t.slot_c, value,
                 construct && base_final && t.is_final);
    }
    uint32_t i = outer;
    bool advanced = false;
    while (i-- > 0) {
      if (++pick[i] < f.targets[i].size()) {
        advanced = true;
        refresh(i);
        break;
      }
      pick[i] = 0;
    }
    if (!advanced) break;
  }
  return Status::OK();
}

// Applies emitted writes directly through pinned per-block guards: each
// distinct destination block of the chunk is pinned once and all of its
// writes go through the pinned span — no per-op pool lookup (a one-entry
// cache catches the long same-block runs of the cross-product order) and no
// materialized plan. If the pool runs out of unpinned frames mid-apply the
// cache drops every guard and re-pins (values stay exact: each slot is
// written at most once per chunk apply, and released dirty frames are
// written back on eviction).
class GuardCacheSink {
 public:
  explicit GuardCacheSink(TiledStore* store) : store_(store) {}

  Status Switch(uint64_t block, uint64_t /*gid*/) {
    auto it = guards_.find(block);
    if (it == guards_.end()) {
      Result<PageGuard> guard = store_->PinBlock(block, /*for_write=*/true);
      if (!guard.ok() &&
          guard.status().code() == StatusCode::kResourceExhausted &&
          !guards_.empty()) {
        guards_.clear();
        guard = store_->PinBlock(block, /*for_write=*/true);
      }
      if (!guard.ok()) return guard.status();
      it = guards_.emplace(block, std::move(guard).value()).first;
    }
    span_ = it->second.span();
    return Status::OK();
  }

  void Write(uint64_t slot, double value, bool overwrite) {
    if (overwrite) {
      span_[slot] = value;
    } else {
      span_[slot] += value;
    }
    ++writes_;
  }

  // Releases the guards and books the coefficient writes (same accounting
  // as TiledStore::ApplyToBlock).
  void Finish() {
    guards_.clear();
    store_->manager().stats().coeff_writes += writes_;
    writes_ = 0;
  }

 private:
  TiledStore* store_;
  std::unordered_map<uint64_t, PageGuard> guards_;
  std::span<double> span_;
  uint64_t writes_ = 0;
};

// Dense-mode direct sink: pins the chunk's whole destination block set up
// front (every block of the cross product receives writes when zero writes
// are not skipped) and indexes the pinned spans by the enumerator's group
// rank, so a block switch is one array load — no hash lookups at all.
class SpanTableSink {
 public:
  explicit SpanTableSink(TiledStore* store) : store_(store) {}

  // Pins the cross product of per-dimension distinct block contributions in
  // ascending id order (= FastBlockSet order = group-rank order).
  // kResourceExhausted means the pool cannot hold the whole set at once; the
  // caller falls back to the materialized plan (the destructor releases any
  // partial pins).
  Status Pin(const FastStandard& f) {
    const uint32_t d = static_cast<uint32_t>(f.dim_block_ids.size());
    uint64_t count = 1;
    for (const std::vector<uint64_t>& ids : f.dim_block_ids) {
      count *= ids.size();
    }
    guards_.reserve(count);
    spans_.reserve(count);
    std::vector<size_t> g(d, 0);
    for (;;) {
      uint64_t block = 0;
      for (uint32_t i = 0; i < d; ++i) block += f.dim_block_ids[i][g[i]];
      SS_ASSIGN_OR_RETURN(PageGuard guard,
                          store_->PinBlock(block, /*for_write=*/true));
      spans_.push_back(guard.span());
      guards_.push_back(std::move(guard));
      uint32_t i = d;
      bool advanced = false;
      while (i-- > 0) {
        if (++g[i] < f.dim_block_ids[i].size()) {
          advanced = true;
          break;
        }
        g[i] = 0;
      }
      if (!advanced) break;
    }
    return Status::OK();
  }

  Status Switch(uint64_t /*block*/, uint64_t gid) {
    span_ = spans_[gid];
    return Status::OK();
  }

  void Write(uint64_t slot, double value, bool overwrite) {
    if (overwrite) {
      span_[slot] = value;
    } else {
      span_[slot] += value;
    }
    ++writes_;
  }

  // Releases the guards and books the coefficient writes (same accounting
  // as TiledStore::ApplyToBlock).
  void Finish() {
    guards_.clear();
    spans_.clear();
    store_->manager().stats().coeff_writes += writes_;
    writes_ = 0;
  }

 private:
  TiledStore* store_;
  std::vector<PageGuard> guards_;
  std::vector<std::span<double>> spans_;
  std::span<double> span_;
  uint64_t writes_ = 0;
};

// Enumerates every non-skipped write of the standard apply, in the fixed
// cross-product order. Emit signature:
//   Status emit(bool has_at, BlockSlot at, std::span<const uint64_t> address,
//               bool any_scaling_slot, double value, bool overwrite)
// `has_at` is true iff the layout is the standard tiling (at = Combine of the
// per-dim parts); otherwise the tuple address is passed and scaling-slot
// targets never occur.
template <typename Emit>
Status EnumerateStandard(const StandardContext& ctx,
                         const ApplyOptions& options, Emit&& emit) {
  const uint32_t d = ctx.d;
  const bool construct = options.mode == ApplyMode::kConstruct;
  const bool use_parts = ctx.std_tiling != nullptr;
  const std::span<const double> data = ctx.transformed.data();
  std::vector<size_t> pick(d, 0);
  std::vector<uint64_t> address(d);
  std::vector<BlockSlot> parts(d);
  std::vector<size_t> epick(d);
  for (;;) {
    bool is_final = true;
    bool any_scaling_slot = false;
    for (uint32_t i = 0; i < d; ++i) {
      const DimTarget& t = ctx.targets[i][pick[i]];
      is_final = is_final && t.final;
      any_scaling_slot = any_scaling_slot || t.scaling_slot;
      if (use_parts) {
        parts[i] = t.part;
      } else {
        address[i] = t.global_index;
      }
    }
    // Value: expansion-weighted sum of chunk-transform entries (expansion
    // entries carry pre-multiplied flat-offset contributions).
    double value = 0.0;
    std::fill(epick.begin(), epick.end(), 0);
    for (;;) {
      double weight = 1.0;
      uint64_t offset = 0;
      for (uint32_t i = 0; i < d; ++i) {
        const auto& [off, w] = ctx.targets[i][pick[i]].expansion()[epick[i]];
        offset += off;
        weight *= w;
      }
      value += weight * data[offset];
      uint32_t i = d;
      bool advanced = false;
      while (i-- > 0) {
        if (++epick[i] < ctx.targets[i][pick[i]].expansion_size()) {
          advanced = true;
          break;
        }
        epick[i] = 0;
      }
      if (!advanced) break;
    }

    const bool do_set = construct && is_final;
    const bool skip = options.skip_zero_writes && value == 0.0;
    if (!skip) {
      // Untouched coefficients read as zero when skipped; nothing to write.
      if (ctx.std_tiling != nullptr) {
        SS_RETURN_IF_ERROR(emit(true, ctx.std_tiling->Combine(parts), address,
                                any_scaling_slot, value, do_set));
      } else {
        SS_RETURN_IF_ERROR(
            emit(false, BlockSlot{}, address, any_scaling_slot, value,
                 do_set));
      }
    }

    uint32_t i = d;
    bool advanced = false;
    while (i-- > 0) {
      if (++pick[i] < ctx.targets[i].size()) {
        advanced = true;
        break;
      }
      pick[i] = 0;
    }
    if (!advanced) break;
  }
  return Status::OK();
}

// Validated + transformed inputs of one non-standard-form chunk apply.
struct NonstandardContext {
  uint32_t d = 0;
  uint32_t n = 0;
  uint32_t m = 0;
  Tensor transformed;
  std::vector<Tensor> pyramid;
  const NonstandardTiling* ns_tiling = nullptr;
};

Status PrepareNonstandard(const Tensor& chunk_data,
                          std::span<const uint64_t> chunk_pos,
                          uint32_t global_log_extent, const TileLayout& layout,
                          Normalization norm, NonstandardContext* ctx) {
  const TensorShape& shape = chunk_data.shape();
  const uint32_t d = shape.ndim();
  const uint32_t n = global_log_extent;
  if (!shape.IsCube()) {
    return Status::InvalidArgument("non-standard chunks must be hypercubes");
  }
  if (chunk_pos.size() != d) {
    return Status::InvalidArgument("dimensionality mismatch");
  }
  const uint32_t m = Log2(shape.dim(0));
  if (m > n) {
    return Status::InvalidArgument("chunk larger than the dataset");
  }
  for (uint64_t k : chunk_pos) {
    if (k >= (uint64_t{1} << (n - m))) {
      return Status::OutOfRange("chunk position beyond the global domain");
    }
  }

  ctx->d = d;
  ctx->n = n;
  ctx->m = m;
  ctx->transformed = chunk_data;
  ctx->ns_tiling = dynamic_cast<const NonstandardTiling*>(&layout);
  return ForwardNonstandardWithPyramid(&ctx->transformed, norm,
                                       &ctx->pyramid);
}

// Enumerates every non-skipped write of the non-standard apply. Emit
// signature:
//   Status emit(bool has_at, BlockSlot at, std::span<const uint64_t> address,
//               double value, bool overwrite)
// Scaling-slot writes arrive pre-located (has_at); all others carry the
// tuple address.
template <typename Emit>
Status EnumerateNonstandard(const NonstandardContext& ctx,
                            std::span<const uint64_t> chunk_pos,
                            Normalization norm, const ApplyOptions& options,
                            Emit&& emit) {
  const uint32_t d = ctx.d;
  const uint32_t n = ctx.n;
  const uint32_t m = ctx.m;
  const TensorShape& shape = ctx.transformed.shape();
  const bool construct = options.mode == ApplyMode::kConstruct;
  const uint64_t corners = uint64_t{1} << d;
  const double atten_d =
      std::pow(ScalingAttenuation(norm), static_cast<double>(d));

  // SHIFT: every local detail (all addresses except the all-zero root).
  std::vector<uint64_t> local(d, 0);
  std::vector<uint64_t> address(d);
  NsCoeffId id;
  do {
    bool is_root = true;
    for (uint64_t c : local) is_root = is_root && (c == 0);
    if (is_root) continue;
    const double value = ctx.transformed.At(local);
    if (options.skip_zero_writes && value == 0.0) continue;
    id = NsCoeffOfAddress(m, local);
    for (uint32_t i = 0; i < d; ++i) {
      id.node[i] += chunk_pos[i] << (m - id.level);
    }
    address = NsAddress(n, id);
    SS_RETURN_IF_ERROR(emit(false, BlockSlot{}, address, value, construct));
  } while (shape.Next(local));

  // SPLIT: the chunk average up the quadtree path.
  const double u_local = ctx.transformed[0];
  const bool skip_split = options.skip_zero_writes && u_local == 0.0;
  id.is_scaling = false;
  double magnitude = u_local;
  for (uint32_t j = m + 1; skip_split ? false : j <= n; ++j) {
    magnitude *= atten_d;
    uint64_t corner = 0;
    id.level = j;
    id.node.assign(d, 0);
    for (uint32_t i = 0; i < d; ++i) {
      id.node[i] = chunk_pos[i] >> (j - m);
      corner |= ((chunk_pos[i] >> (j - m - 1)) & 1u) << i;
    }
    for (uint64_t sigma = 1; sigma < corners; ++sigma) {
      id.subband = sigma;
      address = NsAddress(n, id);
      SS_RETURN_IF_ERROR(emit(false, BlockSlot{}, address,
                              NsSign(sigma, corner) * magnitude, false));
    }
  }
  // The overall average (all-zero address). magnitude == atten_d^(n-m)*u.
  if (!skip_split) {
    std::fill(address.begin(), address.end(), 0);
    SS_RETURN_IF_ERROR(emit(false, BlockSlot{}, address, magnitude, false));
  }

  // Redundant quadtree tile-root scaling slots.
  if (options.maintain_scaling_slots && ctx.ns_tiling != nullptr) {
    for (const auto& [level, node] :
         ctx.ns_tiling->ScalingNodesWithin(m, chunk_pos)) {
      if (level == n) continue;  // the overall average was split above
      SS_ASSIGN_OR_RETURN(const BlockSlot at,
                          ctx.ns_tiling->LocateScaling(level, node));
      std::vector<uint64_t> local_node(d);
      for (uint32_t i = 0; i < d; ++i) {
        local_node[i] = node[i] - (chunk_pos[i] << (m - level));
      }
      const double value = ctx.pyramid[level].At(local_node);
      SS_RETURN_IF_ERROR(emit(true, at, address, value, construct));
    }
    for (const auto& [level, node] :
         ctx.ns_tiling->ScalingNodesAbove(m, chunk_pos)) {
      if (level == n) continue;  // the overall average was split above
      SS_ASSIGN_OR_RETURN(const BlockSlot at,
                          ctx.ns_tiling->LocateScaling(level, node));
      const double delta =
          u_local * std::pow(atten_d, static_cast<double>(level - m));
      SS_RETURN_IF_ERROR(emit(true, at, address, delta, false));
    }
  }
  return Status::OK();
}

// Builds a plan from a prepared context: the fast mixed-radix enumeration
// when the layout is the standard cross-product tiling, the generic
// tuple-address enumeration (per-address Locate) otherwise.
Result<ChunkApplyPlan> PlanStandardFromContext(const StandardContext& ctx,
                                               const TileLayout& layout,
                                               const ApplyOptions& options) {
  PlanBuilder builder;
  if (ctx.std_tiling != nullptr) {
    const FastStandard fast = BuildFastStandard(ctx);
    SS_RETURN_IF_ERROR(FastEnumerateStandard(ctx, fast, options, builder));
    return std::move(builder).Finish();
  }
  SS_RETURN_IF_ERROR(EnumerateStandard(
      ctx, options,
      [&](bool has_at, BlockSlot at, std::span<const uint64_t> address,
          bool any_scaling_slot, double value, bool overwrite) -> Status {
        if (!has_at) {
          // (any_scaling_slot without the standard tiling cannot occur:
          // such targets are only generated when the tiling is present.)
          if (any_scaling_slot) return Status::OK();
          SS_ASSIGN_OR_RETURN(at, layout.Locate(address));
        }
        builder.Add(at.block, {at.slot, value, overwrite});
        return Status::OK();
      }));
  return std::move(builder).Finish();
}

}  // namespace

std::vector<uint64_t> ChunkApplyPlan::BlockIds() const {
  std::vector<uint64_t> ids;
  ids.reserve(blocks.size());
  for (const ChunkBlockOps& b : blocks) ids.push_back(b.block);
  return ids;
}

Status ApplyChunkPlan(const ChunkApplyPlan& plan, TiledStore* store,
                      bool prefetch) {
  if (store == nullptr) {
    return Status::InvalidArgument("store is required");
  }
  if (prefetch && !plan.blocks.empty()) {
    SS_RETURN_IF_ERROR(store->Prefetch(plan.BlockIds()));
  }
  for (const ChunkBlockOps& b : plan.blocks) {
    SS_RETURN_IF_ERROR(store->ApplyToBlock(b.block, b.ops));
  }
  return Status::OK();
}

Result<ChunkApplyPlan> PlanChunkStandard(const Tensor& chunk_data,
                                         std::span<const uint64_t> chunk_pos,
                                         std::span<const uint32_t>
                                             global_log_dims,
                                         const TileLayout& layout,
                                         Normalization norm,
                                         const ApplyOptions& options) {
  StandardContext ctx;
  SS_RETURN_IF_ERROR(PrepareStandard(chunk_data, chunk_pos, global_log_dims,
                                     layout, norm, options, &ctx));
  return PlanStandardFromContext(ctx, layout, options);
}

Result<ChunkApplyPlan> PlanChunkNonstandard(const Tensor& chunk_data,
                                            std::span<const uint64_t>
                                                chunk_pos,
                                            uint32_t global_log_extent,
                                            const TileLayout& layout,
                                            Normalization norm,
                                            const ApplyOptions& options) {
  NonstandardContext ctx;
  SS_RETURN_IF_ERROR(PrepareNonstandard(chunk_data, chunk_pos,
                                        global_log_extent, layout, norm,
                                        &ctx));
  PlanBuilder builder;
  SS_RETURN_IF_ERROR(EnumerateNonstandard(
      ctx, chunk_pos, norm, options,
      [&](bool has_at, BlockSlot at, std::span<const uint64_t> address,
          double value, bool overwrite) -> Status {
        if (!has_at) {
          SS_ASSIGN_OR_RETURN(at, layout.Locate(address));
        }
        builder.Add(at.block, {at.slot, value, overwrite});
        return Status::OK();
      }));
  return std::move(builder).Finish();
}

Status ApplyChunkStandard(const Tensor& chunk_data,
                          std::span<const uint64_t> chunk_pos,
                          std::span<const uint32_t> global_log_dims,
                          TiledStore* store, Normalization norm,
                          const ApplyOptions& options) {
  if (store == nullptr) {
    return Status::InvalidArgument("store is required");
  }
  if (options.batched) {
    StandardContext ctx;
    SS_RETURN_IF_ERROR(PrepareStandard(chunk_data, chunk_pos, global_log_dims,
                                       store->layout(), norm, options, &ctx));
    if (ctx.std_tiling != nullptr) {
      const FastStandard fast = BuildFastStandard(ctx);
      uint64_t block_count = 1;
      for (const std::vector<uint64_t>& ids : fast.dim_block_ids) {
        block_count *= ids.size();
      }
      if (block_count <= store->pool().capacity()) {
        // Direct batched apply: pin each distinct destination block once and
        // write through the pinned spans, no materialized plan.
        if (!options.skip_zero_writes) {
          // Dense: every block of the cross product is written, so pin the
          // whole set up front and switch blocks by rank.
          if (options.prefetch) {
            SS_RETURN_IF_ERROR(store->Prefetch(FastBlockSet(fast)));
          }
          SpanTableSink sink(store);
          const Status pinned = sink.Pin(fast);
          if (pinned.ok()) {
            SS_RETURN_IF_ERROR(
                FastEnumerateStandard(ctx, fast, options, sink));
            sink.Finish();
            return Status::OK();
          }
          if (pinned.code() != StatusCode::kResourceExhausted) return pinned;
          // Pool contention: fall through to the materialized plan.
        } else {
          // Sparse: pin lazily so blocks with only skipped zero writes are
          // never touched. No prefetch: the cross product would read them.
          GuardCacheSink sink(store);
          SS_RETURN_IF_ERROR(FastEnumerateStandard(ctx, fast, options, sink));
          sink.Finish();
          return Status::OK();
        }
      }
      // The pool cannot hold the chunk's whole block set at once: fall back
      // to a materialized plan applied one block at a time.
    }
    SS_ASSIGN_OR_RETURN(const ChunkApplyPlan plan,
                        PlanStandardFromContext(ctx, store->layout(), options));
    return ApplyChunkPlan(plan, store, options.prefetch);
  }
  StandardContext ctx;
  SS_RETURN_IF_ERROR(PrepareStandard(chunk_data, chunk_pos, global_log_dims,
                                     store->layout(), norm, options, &ctx));
  return EnumerateStandard(
      ctx, options,
      [&](bool has_at, BlockSlot at, std::span<const uint64_t> address,
          bool any_scaling_slot, double value, bool overwrite) -> Status {
        if (has_at) {
          return overwrite ? store->SetAt(at, value)
                           : store->AddAt(at, value);
        }
        // (any_scaling_slot without the standard tiling cannot occur: such
        // targets are only generated when the tiling is present.)
        if (any_scaling_slot) return Status::OK();
        return overwrite ? store->Set(address, value)
                         : store->Add(address, value);
      });
}

Status ApplyChunkNonstandard(const Tensor& chunk_data,
                             std::span<const uint64_t> chunk_pos,
                             uint32_t global_log_extent, TiledStore* store,
                             Normalization norm,
                             const ApplyOptions& options) {
  if (store == nullptr) {
    return Status::InvalidArgument("store is required");
  }
  if (options.batched) {
    SS_ASSIGN_OR_RETURN(
        const ChunkApplyPlan plan,
        PlanChunkNonstandard(chunk_data, chunk_pos, global_log_extent,
                             store->layout(), norm, options));
    return ApplyChunkPlan(plan, store, options.prefetch);
  }
  NonstandardContext ctx;
  SS_RETURN_IF_ERROR(PrepareNonstandard(chunk_data, chunk_pos,
                                        global_log_extent, store->layout(),
                                        norm, &ctx));
  return EnumerateNonstandard(
      ctx, chunk_pos, norm, options,
      [&](bool has_at, BlockSlot at, std::span<const uint64_t> address,
          double value, bool overwrite) -> Status {
        if (has_at) {
          return overwrite ? store->SetAt(at, value)
                           : store->AddAt(at, value);
        }
        return overwrite ? store->Set(address, value)
                         : store->Add(address, value);
      });
}

}  // namespace shiftsplit
