// Query processing over wavelet-transformed tile stores: point queries
// (Lemma 1) and range-sum queries (Lemma 2), for both decomposition forms.
//
// Two point-query strategies are provided:
//  * path mode — walk the full per-dimension root paths; touches one tile
//    per band and dimension (the allocation strategy's guarantee);
//  * scaling-slot mode — exploit the redundant subtree-root scaling stored
//    at slot 0 of every tile (paper §3): the reconstruction needs only the
//    deepest tile per dimension, i.e. a single block for a point query.

#ifndef SHIFTSPLIT_CORE_QUERY_H_
#define SHIFTSPLIT_CORE_QUERY_H_

#include <cstdint>
#include <span>

#include "shiftsplit/tile/tiled_store.h"
#include "shiftsplit/wavelet/haar.h"

namespace shiftsplit {

/// \brief Read-side merge hook: folds pending (buffered but not yet applied)
/// contributions into fetched coefficients. Implemented by the serving
/// layer's DeltaBuffer; a query evaluated with a non-null overlay answers as
/// if every pending delta were already applied to the store.
///
/// The standard-form evaluators call FoldBlock once per distinct block a
/// query touches, with every term that reads the block. It must reproduce
/// the store's own accumulation arithmetic: per slot, start from the stored
/// value and add each pending contribution with `+=` in arrival order — the
/// same floating-point chain ApplyToBlock would execute — so merged answers
/// are bit-identical to a fully-applied store. Implementations must be safe
/// to call from the querying thread while writers keep buffering (the
/// serving DeltaBuffer reads the stored slots and folds them in one critical
/// section of its lock).
class CoefficientOverlay {
 public:
  virtual ~CoefficientOverlay() = default;

  /// \brief Writes to merged[i] the coefficient at (block, slots[i]) with
  /// its pending contributions folded in, starting from stored[slots[i]] —
  /// or from 0.0 when `stored` is empty (a block the query skipped).
  virtual void FoldBlock(uint64_t block, std::span<const double> stored,
                         std::span<const uint64_t> slots,
                         std::span<double> merged) const = 0;
};

/// \brief Options shared by the query entry points.
struct QueryOptions {
  Normalization norm = Normalization::kAverage;
  /// Use the redundant tile-root scaling slots (requires the matching tree
  /// tiling layout and maintained slots). Falls back to path mode when the
  /// store's layout has no such slots.
  bool use_scaling_slots = false;
  /// Deadline / cancellation / retry budget for the query (not owned; may
  /// be null). Checked before each distinct block's pin, so a query past its
  /// deadline unwinds within one block read. Null: unbounded, as before.
  OperationContext* context = nullptr;
  /// Pending-delta merge hook (not owned; may be null). The standard-form
  /// point, range, batch and progressive evaluators fold it into every
  /// term, one CoefficientOverlay::FoldBlock per distinct block; null keeps
  /// the store-only semantics.
  const CoefficientOverlay* overlay = nullptr;
  /// The one switch between exact and degraded answers, in every layer —
  /// core evaluators, WaveletCube, ServingCube, ShardedCube and the wire:
  ///  * 0 (default) demands an exact answer: the first block that fails to
  ///    pin fails the query with that pin's own status.
  ///  * > 0: a block failing with a degradable code (checksum mismatch,
  ///    pin exhaustion, I/O or availability errors that outlasted their
  ///    retries, a deadline passing mid-query) skips every cross-product
  ///    term on it at once, each adding |w|·sqrt(E_block) to
  ///    DegradedResult::error_bound; every other code propagates. Under an
  ///    overlay each skipped term still contributes w times its pending
  ///    contributions folded into 0.0 — the pending deltas are in memory,
  ///    so the bound covers only the stored coefficient. A sharded router
  ///    additionally skips whole unavailable shards (see ShardedCube). If
  ///    the final bound is not <= max_error the query fails kUnavailable.
  /// Use +infinity for "any degraded answer beats no answer". Non-standard
  /// evaluators are exact-only: max_error > 0 is kUnimplemented there.
  double max_error = 0.0;

  /// True when the caller opted into approximate answers.
  bool approx_ok() const { return max_error > 0.0; }
};

/// \brief Why a query fell back to an approximate answer.
enum class DegradedReason {
  kNone = 0,        ///< the answer is exact
  kQuarantined,     ///< blocks failed checksum verification
  kPinExhaustion,   ///< the buffer pool was full of pinned frames
  kDeadline,        ///< the deadline passed mid-query
  kUnavailable,     ///< transient I/O or admission failures outlasted retries
  kShardUnavailable,  ///< whole shards were QUARANTINED/RECOVERING/FAILED
};

/// \brief Human-readable name of a DegradedReason (e.g. "Deadline").
const char* DegradedReasonToString(DegradedReason reason);

/// \brief Answer of a standard-form query: exact when no block was skipped
/// (always, under max_error == 0), otherwise the partial reconstruction
/// plus a hard error bound.
///
/// Every skipped cross-product term contributes |term weight| × sqrt(E_b)
/// to `error_bound`, where E_b is the skipped block's tracked energy
/// (TiledStore::EnableEnergyTracking) — sqrt(E_b) bounds the magnitude of
/// any coefficient in the block, the same Parseval argument behind
/// CompressedSynopsis error bounds. Without energy tracking the bound is
/// +infinity (degradation still answers, but unquantified).
struct DegradedResult {
  double value = 0.0;
  double error_bound = 0.0;     ///< |true answer − value| ≤ error_bound
  uint64_t blocks_missing = 0;  ///< distinct blocks skipped
  DegradedReason reason = DegradedReason::kNone;
  /// Shards skipped whole (sharded serving only; see
  /// ShardedCube::RangeSum(lo, hi, QueryOptions)). Each skipped shard's
  /// contribution to `error_bound` is the Cauchy–Schwarz bound
  /// sqrt(Π_d RangeWeightNormSquared) × sqrt(shard energy) plus the
  /// absolute mass of its unapplied deltas.
  std::vector<uint32_t> shards_missing;

  bool exact() const { return reason == DegradedReason::kNone; }
};

/// \brief The value of an answer evaluated with max_error == 0 (which is
/// always exact), or its error — the bridge from the DegradedResult entry
/// points to the exact Result<double> overloads.
inline Result<double> ExactValue(const Result<DegradedResult>& answer) {
  if (!answer.ok()) return answer.status();
  return answer->value;
}

/// \brief Enforces the max_error contract on a finished answer: OK when
/// its error bound is within options.max_error, otherwise kUnavailable
/// naming `query` (e.g. "range sum") and both numbers.
Status CheckErrorBound(const DegradedResult& answer,
                       const QueryOptions& options, const char* query);

/// \brief Value of the data point `point` from a standard-form store; see
/// QueryOptions::max_error for when the answer may be degraded.
Result<DegradedResult> PointQueryStandard(TiledStore* store,
                                          std::span<const uint32_t> log_dims,
                                          std::span<const uint64_t> point,
                                          const QueryOptions& options = {});

/// \brief Value of the data point from a non-standard-form store (cube of
/// edge 2^n).
Result<double> PointQueryNonstandard(TiledStore* store, uint32_t n,
                                     std::span<const uint64_t> point,
                                     const QueryOptions& options = {});

/// \brief Batch of point queries with block-locality scheduling: every
/// point is validated (dimensionality and domain) before any I/O, then in
/// scaling-slot mode the points are evaluated grouped by their deepest
/// tile, so each data block is fetched once per group regardless of the
/// input order. Each point is its own query under options.max_error (a
/// degradable failure degrades only its point). Results are in input order.
Result<std::vector<DegradedResult>> BatchPointQueryStandard(
    TiledStore* store, std::span<const uint32_t> log_dims,
    const std::vector<std::vector<uint64_t>>& points,
    const QueryOptions& options = {});

/// \brief Sum of the data over the inclusive box [lo, hi] from a
/// standard-form store, touching O((2 log N + 1)^d) coefficients (Lemma 2);
/// see QueryOptions::max_error for when the answer may be degraded.
Result<DegradedResult> RangeSumStandard(TiledStore* store,
                                        std::span<const uint32_t> log_dims,
                                        std::span<const uint64_t> lo,
                                        std::span<const uint64_t> hi,
                                        const QueryOptions& options = {});

/// \brief Range-sum from a non-standard-form store: recursive descent over
/// the quadtree, visiting only nodes whose support crosses the box boundary.
Result<double> RangeSumNonstandard(TiledStore* store, uint32_t n,
                                   std::span<const uint64_t> lo,
                                   std::span<const uint64_t> hi,
                                   const QueryOptions& options = {});

/// \brief Clips the inclusive box [lo, hi] to the slab
/// `slab_lo <= x[dim] <= slab_hi` along dimension `dim`. Returns false when
/// the box and the slab are disjoint; otherwise writes the clipped inclusive
/// bounds (equal to the input bounds in every other dimension). The serving
/// layer's shard router uses this to decompose a range sum into exact
/// per-shard sub-ranges: a box clipped to a dyadic sub-domain lies entirely
/// inside that sub-domain, so the sub-domain's self-contained transform
/// answers it exactly and the global sum is the sum of the parts.
bool ClipBoxToSlab(std::span<const uint64_t> lo, std::span<const uint64_t> hi,
                   uint32_t dim, uint64_t slab_lo, uint64_t slab_hi,
                   std::vector<uint64_t>* clipped_lo,
                   std::vector<uint64_t>* clipped_hi);

/// \brief The per-dimension aggregate weight with which the 1-d coefficient
/// at `index` contributes to the sum over [lo, hi] (inclusive): the sum of
/// its reconstruction weights over the interval. Zero for details fully
/// inside or outside the range (the 0-th vanishing moment of Lemma 2).
double RangeSumWeight(uint32_t n, uint64_t index, uint64_t lo, uint64_t hi,
                      Normalization norm);

/// \brief Σ w² of every 1-d coefficient's aggregate Lemma-2 weight over
/// [lo, hi] (inclusive, lo == hi gives the point-reconstruction weights).
/// Only the overall scaling coefficient and the ≤2 boundary-crossing
/// details per level have nonzero weight (0-th vanishing moment), so this
/// is O(log N) — no I/O.
///
/// Powers the skipped-shard error bound of degraded cross-shard queries:
/// a standard-form range sum is Σ over cross-product terms of
/// (Π_d w_d) × c_term, so by Cauchy–Schwarz its magnitude is at most
/// sqrt(Π_d RangeWeightNormSquared(n_d, lo_d, hi_d)) × sqrt(Σ c²) — the
/// per-dimension weight norms times the store's total coefficient energy
/// (TiledStore::TotalEnergyCeiling).
double RangeWeightNormSquared(uint32_t n, uint64_t lo, uint64_t hi,
                              Normalization norm);

/// \brief One refinement step of a progressive range sum.
struct ProgressiveEstimate {
  uint32_t depth = 0;            ///< coefficients down to this tree depth
  double estimate = 0.0;         ///< running estimate after this round
  uint64_t coefficients_read = 0;  ///< cumulative coefficient reads
};

/// \brief Progressive range-sum evaluation (the "progressive answers" use
/// of wavelets the paper's introduction cites): the Lemma-2 contributions
/// are consumed coarse-to-fine (by total tree depth of the coefficient
/// tuple), and the running estimate is reported after each depth. The last
/// estimate is RangeSumStandard's answer summed in depth order instead of
/// term order, so the two can differ in the last bits. Exact only: the
/// first block that fails to pin fails the call, whatever options.max_error
/// says.
Result<std::vector<ProgressiveEstimate>> ProgressiveRangeSumStandard(
    TiledStore* store, std::span<const uint32_t> log_dims,
    std::span<const uint64_t> lo, std::span<const uint64_t> hi,
    const QueryOptions& options = {});

/// \brief Non-standard-form progressive range sum: the quadtree descent of
/// RangeSumNonstandard reported level by level (depth = n - level), exact
/// after the last round.
Result<std::vector<ProgressiveEstimate>> ProgressiveRangeSumNonstandard(
    TiledStore* store, uint32_t n, std::span<const uint64_t> lo,
    std::span<const uint64_t> hi, const QueryOptions& options = {});

}  // namespace shiftsplit

#endif  // SHIFTSPLIT_CORE_QUERY_H_
