// The SHIFT and SPLIT operations, one-dimensional form (paper §4).
//
// Let a be a vector of size N = 2^n and b its (k+1)-th dyadic sub-range of
// size M = 2^m. The transform of b relates to the transform of a by:
//   SHIFT — the M-1 detail coefficients of b appear verbatim in the
//           transform of a at translated indices (ShiftIndex);
//   SPLIT — the average of b contributes (with alternating sign and
//           geometric attenuation) to the n-m details on the path from
//           w_{m,k} to the root, and to the overall average.
//
// This file provides the in-memory forms (used by the stream synopses and
// as the correctness oracle) and the tile-store forms, which additionally
// maintain the redundant subtree-root scaling slots of the paper's block
// allocation strategy (§3).

#ifndef SHIFTSPLIT_CORE_SHIFT_SPLIT_H_
#define SHIFTSPLIT_CORE_SHIFT_SPLIT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "shiftsplit/tile/tiled_store.h"
#include "shiftsplit/wavelet/haar.h"

namespace shiftsplit {

/// \brief One SPLIT contribution: add `delta` to the coefficient at flat
/// wavelet index `index`.
struct SplitContribution {
  uint64_t index;
  double delta;

  bool operator==(const SplitContribution&) const = default;
};

/// \brief How chunk coefficients are applied to an existing transform.
enum class ApplyMode {
  kConstruct,  ///< chunk holds fresh data: shifted details are final (Set)
  kUpdate,     ///< chunk holds deltas: everything accumulates (Add)
};

/// \brief Options for the tile-store apply operations.
struct ApplyOptions {
  ApplyMode mode = ApplyMode::kConstruct;
  /// Maintain the redundant subtree-root scaling slots (only meaningful for
  /// tree tilings; ignored — no such slots exist — for naive layouts).
  bool maintain_scaling_slots = true;
  /// Skip writes of exactly-zero values — the paper's sparse-data
  /// modification (§5.1: "O(z + z log(N/z))" for z non-zero values). Safe
  /// because untouched coefficients read as zero; in kConstruct mode this
  /// assumes the written region starts zeroed (fresh store or expansion).
  bool skip_zero_writes = false;
  /// Tile-batched apply (md_shift_split only): group the chunk's writes by
  /// destination block, pin each block once and write through the pinned
  /// span, visiting blocks in layout order — one GetBlock per distinct block
  /// instead of one per coefficient. Produces bit-identical stores; set to
  /// false for the per-coefficient reference path.
  bool batched = true;
  /// Warm the buffer pool with the chunk's exact block set in one vectored
  /// read before applying (batched path only; a sparse apply whose blocks
  /// fit the pool pins lazily instead and reads only the blocks it writes).
  bool prefetch = false;
};

/// \brief SPLIT (paper Definition of SPLIT): contributions of the sub-range's
/// scaling coefficient `chunk_scaling` (the level-m average in the chosen
/// normalization) to the transform of the size-2^n vector. Returns n-m+1
/// contributions: levels m+1..n, then the overall average (index 0).
std::vector<SplitContribution> Split1D(uint32_t n, uint32_t m, uint64_t chunk_k,
                                       double chunk_scaling,
                                       Normalization norm);

/// \brief Expansion of the scaling coefficient u_{level,pos} of a transform
/// of size 2^m as a linear combination of that transform's entries: pairs of
/// (flat index, weight), where flat index 0 is the transform's own scaling
/// coefficient. `pos` is the position within the *local* tree.
///
/// This is the inverse-cascade identity
///   u_{r,q} = g^(m-r) u_m + sum_{j in (r,m]} (+-) g^(j-r) w_{j,...}
/// with g = ReconstructionAttenuation(norm) (1 for kAverage, 1/sqrt2 for
/// kOrthonormal), used by the redundant-scaling maintenance and the partial
/// reconstruction.
std::vector<std::pair<uint64_t, double>> ScalingExpansion(uint32_t m,
                                                          uint32_t level,
                                                          uint64_t pos,
                                                          Normalization norm);

/// \brief In-memory SHIFT-SPLIT apply: merges the transform of the (k+1)-th
/// dyadic chunk (`chunk_transform`, size 2^m) into the transform of the whole
/// vector (`global_transform`, size 2^n). In kConstruct mode the shifted
/// details overwrite; in kUpdate mode everything accumulates.
Status ApplyChunk1D(std::span<const double> chunk_transform, uint32_t n,
                    uint64_t chunk_k, std::span<double> global_transform,
                    Normalization norm,
                    ApplyMode mode = ApplyMode::kConstruct);

/// \brief Full 1-d Haar scaling pyramid: pyramid[j] holds the 2^(m-j)
/// scaling coefficients of level j (pyramid[0] is the input data). Also
/// leaves the complete transform in `transform` (size 2^m, wavelet order).
Status HaarPyramid(std::span<const double> data, Normalization norm,
                   std::vector<std::vector<double>>* pyramid,
                   std::vector<double>* transform);

/// \brief Tile-store SHIFT-SPLIT apply (Example 1 / Example 2 of the paper):
/// transforms the chunk `chunk_data` (the (k+1)-th dyadic range of the
/// size-2^n dataset) and applies it to the store with O(M/B + log_B(N/M))
/// block I/O. Maintains redundant scaling slots when the store uses the
/// 1-d tree tiling.
Status TransformAndApplyChunk1D(std::span<const double> chunk_data, uint32_t n,
                                uint64_t chunk_k, TiledStore* store,
                                Normalization norm,
                                const ApplyOptions& options = {});

}  // namespace shiftsplit

#endif  // SHIFTSPLIT_CORE_SHIFT_SPLIT_H_
