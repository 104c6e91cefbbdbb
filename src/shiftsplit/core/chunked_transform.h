// I/O-efficient transformation of massive multidimensional datasets
// (paper §5.1, Figure 9, Results 1 and 2): stream the dataset chunk by
// chunk (each chunk small enough for memory), transform each chunk
// in-memory, SHIFT its details into place and SPLIT its average into the
// still-open covering coefficients.
//
// Standard form (Result 1): O((N/M)^d ((M/B)^d + per-chunk path)) blocks.
// Non-standard form (Result 2): with z-order chunk traversal the covering
// path stays resident across consecutive chunks, reaching the optimal
// O((N/B)^d) blocks.

#ifndef SHIFTSPLIT_CORE_CHUNKED_TRANSFORM_H_
#define SHIFTSPLIT_CORE_CHUNKED_TRANSFORM_H_

#include "shiftsplit/core/shift_split.h"
#include "shiftsplit/data/dataset.h"
#include "shiftsplit/storage/io_stats.h"
#include "shiftsplit/tile/tiled_store.h"

namespace shiftsplit {

/// \brief Options for the chunked transformation.
struct TransformOptions {
  Normalization norm = Normalization::kAverage;
  /// Maintain the redundant tile-root scaling slots (paper §3).
  bool maintain_scaling_slots = true;
  /// Visit chunks in z-order (Result 2's access pattern) instead of
  /// row-major order. With z-order, consecutive chunks share most of their
  /// covering path, so the split targets stay in the buffer pool.
  bool zorder = false;
  /// Sparse-data mode (§5.1's modification for z non-zero values): all-zero
  /// chunks are skipped outright and zero coefficients are never written,
  /// giving O(z + z log(N/z))-style coefficient I/O on clustered data.
  bool sparse = false;
  /// Tile-batched apply: each chunk's writes are grouped by destination
  /// block and applied with one buffer-pool GetBlock per distinct block
  /// (instead of one per coefficient). Bit-identical results; false selects
  /// the per-coefficient reference path.
  bool batched = true;
  /// Warm the buffer pool with each chunk's exact block set in one vectored
  /// device read before applying it (batched path only; see
  /// ApplyOptions::prefetch for the single-thread sparse case).
  bool prefetch = false;
  /// Worker threads for the ingest pipeline. Workers read, transform and
  /// plan chunks concurrently; plans commit to the store strictly in chunk
  /// order, so any thread count produces a byte-identical store (floating-
  /// point accumulation order never changes). Values > 1 require `batched`.
  uint32_t num_threads = 1;
  /// By default the worker count is additionally clamped to the hardware
  /// concurrency — oversubscribing a CPU-bound pipeline only adds scheduling
  /// overhead. Set true to force exactly `num_threads` workers (tests use
  /// this to exercise the ordered-commit machinery on any machine).
  bool oversubscribe = false;
};

/// \brief Outcome counters of a chunked transformation.
struct TransformResult {
  IoStats store_io;     ///< block/coefficient I/O on the coefficient store
  uint64_t cells_read = 0;  ///< data cells streamed from the source
  uint64_t chunks = 0;      ///< number of chunks processed
};

/// \brief Transforms `source` into the standard form on `store`, streaming
/// hyper-rectangular chunks of per-dimension log2 extents
/// min(log_chunk, log_dim_i).
Result<TransformResult> TransformDatasetStandard(ChunkSource* source,
                                                 uint32_t log_chunk,
                                                 TiledStore* store,
                                                 const TransformOptions&
                                                     options = {});

/// \brief Transforms `source` (a hypercube) into the non-standard form on
/// `store`, streaming cubic chunks of edge 2^log_chunk.
Result<TransformResult> TransformDatasetNonstandard(ChunkSource* source,
                                                    uint32_t log_chunk,
                                                    TiledStore* store,
                                                    const TransformOptions&
                                                        options = {});

}  // namespace shiftsplit

#endif  // SHIFTSPLIT_CORE_CHUNKED_TRANSFORM_H_
