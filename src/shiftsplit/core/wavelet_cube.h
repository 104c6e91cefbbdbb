// WaveletCube — the one-stop facade over a disk-resident wavelet-transformed
// dataset. It bundles a tile layout, a block device (in-memory or file), a
// buffer pool and a manifest, and dispatches every maintenance and query
// operation to the right decomposition-form implementation:
//
//   auto cube = WaveletCube::CreateOnDisk("/data/cube", {5,5,3,6}, options);
//   cube->Ingest(&dataset, /*log_chunk=*/3);
//   double v   = *cube->PointQuery({16, 20, 0, 31});
//   double sum = *cube->RangeSum({0,0,0,0}, {31,31,0,63});
//   cube->Update(deltas, /*origin=*/{4, 8, 0, 16});
//   Tensor box = *cube->Extract({0,0,0,0}, {7,7,0,0});
//
// File-backed cubes are self-describing (storage/manifest.h) and reopen with
// WaveletCube::OpenOnDisk.

#ifndef SHIFTSPLIT_CORE_WAVELET_CUBE_H_
#define SHIFTSPLIT_CORE_WAVELET_CUBE_H_

#include <memory>
#include <string>

#include "shiftsplit/core/approx.h"
#include "shiftsplit/core/chunked_transform.h"
#include "shiftsplit/core/query.h"
#include "shiftsplit/storage/manifest.h"
#include "shiftsplit/tile/tiled_store.h"

namespace shiftsplit {

/// \brief Facade over one wavelet-transformed dataset.
class WaveletCube {
 public:
  struct Options {
    StoreForm form = StoreForm::kStandard;
    Normalization norm = Normalization::kAverage;
    uint32_t b = 2;              ///< log2 tile edge
    uint64_t pool_blocks = 256;  ///< buffer-pool budget
    /// Manifest format for CreateOnDisk: 2 (default) gives per-block CRC32C
    /// footers, an atomic-commit journal, and crash recovery on open; 1
    /// writes the legacy raw format. Ignored for in-memory cubes.
    uint32_t format_version = 2;
    /// XOR parity group size for CreateOnDisk: every `parity_group`
    /// consecutive device blocks share one parity stride in blocks.bin.parity,
    /// letting any single corrupt block per group be rebuilt in place
    /// (inline on read, or by a repair scrub). 0 (default) disables parity;
    /// nonzero requires checksums (format_version >= 2) and stamps the
    /// manifest as v3. Ignored for in-memory cubes.
    uint64_t parity_group = 0;
    /// Test seam for CreateInMemory: back the cube with this externally
    /// owned block device (e.g. a fault-injection decorator over a
    /// MemoryBlockManager) instead of a fresh one. Must outlive the cube and
    /// have block_size == the layout's block capacity. Ignored on disk.
    BlockManager* device = nullptr;
  };

  /// \brief Creates an empty in-memory cube.
  static Result<std::unique_ptr<WaveletCube>> CreateInMemory(
      std::vector<uint32_t> log_dims, const Options& options);

  /// \brief Creates an empty file-backed cube in `dir` (store.manifest +
  /// blocks.bin).
  static Result<std::unique_ptr<WaveletCube>> CreateOnDisk(
      const std::string& dir, std::vector<uint32_t> log_dims,
      const Options& options);

  /// \brief Reopens a file-backed cube from its manifest.
  static Result<std::unique_ptr<WaveletCube>> OpenOnDisk(
      const std::string& dir, uint64_t pool_blocks = 256);

  /// \brief Streams a dataset into the cube chunk by chunk (Results 1-2).
  Status Ingest(ChunkSource* source, uint32_t log_chunk,
                const TransformOptions* options = nullptr);

  /// \brief Value of one data point. Defaults to the single-block
  /// scaling-slot strategy when the layout supports it. A non-null `ctx`
  /// threads a deadline / cancellation / retry budget through every block
  /// fetch (all query entry points alike).
  Result<double> PointQuery(std::span<const uint64_t> point,
                            bool use_scaling_slots = true,
                            OperationContext* ctx = nullptr);

  /// \brief Sum of the inclusive box [lo, hi] (Lemma 2).
  Result<double> RangeSum(std::span<const uint64_t> lo,
                          std::span<const uint64_t> hi,
                          OperationContext* ctx = nullptr);

  /// \brief Point query under `options` (the cube's own norm replaces
  /// options.norm). options.max_error > 0 lets quarantined blocks, pin
  /// exhaustion, transient I/O beyond the retry budget and mid-query
  /// deadlines degrade the answer instead of failing it (see
  /// QueryOptions::max_error); call EnableEnergyTracking() first for finite
  /// bounds. Non-standard-form cubes answer exactly only (max_error > 0 is
  /// kUnimplemented).
  Result<DegradedResult> PointQuery(std::span<const uint64_t> point,
                                    const QueryOptions& options);

  /// \brief Range sum under `options`; see the QueryOptions PointQuery.
  Result<DegradedResult> RangeSum(std::span<const uint64_t> lo,
                                  std::span<const uint64_t> hi,
                                  const QueryOptions& options);

  /// \brief Builds the per-block energy index that gives degraded answers
  /// finite error bounds (one full scan; see
  /// TiledStore::EnableEnergyTracking).
  Status EnableEnergyTracking() { return store_->EnableEnergyTracking(); }

  /// \brief Reconstructs the inclusive box [lo, hi] (Result 6); the tensor
  /// extents are the box extents rounded up to powers of two.
  Result<Tensor> Extract(std::span<const uint64_t> lo,
                         std::span<const uint64_t> hi,
                         OperationContext* ctx = nullptr);

  /// \brief Adds `deltas` (anchored at `origin`) in the wavelet domain
  /// (Example 2).
  Status Update(const Tensor& deltas, std::span<const uint64_t> origin);

  /// \brief K-term compression of the whole cube (standard form only).
  Result<CompressedSynopsis> Compress(uint64_t k);

  /// \brief Writes dirty blocks back (and fsyncs file-backed devices).
  /// An atomic multi-block commit for v2 on-disk cubes.
  Status Flush();

  /// \brief Flushes and syncs, propagating the first failure (the
  /// destructor can only write back best-effort). Call before dropping a
  /// cube whose contents matter; idempotent.
  Status Close();

  /// \brief Verifies every on-disk block's checksum; returns the corrupt
  /// block ids (empty = clean). Corruption flips the store to read-only
  /// with quarantined blocks read as zeros. v1/in-memory cubes are
  /// trivially clean.
  Result<std::vector<uint64_t>> Scrub();

  /// \brief Repair-mode scrub: corrupt blocks are rebuilt in place from
  /// group parity (v3 cubes) instead of quarantined; only double faults —
  /// two corrupt blocks in one parity group — stay unrepairable and degrade
  /// the store to read-only. See TiledStore::ScrubRepair.
  Result<ScrubReport> ScrubRepair();

  /// \brief Upgrades an existing checksummed (v2) on-disk store to v3 with
  /// parity group size `parity_group`: opens the store with parity enabled
  /// (creating a zeroed blocks.bin.parity sidecar), runs one full repair
  /// scrub — which rewrites every group's stale parity from the verified
  /// data — and only then stamps the manifest v3. A crash mid-upgrade
  /// leaves a valid v2 store; rerunning completes it. Fails without
  /// touching the manifest if the scrub finds unrepairable corruption.
  static Status UpgradeParityOnDisk(const std::string& dir,
                                    uint64_t parity_group,
                                    uint64_t pool_blocks = 256);

  /// \brief Checksum/journal/recovery counters (see DurabilityStats).
  DurabilityStats durability_stats() const {
    return store_->durability_stats();
  }

  const StoreManifest& manifest() const { return manifest_; }
  TiledStore* store() { return store_.get(); }
  const IoStats& stats() const { return store_->stats(); }
  /// Buffer-pool behaviour (hit rate, evictions, write-backs, pins).
  BufferPool::Stats pool_stats() const { return store_->pool_stats(); }
  const std::vector<uint32_t>& log_dims() const {
    return manifest_.log_dims;
  }

 private:
  WaveletCube() = default;

  Status OpenStore(uint64_t pool_blocks, BlockManager* borrowed = nullptr);

  StoreManifest manifest_;
  std::string dir_;  // empty for in-memory cubes
  std::unique_ptr<BlockManager> device_;  // null when the device is borrowed
  std::unique_ptr<TiledStore> store_;
};

}  // namespace shiftsplit

#endif  // SHIFTSPLIT_CORE_WAVELET_CUBE_H_
