// Disk-resident store of a wavelet-transformed dataset: a TileLayout mapping
// coefficient addresses to (block, slot) positions, served through a
// BufferPool with a bounded memory budget. Every coefficient access is
// counted, giving the I/O measurements all experiments report.

#ifndef SHIFTSPLIT_TILE_TILED_STORE_H_
#define SHIFTSPLIT_TILE_TILED_STORE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "shiftsplit/storage/buffer_pool.h"
#include "shiftsplit/storage/journal.h"
#include "shiftsplit/tile/tile_layout.h"
#include "shiftsplit/util/operation_context.h"

namespace shiftsplit {

/// \brief One coefficient write of a batched (per-block) apply.
struct SlotUpdate {
  uint64_t slot = 0;
  double value = 0.0;
  bool overwrite = false;  ///< true: slot = value (SHIFT); false: slot += value
};

/// \brief Coefficient store over tiles.
class TiledStore {
 public:
  /// \brief Creates a store; resizes `manager` to the layout's block count.
  /// The manager's block size must equal the layout's block capacity.
  ///
  /// \param pool_blocks buffer-pool budget in blocks (>= 1)
  static Result<std::unique_ptr<TiledStore>> Create(
      std::unique_ptr<TileLayout> layout, BlockManager* manager,
      uint64_t pool_blocks);

  /// \brief Opens a store with crash recovery: any incomplete atomic commit
  /// left in `journal` is replayed or rolled back before the first access
  /// (see storage/journal.h), and the journal stays attached so every
  /// Flush()/Close() becomes an atomic multi-block commit
  /// (BufferPool::FlushAtomic).
  ///
  /// If recovery itself fails (the device rejects the replay writes), the
  /// store opens *read-only* with degraded reads: quarantined blocks are
  /// served as zeros, every write fails, and durability_stats() reports the
  /// degradation — the salvage mode for pulling data off a damaged store.
  static Result<std::unique_ptr<TiledStore>> Open(
      std::unique_ptr<TileLayout> layout, BlockManager* manager,
      uint64_t pool_blocks, std::unique_ptr<Journal> journal);

  /// \brief Reads the coefficient at a tuple address. A non-null `ctx`
  /// threads a deadline / cancellation / retry budget down to the device
  /// read (see OperationContext); null keeps the pre-resilience semantics.
  Result<double> Get(std::span<const uint64_t> address,
                     OperationContext* ctx = nullptr);

  /// \brief Writes the coefficient at a tuple address.
  Status Set(std::span<const uint64_t> address, double value);

  /// \brief Adds `delta` to the coefficient at a tuple address (the SPLIT
  /// accumulation primitive).
  Status Add(std::span<const uint64_t> address, double delta);

  /// \brief Physical-slot access (for pre-located positions such as the
  /// redundant scaling slots).
  Result<double> GetAt(BlockSlot at, OperationContext* ctx = nullptr);
  Status SetAt(BlockSlot at, double value);
  Status AddAt(BlockSlot at, double delta);

  /// \brief Pins `block` for reading `coeffs` of its coefficients through
  /// the guard, each counted as one coefficient read — the block-at-a-time
  /// read of the query evaluators (GetAt is its one-coefficient case).
  Result<PageGuard> PinForRead(uint64_t block, uint64_t coeffs,
                               OperationContext* ctx = nullptr);

  /// \brief Pins a whole tile for bulk access. The returned guard keeps the
  /// frame valid (never an eviction victim) until it is released, so callers
  /// may hold several tiles at once — bounded by the pool capacity, beyond
  /// which GetBlock fails with ResourceExhausted. Pinning for write
  /// invalidates the block's energy-index entry (see EnableEnergyTracking):
  /// writes through the pinned span bypass per-coefficient accounting.
  Result<PageGuard> PinBlock(uint64_t block, bool for_write,
                             OperationContext* ctx = nullptr);

  /// \brief Bulk write: pins `block` once and applies every SlotUpdate
  /// through the pinned span (one GetBlock for the whole batch; each update
  /// is counted as one coefficient write).
  Status ApplyToBlock(uint64_t block, std::span<const SlotUpdate> ops);

  /// \brief Warms the buffer pool with the exact block set a batched apply
  /// will touch (one vectored device read; see BufferPool::Prefetch for the
  /// eviction contract).
  Status Prefetch(std::span<const uint64_t> blocks,
                  OperationContext* ctx = nullptr);

  // ---- Journal-first staged commit (the serving drain) -------------------
  // Stage the present images of a batch's blocks, edit them privately,
  // journal the result, then install block by block. No step holds a
  // pool shard's mutex across device I/O, and no block reaches the device
  // before the batch's journal record is durable.

  /// \brief One block of a staged commit: `present` is the image the store
  /// holds now, `image` the image the commit installs, `energy_delta` the
  /// change of the block's tracked energy that the install applies.
  struct StagedBlock {
    uint64_t block = 0;
    std::vector<double> present;
    std::vector<double> image;
    double energy_delta = 0.0;
  };

  /// \brief Stages `blocks` (ascending, distinct): a resident block copies
  /// its frame, the absent ones are read in one vectored device read with
  /// no pool lock held. `image` starts equal to `present`.
  Result<std::vector<StagedBlock>> StageBlocks(
      std::span<const uint64_t> blocks);

  /// \brief ApplyToBlock's arithmetic on a staged image: the same per-slot
  /// `+=` chain and coefficient-write counting, with no pool access. The
  /// energy change accumulates in `staged.energy_delta`; the index moves
  /// only when InstallStaged installs the block, so a batch abandoned
  /// before its install leaves the index as it was.
  Status ApplyToStaged(StagedBlock& staged, std::span<const SlotUpdate> ops);

  /// \brief Makes the staged batch durable before any block changes: one
  /// journal record with the new images and the parity they imply
  /// (Journal::AppendWithParity). A no-op without a journal (in-memory
  /// stores).
  Status JournalStaged(std::span<const StagedBlock> staged);

  /// \brief Called by InstallStaged once per block with its frame pinned.
  /// It must call `swap` — which copies the new image into the frame and
  /// moves the block's tracked energy — inside the critical section that
  /// retires whatever the frame's readers fold on top of it.
  using InstallFn = std::function<void(uint64_t block,
                                       const std::function<void()>& swap)>;

  /// \brief Installs a journaled batch block by block: pins the block's
  /// frame (an absent block becomes resident from its present image, with
  /// no device read), calls `install`, writes the image in place with no
  /// lock held — the pin keeps readers off the stale device image — and
  /// unpins the frame clean. Then syncs the device and retires the journal
  /// record (Journal::Complete; skipped without a journal). After a
  /// failure the frames stay clean and the journal still holds the whole
  /// batch: reopening replays it.
  Status InstallStaged(std::span<const StagedBlock> staged,
                       const InstallFn& install);

  /// \brief Test hook, in the style of Journal::set_hook: InstallStaged
  /// calls it before each block's in-place write, and a non-OK status
  /// fails that write as the device would, after the frame took the new
  /// image. Set it while no drain runs; production stores have none.
  using InstallWriteHook = std::function<Status(uint64_t block)>;
  void set_install_write_hook_for_test(InstallWriteHook hook) {
    install_write_hook_ = std::move(hook);
  }

  /// \brief Builds the per-block energy index: one full scan recording each
  /// block's sum of squared coefficients, then maintained exactly by the
  /// per-coefficient write paths (Set/Add/ApplyToBlock track new² − old²).
  /// Bulk writes through PinBlock(for_write) bypass the accounting and
  /// invalidate the block's entry to +infinity — conservative, never wrong.
  /// The scan is best-effort: a block that cannot be read (corrupt,
  /// quarantined, device failure) keeps the +infinity ceiling instead of
  /// failing the call, so degradation still works on damaged stores.
  ///
  /// The index powers graceful degradation: sqrt(E_b) bounds the magnitude
  /// of any single coefficient in block b, so a query that skips a block can
  /// bound the error it introduced (core/query.h, DegradedResult).
  Status EnableEnergyTracking();

  bool energy_tracking() const {
    return energy_tracking_.load(std::memory_order_relaxed);
  }

  /// \brief Upper bound on |coefficient| for any slot of `block`:
  /// sqrt(block energy). +infinity when tracking is off or the entry was
  /// invalidated by a bulk write.
  double BlockEnergyCeiling(uint64_t block) const;

  /// \brief sqrt of the store's total tracked energy, Σ over all blocks of
  /// Σ c². Bounds the ℓ2 norm of every coefficient subset at once, so a
  /// query that skips this entire store (a quarantined shard) can bound the
  /// answer mass it lost by Cauchy–Schwarz (see
  /// core/query.h, RangeWeightNormSquared). +infinity when tracking is off
  /// or any block's entry was invalidated.
  double TotalEnergyCeiling() const;

  /// \brief Writes back all dirty cached blocks. With a journal attached
  /// (Open) this is an atomic all-or-nothing commit of the dirty set.
  Status Flush();

  /// \brief Flushes (atomically when journaled) and syncs the device,
  /// propagating the first failure — unlike destruction, which can only
  /// count failed write-backs. Callers that care about durability must
  /// Close and check. Idempotent; a read-only store closes trivially.
  Status Close();

  /// \brief Verifies every device block's integrity (checksummed backends).
  /// Corruption does not fail the call: the corrupt block ids are returned,
  /// quarantined, and the store degrades to read-only with quarantined
  /// blocks read as zeros.
  Result<std::vector<uint64_t>> Scrub();

  /// \brief Repair-mode scrub (parity-enabled backends): verifies every
  /// block and rebuilds corrupt ones in place from group parity; stale or
  /// corrupt parity strides are themselves rewritten from the verified data
  /// (which is also how a v2 store's freshly created zero sidecar becomes
  /// real parity). Repaired blocks are dropped from the buffer pool — a
  /// cached zero-fill from a degraded read is stale once the disk holds the
  /// rebuilt payload — and re-accounted in the energy index. Only blocks
  /// parity could not rebuild (double faults) leave the store read-only; a
  /// fully repaired store stays writable, and one degraded by an earlier
  /// detect-only Scrub is re-admitted. Salvage mode (failed journal
  /// recovery) is never cleared: its blocks verify individually but may be
  /// torn across an incomplete commit.
  Result<ScrubReport> ScrubRepair();

  /// \brief True once the store has degraded (failed recovery or scrub
  /// corruption); all write paths then fail.
  bool read_only() const { return read_only_; }

  /// \brief Corruption/recovery counters: device checksum + retry counters,
  /// journal commit/replay/rollback counts, unjournaled eviction
  /// write-backs, and the read-only flag.
  DurabilityStats durability_stats() const;

  const TileLayout& layout() const { return *layout_; }
  BufferPool& pool() { return pool_; }
  BlockManager& manager() { return *manager_; }
  /// Block + coefficient I/O as counted by the backing device.
  const IoStats& stats() const { return manager_->stats(); }
  /// Cache behaviour (hit rate, evictions, write-backs, pins) of the pool.
  BufferPool::Stats pool_stats() const { return pool_.stats(); }

 private:
  TiledStore(std::unique_ptr<TileLayout> layout, BlockManager* manager,
             uint64_t pool_blocks);

  // Shared validation + device sizing for Create/Open.
  static Status Validate(const TileLayout* layout, BlockManager* manager,
                         uint64_t pool_blocks);
  Status FailIfReadOnly() const;
  // Adds `delta` to block b's tracked energy (no-op when tracking is off).
  void UpdateEnergy(uint64_t block, double delta);
  // ApplyToBlock's `+=` chain on `slots`; returns the energy change (0.0
  // when tracking is off).
  double ApplyOps(std::span<double> slots, std::span<const SlotUpdate> ops);

  std::unique_ptr<TileLayout> layout_;
  BlockManager* manager_;
  BufferPool pool_;
  std::unique_ptr<Journal> journal_;  // null: plain (non-atomic) flushes
  InstallWriteHook install_write_hook_;
  bool read_only_ = false;
  bool recovery_failed_ = false;  // salvage mode: ScrubRepair can't clear it
  // Per-block sum of squared coefficients (energy index). Guarded by its
  // own mutex so concurrent queries can read ceilings while a (separately
  // serialized) writer maintains deltas.
  std::atomic<bool> energy_tracking_{false};
  mutable std::mutex energy_mu_;
  std::vector<double> block_energy_;
};

}  // namespace shiftsplit

#endif  // SHIFTSPLIT_TILE_TILED_STORE_H_
