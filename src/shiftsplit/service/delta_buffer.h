// In-memory buffer of pending cell deltas — the write side of the serving
// layer. Writers deposit per-cell SHIFT-SPLIT write sets (planned against
// the store's layout, never touching the store); maintenance drains a
// sequence-number prefix of the buffer into the store; queries fold the
// still-pending contributions into every fetched coefficient through the
// CoefficientOverlay hook, one block at a time.
//
// Exactness invariant: every contribution is kept at its own sequence
// number, per physical (block, slot). The overlay folds a slot's pending
// contributions with `+=` in sequence order starting from the stored value —
// the same floating-point chain ApplyToBlock executes when the drain later
// commits those contributions in the same order — so a merged answer is
// bit-identical to a store that had applied every buffered delta
// synchronously, and the applied_seq watermark stays an exact boundary for
// crash-recovery replay (nothing past it is ever partially applied).
//
// Locking: the per-block state (block -> slot -> seq-ordered contributions)
// lives in kStripes stripes keyed by block id, each behind its own mutex. A
// query's fold of one block, the drain's install of one block and a
// writer's insert into one block take only that block's stripe. A small
// front mutex keeps the rest: sequence assignment, the coalescing index,
// arrival times, the log append, snapshots and watermarks. A writer holds
// it only to take its sequence number and do that bookkeeping, then
// inserts its write set stripe by stripe with the front mutex released.
//
// Writes become visible in sequence order: the published watermark is the
// newest seq whose write set, and every older one, is fully inserted.
// Snapshots register at the published watermark and a drain horizon never
// passes it, so a query's snapshot S and the horizon h of any drain
// running beside it satisfy S >= h (DESIGN.md §7).
//
// Coalescing is by coordinate at the cell-index level: repeated deltas to
// one cell share a single pending-cell entry (one unit of backpressure, one
// unit of drain-trigger pressure) and their contributions land adjacently in
// the per-slot contribution vectors, so a drain still stages each affected
// block exactly once per batch. Values are deliberately NOT pre-summed
// across sequence numbers — that would apply later deltas ahead of the
// watermark and break both the exactness invariant and replay.

#ifndef SHIFTSPLIT_SERVICE_DELTA_BUFFER_H_
#define SHIFTSPLIT_SERVICE_DELTA_BUFFER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "shiftsplit/core/md_shift_split.h"
#include "shiftsplit/core/query.h"
#include "shiftsplit/service/serving_stats.h"
#include "shiftsplit/storage/journal.h"
#include "shiftsplit/tile/tile_layout.h"
#include "shiftsplit/util/operation_context.h"
#include "shiftsplit/util/status.h"

namespace shiftsplit {

/// \brief Bounded, journaled buffer of pending per-cell delta write sets.
/// Thread-safe; see the file comment for the exactness invariant and the
/// locking scheme.
class DeltaBuffer {
 public:
  struct Config {
    /// Backpressure bound: Add blocks (or fails with kUnavailable under an
    /// armed deadline) while this many distinct cells are pending.
    uint64_t max_pending_deltas = 4096;
  };

  /// \brief `log` (may be null) receives one record per accepted delta,
  /// appended in sequence order under the front mutex; not owned.
  DeltaBuffer(Config config, DeltaLog* log)
      : config_(config), log_(log) {}

  /// \brief RAII registration of a read snapshot at the published
  /// watermark: queries evaluated under a snapshot fold exactly the pending
  /// deltas with seq <= seq(), and the maintenance drain horizon never
  /// passes an active snapshot — so a query sees each delta exactly once
  /// even while a worker is mid-install.
  class Snapshot {
   public:
    explicit Snapshot(DeltaBuffer* buffer);
    ~Snapshot();
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;

    uint64_t seq() const { return seq_; }

   private:
    DeltaBuffer* buffer_;
    std::multiset<uint64_t>::iterator it_;
    uint64_t seq_ = 0;
  };

  /// \brief CoefficientOverlay over the buffer at a snapshot: folds each
  /// probed slot's pending contributions with seq <= the snapshot, in
  /// sequence order. One FoldBlock is one critical section of the block's
  /// stripe, which reads the block's stored slots and folds them all (each
  /// slot still counts as one overlay probe). The referenced Snapshot must
  /// outlive the view.
  class OverlayView : public CoefficientOverlay {
   public:
    OverlayView(const DeltaBuffer* buffer, const Snapshot& snapshot)
        : buffer_(buffer), snap_(snapshot.seq()) {}

    void FoldBlock(uint64_t block, std::span<const double> stored,
                   std::span<const uint64_t> slots,
                   std::span<double> merged) const override;
    void FoldSkippedBlock(uint64_t block, std::span<const uint64_t> slots,
                          std::span<double> merged,
                          const std::function<void()>& paired) const override;

   private:
    // Both folds: `paired` (may be null) runs first inside the section.
    void Fold(uint64_t block, std::span<const double> stored,
              std::span<const uint64_t> slots, std::span<double> merged,
              const std::function<void()>* paired) const;

    const DeltaBuffer* buffer_;
    uint64_t snap_;
  };

  /// \brief One block's drained write set, ops grouped per slot in sequence
  /// order (the ApplyToBlock input).
  struct DrainBlock {
    uint64_t block = 0;
    std::vector<SlotUpdate> ops;
  };

  /// \brief A begun drain: every pending contribution with seq <= upto,
  /// grouped by destination block in ascending block order.
  struct DrainBatch {
    uint64_t upto = 0;
    std::vector<DrainBlock> blocks;
  };

  /// \brief Accepts one cell delta whose planned write set is `plan`
  /// (PlanChunkStandard of the single cell, ApplyMode::kUpdate — accumulate
  /// ops only). Blocks while the buffer is full: under an armed `ctx`
  /// deadline the wait is bounded and times out as kUnavailable. On success
  /// assigns the next sequence number (returned via `out_seq`), appends the
  /// delta to the log, records the write set and publishes it. Writes
  /// become visible in sequence order, and Add returns once its own write
  /// is: every snapshot taken after it returns sees the delta. The caller
  /// makes it durable with DeltaLog::Sync(*out_seq) before acknowledging.
  Status Add(std::span<const uint64_t> coords, double value,
             std::span<const ChunkBlockOps> plan, OperationContext* ctx,
             uint64_t* out_seq);

  /// \brief Re-inserts a delta recovered from the log at its original
  /// sequence number (no backpressure, no re-journaling). Call in log order
  /// before any Add.
  void Restore(std::span<const uint64_t> coords, uint64_t seq,
               std::span<const ChunkBlockOps> plan);

  /// \brief Seeds the sequence watermarks from the persisted applied
  /// watermark; call once on open, before any Restore or Add, so fresh
  /// sequence numbers continue strictly after everything already logged or
  /// applied.
  void InitWatermarks(uint64_t applied_seq);

  /// \brief Starts a drain: picks the horizon `h = min(published
  /// watermark, oldest active snapshot)` and returns every pending
  /// contribution with seq <= h, or nullopt when nothing is drainable (empty
  /// buffer, or all pending deltas are pinned by active snapshots or held
  /// back by writes still being inserted). At most one drain may be in
  /// flight; the caller serializes BeginDrain..FinishDrain.
  std::optional<DrainBatch> BeginDrain();

  /// \brief Installs one drained block in its stripe section: calls `swap`
  /// (which puts the block's image with every contribution <= upto applied
  /// into its pinned pool frame, see TiledStore::InstallStaged) and removes
  /// those contributions. A query folding the block reads either the old
  /// frame plus the contributions or the new frame without them — identical
  /// bits either way.
  void InstallBlock(uint64_t block, uint64_t upto,
                    const std::function<void()>& swap);

  /// \brief Completes the drain begun at `upto`: advances applied_seq,
  /// retires fully-applied cell entries, and wakes blocked writers.
  void FinishDrain(uint64_t upto);

  /// \brief Abandons a drain that failed before it installed any block:
  /// clears the in-flight marker so a later BeginDrain can retry, and wakes
  /// blocked writers. Every contribution is still buffered, so re-draining
  /// is exactly-once.
  void AbortDrain();

  /// \brief Truncates the delta log iff every accepted delta is applied and
  /// no drain is in flight (checked atomically with the log operation, so a
  /// concurrent Add cannot slip an unapplied record into the doomed file).
  Status TruncateLogIfIdle();

  /// \brief Waits up to `timeout` until every write that had taken its seq
  /// when called is published. Returns false at once when no write is being
  /// inserted (nothing to wait for), and false on timeout.
  bool AwaitInFlightWrites(std::chrono::milliseconds timeout);

  uint64_t pending_deltas() const;
  uint64_t last_seq() const;
  uint64_t applied_seq() const;

  /// \brief True when a pending delta has been waiting longer than `age`.
  bool OldestPendingOlderThan(std::chrono::microseconds age) const;

  /// \brief Fills the buffer-owned fields of `out` (write path, maintenance
  /// counters, overlay counters, last/applied watermarks).
  void StatsInto(ServingStats* out) const;

  /// \brief Test hook, in the style of DeltaLog::set_flush_hook_for_test:
  /// Add calls it with no lock held after taking sequence number `seq` and
  /// before inserting the write set, so a test can hold a write in flight
  /// (every later Add then inserts its write set but waits, invisible, for
  /// this one to publish). Production buffers have no hook.
  using AddHook = std::function<void(uint64_t seq)>;
  void set_add_hook_for_test(AddHook hook);

 private:
  struct CellEntry {
    uint64_t last_seq = 0;  ///< newest sequence number of this cell
  };

  /// One pending contribution at its sequence number. Two 8-byte lanes, so
  /// a slot's pending values form a stride-2 double stream the overlay can
  /// hand to the kernel-layer chain fold.
  struct SeqContribution {
    uint64_t seq = 0;
    double value = 0.0;
  };

  /// First entry with seq > bound in a seq-sorted contribution vector.
  static std::vector<SeqContribution>::const_iterator UpperBound(
      const std::vector<SeqContribution>& pending, uint64_t bound);

  /// Per-block state of the blocks with id % kStripes == its index: block ->
  /// slot -> contributions, seq-ascending per slot. Aligned to a cache line
  /// so neighbouring stripes' mutexes do not share one.
  static constexpr uint64_t kStripes = 64;
  using SlotMap = std::unordered_map<uint64_t, std::vector<SeqContribution>>;
  struct alignas(64) Stripe {
    std::mutex mu;
    std::unordered_map<uint64_t, SlotMap> blocks;
  };
  Stripe& StripeOf(uint64_t block) const {
    return stripes_[block % kStripes];
  }

  /// Inserts `plan` at `seq`, each block under its own stripe.
  void InsertPlan(std::span<const ChunkBlockOps> plan, uint64_t seq);
  /// Coalescing-index and arrival bookkeeping of one accepted delta.
  void NoteArrivalLocked(std::vector<uint64_t> cell, uint64_t seq);
  /// Marks `seq`'s write set fully inserted and advances the published
  /// watermark past every leading fully-inserted seq.
  void Publish(uint64_t seq);

  const Config config_;
  DeltaLog* const log_;  // may be null (in-memory serving)

  mutable std::array<Stripe, kStripes> stripes_;

  // Front state, guarded by mu_.
  mutable std::mutex mu_;
  std::condition_variable cv_;          ///< backpressure waiters
  std::condition_variable publish_cv_;  ///< Add and AwaitInFlightWrites waiters
  // Cell coordinate -> pending entry (the coalescing index).
  std::map<std::vector<uint64_t>, CellEntry> cells_;
  std::multiset<uint64_t> snapshots_;
  std::deque<std::pair<uint64_t, std::chrono::steady_clock::time_point>>
      arrivals_;
  std::set<uint64_t> in_flight_;  ///< seqs taken but not yet inserted
  uint64_t last_seq_ = 0;
  uint64_t published_seq_ = 0;  ///< every seq <= it is fully inserted
  uint64_t applied_seq_ = 0;
  uint64_t draining_upto_ = 0;  ///< nonzero while a drain is in flight
  uint64_t acked_deltas_ = 0;
  uint64_t coalesced_deltas_ = 0;
  uint64_t rejected_unavailable_ = 0;
  uint64_t stall_waits_ = 0;
  uint64_t stall_us_ = 0;
  uint64_t apply_batches_ = 0;
  uint64_t applied_deltas_ = 0;
  AddHook add_hook_;

  // Counters the stripe sections update.
  std::atomic<uint64_t> slot_entries_{0};
  mutable std::atomic<uint64_t> overlay_probes_{0};
  mutable std::atomic<uint64_t> overlay_hits_{0};
};

}  // namespace shiftsplit

#endif  // SHIFTSPLIT_SERVICE_DELTA_BUFFER_H_
