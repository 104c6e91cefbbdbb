// Concurrent serving front end over a WaveletCube: writers append cell
// deltas to a journaled in-memory DeltaBuffer, background maintenance
// workers drain the buffer in batches through the tile-batched SHIFT-SPLIT
// path, one journaled commit per batch, and queries fold the still-pending
// deltas into every fetched coefficient — so answers are bit-identical to a
// store that had applied every accepted delta synchronously, at all times.
//
//   auto serving = *ServingCube::OpenOnDisk("/data/cube");
//   serving->Add({16, 20}, +3.5);                  // acked once durable
//   double v = *serving->PointQuery({16, 20});     // sees the delta already
//
// Consistency protocol (see DESIGN.md §7): a query registers a snapshot at
// the buffer's published watermark and folds each block in one section of
// the block's buffer stripe. The drain horizon never passes an active
// snapshot, and the drain swaps a block's new image into its pool frame and
// erases the block's drained contributions in one section of the same
// stripe — so every query sees each delta exactly once, either from the
// store or from the buffer, never both or neither. No write path holds a
// lock across work that a read of an unrelated block waits on.
//
// Durability: each accepted delta is appended to a sidecar DeltaLog and
// fsynced (group commit) before Add acknowledges. A drain batch is staged
// privately and journaled — data, the applied watermark's meta block and
// parity — before any block changes, then installed block by block and
// written in place, so a serving pool never holds a dirty frame. Reopening
// after a crash replays the journal and then acknowledged-but-unapplied
// deltas back into the buffer (OpenOnDisk). Cubes attached with Attach()
// serve from memory only — no log, no crash-safety for buffered deltas.

#ifndef SHIFTSPLIT_SERVICE_SERVING_CUBE_H_
#define SHIFTSPLIT_SERVICE_SERVING_CUBE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "shiftsplit/core/wavelet_cube.h"
#include "shiftsplit/service/delta_buffer.h"
#include "shiftsplit/service/serving_stats.h"
#include "shiftsplit/storage/journal.h"
#include "shiftsplit/util/operation_context.h"
#include "shiftsplit/util/status.h"

namespace shiftsplit {

/// \brief Serving layer over one standard-form WaveletCube. All public
/// methods are thread-safe; writers, readers and maintenance run
/// concurrently.
class ServingCube {
 public:
  struct Options {
    /// Backpressure bound: writers block (or time out as kUnavailable under
    /// an armed OperationContext deadline) at this many pending cells.
    uint64_t max_pending_deltas = 4096;
    /// Maintenance triggers: drain when this many cells are pending, or
    /// when the oldest pending delta is older than `max_delta_age`.
    uint64_t drain_min_deltas = 256;
    std::chrono::milliseconds max_delta_age{50};
    uint32_t num_workers = 1;
    /// Spawn maintenance workers immediately. With false, nothing drains
    /// until StartWorkers() or an explicit DrainAll().
    bool start_workers = true;
    /// Allow more workers than hardware threads (required for genuine
    /// multi-threading on single-CPU machines; otherwise num_workers is
    /// clamped to the hardware concurrency).
    bool oversubscribe = false;
    /// Acknowledge a delta only after its log record is fsynced (group
    /// commit). With false, Add returns after the in-memory append — faster,
    /// but an OS crash can lose acknowledged-but-unsynced deltas.
    bool durable_acks = true;
  };

  /// \brief Fronts an already-open cube with a volatile (unjournaled)
  /// buffer. The cube must be standard-form and writable.
  static Result<std::unique_ptr<ServingCube>> Attach(
      std::unique_ptr<WaveletCube> cube, const Options& options);
  static Result<std::unique_ptr<ServingCube>> Attach(
      std::unique_ptr<WaveletCube> cube);

  /// \brief Opens a file-backed cube for serving: runs the store's own
  /// crash recovery, then replays acknowledged-but-unapplied deltas from
  /// the sidecar delta log back into the buffer.
  static Result<std::unique_ptr<ServingCube>> OpenOnDisk(
      const std::string& dir, uint64_t pool_blocks,
      const Options& options);
  static Result<std::unique_ptr<ServingCube>> OpenOnDisk(
      const std::string& dir, uint64_t pool_blocks = 256);

  /// \brief Fronts an already-open cube with the full durable machinery of
  /// OpenOnDisk — delta log and applied watermark in `dir` (which must
  /// exist) — without reopening the store. Lets tests wrap the cube's block
  /// device (e.g. in a fault-injection decorator) while keeping journaled
  /// recovery; the device must be resizable (one extra meta block).
  static Result<std::unique_ptr<ServingCube>> AttachDurable(
      std::unique_ptr<WaveletCube> cube, const std::string& dir,
      const Options& options);

  ~ServingCube();
  ServingCube(const ServingCube&) = delete;
  ServingCube& operator=(const ServingCube&) = delete;

  /// \brief Buffers one cell delta (accumulate). Returns once the delta is
  /// accepted and (durable_acks) its log record is fsynced; the store
  /// catches up asynchronously, but queries already see the delta.
  Status Add(std::span<const uint64_t> coords, double delta,
             OperationContext* ctx = nullptr);

  /// \brief Buffers a dense box of deltas anchored at `origin`, cell by
  /// cell in row-major order with one group ack — the serving counterpart
  /// of WaveletCube::Update, and the path an appended slice takes too.
  Status Update(const Tensor& deltas, std::span<const uint64_t> origin,
                OperationContext* ctx = nullptr);

  /// \brief Buffers one cell without the group-commit fsync; queries see
  /// the delta immediately, but it is not acknowledged durable until a
  /// later SyncAcks (or any synced Add) covers its sequence number. The
  /// sharded Update path uses this to batch one fsync per shard per box.
  Status AddBuffered(std::span<const uint64_t> coords, double delta,
                     OperationContext* ctx = nullptr,
                     uint64_t* seq = nullptr);

  /// \brief Fsyncs the delta log through `seq` (no-op for volatile cubes
  /// and durable_acks=false) and kicks maintenance — the group ack closing
  /// a run of AddBuffered calls.
  Status SyncAcks(uint64_t seq);

  /// \brief Point query with pending deltas merged in; bit-identical to the
  /// same query against a store that had applied every accepted delta.
  Result<double> PointQuery(std::span<const uint64_t> point,
                            bool use_scaling_slots = true,
                            OperationContext* ctx = nullptr);

  /// \brief Range sum over the inclusive box [lo, hi], pending deltas
  /// merged in (same exactness contract as PointQuery).
  Result<double> RangeSum(std::span<const uint64_t> lo,
                          std::span<const uint64_t> hi,
                          OperationContext* ctx = nullptr);

  /// \brief Point query under `options` with pending deltas merged in (the
  /// cube's norm and overlay replace options.norm/overlay). With
  /// options.max_error > 0 a block that fails with a degradable code is
  /// skipped per QueryOptions::max_error — its pending deltas still count,
  /// the bound covers only its stored coefficients.
  Result<DegradedResult> PointQuery(std::span<const uint64_t> point,
                                    const QueryOptions& options);

  /// \brief Range sum under `options`; see the QueryOptions PointQuery.
  Result<DegradedResult> RangeSum(std::span<const uint64_t> lo,
                                  std::span<const uint64_t> hi,
                                  const QueryOptions& options);

  /// \brief Synchronously drains until every accepted delta is applied.
  /// Fails as kUnavailable if concurrent queries pin the drain horizon
  /// indefinitely (or a write stays unpublished, as under the buffer's
  /// test hook).
  Status DrainAll();

  /// \brief One rate-limited scrub batch (the Scrubber's work unit): with
  /// drains and queries excluded, verifies up to `max_blocks` device blocks
  /// starting at the internal cursor by reading them through the serving
  /// path — a corrupt block is rebuilt from parity in place (and its stale
  /// cached frame dropped); an unrepairable one is counted and left for
  /// the supervisor. Wraps around at the end of the device, counting one
  /// finished pass. A no-op on a poisoned cube.
  struct ScrubTickResult {
    uint64_t scanned = 0;       ///< blocks verified this tick
    uint64_t repaired = 0;      ///< corrupt blocks rebuilt from parity
    uint64_t unrepairable = 0;  ///< corrupt blocks parity could not rebuild
    bool wrapped = false;       ///< this tick completed a full pass
  };
  ScrubTickResult ScrubTick(uint64_t max_blocks);

  /// \brief Full repair scrub with drains and queries excluded (see
  /// TiledStore::ScrubRepair): every corrupt block and stale parity stride
  /// is rewritten in place. When everything repaired — the report has no
  /// unrepairable blocks — a cube poisoned by a checksum failure is
  /// un-poisoned and resumes serving with its buffered deltas intact; the
  /// supervisor uses this to heal a shard in place instead of quarantining
  /// it. Double faults leave the poison (and the store's read-only
  /// degradation) exactly as before.
  Result<ScrubReport> RepairNow();

  /// \brief Orderly shutdown: stops workers, drains everything, retires the
  /// delta log and closes the cube. Idempotent.
  Status Close();

  void StartWorkers();
  void StopWorkers();

  ServingStats stats() const;
  uint64_t pending_deltas() const { return buffer_->pending_deltas(); }
  WaveletCube* cube() { return cube_.get(); }
  /// Test-only access to the buffer (e.g. pinning the drain horizon with an
  /// explicit Snapshot to freeze a genuine mid-apply state).
  DeltaBuffer* buffer_for_test() { return buffer_.get(); }
  /// Test-only access to the delta log (e.g. injecting flush faults with
  /// DeltaLog::set_flush_hook_for_test); null for volatile cubes.
  DeltaLog* log_for_test() { return log_.get(); }

  /// \brief The cube's own health (DESIGN.md §11): kQuarantined once
  /// poisoned (a drain or flush failed; no consistent state remains to
  /// serve), kDegraded while delta-log group commits are failing (acks
  /// bounce with backpressure but reads and already-acked data are fine),
  /// kHealthy otherwise. RECOVERING/FAILED are supervisor-level states of a
  /// shard slot, never reported by the cube itself.
  ShardHealth health() const;

  /// \brief The sticky failure that poisoned the cube (OK while healthy) —
  /// the first error, with code and message, as captured by Poison().
  Status poison_status() const;

  /// \brief Tears the cube down without flushing: stops workers, waits out
  /// a running drain and in-flight queries, discards every cached page and
  /// poisons the cube so stragglers fail instead of reading a half-applied
  /// store. The delta log and journal stay on disk exactly as they were —
  /// the supervisor re-opens the directory through the normal recovery
  /// path (journal replay + deltas.log replay past the applied watermark).
  /// Idempotent; safe on an already-poisoned cube.
  Status Abandon();

  /// \brief Simulates kill -9 for recovery tests: stops workers, discards
  /// every dirty (uncommitted) page without write-back and poisons the
  /// cube. The delta log is left exactly as the crash would — reopen with
  /// OpenOnDisk to exercise recovery.
  Status CrashForTest();

 private:
  ServingCube() = default;

  static Result<std::unique_ptr<ServingCube>> Make(
      std::unique_ptr<WaveletCube> cube, const Options& options,
      const std::string& dir);

  Status CheckHealthy() const;
  void Poison(const Status& status);
  /// Group-commit fsync through `seq`, tracking the DEGRADED health bit: a
  /// failed flush (ENOSPC and friends) counts a log_sync_failure and marks
  /// the cube degraded; the next successful sync clears it. Never poisons —
  /// the delta log retains the unwritten batch, so the records flush with
  /// the next ack once the pressure clears (writer backpressure, not
  /// corruption).
  Status SyncLog(uint64_t seq);
  Status BufferCell(std::span<const uint64_t> coords, double delta,
                    OperationContext* ctx, uint64_t* out_seq);
  /// One drain batch, holding drain_mu_ and never the latch: stage the
  /// batch's present images, apply it to them privately, journal it, then
  /// install block by block (TiledStore::InstallStaged), sync and retire
  /// the journal record. Poisons on failure.
  Status DrainOnce();
  /// DrainOnce's steps 1-3: the staged images of the batch's blocks plus
  /// the meta block (stamped with the batch's watermark), journaled.
  Result<std::vector<TiledStore::StagedBlock>> StageAndJournal(
      const DeltaBuffer::DrainBatch& batch);
  bool ShouldDrain() const;
  void MaybeKickWorkers();
  void WorkerLoop();

  static constexpr uint64_t kNoMetaBlock = ~0ull;

  Options options_;
  std::unique_ptr<WaveletCube> cube_;
  std::unique_ptr<DeltaLog> log_;  // null for Attach()ed (volatile) cubes
  std::unique_ptr<DeltaBuffer> buffer_;
  uint64_t meta_block_ = kNoMetaBlock;  ///< applied-watermark block id
  uint64_t replayed_deltas_ = 0;

  /// Store latch: queries hold it shared for a whole evaluation; only
  /// Abandon, ScrubTick and RepairNow take it exclusively, inside an
  /// ExclusiveSection. Writers and drains never take it: a drain meets a
  /// query only in a block's buffer stripe.
  mutable std::shared_mutex latch_;
  std::mutex drain_mu_;  ///< serializes whole drain batches

  /// Exclusive section of Abandon, ScrubTick and RepairNow: takes
  /// drain_mu_ (no drain runs) and then the latch exclusively (no query
  /// runs), timing the wait and the hold into the latch counters.
  class ExclusiveSection {
   public:
    explicit ExclusiveSection(ServingCube* cube);
    ~ExclusiveSection();
    ExclusiveSection(const ExclusiveSection&) = delete;
    ExclusiveSection& operator=(const ExclusiveSection&) = delete;

   private:
    ServingCube* cube_;
    std::chrono::steady_clock::time_point hold_start_;
  };

  // Latch timing (microseconds): waits on either acquisition mode, plus the
  // exclusive holds of scrub, repair and abandon.
  mutable std::atomic<uint64_t> latch_wait_us_{0};
  std::atomic<uint64_t> latch_hold_us_total_{0};
  std::atomic<uint64_t> latch_hold_us_max_{0};
  std::atomic<uint64_t> latch_exclusive_holds_{0};

  mutable std::mutex failed_mu_;
  Status failed_status_;  ///< OK while healthy; sticky failure otherwise
  uint64_t poisoned_at_us_ = 0;  ///< steady-clock us at Poison()
  /// Set (before the poison) when a drain fails after its journal record:
  /// the record, not the pool, then holds the batch. Until a reopen replays
  /// it, RepairNow may not lift the poison and Close does not flush.
  std::atomic<bool> batch_in_journal_{false};

  // Delta-log backpressure: set while group commits fail, cleared by the
  // next success. Orthogonal to poisoning — reads stay exact throughout.
  std::atomic<bool> log_degraded_{false};
  std::atomic<uint64_t> log_sync_failures_{0};

  // Scrub state: the cursor is owned by one scrubbing thread at a time
  // (scrub_mu_); the counters feed ServingStats.
  std::mutex scrub_mu_;
  uint64_t scrub_cursor_ = 0;
  std::atomic<uint64_t> scrub_passes_{0};
  std::atomic<uint64_t> scrubbed_blocks_{0};
  std::atomic<uint64_t> scrub_repairs_{0};
  // All explicit parity-repair activity (ScrubTick + RepairNow); inline
  // query-path repairs are visible in durability_stats() only.
  std::atomic<uint64_t> parity_repairs_{0};
  std::atomic<uint64_t> parity_unrepairable_{0};

  std::mutex worker_mu_;
  std::condition_variable worker_cv_;
  bool kick_ = false;
  std::atomic<bool> stop_{false};
  /// MaybeKickWorkers() runs on writer threads while the supervisor may be
  /// tearing this cube down (Abandon → StopWorkers) through its own handle;
  /// the hot path checks this flag, never the vector, so the teardown's
  /// workers_.clear() cannot race a concurrent Add.
  std::atomic<bool> workers_running_{false};
  std::vector<std::thread> workers_;  ///< control threads only
  bool closed_ = false;
};

inline Result<std::unique_ptr<ServingCube>> ServingCube::Attach(
    std::unique_ptr<WaveletCube> cube) {
  return Attach(std::move(cube), Options());
}

inline Result<std::unique_ptr<ServingCube>> ServingCube::OpenOnDisk(
    const std::string& dir, uint64_t pool_blocks) {
  return OpenOnDisk(dir, pool_blocks, Options());
}

}  // namespace shiftsplit

#endif  // SHIFTSPLIT_SERVICE_SERVING_CUBE_H_
