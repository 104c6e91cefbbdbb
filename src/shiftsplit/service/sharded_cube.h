// Sharded serving: 2^k fully independent ServingCubes, one per dyadic
// sub-domain of the global domain, behind a composing query router — with
// supervised shard health and in-process self-healing (DESIGN.md §9, §11).
//
// The global domain is split along one dimension (the widest) into equal
// dyadic slabs; each shard owns the self-contained wavelet transform of its
// slab with its own store directory, delta log, redo journal, buffer pool
// and maintenance workers. Nothing is shared between shards, so writers on
// different shards never contend on a latch and one shard's maintenance
// drain stalls only its own readers — the aggregate update throughput
// scales with the shard count and the read tail during maintenance drops.
//
//   auto cube = *ShardedCube::CreateOnDisk("/data/sharded", {6, 5}, 4,
//                                          cube_options, options);
//   cube->Add({37, 11}, +2.0);              // routed to shard 37 >> 4 = 2
//   double s = *cube->RangeSum({0, 0}, {63, 31});   // fans over all shards
//
// Exactness (DESIGN.md §9): SHIFT-SPLIT's lifting argument shows a dyadic
// sub-domain's transform embeds losslessly in the enclosing domain's, so
// the per-shard transforms together carry exactly the global transform's
// information. A range box clipped to a slab lies entirely inside that
// shard's sub-domain and is answered exactly from its own coefficients;
// the global answer is the plain sum of the per-shard answers. Point
// queries touch exactly one shard. Each shard keeps the monolithic
// ServingCube's merged-read contract, so sharded answers equal monolithic
// answers (bit-identically so whenever the additions commute exactly, e.g.
// dyadic-rational data — see tests/service/sharded_cube_test.cc).
//
// Self-healing (DESIGN.md §11): each shard slot carries a health state
// (serving_stats.h, ShardHealth). A ShardSupervisor background thread
// watches for poisoned or read-only shards, QUARANTINEs them, tears them
// down without flushing (the poisoned state is exactly what a crash would
// leave), re-opens the shard directory through the normal recovery path —
// redo-journal replay plus deltas.log replay past the applied watermark —
// verifies the watermark converges, and re-admits the shard, under a
// capped jittered exponential backoff (util/operation_context.h,
// RetryPolicy). While a shard heals, approx-tolerant queries
// (QueryOptions::max_error > 0) skip it and return a DegradedResult whose
// error bound comes from the shard's tracked coefficient energy; exact
// queries fail fast with kUnavailable naming the shard's health, and
// writes park in a small bounded queue drained on re-admit — the healthy
// shards never stall.
//
// Parity in-place repair (DESIGN.md §12): on a parity-protected shard
// store (manifest v3) a checksum-mismatch poison takes a cheaper path
// first. The slot only DEGRADEs while the supervisor repairs the cube in
// place (ServingCube::RepairNow — scrub, rebuild corrupt blocks from
// group parity, resume the interrupted drain); buffered deltas survive,
// no quarantine is counted, and the slot returns to HEALTHY in one poll.
// Only an unrepairable double fault (two corrupt blocks in one parity
// group) falls through to the quarantine + full-rebuild path above.

#ifndef SHIFTSPLIT_SERVICE_SHARDED_CUBE_H_
#define SHIFTSPLIT_SERVICE_SHARDED_CUBE_H_

#include <chrono>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "shiftsplit/core/query.h"
#include "shiftsplit/core/wavelet_cube.h"
#include "shiftsplit/service/serving_cube.h"
#include "shiftsplit/service/serving_stats.h"
#include "shiftsplit/service/shard_router.h"
#include "shiftsplit/storage/manifest.h"
#include "shiftsplit/util/operation_context.h"
#include "shiftsplit/util/status.h"

namespace shiftsplit {

class ShardSupervisor;

/// \brief A set of independent per-slab ServingCubes behind one composing
/// router. Thread-safe like ServingCube: writers, readers, per-shard
/// maintenance and the shard supervisor run concurrently.
class ShardedCube {
 public:
  struct Options {
    /// Applied to every shard (each shard gets its own workers/limits).
    ServingCube::Options serving;
    /// Buffer-pool budget per shard store.
    uint64_t pool_blocks_per_shard = 256;

    /// Run a ShardSupervisor that quarantines and recovers failed shards.
    /// The supervisor thread starts and stops with the maintenance workers
    /// (serving.start_workers / StartWorkers / StopWorkers); with it
    /// stopped, a poisoned shard stays down until recovered explicitly
    /// (RecoverShardNow) or the process reopens the store.
    bool supervise = true;
    /// Supervisor poll interval: how often shard health is inspected and
    /// due recoveries are run.
    std::chrono::milliseconds supervisor_poll{10};
    /// Backoff between recovery attempts of one incident: attempt k waits
    /// BackoffDelayUs(recovery_backoff, k) after the k-th failure —
    /// capped, jittered exponential so a flapping disk is not hammered.
    RetryPolicy recovery_backoff{/*max_retries=*/4,
                                 /*initial_backoff_us=*/10'000,
                                 /*max_backoff_us=*/2'000'000,
                                 /*jitter=*/0.5};
    /// Recovery attempts per incident before the shard goes terminal
    /// FAILED (operator action required; see DESIGN.md §11 playbook).
    uint32_t max_recovery_attempts = 5;
    /// Jitter stream seed for the backoff delays (deterministic tests).
    uint64_t supervisor_jitter_seed = 0x73686172642d6a69ull;

    /// Bounded parking: writes routed to a QUARANTINED/RECOVERING shard
    /// are queued in memory (per shard, at most this many cells) and
    /// drained into the shard on re-admit — only while the supervisor is
    /// running (otherwise nobody would ever drain the queue, so writes
    /// fail kUnavailable instead). Parked writes are acknowledged
    /// non-durably: a process crash before re-admit loses them, and a
    /// shard that lands in FAILED drops them (counted in parked_dropped).
    uint64_t max_parked_writes = 256;

    /// Track per-block coefficient energy on every shard store
    /// (TiledStore::EnableEnergyTracking; one extra full scan per shard
    /// open). Powers the finite error bounds of degraded cross-shard
    /// queries; with false the bounds are +infinity.
    bool track_energy = true;
  };

  /// \brief Health of one shard slot as the supervisor sees it.
  struct ShardHealthInfo {
    ShardHealth health = ShardHealth::kHealthy;
    Status cause;             ///< first error of the current/last incident
    uint64_t since_us = 0;    ///< steady-clock us of the last transition
    uint32_t attempts = 0;    ///< recovery attempts of the open incident
    uint64_t quarantines = 0; ///< incidents so far
    uint64_t recoveries = 0;  ///< successful re-admissions
    uint64_t parked = 0;      ///< writes currently parked
  };

  /// \brief Creates a sharded store under `dir`: a shardset.manifest plus
  /// one self-describing store directory per shard (shard-0000, ...), then
  /// opens it for serving. `num_shards` must be a power of two with at
  /// least one level left on the split dimension (the widest one; ties to
  /// the lowest index). The cube options must describe a standard-form
  /// store.
  static Result<std::unique_ptr<ShardedCube>> CreateOnDisk(
      const std::string& dir, std::vector<uint32_t> log_dims,
      uint32_t num_shards, const WaveletCube::Options& cube_options,
      const Options& options);

  /// \brief Reopens a sharded store: loads shardset.manifest, runs each
  /// shard's own crash recovery + delta-log replay, and validates every
  /// shard's store.manifest against the expected per-shard sub-domain.
  static Result<std::unique_ptr<ShardedCube>> OpenOnDisk(
      const std::string& dir, const Options& options);
  static Result<std::unique_ptr<ShardedCube>> OpenOnDisk(
      const std::string& dir);

  /// \brief True when `dir` holds a sharded store (shardset.manifest).
  static bool IsShardedDir(const std::string& dir);

  ~ShardedCube();
  ShardedCube(const ShardedCube&) = delete;
  ShardedCube& operator=(const ShardedCube&) = delete;

  /// \brief Buffers one cell delta on its owning shard (global
  /// coordinates; same ack contract as ServingCube::Add). When the owning
  /// shard is QUARANTINED/RECOVERING: parked if the supervisor runs and
  /// the queue has room, except that an armed deadline (ctx) fails fast
  /// kUnavailable instead; FAILED shards always fail fast.
  Status Add(std::span<const uint64_t> coords, double delta,
             OperationContext* ctx = nullptr);

  /// \brief Buffers a dense box of deltas anchored at `origin` (global),
  /// decomposed into per-shard sub-boxes; within each shard the cells keep
  /// their row-major order. Cells owned by an unhealthy shard follow the
  /// Add parking contract.
  Status Update(const Tensor& deltas, std::span<const uint64_t> origin,
                OperationContext* ctx = nullptr);

  /// \brief Point query, routed to the single owning shard; pending deltas
  /// merged in per the ServingCube contract. Fails fast kUnavailable (the
  /// shard's health attached) when the owning shard is not serving.
  Result<double> PointQuery(std::span<const uint64_t> point,
                            bool use_scaling_slots = true,
                            OperationContext* ctx = nullptr);

  /// \brief Range sum over the global inclusive box [lo, hi]: the box is
  /// clipped per shard, each part is answered exactly shard-locally, and
  /// the parts are summed in ascending shard order (deterministic
  /// association). Fails fast kUnavailable when any touched shard is not
  /// serving — use the QueryOptions overload to degrade instead.
  Result<double> RangeSum(std::span<const uint64_t> lo,
                          std::span<const uint64_t> hi,
                          OperationContext* ctx = nullptr);

  /// \brief Range sum under `options` (QueryOptions::max_error is the one
  /// exact/degraded switch). Each serving shard answers its part with
  /// max_error = +inf when the caller accepts approximation (0 otherwise),
  /// so block-level degradation happens inside the shard; the parts merge
  /// in ascending shard order — values, bounds and blocks_missing sum, and
  /// `reason` is the first non-kNone one. A part is skipped whole only when
  /// its shard is not serving (QUARANTINED/RECOVERING/FAILED) or poisoned
  /// itself during the query: it is listed in shards_missing and adds
  /// sqrt(Π_d RangeWeightNormSquared) × the shard's last tracked energy
  /// ceiling plus the absolute mass of its unapplied deltas (Cauchy–Schwarz
  /// over the Lemma-2 term set; see core/query.h). Any other shard error
  /// propagates. The caller's max_error is checked once, on the total
  /// (kUnavailable when exceeded); with max_error == 0 an unhealthy shard
  /// fails the query fast with its health attached.
  Result<DegradedResult> RangeSum(std::span<const uint64_t> lo,
                                  std::span<const uint64_t> hi,
                                  const QueryOptions& options);

  /// \brief Point query under `options`; same contract as the QueryOptions
  /// RangeSum, with the point's reconstruction weights as a skipped shard's
  /// bound.
  Result<DegradedResult> PointQuery(std::span<const uint64_t> point,
                                    const QueryOptions& options);

  /// \brief Synchronously drains every shard; fails (kUnavailable, health
  /// attached) when a shard is not serving.
  Status DrainAll();

  /// \brief Orderly shutdown of every shard (and the supervisor); returns
  /// the first failure but closes all. Idempotent.
  Status Close();

  void StartWorkers();
  void StopWorkers();

  /// \brief Runs one full recovery cycle on `shard` synchronously,
  /// ignoring the backoff schedule: teardown (drop dirty pages), reopen
  /// through journal + delta-log replay, drain, verify the applied
  /// watermark, replay parked writes, re-admit. No-op for a serving shard;
  /// fails for a FAILED (terminal) one. Consumes a recovery attempt on
  /// failure exactly like a supervised attempt, including the transition
  /// to FAILED after max_recovery_attempts.
  Status RecoverShardNow(uint32_t shard);

  /// \brief Full repair scrub fanned out over every shard
  /// (ServingCube::RepairNow): verifies every block on every shard device
  /// and rebuilds corrupt ones from group parity in place. Returns the
  /// concatenated report in ascending shard order — block ids are
  /// shard-local, so the report is a tally, not a global address list.
  /// Fails fast (kUnavailable, health attached) when a shard is not
  /// serving.
  Result<ScrubReport> ScrubAll();

  /// \brief Aggregate counters, each folded across shards by its
  /// kServingCounters merge rule. `health` is the worst shard health and
  /// the poison fields describe the first poisoned shard.
  ServingStats stats() const;
  /// \brief One shard's own counters, with the slot's health overlaid.
  ServingStats shard_stats(uint32_t shard) const;
  /// \brief One shard's health record.
  ShardHealthInfo shard_health(uint32_t shard) const;

  /// \brief Cross-shard snapshot: each shard's newest accepted sequence
  /// number. A vector of per-shard seqs is the sharded analogue of the
  /// monolithic snapshot sequence. A torn-down shard reports 0.
  std::vector<uint64_t> SnapshotSeqs() const;

  uint64_t pending_deltas() const;
  uint32_t num_shards() const { return router_.num_shards(); }
  const ShardRouter& router() const { return router_; }
  /// Test-only handle to one shard's cube; null mid-recovery teardown. The
  /// shared_ptr keeps the cube alive even if the supervisor swaps it out
  /// concurrently (chaos tests crash shards under a live supervisor).
  std::shared_ptr<ServingCube> shard_for_test(uint32_t shard) {
    std::lock_guard<std::mutex> lock(slots_[shard]->mu);
    return slots_[shard]->cube;
  }

  /// \brief Simulates kill -9 on every shard (see
  /// ServingCube::CrashForTest); reopen with OpenOnDisk to recover. Use
  /// shard_for_test(i)->CrashForTest() to crash one shard only.
  Status CrashForTest();

 private:
  friend class ShardSupervisor;

  struct ParkedWrite {
    std::vector<uint64_t> local;  ///< shard-local coordinates
    double delta = 0.0;
  };

  /// One shard slot: the cube plus the supervisor's view of it. `mu`
  /// guards every field; queries copy the shared_ptr out and release the
  /// lock before touching the cube, so the supervisor can swap a rebuilt
  /// cube in without stalling the healthy path.
  struct Slot {
    mutable std::mutex mu;
    std::shared_ptr<ServingCube> cube;  ///< null mid-recovery teardown
    ShardHealth health = ShardHealth::kHealthy;
    Status cause;              ///< first error of the open incident
    uint64_t since_us = 0;     ///< last transition, steady-clock us
    uint32_t attempts = 0;     ///< recovery attempts this incident
    uint64_t next_attempt_us = 0;  ///< backoff gate for the supervisor
    uint64_t quarantines = 0;
    uint64_t recoveries = 0;
    uint64_t recovery_attempts_total = 0;
    std::deque<ParkedWrite> parked;
    uint64_t parked_total = 0;
    uint64_t parked_dropped = 0;
    /// Degraded-bound bookkeeping: sqrt of the store's tracked energy at
    /// the last fully-drained refresh, plus Σ|δ| of every delta accepted
    /// since — together an upper bound on the answer mass this shard can
    /// hold (refreshed by the supervisor; conservative under races).
    double energy_ceiling = std::numeric_limits<double>::infinity();
    double pending_abs = 0.0;
  };

  ShardedCube() = default;

  /// The slot's cube when it serves (HEALTHY/DEGRADED); otherwise null,
  /// with `why` set to a fast kUnavailable naming the health and cause.
  std::shared_ptr<ServingCube> AcquireServing(uint32_t shard,
                                              Status* why) const;
  /// Records that `cube` (still in `shard`'s slot) poisoned itself:
  /// transitions the slot to QUARANTINED with the poison status as cause.
  void NoteQuarantined(uint32_t shard,
                       const std::shared_ptr<ServingCube>& cube);
  /// Cheaper alternative to NoteQuarantined for parity-repairable poison
  /// (checksum mismatch on a parity-protected store, supervisor running):
  /// transitions the slot to DEGRADED with the poison as cause so the
  /// supervisor repairs the cube in place on its next poll. Returns false
  /// — caller should quarantine instead — when the poison is of another
  /// kind, the store has no parity, or nobody would ever run the repair.
  bool MarkRepairing(uint32_t shard,
                     const std::shared_ptr<ServingCube>& cube);
  /// Supervisor-side in-place repair of a poisoned cube: DEGRADE the slot,
  /// run ServingCube::RepairNow, re-admit on a clean report. Returns true
  /// when the slot needs no further action (healed, or it already moved
  /// past this cube); false tells the caller to escalate to quarantine.
  bool TryRepairShardInPlace(uint32_t shard,
                             const std::shared_ptr<ServingCube>& cube);
  /// Decorated fast-fail status for a non-serving slot (caller holds mu).
  Status UnavailableLocked(uint32_t shard, const Slot& slot) const;
  /// How a slot takes `cells` writes (caller holds mu): a serving slot
  /// buffers them; a QUARANTINED or RECOVERING one parks them while a
  /// supervisor runs, no deadline is armed and its parking queue has room
  /// for all of them; any other slot refuses.
  enum class Admission { kServe, kPark, kRefuse };
  Admission AdmitLocked(const Slot& slot, OperationContext* ctx,
                        uint64_t cells) const;
  /// A write or query found that `cube` (still in `shard`'s slot) poisoned
  /// itself: marks the slot repairing or quarantined and returns what the
  /// caller sees — `status` while parity repairs the cube, else
  /// kUnavailable naming the slot's health.
  Status RefusePoisoned(uint32_t shard,
                        const std::shared_ptr<ServingCube>& cube,
                        const Status& status);
  /// The add/parking path shared by Add and Update. `cube_out` (optional)
  /// receives the exact cube instance the delta was buffered on, so a
  /// group ack (SyncAcks) targets the instance that issued the sequence
  /// numbers even if a recovery swaps the slot meanwhile; unset for a
  /// parked write.
  Status AddToShard(uint32_t shard, std::span<const uint64_t> local,
                    double delta, OperationContext* ctx, bool durable_ack,
                    uint64_t* seq_out,
                    std::shared_ptr<ServingCube>* cube_out = nullptr);
  /// Update's admission of one shard's part of its box, before any cell
  /// is buffered: OK when the shard serves or can park every cell of the
  /// part; otherwise the status the whole box fails with.
  Status AdmitBox(const ShardRange& part, OperationContext* ctx);
  /// Answers `shard`'s part [lo, hi] of a query through `query(cube,
  /// shard_options)` and merges it into `out`, or skips the shard whole per
  /// the QueryOptions RangeSum contract. Errors the query must fail with.
  template <typename Query>
  Status QueryShard(uint32_t shard, std::span<const uint64_t> lo,
                    std::span<const uint64_t> hi, const QueryOptions& options,
                    const Query& query, DegradedResult* out);
  /// Error-bound contribution of skipping `shard`'s part [lo, hi]
  /// (global, inclusive): Cauchy–Schwarz weight norm × energy ceiling +
  /// unapplied-delta mass.
  double ShardSkipBound(uint32_t shard, std::span<const uint64_t> lo,
                        std::span<const uint64_t> hi) const;
  /// Supervisor pass over one shard: detect poisoning, refresh the energy
  /// ceiling while drained, and run a due recovery attempt.
  void SuperviseShard(uint32_t shard, uint64_t now_us,
                      uint64_t* jitter_state);
  /// One teardown→reopen→verify→re-admit cycle; assumes the slot is
  /// QUARANTINED. On failure schedules the next attempt (or FAILED).
  Status TryRecoverShard(uint32_t shard, uint64_t* jitter_state);
  bool SupervisorRunning() const;
  std::string ShardDirPath(uint32_t shard) const;

  ShardRouter router_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::unique_ptr<ShardSupervisor> supervisor_;
  Options options_;
  std::string dir_;
  std::vector<std::string> shard_dirs_;
  Normalization norm_ = Normalization::kAverage;
  uint64_t blocks_per_shard_ = 0;
  bool closed_ = false;
};

inline Result<std::unique_ptr<ShardedCube>> ShardedCube::OpenOnDisk(
    const std::string& dir) {
  return OpenOnDisk(dir, Options());
}

}  // namespace shiftsplit

#endif  // SHIFTSPLIT_SERVICE_SHARDED_CUBE_H_
