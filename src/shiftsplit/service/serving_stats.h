// Observability for the serving layer (ServingCube + DeltaBuffer): how many
// deltas are buffered, how maintenance is keeping up, what the read-side
// merge costs, and — since the self-healing layer — the shard's health state
// and the cause of its last failure. Modeled on DurabilityStats — a plain
// snapshot struct the cube assembles on demand.

#ifndef SHIFTSPLIT_SERVICE_SERVING_STATS_H_
#define SHIFTSPLIT_SERVICE_SERVING_STATS_H_

#include <cstdint>
#include <sstream>
#include <string>

#include "shiftsplit/util/status.h"

namespace shiftsplit {

/// \brief Health state of a serving shard (DESIGN.md §11).
///
///   HEALTHY ──log sync failure──▶ DEGRADED ──sync recovers──▶ HEALTHY
///      │                             │
///      └──────drain/store failure────┴──▶ QUARANTINED ──▶ RECOVERING
///                                              ▲               │
///                                              └──attempt──────┤
///                                                   failed     │
///                                     FAILED ◀──N attempts─────┴─▶ HEALTHY
///
/// HEALTHY/DEGRADED shards serve reads and writes (DEGRADED only signals
/// delta-log backpressure — acks may fail kResourceExhausted but nothing is
/// corrupt). QUARANTINED/RECOVERING shards serve nothing; the supervisor is
/// rebuilding them from disk. FAILED is terminal: recovery was attempted
/// the configured number of times and keeps failing — operator action
/// (restore the shard directory, reopen) is required.
enum class ShardHealth {
  kHealthy = 0,
  kDegraded,
  kQuarantined,
  kRecovering,
  kFailed,
};

/// \brief Human-readable name of a ShardHealth (e.g. "QUARANTINED").
const char* ShardHealthToString(ShardHealth health);

/// \brief True when the state still serves reads and writes.
inline bool ShardHealthServes(ShardHealth health) {
  return health == ShardHealth::kHealthy || health == ShardHealth::kDegraded;
}

/// \brief How ShardedCube::stats() folds one counter across its shards.
enum class CounterMerge {
  kSum,       ///< total over the shards
  kMax,       ///< largest single-shard value
  kIncident,  ///< the first poisoned shard's value; 0 when none is poisoned
};

/// Every ServingStats counter, declared once as X(member, merge). The list
/// declares the members and builds kServingCounters, which ToString, the
/// wire `stats` reply, ShardedCube's merge and the CLI table read, so a new
/// counter is one line here. The sequence watermarks sum across shards
/// (per-shard sequences are independent), so applied == last still means
/// fully drained.
#define SHIFTSPLIT_SERVING_COUNTERS(X)                                        \
  /* Write path. */                                                           \
  X(acked_deltas, kSum) /* Add/Update cells accepted (and acked) */          \
  X(coalesced_deltas, kSum) /* adds that hit an already-pending cell */      \
  X(pending_deltas, kSum) /* distinct cells currently buffered */            \
  X(pending_slots, kSum) /* buffered per-slot contributions */               \
  X(rejected_unavailable, kSum) /* backpressure kUnavailable rejections */   \
  X(stall_waits, kSum) /* writer waits caused by a full buffer */            \
  X(stall_us, kSum) /* total writer stall time, microseconds */              \
  /* Maintenance. */                                                          \
  X(apply_batches, kSum) /* background drain batches committed */            \
  X(applied_deltas, kSum) /* cells drained into the store */                 \
  X(replayed_deltas, kSum) /* deltas recovered from the log on open */       \
  /* Read-side merge. */                                                      \
  X(overlay_probes, kSum) /* coefficients checked against the buffer */      \
  X(overlay_hits, kSum) /* probes that folded pending contributions */       \
  /* Store latch. Queries take it shared; only scrub, repair and */          \
  /* abandon take it exclusively (drains never do), so the hold */           \
  /* counters bound how long one of those stalls the read tail. */           \
  X(latch_wait_us_total, kSum) /* total acquisition wait, all callers */     \
  X(latch_hold_us_total, kSum) /* total exclusive hold */                    \
  X(latch_hold_us_max, kMax) /* longest single exclusive hold */             \
  X(latch_exclusive_holds, kSum) /* exclusive critical sections */           \
  /* Buffer pool: contended shard-mutex acquisitions and their wait. */       \
  X(pool_lock_waits, kSum) /* acquisitions that found the mutex held */      \
  X(pool_lock_wait_us, kSum) /* their total wait, microseconds */            \
  /* Delta log. */                                                            \
  X(log_appends, kSum) /* records staged to the delta log */                 \
  X(log_syncs, kSum) /* group-commit fsync batches */                        \
  X(log_torn_records, kSum) /* torn tails dropped during replay */           \
  X(log_sync_failures, kSum) /* failed group commits (backpressure) */       \
  /* Watermarks. */                                                           \
  X(last_seq, kSum) /* newest assigned delta sequence number */              \
  X(durable_seq, kSum) /* newest fsynced sequence number */                  \
  X(applied_seq, kSum) /* newest store-applied sequence number */            \
  /* Health incident. */                                                      \
  X(poisoned_at_us, kIncident) /* steady-clock us at Poison(); 0 = never */  \
  X(health_since_us, kIncident) /* steady-clock us of the last transition */ \
  /* Self-healing (supervisor); zero for an unsupervised cube. */             \
  X(quarantines, kSum) /* transitions into QUARANTINED */                    \
  X(recovery_attempts, kSum) /* teardown+reopen cycles started */            \
  X(recoveries, kSum) /* shards re-admitted HEALTHY */                       \
  X(parked_writes, kSum) /* writes parked while a shard healed */            \
  X(parked_dropped, kSum) /* parked/offered writes rejected or lost */       \
  /* Scrub-and-repair (parity); zero without scrub ticks or parity. */        \
  X(scrub_passes, kSum) /* full scrub sweeps finished */                     \
  X(scrubbed_blocks, kSum) /* blocks verified by scrub ticks */              \
  X(scrub_repairs, kSum) /* corrupt blocks scrub ticks rebuilt */            \
  X(parity_repairs, kSum) /* in-place parity repairs, all explicit paths */  \
  X(parity_unrepairable, kSum) /* reconstruction attempts that failed */

/// \brief Counters of the serving layer, snapshotted by ServingCube::stats().
struct ServingStats {
#define SHIFTSPLIT_DECLARE_COUNTER(member, merge) uint64_t member = 0;
  SHIFTSPLIT_SERVING_COUNTERS(SHIFTSPLIT_DECLARE_COUNTER)
#undef SHIFTSPLIT_DECLARE_COUNTER

  // Health. A ShardedCube reports its worst shard's health, and the poison
  // fields describe the first poisoned shard.
  ShardHealth health = ShardHealth::kHealthy;
  StatusCode poison_code = StatusCode::kOk;  ///< cause of the quarantine
  std::string poison_message;     ///< first-error text, verbatim

  /// \brief Every counter as `member=value`, then health and poison cause.
  std::string ToString() const;
};

/// \brief One row of the counter table.
struct ServingCounter {
  const char* name;  ///< the member's name, also its wire and CLI key
  CounterMerge merge;
  uint64_t ServingStats::*member;
};

/// \brief Every ServingStats counter, in declaration order.
inline constexpr ServingCounter kServingCounters[] = {
#define SHIFTSPLIT_COUNTER_ROW(member, merge) \
  {#member, CounterMerge::merge, &ServingStats::member},
    SHIFTSPLIT_SERVING_COUNTERS(SHIFTSPLIT_COUNTER_ROW)
#undef SHIFTSPLIT_COUNTER_ROW
};

inline std::string ServingStats::ToString() const {
  std::ostringstream out;
  for (const ServingCounter& counter : kServingCounters) {
    out << counter.name << '=' << this->*counter.member << ' ';
  }
  out << "health=" << ShardHealthToString(health);
  if (poison_code != StatusCode::kOk) {
    out << " poison_code=" << StatusCodeToString(poison_code) << " poison=\""
        << poison_message << "\"";
  }
  return out.str();
}

}  // namespace shiftsplit

#endif  // SHIFTSPLIT_SERVICE_SERVING_STATS_H_
