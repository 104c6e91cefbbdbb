// Seeded, deterministic chaos soak for the query-path resilience layer:
// queries (and a concurrent updater) run against a fault-injecting device
// that quarantines blocks, fails reads transiently, and stalls with latency
// spikes, while deadlines, retry budgets, and graceful degradation keep the
// answers timely and bounded.
//
// The seed comes from SHIFTSPLIT_CHAOS_SEED (decimal) when set, so one
// failing run can be replayed exactly; tools/check.sh pins it.
//
// Invariants exercised:
//  * fault-free degradable answers (max_error > 0) are bit-identical to
//    exact ones;
//  * degraded answers stay within their reported error bound;
//  * a wedged query returns within one block read of its deadline;
//  * the concurrent phase finishes (no hangs) with only sane statuses.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "shiftsplit/core/md_shift_split.h"
#include "shiftsplit/core/query.h"
#include "shiftsplit/storage/memory_block_manager.h"
#include "shiftsplit/tile/standard_tiling.h"
#include "shiftsplit/util/operation_context.h"
#include "storage/fault_injection_block_manager.h"
#include "testing.h"

namespace shiftsplit {
namespace {

using shiftsplit::testing::RandomVector;
using Clock = std::chrono::steady_clock;

uint64_t ChaosSeed() {
  if (const char* env = std::getenv("SHIFTSPLIT_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260806;
}

// A loaded standard-form store whose device is wrapped in the fault
// injector. The data is written through the raw device first, so loading
// never trips an armed fault and the injector's read counters start at the
// first query.
struct ChaosRig {
  std::vector<uint32_t> log_dims;
  Tensor data;
  std::unique_ptr<MemoryBlockManager> inner;
  std::unique_ptr<shiftsplit::testing::FaultInjectionBlockManager> faults;
  std::unique_ptr<TiledStore> store;
};

ChaosRig MakeRig(std::vector<uint32_t> log_dims, uint64_t seed,
                 uint64_t pool_blocks) {
  ChaosRig rig;
  rig.log_dims = std::move(log_dims);
  std::vector<uint64_t> dims;
  for (uint32_t n : rig.log_dims) dims.push_back(uint64_t{1} << n);
  TensorShape shape(dims);
  rig.data = Tensor(shape, RandomVector(shape.num_elements(), seed));

  auto load_layout = std::make_unique<StandardTiling>(rig.log_dims, 2);
  rig.inner =
      std::make_unique<MemoryBlockManager>(load_layout->block_capacity());
  {
    auto r = TiledStore::Create(std::move(load_layout), rig.inner.get(), 512);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::unique_ptr<TiledStore> loader = std::move(r).value();
    std::vector<uint64_t> zero(rig.log_dims.size(), 0);
    EXPECT_OK(ApplyChunkStandard(rig.data, zero, rig.log_dims, loader.get(),
                                 Normalization::kAverage));
    EXPECT_OK(loader->Flush());
  }

  rig.faults = std::make_unique<shiftsplit::testing::FaultInjectionBlockManager>(
      rig.inner.get());
  auto layout = std::make_unique<StandardTiling>(rig.log_dims, 2);
  auto r = TiledStore::Create(std::move(layout), rig.faults.get(),
                              pool_blocks);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  rig.store = std::move(r).value();
  return rig;
}

struct RangeQ {
  std::vector<uint64_t> lo;
  std::vector<uint64_t> hi;
};

std::vector<RangeQ> RandomRanges(const std::vector<uint32_t>& log_dims,
                                 size_t count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<RangeQ> out(count);
  for (auto& q : out) {
    for (uint32_t n : log_dims) {
      const uint64_t dim = uint64_t{1} << n;
      uint64_t a = rng() % dim;
      uint64_t b = rng() % dim;
      q.lo.push_back(std::min(a, b));
      q.hi.push_back(std::max(a, b));
    }
  }
  return out;
}

std::vector<std::vector<uint64_t>> RandomPoints(
    const std::vector<uint32_t>& log_dims, size_t count, uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<std::vector<uint64_t>> out(count);
  for (auto& p : out) {
    for (uint32_t n : log_dims) p.push_back(rng() % (uint64_t{1} << n));
  }
  return out;
}

// The degradable spelling of a query: any degraded answer beats none.
QueryOptions Approx(QueryOptions options) {
  options.max_error = std::numeric_limits<double>::infinity();
  return options;
}

RetryPolicy FastRetry() {
  RetryPolicy r;
  r.max_retries = 3;
  r.initial_backoff_us = 1;
  r.max_backoff_us = 50;
  r.jitter = 0.5;
  return r;
}

// Fault-free: a degradable query must be bit-identical to an exact one —
// it is the same evaluation.
TEST(ChaosSoakTest, FaultFreeResilientIsBitIdentical) {
  const uint64_t seed = ChaosSeed();
  ChaosRig rig = MakeRig({4, 3}, seed, 512);
  ASSERT_OK(rig.store->EnableEnergyTracking());
  QueryOptions options;

  for (const RangeQ& q : RandomRanges(rig.log_dims, 24, seed)) {
    ASSERT_OK_AND_ASSIGN(
        const double exact,
        ExactValue(RangeSumStandard(rig.store.get(), rig.log_dims, q.lo, q.hi,
                                    options)));
    ASSERT_OK_AND_ASSIGN(
        const DegradedResult r,
        RangeSumStandard(rig.store.get(), rig.log_dims, q.lo, q.hi,
                         Approx(options)));
    EXPECT_TRUE(r.exact());
    EXPECT_EQ(r.value, exact);  // bit-identical, not just near
    EXPECT_EQ(r.error_bound, 0.0);
    EXPECT_EQ(r.blocks_missing, 0u);
  }
  for (bool slots : {false, true}) {
    options.use_scaling_slots = slots;
    for (const auto& p : RandomPoints(rig.log_dims, 24, seed)) {
      ASSERT_OK_AND_ASSIGN(
          const double exact,
          ExactValue(PointQueryStandard(rig.store.get(), rig.log_dims, p,
                                        options)));
      ASSERT_OK_AND_ASSIGN(
          const DegradedResult r,
          PointQueryStandard(rig.store.get(), rig.log_dims, p,
                             Approx(options)));
      EXPECT_TRUE(r.exact());
      EXPECT_EQ(r.value, exact);
    }
  }
}

// Quarantined block: answers degrade instead of failing, stay within the
// reported bound, and two identical runs produce identical output.
TEST(ChaosSoakTest, QuarantineDegradesWithinBound) {
  const uint64_t seed = ChaosSeed();
  // Pool of 2 frames: the energy scan and the baseline sweep cannot keep
  // the quarantined block cached, so every query re-reads it and trips the
  // injection.
  ChaosRig rig = MakeRig({4, 3}, seed, 2);
  ASSERT_OK(rig.store->EnableEnergyTracking());
  QueryOptions options;

  const auto queries = RandomRanges(rig.log_dims, 24, seed);
  std::vector<double> exact(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(
        exact[i],
        ExactValue(RangeSumStandard(rig.store.get(), rig.log_dims,
                                    queries[i].lo, queries[i].hi, options)));
  }

  // Every range sum touches the overall scaling coefficient, so its block
  // degrades every query.
  const std::vector<uint64_t> zero(rig.log_dims.size(), 0);
  ASSERT_OK_AND_ASSIGN(const BlockSlot root,
                       rig.store->layout().Locate(zero));
  rig.faults->InjectReadStatus(
      root.block, Status::ChecksumMismatch("injected quarantine"));

  // Push the quarantined block out of the 2-frame pool by touching other
  // blocks, so queries re-read it from the device and trip the injection.
  auto evict_root = [&]() {
    uint64_t touched = 0;
    for (uint64_t b = 0; b < rig.inner->num_blocks() && touched < 3; ++b) {
      if (b == root.block) continue;
      auto unused = rig.store->GetAt(BlockSlot{b, 0});
      (void)unused;
      ++touched;
    }
  };
  evict_root();

  struct Outcome {
    double value;
    double bound;
    uint64_t missing;
    DegradedReason reason;
  };
  auto run = [&]() {
    std::vector<Outcome> out;
    for (size_t i = 0; i < queries.size(); ++i) {
      auto r = RangeSumStandard(rig.store.get(), rig.log_dims, queries[i].lo,
                                queries[i].hi, Approx(options));
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) continue;
      const DegradedResult& d = *r;
      out.push_back({d.value, d.error_bound, d.blocks_missing, d.reason});
      if (d.blocks_missing > 0) {
        EXPECT_EQ(d.reason, DegradedReason::kQuarantined);
        EXPECT_TRUE(std::isfinite(d.error_bound));
        EXPECT_LE(std::abs(d.value - exact[i]), d.error_bound + 1e-12)
            << "query " << i;
      } else {
        EXPECT_EQ(d.value, exact[i]);
      }
    }
    return out;
  };

  const auto first = run();
  uint64_t degraded = 0;
  for (const Outcome& o : first) degraded += o.missing > 0 ? 1 : 0;
  EXPECT_GT(degraded, 0u);

  // Deterministic replay: same seed, same store, same faults — outputs
  // must match bit for bit.
  const auto second = run();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].value, second[i].value);
    EXPECT_EQ(first[i].bound, second[i].bound);
    EXPECT_EQ(first[i].missing, second[i].missing);
    EXPECT_EQ(first[i].reason, second[i].reason);
  }

  // Path-mode point queries walk through the root block too.
  rig.faults->ClearAllReadStatus();
  const auto points = RandomPoints(rig.log_dims, 8, seed);
  std::vector<double> point_exact(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(
        point_exact[i],
        ExactValue(PointQueryStandard(rig.store.get(), rig.log_dims, points[i],
                                      options)));
  }
  rig.faults->InjectReadStatus(
      root.block, Status::ChecksumMismatch("injected quarantine"));
  evict_root();
  uint64_t degraded_points = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(
        const DegradedResult r,
        PointQueryStandard(rig.store.get(), rig.log_dims, points[i],
                           Approx(options)));
    if (r.blocks_missing > 0) {
      ++degraded_points;
      EXPECT_EQ(r.reason, DegradedReason::kQuarantined);
      EXPECT_LE(std::abs(r.value - point_exact[i]), r.error_bound + 1e-12);
    } else {
      EXPECT_EQ(r.value, point_exact[i]);
    }
  }
  EXPECT_GT(degraded_points, 0u);
}

// Enabling energy tracking on an already-damaged store must not fail: the
// scan is best-effort, the unreadable block keeps the +infinity ceiling,
// and degradable queries skip it with an honest (infinite) bound.
TEST(ChaosSoakTest, EnergyScanToleratesUnreadableBlocks) {
  const uint64_t seed = ChaosSeed();
  ChaosRig rig = MakeRig({4, 3}, seed, 2);

  const std::vector<uint64_t> zero(rig.log_dims.size(), 0);
  ASSERT_OK_AND_ASSIGN(const BlockSlot root,
                       rig.store->layout().Locate(zero));
  rig.faults->InjectReadStatus(
      root.block, Status::ChecksumMismatch("injected quarantine"));

  // The root block is quarantined before the scan ever sees it.
  ASSERT_OK(rig.store->EnableEnergyTracking());
  EXPECT_TRUE(std::isinf(rig.store->BlockEnergyCeiling(root.block)));

  QueryOptions options;
  const auto queries = RandomRanges(rig.log_dims, 8, seed);
  uint64_t degraded = 0;
  for (const RangeQ& q : queries) {
    ASSERT_OK_AND_ASSIGN(
        const DegradedResult r,
        RangeSumStandard(rig.store.get(), rig.log_dims, q.lo, q.hi,
                         Approx(options)));
    if (r.blocks_missing > 0) {
      ++degraded;
      EXPECT_EQ(r.reason, DegradedReason::kQuarantined);
      EXPECT_TRUE(std::isinf(r.error_bound));
    }
  }
  EXPECT_GT(degraded, 0u);
}

// Transient read failures within the retry budget are invisible: the
// answers are exact and bit-identical, and the budget was actually used.
TEST(ChaosSoakTest, TransientFailuresRetriedToExact) {
  const uint64_t seed = ChaosSeed();
  ChaosRig rig = MakeRig({4, 3}, seed, 2);
  QueryOptions options;

  const auto queries = RandomRanges(rig.log_dims, 16, seed + 1);
  std::vector<double> exact(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(
        exact[i],
        ExactValue(RangeSumStandard(rig.store.get(), rig.log_dims,
                                    queries[i].lo, queries[i].hi, options)));
  }

  rig.faults->FailEveryNthRead(3);
  uint64_t total_retries = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    // One context per logical operation: each query gets a fresh retry
    // budget, as the production entry points do. The budget must cover
    // every miss the query can take (each one trips the every-3rd-read
    // injection at most once).
    OperationContext ctx;
    RetryPolicy policy = FastRetry();
    policy.max_retries = 64;
    ctx.set_retry_policy(policy);
    ctx.set_jitter_seed(seed + i);
    options.context = &ctx;
    ASSERT_OK_AND_ASSIGN(
        const DegradedResult r,
        RangeSumStandard(rig.store.get(), rig.log_dims, queries[i].lo,
                         queries[i].hi, Approx(options)));
    EXPECT_TRUE(r.exact()) << "query " << i << " degraded: "
                           << DegradedReasonToString(r.reason);
    EXPECT_EQ(r.value, exact[i]);
    total_retries += ctx.retries_used();
  }
  EXPECT_GT(total_retries, 0u);
}

// A deadline cuts a latency-spiked query short: the call returns within
// one stalled block read (plus scheduler slack) of the deadline, degraded
// with kDeadline rather than hung.
TEST(ChaosSoakTest, DeadlineCutsLatencySpikes) {
  const uint64_t seed = ChaosSeed();
  ChaosRig rig = MakeRig({4, 3}, seed, 2);
  QueryOptions options;
  const auto queries = RandomRanges(rig.log_dims, 6, seed + 2);

  constexpr auto kDeadline = std::chrono::milliseconds(40);
  constexpr auto kSpike = std::chrono::milliseconds(30);
  constexpr auto kSlack = std::chrono::milliseconds(2000);
  rig.faults->SetReadLatency(
      2, std::chrono::duration_cast<std::chrono::microseconds>(kSpike)
             .count());

  uint64_t degraded = 0;
  for (const RangeQ& q : queries) {
    OperationContext ctx(kDeadline);
    options.context = &ctx;
    const auto t0 = Clock::now();
    auto r = RangeSumStandard(rig.store.get(), rig.log_dims, q.lo, q.hi,
                              Approx(options));
    const auto elapsed = Clock::now() - t0;
    EXPECT_LT(elapsed, kDeadline + kSpike + kSlack);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (!r->exact()) {
      ++degraded;
      EXPECT_EQ(r->reason, DegradedReason::kDeadline);
      EXPECT_GT(r->blocks_missing, 0u);
    }
  }
  EXPECT_GT(degraded, 0u);
}

// Cancellation is not degradable: it propagates as kCancelled.
TEST(ChaosSoakTest, CancellationPropagates) {
  const uint64_t seed = ChaosSeed();
  ChaosRig rig = MakeRig({4, 3}, seed, 8);
  OperationContext ctx;
  ctx.RequestCancel();
  QueryOptions options;
  options.context = &ctx;
  const std::vector<uint64_t> lo{0, 0};
  const std::vector<uint64_t> hi{7, 7};
  auto r = RangeSumStandard(rig.store.get(), rig.log_dims, lo, hi,
                            Approx(options));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

// Concurrent soak: query threads with deadlines and admission control race
// an updater through transient failures and latency spikes. Asserts the
// phase terminates, every query returns a sane status, and no call
// overruns its deadline by more than a spike plus generous slack.
TEST(ChaosSoakTest, ConcurrentSoakTerminatesWithSaneStatuses) {
  const uint64_t seed = ChaosSeed();
  ChaosRig rig = MakeRig({5, 4}, seed, 8);
  ASSERT_OK(rig.store->EnableEnergyTracking());
  rig.faults->FailEveryNthRead(7);
  rig.faults->SetReadLatency(5, 5'000);  // 5 ms stall on every 5th read
  rig.store->pool().set_thread_safe(true);
  rig.store->pool().SetAdmissionControl(/*max_concurrent=*/2,
                                        /*max_queue_depth=*/2,
                                        /*queue_timeout_us=*/20'000);

  constexpr int kQueryThreads = 3;
  constexpr int kQueriesPerThread = 15;
  constexpr auto kDeadline = std::chrono::milliseconds(50);
  constexpr auto kSpike = std::chrono::milliseconds(5);
  constexpr auto kSlack = std::chrono::milliseconds(5000);  // TSan + 1 CPU

  // Updates and queries serialize on the store contents; the pool itself
  // is thread-safe, but coefficients must not change mid-reconstruction.
  std::shared_mutex data_mu;
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> degraded{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<int> failures{0};

  auto query_worker = [&](int tid) {
    std::mt19937_64 rng(seed + static_cast<uint64_t>(tid));
    const auto ranges =
        RandomRanges(rig.log_dims, kQueriesPerThread, rng());
    for (const RangeQ& q : ranges) {
      std::shared_lock<std::shared_mutex> lock(data_mu);
      OperationContext ctx(kDeadline);
      ctx.set_retry_policy(FastRetry());
      ctx.set_jitter_seed(rng());
      auto ticket = rig.store->pool().AdmitOperation(&ctx);
      if (!ticket.ok()) {
        const StatusCode code = ticket.status().code();
        if (code != StatusCode::kUnavailable &&
            code != StatusCode::kDeadlineExceeded &&
            code != StatusCode::kCancelled) {
          ++failures;
          ADD_FAILURE() << "unexpected admission status: "
                        << ticket.status().ToString();
        }
        ++rejected;
        continue;
      }
      QueryOptions options;
      options.context = &ctx;
      const auto t0 = Clock::now();
      auto r = RangeSumStandard(rig.store.get(), rig.log_dims, q.lo, q.hi,
                                Approx(options));
      const auto elapsed = Clock::now() - t0;
      if (elapsed >= kDeadline + kSpike + kSlack) {
        ++failures;
        ADD_FAILURE() << "query overran its deadline envelope";
      }
      if (!r.ok()) {
        ++failures;
        ADD_FAILURE() << "resilient query failed: " << r.status().ToString();
        continue;
      }
      ++completed;
      if (!r->exact()) ++degraded;
    }
  };

  auto update_worker = [&]() {
    std::mt19937_64 rng(seed + 99);
    for (int i = 0; i < 40; ++i) {
      std::vector<uint64_t> address;
      for (uint32_t n : rig.log_dims) {
        address.push_back(rng() % (uint64_t{1} << n));
      }
      const double delta = static_cast<double>(rng() % 1000) / 1000.0;
      {
        std::unique_lock<std::shared_mutex> lock(data_mu);
        // Transient injected failures may surface here; the updater just
        // moves on — the soak asserts the query side, not write success.
        const Status st = rig.store->Add(address, delta);
        (void)st;
      }
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(update_worker);
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back(query_worker, t);
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(completed.load() + rejected.load(),
            static_cast<uint64_t>(kQueryThreads) * kQueriesPerThread);
  EXPECT_GT(completed.load(), 0u);
  const BufferPool::Stats stats = rig.store->pool_stats();
  EXPECT_EQ(stats.admitted, completed.load());
  RecordProperty("completed", static_cast<int>(completed.load()));
  RecordProperty("degraded", static_cast<int>(degraded.load()));
  RecordProperty("rejected", static_cast<int>(rejected.load()));
}

}  // namespace
}  // namespace shiftsplit
