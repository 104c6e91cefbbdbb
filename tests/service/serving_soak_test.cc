// Concurrent serving soak: writers, readers and maintenance workers running
// together against one on-disk ServingCube. Built to run under tsan (the
// `service` ctest label); every thread is real — the worker pool is
// oversubscribed so the soak genuinely interleaves even on a 1-CPU host.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include "shiftsplit/core/wavelet_cube.h"
#include "shiftsplit/service/serving_cube.h"
#include "shiftsplit/util/random.h"
#include "testing.h"

namespace shiftsplit {
namespace {

TEST(ServingSoakTest, ConcurrentWritersReadersAndMaintenance) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("shiftsplit_serving_soak_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    WaveletCube::Options options;
    ASSERT_OK_AND_ASSIGN(
        auto cube, WaveletCube::CreateOnDisk(dir.string(), {4, 4}, options));
    ASSERT_OK(cube->Close());
  }

  ServingCube::Options options;
  options.oversubscribe = true;  // real threads even on 1-CPU CI hosts
  options.num_workers = 2;
  options.drain_min_deltas = 16;
  options.max_delta_age = std::chrono::milliseconds(5);
  options.max_pending_deltas = 512;
  ASSERT_OK_AND_ASSIGN(auto serving,
                       ServingCube::OpenOnDisk(dir.string(), 256, options));

  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kDeltasPerWriter = 300;
  constexpr int kQueriesPerReader = 400;

  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> read_failures{0};
  std::atomic<bool> writers_done{false};
  std::mutex sum_mu;
  double accepted_sum = 0.0;

  const auto writer = [&](int id) {
    Xoshiro256 rng(1000 + static_cast<uint64_t>(id));
    double local_sum = 0.0;
    for (int i = 0; i < kDeltasPerWriter; ++i) {
      const std::vector<uint64_t> cell{rng.NextBounded(16),
                                       rng.NextBounded(16)};
      const double value = rng.NextUniform(-1.0, 1.0);
      OperationContext ctx;
      ctx.set_timeout(std::chrono::seconds(5));
      const Status status = serving->Add(cell, value, &ctx);
      if (status.ok()) {
        accepted.fetch_add(1);
        local_sum += value;
      } else {
        ASSERT_EQ(status.code(), StatusCode::kUnavailable)
            << status.ToString();
        rejected.fetch_add(1);
      }
    }
    std::lock_guard<std::mutex> lock(sum_mu);
    accepted_sum += local_sum;
  };

  const auto reader = [&](int id) {
    Xoshiro256 rng(2000 + static_cast<uint64_t>(id));
    for (int i = 0; i < kQueriesPerReader; ++i) {
      if (i % 2 == 0) {
        const std::vector<uint64_t> p{rng.NextBounded(16),
                                      rng.NextBounded(16)};
        const auto v = serving->PointQuery(p);
        if (!v.ok() || !std::isfinite(*v)) read_failures.fetch_add(1);
      } else {
        std::vector<uint64_t> lo{rng.NextBounded(16), rng.NextBounded(16)};
        std::vector<uint64_t> hi{lo[0] + rng.NextBounded(16 - lo[0]),
                                 lo[1] + rng.NextBounded(16 - lo[1])};
        const auto v = serving->RangeSum(lo, hi);
        if (!v.ok() || !std::isfinite(*v)) read_failures.fetch_add(1);
      }
      if (writers_done.load() && i % 16 == 0) break;
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) threads.emplace_back(writer, w);
  for (int r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);
  for (size_t t = 0; t < static_cast<size_t>(kWriters); ++t) {
    threads[t].join();
  }
  writers_done.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(read_failures.load(), 0u);
  EXPECT_GT(accepted.load(), 0u);

  ASSERT_OK(serving->DrainAll());
  EXPECT_EQ(serving->pending_deltas(), 0u);
  const ServingStats stats = serving->stats();
  EXPECT_EQ(stats.acked_deltas, accepted.load());
  EXPECT_EQ(stats.applied_seq, stats.last_seq);
  EXPECT_GE(stats.apply_batches, 1u);

  // The whole-domain sum equals the sum of every accepted delta
  // (mathematically; thread interleaving permutes the FP order, hence the
  // tolerance).
  const std::vector<uint64_t> lo{0, 0};
  const std::vector<uint64_t> hi{15, 15};
  ASSERT_OK_AND_ASSIGN(const double total, serving->RangeSum(lo, hi));
  EXPECT_NEAR(total, accepted_sum, 1e-6);

  ASSERT_OK(serving->Close());
  std::filesystem::remove_all(dir);
}

// Consistent cuts under live drains. Each of two writers adds +1 to its
// cell A, waits for the ack, then adds +2 to its cell B in another block,
// over and over, while a worker drains in small batches. A range sum over a
// writer's box (holding its A and B, and no cell of the other writer) reads
// one snapshot, so it sees a prefix of that writer's acked writes: its total
// is 3k or 3k + 1, never 3k + 2 (B's +2 without the +1 acked before it).
// The two writers insert concurrently, so a write published ahead of an
// older one would show up here too. Integer deltas on an all-zero store
// keep every coefficient a small dyadic rational, so the sums are exact.
TEST(ServingSoakTest, RangeSumsReadConsistentCutsUnderLiveDrains) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("shiftsplit_serving_cuts_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    WaveletCube::Options options;
    ASSERT_OK_AND_ASSIGN(
        auto cube, WaveletCube::CreateOnDisk(dir.string(), {4, 4}, options));
    ASSERT_OK(cube->Close());
  }
  ServingCube::Options options;
  options.oversubscribe = true;  // real threads even on 1-CPU CI hosts
  options.num_workers = 1;
  options.durable_acks = false;  // the ack order is what matters here
  options.drain_min_deltas = 2;
  options.max_delta_age = std::chrono::milliseconds(1);
  ASSERT_OK_AND_ASSIGN(auto serving,
                       ServingCube::OpenOnDisk(dir.string(), 256, options));

  // Writer w owns the columns [8w, 8w + 7]: A in the low rows, B in the
  // high ones (different deepest tiles), and a box around both that starts
  // past the column and row origins, so a sum reads boundary coefficients
  // from many blocks but never the other writer's cells.
  constexpr int kWriters = 2;
  struct Pair {
    std::vector<uint64_t> cell_a, cell_b, lo, hi;
  };
  Xoshiro256 rng(20261020);
  std::vector<Pair> pairs_of(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    const uint64_t x0 = 8 * static_cast<uint64_t>(w);
    Pair& p = pairs_of[w];
    p.cell_a = {x0 + 1 + rng.NextBounded(3), 1 + rng.NextBounded(6)};
    p.cell_b = {x0 + 4 + rng.NextBounded(4), 8 + rng.NextBounded(7)};
    p.lo = {x0 + 1 + rng.NextBounded(p.cell_a[0] - x0),
            1 + rng.NextBounded(p.cell_a[1])};
    p.hi = {p.cell_b[0] + rng.NextBounded(x0 + 8 - p.cell_b[0]),
            p.cell_b[1] + rng.NextBounded(16 - p.cell_b[1])};
  }

  // The writers keep going until the worker has committed kMinDrains
  // batches, so the sums overlap many live drains.
  constexpr int kMinPairs = 400;
  constexpr uint64_t kMinDrains = 20;
  constexpr int kReaders = 2;
  std::atomic<int> writers_done{0};
  std::atomic<uint64_t> sums{0};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> failures{0};
  std::vector<int> pairs(kWriters, 0);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const Pair& p = pairs_of[w];
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (pairs[w] < kMinPairs ||
             (serving->stats().apply_batches < kMinDrains &&
              std::chrono::steady_clock::now() < give_up)) {
        if (!serving->Add(p.cell_a, 1.0).ok() ||
            !serving->Add(p.cell_b, 2.0).ok()) {
          failures.fetch_add(1);
        }
        ++pairs[w];
      }
      writers_done.fetch_add(1);
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (uint64_t i = 0; writers_done.load() < kWriters; ++i) {
        const Pair& p = pairs_of[i % kWriters];
        const Result<double> sum = serving->RangeSum(p.lo, p.hi);
        if (!sum.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const auto total = static_cast<int64_t>(*sum);
        if (static_cast<double>(total) != *sum || total % 3 == 2) {
          torn.fetch_add(1);
        }
        sums.fetch_add(1);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(torn.load(), 0u) << "of " << sums.load() << " sums";
  EXPECT_GT(sums.load(), 0u);
  EXPECT_GE(serving->stats().apply_batches, kMinDrains);
  ASSERT_OK(serving->DrainAll());
  for (int w = 0; w < kWriters; ++w) {
    ASSERT_OK_AND_ASSIGN(const double total,
                         serving->RangeSum(pairs_of[w].lo, pairs_of[w].hi));
    EXPECT_EQ(total, 3.0 * pairs[w]) << "writer " << w;
  }
  ASSERT_OK(serving->Close());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace shiftsplit
