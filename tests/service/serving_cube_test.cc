#include "shiftsplit/service/serving_cube.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include "shiftsplit/core/wavelet_cube.h"
#include "shiftsplit/data/synthetic.h"
#include "shiftsplit/storage/memory_block_manager.h"
#include "shiftsplit/tile/standard_tiling.h"
#include "shiftsplit/util/random.h"
#include "shiftsplit/wavelet/wavelet_index.h"
#include "storage/fault_injection_block_manager.h"
#include "testing.h"

namespace shiftsplit {
namespace {

std::filesystem::path MakeTempDir(const char* tag) {
  auto dir = std::filesystem::temp_directory_path() /
             (std::string("shiftsplit_serving_") + tag + "_" +
              std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Result<std::unique_ptr<WaveletCube>> MakeCube() {
  WaveletCube::Options options;  // standard form, b = 2
  return WaveletCube::CreateInMemory({4, 4}, options);
}

// One randomized delta at a distinct cell per index (5 is coprime to 256,
// so i*5 mod 256 enumerates every cell exactly once).
struct Delta {
  std::vector<uint64_t> coords;
  double value = 0.0;
};

std::vector<Delta> MakeDeltas(uint64_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Delta> deltas;
  deltas.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t flat = (i * 5) % 256;
    deltas.push_back(
        {{flat / 16, flat % 16}, rng.NextDouble() * 4.0 - 2.0});
  }
  return deltas;
}

// Applies one delta to the reference cube exactly the way ServingCube
// decomposes it: a single-cell kUpdate chunk.
Status ApplyReference(WaveletCube* cube, const Delta& delta) {
  Tensor cell(TensorShape({1, 1}));
  cell[0] = delta.value;
  return cube->Update(cell, delta.coords);
}

// The acceptance-criterion test: freeze a genuine mid-apply state (a prefix
// of the accepted deltas applied to the store, the rest still pending) and
// check thousands of randomized point/range answers are bit-identical to a
// reference cube that applied every delta synchronously.
TEST(ServingCubeTest, MidApplyAnswersBitIdenticalToFullyApplied) {
  ASSERT_OK_AND_ASSIGN(auto base, MakeCube());
  ServingCube::Options options;
  options.start_workers = false;
  ASSERT_OK_AND_ASSIGN(auto serving,
                       ServingCube::Attach(std::move(base), options));
  ASSERT_OK_AND_ASSIGN(auto reference, MakeCube());

  const std::vector<Delta> deltas = MakeDeltas(200, 20260806);
  constexpr uint64_t kPrefix = 120;  // deltas applied to the store

  for (uint64_t i = 0; i < kPrefix; ++i) {
    ASSERT_OK(serving->Add(deltas[i].coords, deltas[i].value));
  }
  // Pin the drain horizon at the current sequence number, then keep
  // writing: the drain below applies exactly the prefix and must leave the
  // rest pending — the state a worker is in mid-apply.
  {
    DeltaBuffer::Snapshot pin(serving->buffer_for_test());
    for (uint64_t i = kPrefix; i < deltas.size(); ++i) {
      ASSERT_OK(serving->Add(deltas[i].coords, deltas[i].value));
    }
    const Status drained = serving->DrainAll();
    ASSERT_EQ(drained.code(), StatusCode::kUnavailable)
        << drained.ToString();
  }
  EXPECT_EQ(serving->stats().applied_seq, kPrefix);
  EXPECT_GT(serving->pending_deltas(), 0u);

  for (const Delta& delta : deltas) {
    ASSERT_OK(ApplyReference(reference.get(), delta));
  }

  Xoshiro256 rng(7);
  uint64_t checked = 0;
  for (int i = 0; i < 5000; ++i) {
    std::vector<uint64_t> p{rng.NextBounded(16), rng.NextBounded(16)};
    ASSERT_OK_AND_ASSIGN(const double got, serving->PointQuery(p));
    ASSERT_OK_AND_ASSIGN(const double want, reference->PointQuery(p));
    ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
        << "point (" << p[0] << "," << p[1] << "): " << got << " vs "
        << want;
    ++checked;
  }
  for (int i = 0; i < 5000; ++i) {
    std::vector<uint64_t> lo{rng.NextBounded(16), rng.NextBounded(16)};
    std::vector<uint64_t> hi{lo[0] + rng.NextBounded(16 - lo[0]),
                             lo[1] + rng.NextBounded(16 - lo[1])};
    ASSERT_OK_AND_ASSIGN(const double got, serving->RangeSum(lo, hi));
    ASSERT_OK_AND_ASSIGN(const double want, reference->RangeSum(lo, hi));
    ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
        << "range sum [" << lo[0] << "," << lo[1] << "]..[" << hi[0] << ","
        << hi[1] << "]: " << got << " vs " << want;
    ++checked;
  }
  EXPECT_EQ(checked, 10000u);

  // Snapshot released: draining the rest must keep answers identical.
  ASSERT_OK(serving->DrainAll());
  EXPECT_EQ(serving->pending_deltas(), 0u);
  for (int i = 0; i < 200; ++i) {
    std::vector<uint64_t> p{rng.NextBounded(16), rng.NextBounded(16)};
    ASSERT_OK_AND_ASSIGN(const double got, serving->PointQuery(p));
    ASSERT_OK_AND_ASSIGN(const double want, reference->PointQuery(p));
    ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want));
  }
}

TEST(ServingCubeTest, CoalescesRepeatedCellsAndCountsStats) {
  ASSERT_OK_AND_ASSIGN(auto base, MakeCube());
  ServingCube::Options options;
  options.start_workers = false;
  ASSERT_OK_AND_ASSIGN(auto serving,
                       ServingCube::Attach(std::move(base), options));

  const std::vector<uint64_t> cell{3, 7};
  const std::vector<uint64_t> other{9, 1};
  ASSERT_OK(serving->Add(cell, 1.0));
  ASSERT_OK(serving->Add(cell, 2.0));
  ASSERT_OK(serving->Add(cell, 0.5));
  ASSERT_OK(serving->Add(other, -1.0));

  ServingStats stats = serving->stats();
  EXPECT_EQ(stats.acked_deltas, 4u);
  EXPECT_EQ(stats.coalesced_deltas, 2u);
  EXPECT_EQ(stats.pending_deltas, 2u);  // two distinct cells
  EXPECT_EQ(serving->pending_deltas(), 2u);

  ASSERT_OK_AND_ASSIGN(const double merged, serving->PointQuery(cell));
  EXPECT_DOUBLE_EQ(merged, 3.5);
  stats = serving->stats();
  EXPECT_GT(stats.overlay_probes, 0u);
  EXPECT_GT(stats.overlay_hits, 0u);

  ASSERT_OK(serving->DrainAll());
  stats = serving->stats();
  EXPECT_EQ(stats.pending_deltas, 0u);
  EXPECT_EQ(stats.applied_deltas, 4u);
  EXPECT_EQ(stats.apply_batches, 1u);
  EXPECT_EQ(stats.applied_seq, stats.last_seq);
  ASSERT_OK_AND_ASSIGN(const double applied, serving->PointQuery(cell));
  EXPECT_DOUBLE_EQ(applied, 3.5);
}

// A query's overlay probes and hits reach the counters when it returns,
// exactly once: a point query of a 16x16 standard-form cube (b = 2) reads
// one block, 3 x 3 coefficients (per dimension the tile's scaling slot and
// its two detail levels), and a pending delta at the same cell holds a
// contribution on every one of them.
TEST(ServingCubeTest, OverlayCountsArriveOncePerQuery) {
  ASSERT_OK_AND_ASSIGN(auto base, MakeCube());
  ServingCube::Options options;
  options.start_workers = false;
  ASSERT_OK_AND_ASSIGN(auto serving,
                       ServingCube::Attach(std::move(base), options));
  const std::vector<uint64_t> cell{3, 7};
  ASSERT_OK(serving->Add(cell, 1.0));
  for (uint64_t query = 1; query <= 3; ++query) {
    ASSERT_OK(serving->PointQuery(cell).status());
    const ServingStats stats = serving->stats();
    EXPECT_EQ(stats.overlay_probes, 9 * query);
    EXPECT_EQ(stats.overlay_hits, 9 * query);
  }
}

TEST(ServingCubeTest, BackpressureRejectsUnderDeadlineAndUnblocksAfterDrain) {
  ASSERT_OK_AND_ASSIGN(auto base, MakeCube());
  ServingCube::Options options;
  options.start_workers = false;
  options.max_pending_deltas = 4;
  ASSERT_OK_AND_ASSIGN(auto serving,
                       ServingCube::Attach(std::move(base), options));

  for (uint64_t i = 0; i < 4; ++i) {
    const std::vector<uint64_t> cell{i, i};
    ASSERT_OK(serving->Add(cell, 1.0));
  }
  // A delta to an already-pending cell coalesces and passes despite the
  // full buffer.
  const std::vector<uint64_t> pending_cell{2, 2};
  ASSERT_OK(serving->Add(pending_cell, 1.0));

  const std::vector<uint64_t> fresh_cell{9, 9};
  OperationContext ctx;
  ctx.set_timeout(std::chrono::milliseconds(30));
  const Status rejected = serving->Add(fresh_cell, 1.0, &ctx);
  ASSERT_EQ(rejected.code(), StatusCode::kUnavailable)
      << rejected.ToString();
  ServingStats stats = serving->stats();
  EXPECT_EQ(stats.rejected_unavailable, 1u);
  EXPECT_GE(stats.stall_waits, 1u);
  EXPECT_GT(stats.stall_us, 0u);

  ASSERT_OK(serving->DrainAll());
  ASSERT_OK(serving->Add(fresh_cell, 1.0));  // room again
  ASSERT_OK_AND_ASSIGN(const double v, serving->PointQuery(fresh_cell));
  EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(ServingCubeTest, CrashBeforeDrainReplaysAcknowledgedDeltas) {
  const auto dir = MakeTempDir("crash");
  {
    WaveletCube::Options options;
    ASSERT_OK_AND_ASSIGN(
        auto cube, WaveletCube::CreateOnDisk(dir.string(), {4, 4}, options));
    ASSERT_OK(cube->Close());
  }

  const std::vector<Delta> first = MakeDeltas(40, 11);
  ServingCube::Options serve_options;
  serve_options.start_workers = false;
  {
    ASSERT_OK_AND_ASSIGN(
        auto serving,
        ServingCube::OpenOnDisk(dir.string(), 256, serve_options));
    // Apply a prefix so the watermark is nonzero, buffer the rest, crash.
    for (uint64_t i = 0; i < 15; ++i) {
      ASSERT_OK(serving->Add(first[i].coords, first[i].value));
    }
    ASSERT_OK(serving->DrainAll());
    for (uint64_t i = 15; i < first.size(); ++i) {
      ASSERT_OK(serving->Add(first[i].coords, first[i].value));
    }
    EXPECT_EQ(serving->pending_deltas(), 25u);
    ASSERT_OK(serving->CrashForTest());
    // Poisoned: no more writes.
    const std::vector<uint64_t> origin_cell{0, 0};
    EXPECT_FALSE(serving->Add(origin_cell, 1.0).ok());
  }

  // Reopen: the acknowledged-but-unapplied deltas must be back, and every
  // answer must match a reference cube holding all 40.
  {
    ASSERT_OK_AND_ASSIGN(
        auto serving,
        ServingCube::OpenOnDisk(dir.string(), 256, serve_options));
    ServingStats stats = serving->stats();
    EXPECT_EQ(stats.replayed_deltas, 25u);
    EXPECT_EQ(stats.pending_deltas, 25u);
    EXPECT_EQ(stats.applied_seq, 15u);

    ASSERT_OK_AND_ASSIGN(auto reference, MakeCube());
    for (const Delta& delta : first) {
      ASSERT_OK(ApplyReference(reference.get(), delta));
    }
    for (const Delta& delta : first) {
      ASSERT_OK_AND_ASSIGN(const double got,
                           serving->PointQuery(delta.coords));
      ASSERT_OK_AND_ASSIGN(const double want,
                           reference->PointQuery(delta.coords));
      ASSERT_EQ(std::bit_cast<uint64_t>(got),
                std::bit_cast<uint64_t>(want));
    }
    ASSERT_OK(serving->DrainAll());
    EXPECT_EQ(serving->pending_deltas(), 0u);
    ASSERT_OK(serving->Close());
  }
  // After an orderly close the log is gone and nothing replays.
  EXPECT_FALSE(std::filesystem::exists(dir / "deltas.log"));
  {
    ASSERT_OK_AND_ASSIGN(
        auto serving,
        ServingCube::OpenOnDisk(dir.string(), 256, serve_options));
    ServingStats stats = serving->stats();
    EXPECT_EQ(stats.replayed_deltas, 0u);
    EXPECT_EQ(stats.pending_deltas, 0u);
    ASSERT_OK(serving->Close());
  }
  std::filesystem::remove_all(dir);
}

// A drain batch touching more blocks than the pool holds must stay
// exactly-once across a commit that fails: the batch is journaled before
// any block changes, so no block reaches the device early (no eviction
// writes it back unjournaled) and a crash plus replay of the delta log
// applies every delta once.
TEST(ServingCubeTest, DrainLargerThanPoolSurvivesFailedCommit) {
  const auto dir = MakeTempDir("bigdrain");
  {
    WaveletCube::Options options;  // standard form, b = 2
    ASSERT_OK_AND_ASSIGN(
        auto cube, WaveletCube::CreateOnDisk(dir.string(), {6, 6}, options));
    ASSERT_OK(cube->Close());
  }
  ServingCube::Options serve_options;
  serve_options.start_workers = false;
  std::map<std::vector<uint64_t>, double> model;
  Xoshiro256 rng(20261020);
  {
    ASSERT_OK_AND_ASSIGN(
        auto serving,
        ServingCube::OpenOnDisk(dir.string(), /*pool_blocks=*/8,
                                serve_options));
    for (int i = 0; i < 40; ++i) {
      const std::vector<uint64_t> cell{rng.NextBounded(64),
                                       rng.NextBounded(64)};
      ASSERT_OK(serving->Add(cell, 1.0));
      model[cell] += 1.0;
    }
    // A directory where the journal file goes: AppendCommit cannot open it.
    std::filesystem::create_directory(dir / "store.journal");
    EXPECT_FALSE(serving->DrainAll().ok());
    EXPECT_EQ(serving->health(), ShardHealth::kQuarantined);
    EXPECT_EQ(serving->cube()->durability_stats().unjournaled_write_backs,
              0u);
    ASSERT_OK(serving->CrashForTest());
  }
  std::filesystem::remove(dir / "store.journal");

  ASSERT_OK_AND_ASSIGN(
      auto serving,
      ServingCube::OpenOnDisk(dir.string(), /*pool_blocks=*/1024,
                              serve_options));
  for (uint64_t x = 0; x < 64; ++x) {
    for (uint64_t y = 0; y < 64; ++y) {
      const std::vector<uint64_t> cell{x, y};
      const auto it = model.find(cell);
      const double want = it == model.end() ? 0.0 : it->second;
      ASSERT_OK_AND_ASSIGN(const double got, serving->PointQuery(cell));
      ASSERT_EQ(got, want) << "cell (" << x << "," << y << ")";
    }
  }
  const std::vector<uint64_t> lo{0, 0};
  const std::vector<uint64_t> hi{63, 63};
  ASSERT_OK_AND_ASSIGN(const double total, serving->RangeSum(lo, hi));
  EXPECT_EQ(total, 40.0);
  ASSERT_OK(serving->DrainAll());
  ASSERT_OK_AND_ASSIGN(const double drained, serving->RangeSum(lo, hi));
  EXPECT_EQ(drained, 40.0);
  ASSERT_OK(serving->Close());
  std::filesystem::remove_all(dir);
}

// A drain whose in-place write fails after its journal record leaves the
// batch to the record: Close must not flush the store (a flush's own commit
// record would replace the batch's, and the blocks already written in place
// would then take their deltas again from the delta log on reopen), and
// RepairNow must not lift the poison. Reopening replays the record.
TEST(ServingCubeTest, InstallWriteFailureReplaysBatchOnReopen) {
  const auto dir = MakeTempDir("installfail");
  {
    WaveletCube::Options options;  // standard form, b = 2
    ASSERT_OK_AND_ASSIGN(
        auto cube, WaveletCube::CreateOnDisk(dir.string(), {6, 6}, options));
    ASSERT_OK(cube->Close());
  }
  ServingCube::Options serve_options;
  serve_options.start_workers = false;
  std::map<std::vector<uint64_t>, double> model;
  Xoshiro256 rng(20261021);
  {
    ASSERT_OK_AND_ASSIGN(
        auto serving,
        ServingCube::OpenOnDisk(dir.string(), /*pool_blocks=*/64,
                                serve_options));
    for (int i = 0; i < 40; ++i) {
      const std::vector<uint64_t> cell{rng.NextBounded(64),
                                       rng.NextBounded(64)};
      ASSERT_OK(serving->Add(cell, 1.0));
      model[cell] += 1.0;
    }
    // The third in-place write of the batch fails; two blocks are already
    // on the device with the batch's deltas.
    int writes = 0;
    serving->cube()->store()->set_install_write_hook_for_test(
        [&writes](uint64_t) {
          return ++writes == 3 ? Status::IOError("injected write failure")
                               : Status::OK();
        });
    EXPECT_EQ(serving->DrainAll().code(), StatusCode::kIOError);
    EXPECT_EQ(writes, 3);
    EXPECT_EQ(serving->health(), ShardHealth::kQuarantined);
    EXPECT_FALSE(serving->RepairNow().ok());
    EXPECT_EQ(serving->health(), ShardHealth::kQuarantined);
    EXPECT_EQ(serving->Close().code(), StatusCode::kIOError);
  }
  ASSERT_TRUE(std::filesystem::exists(dir / "store.journal"));

  ASSERT_OK_AND_ASSIGN(
      auto serving,
      ServingCube::OpenOnDisk(dir.string(), /*pool_blocks=*/1024,
                              serve_options));
  EXPECT_EQ(serving->stats().applied_seq, 40u) << "the record did not replay";
  for (uint64_t x = 0; x < 64; ++x) {
    for (uint64_t y = 0; y < 64; ++y) {
      const std::vector<uint64_t> cell{x, y};
      const auto it = model.find(cell);
      const double want = it == model.end() ? 0.0 : it->second;
      ASSERT_OK_AND_ASSIGN(const double got, serving->PointQuery(cell));
      ASSERT_EQ(got, want) << "cell (" << x << "," << y << ")";
    }
  }
  const std::vector<uint64_t> lo{0, 0};
  const std::vector<uint64_t> hi{63, 63};
  ASSERT_OK_AND_ASSIGN(const double total, serving->RangeSum(lo, hi));
  EXPECT_EQ(total, 40.0);
  ASSERT_OK(serving->Close());
  std::filesystem::remove_all(dir);
}

// Writes become visible in sequence order, and Add returns only once its
// own write is visible: while writer 1 sits between taking its sequence
// number and inserting its write set, writer 2's later delta is inserted
// but stays invisible to a third thread's queries, writer 2's Add does not
// return, and no drain moves the applied watermark past writer 1's seq.
TEST(ServingCubeTest, WritesBecomeVisibleInSequenceOrder) {
  ASSERT_OK_AND_ASSIGN(auto base, MakeCube());
  ServingCube::Options options;
  options.start_workers = false;
  ASSERT_OK_AND_ASSIGN(auto serving,
                       ServingCube::Attach(std::move(base), options));
  const std::vector<uint64_t> early{1, 1};
  const std::vector<uint64_t> cell_1{3, 5};
  const std::vector<uint64_t> cell_2{12, 9};
  ASSERT_OK(serving->Add(early, 1.0));
  ASSERT_OK(serving->Add(early, 2.0));  // seqs 1 and 2, published
  const uint64_t slots_before = serving->stats().pending_slots;

  constexpr uint64_t kHeldSeq = 3;
  std::promise<void> paused;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  serving->buffer_for_test()->set_add_hook_for_test(
      [&paused, released](uint64_t seq) {
        if (seq != kHeldSeq) return;
        paused.set_value();
        released.wait();
      });
  Status added_1;
  std::thread writer_1([&] { added_1 = serving->Add(cell_1, 4.0); });
  paused.get_future().wait();

  // Writer 2 takes seq 4 and inserts its write set while seq 3 is held.
  Status added_2;
  std::atomic<bool> returned_2{false};
  std::thread writer_2([&] {
    added_2 = serving->Add(cell_2, 8.0);
    returned_2.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (serving->stats().pending_slots == slots_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool inserted_2 = serving->stats().pending_slots > slots_before;
  const Result<double> seen_2 = serving->PointQuery(cell_2);
  const Result<double> seen_1 = serving->PointQuery(cell_1);
  const Result<double> seen_early = serving->PointQuery(early);
  const Status drained = serving->DrainAll();
  const uint64_t applied_while_held = serving->stats().applied_seq;
  const bool returned_while_held = returned_2.load();
  release.set_value();
  writer_1.join();
  writer_2.join();

  EXPECT_TRUE(inserted_2) << "writer 2 never inserted its write set";
  EXPECT_FALSE(returned_while_held)
      << "Add returned before its write became visible";
  ASSERT_OK(added_1);
  ASSERT_OK(added_2);
  ASSERT_OK(seen_2.status());
  EXPECT_EQ(*seen_2, 0.0) << "a write became visible before an older one";
  ASSERT_OK(seen_1.status());
  EXPECT_EQ(*seen_1, 0.0);
  ASSERT_OK(seen_early.status());
  EXPECT_EQ(*seen_early, 3.0);
  EXPECT_EQ(drained.code(), StatusCode::kUnavailable) << drained.ToString();
  EXPECT_EQ(applied_while_held, kHeldSeq - 1);

  // Released: both writes are visible and drain.
  ASSERT_OK_AND_ASSIGN(const double got_1, serving->PointQuery(cell_1));
  EXPECT_EQ(got_1, 4.0);
  ASSERT_OK_AND_ASSIGN(const double got_2, serving->PointQuery(cell_2));
  EXPECT_EQ(got_2, 8.0);
  ASSERT_OK(serving->DrainAll());
  EXPECT_EQ(serving->stats().applied_seq, kHeldSeq + 1);
  ASSERT_OK_AND_ASSIGN(const double drained_2, serving->PointQuery(cell_2));
  EXPECT_EQ(drained_2, 8.0);
  ASSERT_OK_AND_ASSIGN(const double drained_1, serving->PointQuery(cell_1));
  EXPECT_EQ(drained_1, 4.0);
}

// Satellite: Updater->Appender interleaving through the buffer. Point
// updates to already-filled cells stay buffered while a whole new slice
// arrives via Update; after draining, every block must be byte-identical to
// a store that applied the same operations synchronously in the same order.
TEST(ServingCubeTest, UpdaterAppenderInterleaveMatchesSynchronousBytes) {
  ASSERT_OK_AND_ASSIGN(auto base, MakeCube());
  ServingCube::Options options;
  options.start_workers = false;
  ASSERT_OK_AND_ASSIGN(auto serving,
                       ServingCube::Attach(std::move(base), options));
  ASSERT_OK_AND_ASSIGN(auto reference, MakeCube());

  Xoshiro256 rng(99);
  // "Old" data: rows 0..7 get scattered point updates; the "appended"
  // slice is rows 8..11, arriving as one dense Update mid-stream.
  std::vector<Delta> old_updates;
  for (int i = 0; i < 24; ++i) {
    old_updates.push_back(
        {{rng.NextBounded(8), rng.NextBounded(16)},
         rng.NextDouble() * 2.0 - 1.0});
  }
  Tensor slice(TensorShape({4, 16}));
  for (uint64_t i = 0; i < slice.size(); ++i) {
    slice[i] = rng.NextDouble() * 2.0 - 1.0;
  }
  const std::vector<uint64_t> slice_origin{8, 0};

  // Interleave: half the point updates, the slice, the other half — the
  // same order on both sides.
  for (int i = 0; i < 12; ++i) {
    ASSERT_OK(serving->Add(old_updates[i].coords, old_updates[i].value));
    ASSERT_OK(ApplyReference(reference.get(), old_updates[i]));
  }
  ASSERT_OK(serving->Update(slice, slice_origin));
  {
    // Reference applies the slice cell-by-cell in row-major order — the
    // documented serving decomposition.
    std::vector<uint64_t> coords(2, 0);
    do {
      Tensor cell(TensorShape({1, 1}));
      cell[0] = slice.At(coords);
      std::vector<uint64_t> absolute{slice_origin[0] + coords[0],
                                     slice_origin[1] + coords[1]};
      ASSERT_OK(reference->Update(cell, absolute));
    } while (slice.shape().Next(coords));
  }
  for (size_t i = 12; i < old_updates.size(); ++i) {
    ASSERT_OK(serving->Add(old_updates[i].coords, old_updates[i].value));
    ASSERT_OK(ApplyReference(reference.get(), old_updates[i]));
  }

  ASSERT_OK(serving->DrainAll());
  EXPECT_EQ(serving->pending_deltas(), 0u);

  TiledStore* got_store = serving->cube()->store();
  TiledStore* want_store = reference->store();
  const uint64_t num_blocks = got_store->layout().num_blocks();
  ASSERT_EQ(num_blocks, want_store->layout().num_blocks());
  for (uint64_t block = 0; block < num_blocks; ++block) {
    ASSERT_OK_AND_ASSIGN(PageGuard got,
                         got_store->PinBlock(block, /*for_write=*/false));
    ASSERT_OK_AND_ASSIGN(PageGuard want,
                         want_store->PinBlock(block, /*for_write=*/false));
    ASSERT_EQ(got.span().size(), want.span().size());
    for (size_t slot = 0; slot < got.span().size(); ++slot) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got.span()[slot]),
                std::bit_cast<uint64_t>(want.span()[slot]))
          << "block " << block << " slot " << slot;
    }
  }
}

TEST(ServingCubeTest, StatsSurfaceDurableCounters) {
  const auto dir = MakeTempDir("stats");
  {
    WaveletCube::Options options;
    ASSERT_OK_AND_ASSIGN(
        auto cube, WaveletCube::CreateOnDisk(dir.string(), {4, 4}, options));
    ASSERT_OK(cube->Close());
  }
  ServingCube::Options serve_options;
  serve_options.start_workers = false;
  ASSERT_OK_AND_ASSIGN(
      auto serving,
      ServingCube::OpenOnDisk(dir.string(), 256, serve_options));
  const std::vector<uint64_t> cell_a{1, 2};
  const std::vector<uint64_t> cell_b{3, 4};
  ASSERT_OK(serving->Add(cell_a, 1.5));
  ASSERT_OK(serving->Add(cell_b, -0.5));

  ServingStats stats = serving->stats();
  EXPECT_EQ(stats.acked_deltas, 2u);
  EXPECT_EQ(stats.log_appends, 2u);
  EXPECT_GE(stats.log_syncs, 1u);
  EXPECT_EQ(stats.durable_seq, 2u);
  EXPECT_EQ(stats.last_seq, 2u);
  EXPECT_EQ(stats.applied_seq, 0u);
  EXPECT_FALSE(stats.ToString().empty());

  ASSERT_OK(serving->DrainAll());
  stats = serving->stats();
  EXPECT_EQ(stats.applied_seq, 2u);
  EXPECT_EQ(stats.applied_deltas, 2u);
  ASSERT_OK(serving->Close());

  // The drain truncated the idle log, so a reopened store starts with an
  // empty one; what the committed watermark covers is still durable.
  serving.reset();
  ASSERT_OK_AND_ASSIGN(
      serving, ServingCube::OpenOnDisk(dir.string(), 256, serve_options));
  stats = serving->stats();
  EXPECT_EQ(stats.last_seq, 2u);
  EXPECT_EQ(stats.applied_seq, 2u);
  EXPECT_EQ(stats.durable_seq, 2u);
  ASSERT_OK(serving->Close());
  std::filesystem::remove_all(dir);
}

// Satellite: a full disk is backpressure, not corruption. A failed delta-log
// group commit (ENOSPC surfaces as kResourceExhausted) must bounce the ack
// and mark the cube DEGRADED — never poison it — and once space frees up the
// retained batch flushes with the next Add and the cube is HEALTHY again,
// having lost nothing.
TEST(ServingCubeTest, FullDiskIsBackpressureNotCorruption) {
  const auto dir = MakeTempDir("enospc");
  {
    WaveletCube::Options options;
    ASSERT_OK_AND_ASSIGN(
        auto cube, WaveletCube::CreateOnDisk(dir.string(), {4, 4}, options));
    ASSERT_OK(cube->Close());
  }
  ServingCube::Options serve_options;
  serve_options.start_workers = false;
  ASSERT_OK_AND_ASSIGN(
      auto serving,
      ServingCube::OpenOnDisk(dir.string(), 256, serve_options));

  // "Fill the disk": the next two group commits fail like ENOSPC would.
  int failures_left = 2;
  serving->log_for_test()->set_flush_hook_for_test([&failures_left] {
    if (failures_left > 0) {
      --failures_left;
      return Status::ResourceExhausted("no space left on device");
    }
    return Status::OK();
  });

  const std::vector<uint64_t> cell_a{1, 2};
  const std::vector<uint64_t> cell_b{3, 4};
  const Status full_a = serving->Add(cell_a, 2.5);
  ASSERT_FALSE(full_a.ok());
  EXPECT_EQ(full_a.code(), StatusCode::kResourceExhausted);
  const Status full_b = serving->Add(cell_b, -1.25);
  ASSERT_FALSE(full_b.ok());
  EXPECT_EQ(full_b.code(), StatusCode::kResourceExhausted);

  // Degraded, not poisoned: reads still serve (and see the unacked
  // deltas), the poison status stays OK.
  EXPECT_EQ(serving->health(), ShardHealth::kDegraded);
  ASSERT_OK(serving->poison_status());
  ASSERT_OK_AND_ASSIGN(const double read_a, serving->PointQuery(cell_a));
  EXPECT_EQ(read_a, 2.5);
  ServingStats stats = serving->stats();
  EXPECT_EQ(stats.health, ShardHealth::kDegraded);
  EXPECT_GE(stats.log_sync_failures, 2u);
  EXPECT_EQ(stats.poison_code, StatusCode::kOk);

  // "Space freed": the retry (the next Add) flushes the retained batch
  // too, so all three records turn durable and health clears.
  const std::vector<uint64_t> cell_c{0, 3};
  ASSERT_OK(serving->Add(cell_c, 4.0));
  EXPECT_EQ(serving->health(), ShardHealth::kHealthy);
  stats = serving->stats();
  EXPECT_EQ(stats.health, ShardHealth::kHealthy);
  EXPECT_EQ(stats.durable_seq, 3u);

  // The cube serves on without any recovery cycle: drain and verify.
  ASSERT_OK(serving->DrainAll());
  ASSERT_OK_AND_ASSIGN(const double drained_a, serving->PointQuery(cell_a));
  EXPECT_EQ(drained_a, 2.5);
  ASSERT_OK_AND_ASSIGN(const double drained_c, serving->PointQuery(cell_c));
  EXPECT_EQ(drained_c, 4.0);
  ASSERT_OK(serving->Close());
  std::filesystem::remove_all(dir);
}

// Satellite: poisoning captures its cause — code, message and a
// steady-clock timestamp — and stats expose the QUARANTINED health.
TEST(ServingCubeTest, PoisonCauseSurfacesInStats) {
  ASSERT_OK_AND_ASSIGN(auto base, MakeCube());
  ServingCube::Options options;
  options.start_workers = false;
  ASSERT_OK_AND_ASSIGN(auto serving,
                       ServingCube::Attach(std::move(base), options));
  EXPECT_EQ(serving->health(), ShardHealth::kHealthy);
  EXPECT_EQ(serving->stats().poisoned_at_us, 0u);

  ASSERT_OK(serving->CrashForTest());
  EXPECT_EQ(serving->health(), ShardHealth::kQuarantined);
  const Status poison = serving->poison_status();
  ASSERT_FALSE(poison.ok());

  const ServingStats stats = serving->stats();
  EXPECT_EQ(stats.health, ShardHealth::kQuarantined);
  EXPECT_EQ(stats.poison_code, poison.code());
  EXPECT_EQ(stats.poison_message, poison.message());
  EXPECT_FALSE(stats.poison_message.empty());
  EXPECT_GT(stats.poisoned_at_us, 0u);
  // The rendered stats carry the cause for operators.
  EXPECT_NE(stats.ToString().find("QUARANTINED"), std::string::npos);
  EXPECT_NE(stats.ToString().find(stats.poison_message),
            std::string::npos);
}

TEST(ServingCubeTest, RejectsNonstandardAndNullCubes) {
  WaveletCube::Options options;
  options.form = StoreForm::kNonstandard;
  ASSERT_OK_AND_ASSIGN(auto cube,
                       WaveletCube::CreateInMemory({4, 4}, options));
  const auto nonstandard = ServingCube::Attach(std::move(cube));
  ASSERT_FALSE(nonstandard.ok());
  EXPECT_EQ(nonstandard.status().code(), StatusCode::kUnimplemented);

  const auto null_cube = ServingCube::Attach(nullptr);
  ASSERT_FALSE(null_cube.ok());
  EXPECT_EQ(null_cube.status().code(), StatusCode::kInvalidArgument);
}

// Graceful degradation under the overlay: a block that fails to read while
// it still has undrained deltas is skipped, but its pending deltas — held in
// memory — are folded in anyway, so the error bound (the block's stored
// energy) only has to cover the stored coefficients. The pending mass here
// dwarfs the stored one: dropping it would break the bound.
TEST(ServingCubeTest, DegradedAnswersFoldPendingDeltasOfSkippedBlocks) {
  const std::vector<uint32_t> log_dims{4, 4};
  WaveletCube::Options cube_options;  // standard form, b = 2
  MemoryBlockManager device(
      StandardTiling(log_dims, cube_options.b).block_capacity());
  testing::FaultInjectionBlockManager faults(&device);
  cube_options.device = &faults;
  ASSERT_OK_AND_ASSIGN(auto base,
                       WaveletCube::CreateInMemory(log_dims, cube_options));
  ServingCube::Options options;
  options.start_workers = false;
  ASSERT_OK_AND_ASSIGN(auto serving,
                       ServingCube::Attach(std::move(base), options));

  // Small whole-number base data, drained into the store.
  std::map<std::vector<uint64_t>, double> truth;
  Xoshiro256 rng(20261017);
  for (int i = 0; i < 96; ++i) {
    const std::vector<uint64_t> c{rng.NextBounded(16), rng.NextBounded(16)};
    const double v =
        static_cast<double>(static_cast<int64_t>(rng.NextBounded(9)) - 4);
    ASSERT_OK(serving->Add(c, v));
    truth[c] += v;
  }
  ASSERT_OK(serving->DrainAll());
  ASSERT_OK(serving->cube()->EnableEnergyTracking());

  // Heavy undrained deltas on the tile that holds `point`.
  const std::vector<uint64_t> point{5, 9};
  for (const auto& [c, v] :
       std::vector<std::pair<std::vector<uint64_t>, double>>{
           {point, 1024.0}, {{6, 10}, 512.0}, {point, 256.0}}) {
    ASSERT_OK(serving->Add(c, v));
    truth[c] += v;
  }
  ASSERT_GT(serving->pending_deltas(), 0u);

  // Fail the single block a scaling-slot query of `point` reads: the tile
  // combination holding its finest-level details.
  TiledStore* store = serving->cube()->store();
  const std::vector<uint64_t> finest{
      DetailIndex(log_dims[0], 1, point[0] >> 1),
      DetailIndex(log_dims[1], 1, point[1] >> 1)};
  ASSERT_OK_AND_ASSIGN(const BlockSlot home, store->layout().Locate(finest));
  ASSERT_OK(store->pool().Clear());
  faults.InjectReadStatus(home.block,
                          Status::ChecksumMismatch("injected bit rot"));

  QueryOptions approx;
  approx.use_scaling_slots = true;
  approx.max_error = std::numeric_limits<double>::infinity();
  ASSERT_OK_AND_ASSIGN(const DegradedResult p,
                       serving->PointQuery(point, approx));
  EXPECT_EQ(p.reason, DegradedReason::kQuarantined);
  EXPECT_EQ(p.blocks_missing, 1u);
  EXPECT_TRUE(std::isfinite(p.error_bound));
  EXPECT_LE(std::abs(truth[point] - p.value), p.error_bound);

  const std::vector<uint64_t> lo = point;
  const std::vector<uint64_t> hi{15, 15};
  double true_sum = 0.0;
  for (const auto& [c, v] : truth) {
    if (c[0] >= lo[0] && c[1] >= lo[1]) true_sum += v;
  }
  ASSERT_OK_AND_ASSIGN(const DegradedResult sum,
                       serving->RangeSum(lo, hi, approx));
  EXPECT_EQ(sum.reason, DegradedReason::kQuarantined);
  EXPECT_GE(sum.blocks_missing, 1u);
  EXPECT_TRUE(std::isfinite(sum.error_bound));
  EXPECT_LE(std::abs(true_sum - sum.value), sum.error_bound);

  // max_error == 0 is the exact path: the failed fetch's own code.
  EXPECT_EQ(serving->PointQuery(point).status().code(),
            StatusCode::kChecksumMismatch);
  EXPECT_EQ(serving->RangeSum(lo, hi).status().code(),
            StatusCode::kChecksumMismatch);
}

// A serving pool large enough to shard answers bit-identically to one a
// frame smaller, which stays a single shard, after the same ingest, adds
// and drains. The store outgrows both pools, so both miss and evict.
TEST(ServingCubeTest, ShardedPoolAnswersLikeASingleShardPool) {
  constexpr uint64_t kSharded =
      BufferPool::kShards * BufferPool::kMinShardFrames;
  constexpr uint64_t kEdge = 256;
  auto open =
      [](uint64_t pool_blocks) -> Result<std::unique_ptr<ServingCube>> {
    WaveletCube::Options options;
    options.pool_blocks = pool_blocks;
    SS_ASSIGN_OR_RETURN(auto cube,
                        WaveletCube::CreateInMemory({8, 8}, options));
    auto field = MakeSmoothDataset(TensorShape({kEdge, kEdge}), 3);
    SS_RETURN_IF_ERROR(cube->Ingest(field.get(), 3));
    ServingCube::Options serving;
    serving.start_workers = false;
    return ServingCube::Attach(std::move(cube), serving);
  };
  ASSERT_OK_AND_ASSIGN(auto sharded, open(kSharded));
  ASSERT_OK_AND_ASSIGN(auto single, open(kSharded - 1));
  const BufferPool& sharded_pool = sharded->cube()->store()->pool();
  ASSERT_EQ(sharded_pool.num_shards(), BufferPool::kShards);
  ASSERT_EQ(single->cube()->store()->pool().num_shards(), 1u);
  ASSERT_GT(sharded->cube()->store()->layout().num_blocks(), 4 * kSharded);

  Xoshiro256 rng(31);
  auto add_both = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const std::vector<uint64_t> cell{rng.NextBounded(kEdge),
                                       rng.NextBounded(kEdge)};
      const double value = rng.NextDouble() * 4.0 - 2.0;
      ASSERT_OK(sharded->Add(cell, value));
      ASSERT_OK(single->Add(cell, value));
    }
  };
  auto compare = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const std::vector<uint64_t> p{rng.NextBounded(kEdge),
                                    rng.NextBounded(kEdge)};
      ASSERT_OK_AND_ASSIGN(const double got, sharded->PointQuery(p));
      ASSERT_OK_AND_ASSIGN(const double want, single->PointQuery(p));
      ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want));
      const std::vector<uint64_t> lo{rng.NextBounded(kEdge),
                                     rng.NextBounded(kEdge)};
      const std::vector<uint64_t> hi{lo[0] + rng.NextBounded(kEdge - lo[0]),
                                     lo[1] + rng.NextBounded(kEdge - lo[1])};
      ASSERT_OK_AND_ASSIGN(const double sum, sharded->RangeSum(lo, hi));
      ASSERT_OK_AND_ASSIGN(const double want_sum, single->RangeSum(lo, hi));
      ASSERT_EQ(std::bit_cast<uint64_t>(sum),
                std::bit_cast<uint64_t>(want_sum));
    }
  };
  add_both(300);
  ASSERT_OK(sharded->DrainAll());
  ASSERT_OK(single->DrainAll());
  compare(300);
  add_both(200);  // left pending: the overlay folds them
  compare(300);
  EXPECT_GT(sharded_pool.stats().evictions, 0u);
}

}  // namespace
}  // namespace shiftsplit
