// Serving-layer scrub-and-repair: inline read-path healing under the
// serving latch, incremental ScrubTick sweeps (also beside live drains),
// the background Scrubber thread, and RepairNow's in-place healing of a
// cube poisoned by corruption — including resuming the interrupted drain so
// no buffered delta is lost and no delta is ever applied twice.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "shiftsplit/core/wavelet_cube.h"
#include "shiftsplit/service/scrubber.h"
#include "shiftsplit/service/serving_cube.h"
#include "shiftsplit/util/random.h"
#include "testing.h"

namespace shiftsplit {
namespace {

std::filesystem::path MakeTempDir(const char* tag) {
  auto dir = std::filesystem::temp_directory_path() /
             (std::string("shiftsplit_scrub_") + tag + "_" +
              std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

// Creates an on-disk parity store ({3,3}, G=4) and returns its on-disk
// stride (payload + footer bytes) via `stride_out`.
void CreateParityStore(const std::filesystem::path& dir,
                       uint64_t* stride_out) {
  WaveletCube::Options options;
  options.parity_group = 4;
  ASSERT_OK_AND_ASSIGN(auto cube,
                       WaveletCube::CreateOnDisk(dir.string(), {3, 3},
                                                 options));
  *stride_out = cube->store()->layout().block_capacity() * sizeof(double) + 16;
  ASSERT_OK(cube->Close());
}

void FlipByte(const std::string& file, uint64_t offset) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << file;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

// Flips one payload byte in every parity stride, so the next flush (which
// must read parity to maintain it incrementally) fails whichever group it
// touches.
void CorruptAllParity(const std::filesystem::path& dir, uint64_t stride) {
  const std::string sidecar = (dir / "blocks.bin").string() + ".parity";
  const uint64_t groups = std::filesystem::file_size(sidecar) / stride;
  ASSERT_GT(groups, 0u);
  for (uint64_t g = 0; g < groups; ++g) FlipByte(sidecar, g * stride + 7);
}

// Buffers `n` deterministic deltas and mirrors them into `expected`
// (row-major 8x8).
void AddDeltas(ServingCube* serving, uint64_t n, uint64_t salt,
               std::vector<double>* expected) {
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t flat = (i * 11 + salt) % 64;
    const std::vector<uint64_t> at{flat / 8, flat % 8};
    const double value = 1.0 + static_cast<double>((i + salt) % 7);
    ASSERT_OK(serving->Add(at, value));
    (*expected)[flat] += value;
  }
}

void ExpectAllCells(ServingCube* serving, const std::vector<double>& expected,
                    bool use_scaling_slots = true) {
  for (uint64_t r = 0; r < 8; ++r) {
    for (uint64_t c = 0; c < 8; ++c) {
      const std::vector<uint64_t> at{r, c};
      ASSERT_OK_AND_ASSIGN(const double v,
                           serving->PointQuery(at, use_scaling_slots));
      EXPECT_DOUBLE_EQ(v, expected[r * 8 + c]) << r << "," << c;
    }
  }
}

TEST(ScrubServingTest, QueryHealsCorruptBlockInline) {
  const auto dir = MakeTempDir("inline");
  uint64_t stride = 0;
  CreateParityStore(dir, &stride);

  ServingCube::Options options;
  options.start_workers = false;
  std::vector<double> expected(64, 0.0);
  {
    ASSERT_OK_AND_ASSIGN(auto serving,
                         ServingCube::OpenOnDisk(dir.string(), 64, options));
    AddDeltas(serving.get(), 48, 1, &expected);
    ASSERT_OK(serving->DrainAll());
    ASSERT_OK(serving->Close());
  }
  ASSERT_OK_AND_ASSIGN(auto serving,
                       ServingCube::OpenOnDisk(dir.string(), 64, options));
  // Corrupt after open: recovery has already run (a journal replay on open
  // would silently rewrite the block instead of exercising the read path)
  // and nothing is cached yet, so the first query must hit the bad bytes.
  FlipByte((dir / "blocks.bin").string(), 0 * stride + 3);
  // Nothing special from the caller's side: the read path repairs from
  // parity under the latch and the query answers exactly. Scaling-slot
  // queries read a single block each, so reconstruct from the coefficient
  // path instead — its union over all cells touches every data block,
  // including the corrupt one.
  ExpectAllCells(serving.get(), expected, /*use_scaling_slots=*/false);
  EXPECT_GE(serving->cube()->durability_stats().repaired_blocks, 1u);
  EXPECT_EQ(serving->health(), ShardHealth::kHealthy);
  EXPECT_FALSE(serving->cube()->durability_stats().read_only);
  ASSERT_OK(serving->Close());
  std::filesystem::remove_all(dir);
}

TEST(ScrubServingTest, ScrubTickSweepsAndRepairsIncrementally) {
  const auto dir = MakeTempDir("tick");
  uint64_t stride = 0;
  CreateParityStore(dir, &stride);

  ServingCube::Options options;
  options.start_workers = false;
  std::vector<double> expected(64, 0.0);
  {
    ASSERT_OK_AND_ASSIGN(auto serving,
                         ServingCube::OpenOnDisk(dir.string(), 64, options));
    AddDeltas(serving.get(), 48, 2, &expected);
    ASSERT_OK(serving->DrainAll());
    ASSERT_OK(serving->Close());
  }
  // Two faults in different parity groups (G=4) of the data file.
  const uint64_t strides =
      std::filesystem::file_size(dir / "blocks.bin") / stride;
  ASSERT_GE(strides, 6u);
  FlipByte((dir / "blocks.bin").string(), 1 * stride + 3);
  FlipByte((dir / "blocks.bin").string(), 5 * stride + 3);

  ASSERT_OK_AND_ASSIGN(auto serving,
                       ServingCube::OpenOnDisk(dir.string(), 64, options));
  uint64_t repaired = 0;
  uint64_t scanned = 0;
  for (int tick = 0; tick < 1000; ++tick) {
    const ServingCube::ScrubTickResult result = serving->ScrubTick(4);
    repaired += result.repaired;
    scanned += result.scanned;
    EXPECT_EQ(result.unrepairable, 0u);
    if (result.wrapped) break;
  }
  EXPECT_EQ(repaired, 2u);
  const ServingStats stats = serving->stats();
  EXPECT_EQ(stats.scrub_passes, 1u);
  EXPECT_EQ(stats.scrub_repairs, 2u);
  EXPECT_EQ(stats.parity_repairs, 2u);
  EXPECT_EQ(stats.parity_unrepairable, 0u);
  EXPECT_EQ(stats.scrubbed_blocks, scanned);
  // A second full pass finds everything clean.
  ServingCube::ScrubTickResult result;
  do {
    result = serving->ScrubTick(16);
    EXPECT_EQ(result.repaired, 0u);
  } while (!result.wrapped);
  ExpectAllCells(serving.get(), expected);
  ASSERT_OK(serving->Close());
  std::filesystem::remove_all(dir);
}

TEST(ScrubServingTest, BackgroundScrubberFindsBitRotAndPauses) {
  const auto dir = MakeTempDir("background");
  uint64_t stride = 0;
  CreateParityStore(dir, &stride);

  ServingCube::Options options;
  options.start_workers = false;
  std::vector<double> expected(64, 0.0);
  {
    ASSERT_OK_AND_ASSIGN(auto serving,
                         ServingCube::OpenOnDisk(dir.string(), 64, options));
    AddDeltas(serving.get(), 32, 3, &expected);
    ASSERT_OK(serving->DrainAll());
    ASSERT_OK(serving->Close());
  }
  FlipByte((dir / "blocks.bin").string(), 2 * stride + 11);

  ASSERT_OK_AND_ASSIGN(auto serving,
                       ServingCube::OpenOnDisk(dir.string(), 64, options));
  Scrubber::Options scrub_options;
  scrub_options.interval = std::chrono::milliseconds(1);
  scrub_options.batch_blocks = 4;
  Scrubber scrubber(serving.get(), scrub_options);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (serving->stats().scrub_repairs < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "scrubber never repaired the corrupt block";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  scrubber.Pause();
  EXPECT_TRUE(scrubber.paused());
  const ServingStats paused = serving->stats();
  EXPECT_GE(paused.scrubbed_blocks, 1u);
  EXPECT_EQ(paused.parity_unrepairable, 0u);
  scrubber.Resume();
  scrubber.Stop();

  ExpectAllCells(serving.get(), expected);
  EXPECT_EQ(serving->health(), ShardHealth::kHealthy);
  ASSERT_OK(serving->Close());
  std::filesystem::remove_all(dir);
}

// Scrub ticks exclude running drains: with a worker draining live and
// another thread sweeping ScrubTick(8) back to back, nothing races (the
// test runs under tsan), the ticks do not starve the drain worker, and the
// drained store equals, block for block and bit for bit, a reference cube
// that applied the same deltas synchronously.
TEST(ScrubServingTest, ScrubTicksBesideLiveDrainsKeepStoreExact) {
  const auto dir = MakeTempDir("livedrains");
  uint64_t stride = 0;
  CreateParityStore(dir, &stride);

  ServingCube::Options options;
  options.oversubscribe = true;  // real threads even on 1-CPU CI hosts
  options.num_workers = 1;
  options.durable_acks = false;
  options.drain_min_deltas = 4;
  options.max_delta_age = std::chrono::milliseconds(1);
  ASSERT_OK_AND_ASSIGN(auto serving,
                       ServingCube::OpenOnDisk(dir.string(), 64, options));
  ASSERT_OK_AND_ASSIGN(auto reference,
                       WaveletCube::CreateInMemory({3, 3},
                                                   WaveletCube::Options()));

  std::atomic<bool> writing{true};
  std::atomic<uint64_t> ticks{0};
  std::atomic<uint64_t> unrepairable{0};
  std::thread scrubber([&] {
    while (writing.load()) {
      const ServingCube::ScrubTickResult tick = serving->ScrubTick(8);
      unrepairable.fetch_add(tick.unrepairable);
      ticks.fetch_add(1);
    }
  });
  Xoshiro256 rng(20261021);
  std::vector<Status> failures;
  // At least 400 deltas, and on until drains ran beside the ticks: the
  // scrubber thread may not have started before the 400th delta.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (int i = 0;
       i < 400 || ((serving->stats().apply_batches < 4 || ticks.load() == 0) &&
                   std::chrono::steady_clock::now() < deadline);
       ++i) {
    const std::vector<uint64_t> at{rng.NextBounded(8), rng.NextBounded(8)};
    const double value = rng.NextUniform(-2.0, 2.0);
    const Status added = serving->Add(at, value);
    if (!added.ok()) failures.push_back(added);
    Tensor cell(TensorShape({1, 1}));
    cell[0] = value;
    const Status applied = reference->Update(cell, at);
    if (!applied.ok()) failures.push_back(applied);
    if (i % 16 == 0 && !serving->PointQuery(at).ok()) {
      failures.push_back(Status::Internal("point query failed"));
    }
  }
  writing.store(false);
  scrubber.join();
  ASSERT_TRUE(failures.empty()) << failures[0].ToString();

  ASSERT_OK(serving->DrainAll());
  EXPECT_GT(ticks.load(), 0u);
  EXPECT_EQ(unrepairable.load(), 0u);
  EXPECT_GE(serving->stats().apply_batches, 4u);
  TiledStore* got_store = serving->cube()->store();
  TiledStore* want_store = reference->store();
  const uint64_t num_blocks = want_store->layout().num_blocks();
  ASSERT_EQ(got_store->layout().num_blocks(), num_blocks);
  for (uint64_t block = 0; block < num_blocks; ++block) {
    ASSERT_OK_AND_ASSIGN(PageGuard got,
                         got_store->PinBlock(block, /*for_write=*/false));
    ASSERT_OK_AND_ASSIGN(PageGuard want,
                         want_store->PinBlock(block, /*for_write=*/false));
    for (size_t slot = 0; slot < want.span().size(); ++slot) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got.span()[slot]),
                std::bit_cast<uint64_t>(want.span()[slot]))
          << "block " << block << " slot " << slot;
    }
  }
  EXPECT_EQ(serving->health(), ShardHealth::kHealthy);
  ASSERT_OK(serving->Close());
  std::filesystem::remove_all(dir);
}

// The in-place healing path end to end: a flush that trips over corrupt
// parity poisons the cube mid-drain; RepairNow rebuilds parity, clears the
// poison, and resumes the interrupted drain — every acknowledged delta is
// applied exactly once and the store is durable again.
TEST(ScrubServingTest, RepairNowHealsPoisonedCubeAndResumesDrain) {
  const auto dir = MakeTempDir("repairnow");
  uint64_t stride = 0;
  CreateParityStore(dir, &stride);

  ServingCube::Options options;
  options.start_workers = false;
  std::vector<double> expected(64, 0.0);
  ASSERT_OK_AND_ASSIGN(auto serving,
                       ServingCube::OpenOnDisk(dir.string(), 64, options));
  AddDeltas(serving.get(), 40, 4, &expected);
  ASSERT_OK(serving->DrainAll());

  CorruptAllParity(dir, stride);
  AddDeltas(serving.get(), 24, 5, &expected);
  const Status drained = serving->DrainAll();
  ASSERT_FALSE(drained.ok());
  EXPECT_EQ(serving->health(), ShardHealth::kQuarantined);
  EXPECT_EQ(serving->poison_status().code(), StatusCode::kChecksumMismatch);

  ASSERT_OK_AND_ASSIGN(const ScrubReport report, serving->RepairNow());
  EXPECT_TRUE(report.unrepairable.empty());
  EXPECT_FALSE(report.repaired.empty());  // the rebuilt parity strides
  EXPECT_EQ(serving->health(), ShardHealth::kHealthy);
  {
    const ServingStats stats = serving->stats();
    EXPECT_EQ(stats.applied_seq, stats.last_seq) << "drain did not resume";
    EXPECT_GE(stats.parity_repairs, 1u);
  }
  ExpectAllCells(serving.get(), expected);

  // The resumed commit was real: a crash after it loses nothing.
  ASSERT_OK(serving->CrashForTest());
  serving.reset();
  ASSERT_OK_AND_ASSIGN(auto reopened,
                       ServingCube::OpenOnDisk(dir.string(), 64, options));
  ExpectAllCells(reopened.get(), expected);
  EXPECT_EQ(reopened->health(), ShardHealth::kHealthy);
  ASSERT_OK(reopened->Close());
  std::filesystem::remove_all(dir);
}

// A drain that fails before its journal record changes nothing, the energy
// index included: the block energies move only when a batch installs, so
// after RepairNow re-drains the same contributions the tracked index equals
// one built fresh from the store.
TEST(ScrubServingTest, AbortedDrainLeavesEnergyIndexExact) {
  const auto dir = MakeTempDir("energy");
  uint64_t stride = 0;
  CreateParityStore(dir, &stride);

  ServingCube::Options options;
  options.start_workers = false;
  std::vector<double> expected(64, 0.0);
  ASSERT_OK_AND_ASSIGN(auto serving,
                       ServingCube::OpenOnDisk(dir.string(), 64, options));
  TiledStore* store = serving->cube()->store();
  ASSERT_OK(store->EnableEnergyTracking());
  AddDeltas(serving.get(), 40, 4, &expected);
  ASSERT_OK(serving->DrainAll());

  CorruptAllParity(dir, stride);
  AddDeltas(serving.get(), 24, 5, &expected);
  ASSERT_FALSE(serving->DrainAll().ok());
  EXPECT_EQ(serving->poison_status().code(), StatusCode::kChecksumMismatch);
  ASSERT_OK_AND_ASSIGN(const ScrubReport report, serving->RepairNow());
  EXPECT_TRUE(report.unrepairable.empty());
  EXPECT_EQ(serving->health(), ShardHealth::kHealthy);
  ExpectAllCells(serving.get(), expected);

  const uint64_t num_blocks = store->layout().num_blocks();
  std::vector<double> tracked(num_blocks);
  for (uint64_t b = 0; b < num_blocks; ++b) {
    tracked[b] = store->BlockEnergyCeiling(b);
  }
  ASSERT_OK(store->EnableEnergyTracking());  // rebuilds by a full scan
  for (uint64_t b = 0; b < num_blocks; ++b) {
    const double fresh = store->BlockEnergyCeiling(b);
    EXPECT_NEAR(tracked[b], fresh, 1e-9 * std::max(1.0, fresh))
        << "block " << b;
  }
  ASSERT_OK(serving->Close());
  std::filesystem::remove_all(dir);
}

// RepairNow on a healthy cube is a plain repair scrub: clean store, empty
// report, nothing disturbed.
TEST(ScrubServingTest, RepairNowOnHealthyCubeIsClean) {
  const auto dir = MakeTempDir("noop");
  uint64_t stride = 0;
  CreateParityStore(dir, &stride);

  ServingCube::Options options;
  options.start_workers = false;
  std::vector<double> expected(64, 0.0);
  ASSERT_OK_AND_ASSIGN(auto serving,
                       ServingCube::OpenOnDisk(dir.string(), 64, options));
  AddDeltas(serving.get(), 16, 6, &expected);
  ASSERT_OK(serving->DrainAll());
  ASSERT_OK_AND_ASSIGN(const ScrubReport report, serving->RepairNow());
  EXPECT_TRUE(report.clean());
  ExpectAllCells(serving.get(), expected);
  ASSERT_OK(serving->Close());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace shiftsplit
