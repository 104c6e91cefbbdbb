// Serving-layer scrub-and-repair: inline read-path healing under the
// serving latch, incremental ScrubTick sweeps, the background Scrubber
// thread, and RepairNow's in-place healing of a cube poisoned by
// corruption — including resuming the interrupted drain so no buffered
// delta is lost and no delta is ever applied twice.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "shiftsplit/core/wavelet_cube.h"
#include "shiftsplit/service/scrubber.h"
#include "shiftsplit/service/serving_cube.h"
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
