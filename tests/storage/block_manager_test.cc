#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "shiftsplit/storage/file_block_manager.h"
#include "shiftsplit/storage/memory_block_manager.h"
#include "shiftsplit/util/random.h"
#include "testing.h"

namespace shiftsplit {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("shiftsplit_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

// Both backends must satisfy the same contract.
enum class Backend { kMemory, kFile };

class BlockManagerContractTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == Backend::kMemory) {
      manager_ = std::make_unique<MemoryBlockManager>(kBlockSize, 4);
    } else {
      auto r = FileBlockManager::Open(dir_.File("blocks.bin"), kBlockSize);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      file_manager_ = std::move(r).value();
      ASSERT_OK(file_manager_->Resize(4));
      manager_.reset(file_manager_.release());
    }
  }

  static constexpr uint64_t kBlockSize = 8;
  TempDir dir_;
  std::unique_ptr<FileBlockManager> file_manager_;
  std::unique_ptr<BlockManager> manager_;
};

TEST_P(BlockManagerContractTest, FreshBlocksReadZero) {
  std::vector<double> buf(kBlockSize, 99.0);
  ASSERT_OK(manager_->ReadBlock(2, buf));
  for (double x : buf) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST_P(BlockManagerContractTest, WriteThenReadRoundTrips) {
  std::vector<double> in{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> out(kBlockSize);
  ASSERT_OK(manager_->WriteBlock(1, in));
  ASSERT_OK(manager_->ReadBlock(1, out));
  testing::ExpectNear(in, out);
  // Other blocks untouched.
  ASSERT_OK(manager_->ReadBlock(0, out));
  for (double x : out) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST_P(BlockManagerContractTest, OutOfRangeAndBadSizesRejected) {
  std::vector<double> buf(kBlockSize);
  EXPECT_EQ(manager_->ReadBlock(4, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(manager_->WriteBlock(4, buf).code(), StatusCode::kOutOfRange);
  std::vector<double> small(kBlockSize - 1);
  EXPECT_EQ(manager_->ReadBlock(0, small).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager_->WriteBlock(0, small).code(),
            StatusCode::kInvalidArgument);
}

TEST_P(BlockManagerContractTest, ResizeGrowsAndRejectsShrink) {
  ASSERT_OK(manager_->Resize(10));
  EXPECT_EQ(manager_->num_blocks(), 10u);
  std::vector<double> buf(kBlockSize);
  ASSERT_OK(manager_->ReadBlock(9, buf));
  EXPECT_EQ(manager_->Resize(3).code(), StatusCode::kInvalidArgument);
}

TEST_P(BlockManagerContractTest, ReadBlocksConcatenatesInRequestOrder) {
  ASSERT_OK(manager_->Resize(8));
  for (const uint64_t id : {1, 2, 3, 6}) {
    std::vector<double> in(kBlockSize);
    for (uint64_t s = 0; s < kBlockSize; ++s) {
      in[s] = static_cast<double>(id * 100 + s);
    }
    ASSERT_OK(manager_->WriteBlock(id, in));
  }
  // A consecutive run (vectored on the file backend), a scattered id, a
  // repeat and a fresh (zero) block.
  const std::vector<uint64_t> ids{1, 2, 3, 6, 1, 5};
  std::vector<double> out(ids.size() * kBlockSize, -1.0);
  ASSERT_OK(manager_->ReadBlocks(ids, out));
  for (size_t i = 0; i < ids.size(); ++i) {
    for (uint64_t s = 0; s < kBlockSize; ++s) {
      const double expected =
          ids[i] == 5 ? 0.0 : static_cast<double>(ids[i] * 100 + s);
      EXPECT_DOUBLE_EQ(out[i * kBlockSize + s], expected)
          << "segment " << i << " slot " << s;
    }
  }
  EXPECT_EQ(manager_->stats().block_reads, ids.size());
}

TEST_P(BlockManagerContractTest, ReadBlocksValidatesSizeAndRange) {
  const std::vector<uint64_t> ids{0, 1};
  std::vector<double> small(kBlockSize);
  EXPECT_EQ(manager_->ReadBlocks(ids, small).code(),
            StatusCode::kInvalidArgument);
  const std::vector<uint64_t> bad{0, 4};
  std::vector<double> out(2 * kBlockSize);
  EXPECT_EQ(manager_->ReadBlocks(bad, out).code(), StatusCode::kOutOfRange);
  // The empty request is a no-op.
  ASSERT_OK(manager_->ReadBlocks({}, {}));
}

TEST_P(BlockManagerContractTest, StatsCountBlockIo) {
  std::vector<double> buf(kBlockSize, 1.0);
  ASSERT_OK(manager_->WriteBlock(0, buf));
  ASSERT_OK(manager_->WriteBlock(1, buf));
  ASSERT_OK(manager_->ReadBlock(0, buf));
  EXPECT_EQ(manager_->stats().block_writes, 2u);
  EXPECT_EQ(manager_->stats().block_reads, 1u);
  manager_->stats().Reset();
  EXPECT_EQ(manager_->stats().total_blocks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, BlockManagerContractTest,
                         ::testing::Values(Backend::kMemory, Backend::kFile));

// Concurrent I/O on distinct blocks (the BlockManager contract the serving
// drain relies on): kThreads threads each read back and rewrite their own
// blocks with seeded images, round after round. Block id % kThreads picks
// the owner, so with parity every group of 4 is shared by all threads.
enum class ConcurrentDevice { kMemory, kFileChecksums, kFileParity };

class ConcurrentBlockIoTest
    : public ::testing::TestWithParam<ConcurrentDevice> {
 protected:
  static constexpr uint64_t kBlockSize = 16;
  static constexpr uint64_t kBlocks = 64;
  static constexpr uint64_t kThreads = 4;
  static constexpr int kRounds = 12;

  void SetUp() override {
    if (GetParam() == ConcurrentDevice::kMemory) {
      manager_ = std::make_unique<MemoryBlockManager>(kBlockSize, kBlocks);
      return;
    }
    FileBlockManager::Options options;
    options.checksums = true;
    options.epoch = 7;
    if (GetParam() == ConcurrentDevice::kFileParity) {
      options.parity_group = 4;
    }
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<FileBlockManager> file,
        FileBlockManager::Open(dir_.File("blocks.bin"), kBlockSize, options));
    ASSERT_OK(file->Resize(kBlocks));
    manager_ = std::move(file);
  }

  // The seeded image written to block `id` in `round`.
  static std::vector<double> Image(uint64_t id, int round) {
    Xoshiro256 rng(id * 1000 + static_cast<uint64_t>(round));
    std::vector<double> image(kBlockSize);
    for (double& v : image) v = rng.NextUniform(-8.0, 8.0);
    return image;
  }

  TempDir dir_;
  std::unique_ptr<BlockManager> manager_;
};

TEST_P(ConcurrentBlockIoTest, DistinctBlocksReadAndRewriteConcurrently) {
  std::vector<std::string> failures[kThreads];
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &failures] {
      std::vector<double> got(kBlockSize);
      for (int round = 0; round < kRounds; ++round) {
        for (uint64_t id = t; id < kBlocks; id += kThreads) {
          const Status read = manager_->ReadBlock(id, got);
          const std::vector<double> want =
              round == 0 ? std::vector<double>(kBlockSize, 0.0)
                         : Image(id, round - 1);
          if (!read.ok() || got != want) {
            failures[t].push_back("block " + std::to_string(id) +
                                  " round " + std::to_string(round) + ": " +
                                  read.ToString());
          }
          const Status written = manager_->WriteBlock(id, Image(id, round));
          if (!written.ok()) failures[t].push_back(written.ToString());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (uint64_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty()) << "thread " << t << ": "
                                     << failures[t].front();
  }

  ASSERT_OK(manager_->Sync());
  std::vector<double> got(kBlockSize);
  for (uint64_t id = 0; id < kBlocks; ++id) {
    ASSERT_OK(manager_->ReadBlock(id, got));
    const std::vector<double> want = Image(id, kRounds - 1);
    for (uint64_t i = 0; i < kBlockSize; ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got[i]),
                std::bit_cast<uint64_t>(want[i]))
          << "block " << id << " slot " << i;
    }
  }
  EXPECT_EQ(manager_->stats().block_writes, kBlocks * kRounds);
  // Parity maintained from four threads still matches every group.
  ASSERT_OK_AND_ASSIGN(const ScrubReport report, manager_->ScrubRepair());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(manager_->durability_stats().checksum_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Devices, ConcurrentBlockIoTest,
    ::testing::Values(ConcurrentDevice::kMemory,
                      ConcurrentDevice::kFileChecksums,
                      ConcurrentDevice::kFileParity),
    [](const ::testing::TestParamInfo<ConcurrentDevice>& info) {
      switch (info.param) {
        case ConcurrentDevice::kMemory:
          return std::string("Memory");
        case ConcurrentDevice::kFileChecksums:
          return std::string("FileChecksums");
        case ConcurrentDevice::kFileParity:
          return std::string("FileChecksumsParity");
      }
      return std::string("Unknown");
    });

TEST(FileBlockManagerTest, PersistsAcrossReopen) {
  TempDir dir;
  const std::string path = dir.File("persist.bin");
  std::vector<double> in{3.5, -1.25};
  {
    ASSERT_OK_AND_ASSIGN(auto manager, FileBlockManager::Open(path, 2));
    ASSERT_OK(manager->Resize(3));
    ASSERT_OK(manager->WriteBlock(2, in));
    ASSERT_OK(manager->Sync());
  }
  {
    ASSERT_OK_AND_ASSIGN(auto manager, FileBlockManager::Open(path, 2));
    EXPECT_EQ(manager->num_blocks(), 3u);
    std::vector<double> out(2);
    ASSERT_OK(manager->ReadBlock(2, out));
    testing::ExpectNear(in, out);
  }
}

TEST(FileBlockManagerTest, RejectsMisalignedExistingFile) {
  TempDir dir;
  const std::string path = dir.File("misaligned.bin");
  {
    ASSERT_OK_AND_ASSIGN(auto manager, FileBlockManager::Open(path, 3));
    ASSERT_OK(manager->Resize(1));  // 24 bytes
  }
  EXPECT_FALSE(FileBlockManager::Open(path, 2).ok());  // 24 % 16 != 0
}

TEST(FileBlockManagerTest, RejectsZeroBlockSize) {
  TempDir dir;
  EXPECT_FALSE(FileBlockManager::Open(dir.File("z.bin"), 0).ok());
}

TEST(FileBlockManagerTest, RejectsBlockSizeWhoseByteSizeOverflows) {
  TempDir dir;
  const auto result =
      FileBlockManager::Open(dir.File("huge.bin"), ~uint64_t{0} / 2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(FileBlockManagerTest, RejectsResizeBeyondAddressableRange) {
  TempDir dir;
  ASSERT_OK_AND_ASSIGN(auto manager,
                       FileBlockManager::Open(dir.File("r.bin"), 1024));
  // 2^61 blocks * 8 KiB each overflows both uint64_t and off_t; the old
  // arithmetic wrapped around and ftruncate silently shrank the mapping.
  const Status status = manager->Resize(uint64_t{1} << 61);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(manager->num_blocks(), 0u);  // device unchanged
  ASSERT_OK(manager->Resize(2));         // still usable
  EXPECT_EQ(manager->num_blocks(), 2u);
}

TEST(IoStatsTest, Arithmetic) {
  IoStats a{10, 5, 100, 50};
  IoStats b{4, 2, 40, 20};
  const IoStats diff = a - b;
  EXPECT_EQ(diff.block_reads, 6u);
  EXPECT_EQ(diff.block_writes, 3u);
  EXPECT_EQ(diff.coeff_reads, 60u);
  EXPECT_EQ(diff.coeff_writes, 30u);
  EXPECT_EQ(diff.total_blocks(), 9u);
  EXPECT_EQ(diff.total_coeffs(), 90u);
  IoStats sum = b;
  sum += b;
  EXPECT_EQ(sum.block_reads, 8u);
  EXPECT_FALSE(sum == b);
}

}  // namespace
}  // namespace shiftsplit
