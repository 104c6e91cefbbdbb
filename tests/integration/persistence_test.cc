// Durability tests: a file-backed tile store survives process "restarts"
// (close and reopen of the backing file) with queries intact.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "shiftsplit/core/chunked_transform.h"
#include "shiftsplit/core/query.h"
#include "shiftsplit/data/synthetic.h"
#include "shiftsplit/storage/file_block_manager.h"
#include "shiftsplit/storage/memory_block_manager.h"
#include "shiftsplit/tile/standard_tiling.h"
#include "testing.h"

namespace shiftsplit {
namespace {

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("shiftsplit_persist_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(PersistenceTest, TransformSurvivesReopen) {
  const std::vector<uint32_t> log_dims{4, 4};
  const std::string path = (dir_ / "cube.blocks").string();
  auto dataset = MakeUniformDataset(TensorShape({16, 16}), -1.0, 1.0, 97);

  {
    auto layout = std::make_unique<StandardTiling>(log_dims, 2);
    ASSERT_OK_AND_ASSIGN(
        auto manager,
        FileBlockManager::Open(path, layout->block_capacity()));
    ASSERT_OK_AND_ASSIGN(
        auto store, TiledStore::Create(std::move(layout), manager.get(), 16));
    ASSERT_OK(
        TransformDatasetStandard(dataset.get(), 2, store.get()).status());
    ASSERT_OK(store->Flush());
    ASSERT_OK(manager->Sync());
  }

  // Reopen and query.
  {
    auto layout = std::make_unique<StandardTiling>(log_dims, 2);
    ASSERT_OK_AND_ASSIGN(
        auto manager,
        FileBlockManager::Open(path, layout->block_capacity()));
    EXPECT_EQ(manager->num_blocks(), 25u);
    ASSERT_OK_AND_ASSIGN(
        auto store, TiledStore::Create(std::move(layout), manager.get(), 16));
    QueryOptions slot_mode;
    slot_mode.use_scaling_slots = true;
    Xoshiro256 rng(5);
    for (int i = 0; i < 40; ++i) {
      std::vector<uint64_t> point{rng.NextBounded(16), rng.NextBounded(16)};
      ASSERT_OK_AND_ASSIGN(
          const double v,
          ExactValue(PointQueryStandard(store.get(), log_dims, point,
                                        slot_mode)));
      EXPECT_NEAR(v, dataset->Cell(point), 1e-9);
    }
  }
}

TEST_F(PersistenceTest, FileAndMemoryBackendsCountIdenticalIo) {
  const std::vector<uint32_t> log_dims{4, 3};
  auto run = [&](BlockManager* manager) -> IoStats {
    auto layout = std::make_unique<StandardTiling>(log_dims, 2);
    auto dataset = MakeUniformDataset(TensorShape({16, 8}), 0.0, 1.0, 98);
    auto store_r = TiledStore::Create(std::move(layout), manager, 8);
    EXPECT_TRUE(store_r.ok());
    auto store = std::move(store_r).value();
    auto result = TransformDatasetStandard(dataset.get(), 2, store.get());
    EXPECT_TRUE(result.ok());
    return result->store_io;
  };

  MemoryBlockManager memory(16);
  const IoStats mem_io = run(&memory);

  auto file_r = FileBlockManager::Open((dir_ / "io.blocks").string(), 16);
  ASSERT_TRUE(file_r.ok());
  const IoStats file_io = run(file_r->get());

  EXPECT_EQ(mem_io, file_io);
}

}  // namespace
}  // namespace shiftsplit
