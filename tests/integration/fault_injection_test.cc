// Failure-injection tests: a decorating BlockManager that fails after a
// configurable number of operations verifies that every maintenance and
// query path propagates I/O errors as Status instead of crashing or
// corrupting counters.

#include <gtest/gtest.h>

#include "shiftsplit/core/chunked_transform.h"
#include "shiftsplit/core/query.h"
#include "shiftsplit/core/reconstruct.h"
#include "shiftsplit/core/shift_split.h"
#include "shiftsplit/data/synthetic.h"
#include "shiftsplit/storage/memory_block_manager.h"
#include "shiftsplit/tile/standard_tiling.h"
#include "shiftsplit/tile/tree_tiling.h"
#include "storage/fault_injection_block_manager.h"
#include "testing.h"

namespace shiftsplit {
namespace {

// Wraps a fresh in-memory device in the shared fault-injection decorator
// with `budget` operations before the device "dies" (see FailAfter).
struct FaultyDevice {
  FaultyDevice(uint64_t block_size, uint64_t budget)
      : inner(block_size), manager(&inner) {
    manager.FailAfter(budget);
  }

  MemoryBlockManager inner;
  testing::FaultInjectionBlockManager manager;
};

TEST(FaultInjectionTest, ChunkApplyPropagatesWriteFailure) {
  FaultyDevice device(4, /*budget=*/3);
  auto& manager = device.manager;
  ASSERT_OK_AND_ASSIGN(
      auto store, TiledStore::Create(std::make_unique<TreeTilingLayout>(6, 2),
                                     &manager, 2));
  auto data = testing::RandomVector(64, 1);
  Status status;
  for (uint64_t k = 0; k < 16 && status.ok(); ++k) {
    status = TransformAndApplyChunk1D(
        std::span<const double>(data.data() + k * 4, 4), 6, k, store.get(),
        Normalization::kAverage);
  }
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_EQ(status.message(), "injected device failure");
}

TEST(FaultInjectionTest, TransformDatasetPropagatesFailure) {
  auto dataset = MakeUniformDataset(TensorShape({16, 16}), 0, 1, 2);
  FaultyDevice device(16, /*budget=*/10);
  auto& manager = device.manager;
  ASSERT_OK_AND_ASSIGN(
      auto store,
      TiledStore::Create(
          std::make_unique<StandardTiling>(std::vector<uint32_t>{4, 4}, 2),
          &manager, 4));
  const auto result = TransformDatasetStandard(dataset.get(), 2, store.get());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(FaultInjectionTest, QueriesPropagateReadFailure) {
  const std::vector<uint32_t> log_dims{4, 4};
  FaultyDevice device(16, /*budget=*/1u << 20);
  auto& manager = device.manager;
  ASSERT_OK_AND_ASSIGN(
      auto store,
      TiledStore::Create(std::make_unique<StandardTiling>(log_dims, 2),
                         &manager, 4));
  auto dataset = MakeUniformDataset(TensorShape({16, 16}), 0, 1, 3);
  ASSERT_OK(TransformDatasetStandard(dataset.get(), 2, store.get()).status());
  ASSERT_OK(store->pool().Clear());

  manager.Refill(0);  // device dies
  std::vector<uint64_t> point{3, 7};
  EXPECT_EQ(PointQueryStandard(store.get(), log_dims, point, QueryOptions{})
                .status()
                .code(),
            StatusCode::kIOError);
  std::vector<uint64_t> lo{0, 0}, hi{7, 7};
  EXPECT_EQ(RangeSumStandard(store.get(), log_dims, lo, hi, QueryOptions{})
                .status()
                .code(),
            StatusCode::kIOError);
  std::vector<uint32_t> range_log{2, 2};
  std::vector<uint64_t> range_pos{0, 0};
  EXPECT_EQ(ReconstructDyadicStandard(store.get(), log_dims, range_log,
                                      range_pos, Normalization::kAverage)
                .status()
                .code(),
            StatusCode::kIOError);
}

TEST(FaultInjectionTest, RecoveryAfterTransientFailure) {
  // A failed operation must leave the store usable once the device heals:
  // re-running the whole construction yields a correct transform.
  const std::vector<uint32_t> log_dims{4, 4};
  FaultyDevice device(16, /*budget=*/7);
  auto& manager = device.manager;
  ASSERT_OK_AND_ASSIGN(
      auto store,
      TiledStore::Create(std::make_unique<StandardTiling>(log_dims, 2),
                         &manager, 4));
  auto dataset = MakeUniformDataset(TensorShape({16, 16}), 0, 1, 4);
  EXPECT_FALSE(
      TransformDatasetStandard(dataset.get(), 2, store.get()).ok());

  manager.Refill(~uint64_t{0});
  ASSERT_OK(store->pool().Clear());
  ASSERT_OK(TransformDatasetStandard(dataset.get(), 2, store.get()).status());
  std::vector<uint64_t> point{9, 9};
  ASSERT_OK_AND_ASSIGN(
      const double v,
      ExactValue(PointQueryStandard(store.get(), log_dims, point,
                                    QueryOptions{})));
  EXPECT_NEAR(v, dataset->Cell(point), 1e-9);
}

TEST(FaultInjectionTest, PoolEvictionFailureSurfacesOnLaterAccess) {
  // Even when the failing write happens on an eviction of an unrelated
  // dirty frame, the caller of the triggering access sees the error.
  MemoryBlockManager inner(4, 4);
  testing::FaultInjectionBlockManager manager(&inner);
  BufferPool pool(&manager, 1);
  {
    ASSERT_OK_AND_ASSIGN(auto page, pool.GetBlock(0, true));
    page[0] = 1.0;
  }
  manager.FailNthWrite(1);
  // The next get reads block 1, then evicts dirty block 0 — whose injected
  // write-back failure surfaces here (and block 0 stays cached and dirty).
  EXPECT_FALSE(pool.GetBlock(1, false).ok());
  EXPECT_EQ(pool.cached_blocks(), 1u);
}

}  // namespace
}  // namespace shiftsplit
