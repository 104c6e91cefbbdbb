#include <gtest/gtest.h>

#include <cmath>

#include "shiftsplit/core/md_shift_split.h"
#include "shiftsplit/core/query.h"
#include "shiftsplit/core/reconstruct.h"
#include "shiftsplit/storage/memory_block_manager.h"
#include "shiftsplit/tile/nonstandard_tiling.h"
#include "shiftsplit/tile/standard_tiling.h"
#include "testing.h"

namespace shiftsplit {
namespace {

using testing::RandomVector;

struct Bundle {
  std::unique_ptr<MemoryBlockManager> manager;
  std::unique_ptr<TiledStore> store;
  Tensor data;
};

Bundle LoadedStandard(std::vector<uint32_t> log_dims, uint64_t seed) {
  Bundle bundle;
  std::vector<uint64_t> dims;
  for (uint32_t n : log_dims) dims.push_back(uint64_t{1} << n);
  TensorShape shape(dims);
  bundle.data = Tensor(shape, RandomVector(shape.num_elements(), seed));
  auto layout = std::make_unique<StandardTiling>(log_dims, 2);
  bundle.manager =
      std::make_unique<MemoryBlockManager>(layout->block_capacity());
  auto r = TiledStore::Create(std::move(layout), bundle.manager.get(), 512);
  EXPECT_TRUE(r.ok());
  bundle.store = std::move(r).value();
  std::vector<uint64_t> zero(log_dims.size(), 0);
  EXPECT_OK(ApplyChunkStandard(bundle.data, zero, log_dims,
                               bundle.store.get(), Normalization::kAverage));
  return bundle;
}

TEST(CubeCoverTest, CoversExactlyOnce2D) {
  const uint32_t d = 2, n = 4;
  std::vector<uint64_t> lo{3, 5}, hi{12, 14};
  const auto cubes = CubeCover(d, n, lo, hi);
  std::vector<std::vector<int>> hits(16, std::vector<int>(16, 0));
  for (const auto& cube : cubes) {
    const uint64_t edge = uint64_t{1} << cube.level;
    for (uint64_t x = 0; x < edge; ++x) {
      for (uint64_t y = 0; y < edge; ++y) {
        hits[cube.node[0] * edge + x][cube.node[1] * edge + y]++;
      }
    }
  }
  for (uint64_t x = 0; x < 16; ++x) {
    for (uint64_t y = 0; y < 16; ++y) {
      const bool inside = x >= 3 && x <= 12 && y >= 5 && y <= 14;
      EXPECT_EQ(hits[x][y], inside ? 1 : 0) << x << "," << y;
    }
  }
}

TEST(CubeCoverTest, AlignedBoxIsOneCube) {
  std::vector<uint64_t> lo{8, 8}, hi{15, 15};
  const auto cubes = CubeCover(2, 4, lo, hi);
  ASSERT_EQ(cubes.size(), 1u);
  EXPECT_EQ(cubes[0].level, 3u);
  EXPECT_EQ(cubes[0].node, (std::vector<uint64_t>{1, 1}));
}

TEST(CubeCoverTest, SingleCell) {
  std::vector<uint64_t> lo{7, 2, 5}, hi{7, 2, 5};
  const auto cubes = CubeCover(3, 3, lo, hi);
  ASSERT_EQ(cubes.size(), 1u);
  EXPECT_EQ(cubes[0].level, 0u);
  EXPECT_EQ(cubes[0].node, lo);
}

TEST(ReconstructRangeNonstandardTest, ArbitraryBoxMatchesData) {
  const uint32_t d = 2, n = 4;
  Tensor data(TensorShape::Cube(d, 16), RandomVector(256, 31));
  auto layout = std::make_unique<NonstandardTiling>(d, n, 2);
  MemoryBlockManager manager(layout->block_capacity());
  auto store_r = TiledStore::Create(std::move(layout), &manager, 512);
  ASSERT_TRUE(store_r.ok());
  auto store = std::move(store_r).value();
  std::vector<uint64_t> zero(d, 0);
  ASSERT_OK(ApplyChunkNonstandard(data, zero, n, store.get(),
                                  Normalization::kAverage));

  std::vector<uint64_t> lo{3, 6}, hi{13, 11};
  ASSERT_OK_AND_ASSIGN(
      Tensor box, ReconstructRangeNonstandard(store.get(), n, lo, hi,
                                              Normalization::kAverage));
  for (uint64_t x = lo[0]; x <= hi[0]; ++x) {
    for (uint64_t y = lo[1]; y <= hi[1]; ++y) {
      std::vector<uint64_t> local{x - lo[0], y - lo[1]};
      std::vector<uint64_t> cell{x, y};
      ASSERT_NEAR(box.At(local), data.At(cell), 1e-9);
    }
  }
}

TEST(ReconstructRangeNonstandardTest, ValidatesBounds) {
  auto layout = std::make_unique<NonstandardTiling>(2, 3, 2);
  MemoryBlockManager manager(layout->block_capacity());
  auto store_r = TiledStore::Create(std::move(layout), &manager, 8);
  ASSERT_TRUE(store_r.ok());
  std::vector<uint64_t> lo{5, 0}, hi{3, 7};
  EXPECT_FALSE(ReconstructRangeNonstandard(store_r->get(), 3, lo, hi,
                                           Normalization::kAverage)
                   .ok());
}

TEST(ProgressiveRangeSumTest, FinalRoundIsExact) {
  const std::vector<uint32_t> log_dims{4, 4};
  Bundle bundle = LoadedStandard(log_dims, 41);
  std::vector<uint64_t> lo{2, 5}, hi{13, 11};
  ASSERT_OK_AND_ASSIGN(
      const double exact,
      ExactValue(RangeSumStandard(bundle.store.get(), log_dims, lo, hi,
                                  QueryOptions{})));
  ASSERT_OK_AND_ASSIGN(
      const auto rounds,
      ProgressiveRangeSumStandard(bundle.store.get(), log_dims, lo, hi,
                                  QueryOptions{}));
  ASSERT_FALSE(rounds.empty());
  EXPECT_NEAR(rounds.back().estimate, exact, 1e-9);
  // Rounds are monotone in depth and cumulative reads.
  for (size_t i = 1; i < rounds.size(); ++i) {
    EXPECT_GT(rounds[i].depth, rounds[i - 1].depth);
    EXPECT_GE(rounds[i].coefficients_read, rounds[i - 1].coefficients_read);
  }
  // Total reads respect Lemma 2's bound in each dimension.
  EXPECT_LE(rounds.back().coefficients_read, (2u * 4 + 1) * (2u * 4 + 1));
}

TEST(ProgressiveRangeSumTest, EstimatesConvergeOnSmoothData) {
  // On smooth data, early (coarse) rounds already carry most of the sum.
  const std::vector<uint32_t> log_dims{5, 5};
  std::vector<uint64_t> dims{32, 32};
  Tensor data{TensorShape(dims)};
  std::vector<uint64_t> c(2, 0);
  do {
    data.At(c) = 10.0 +
                 std::sin(2.0 * M_PI * static_cast<double>(c[0]) / 32.0) +
                 std::cos(2.0 * M_PI * static_cast<double>(c[1]) / 32.0);
  } while (data.shape().Next(c));
  auto layout = std::make_unique<StandardTiling>(log_dims, 2);
  MemoryBlockManager manager(layout->block_capacity());
  auto store_r = TiledStore::Create(std::move(layout), &manager, 512);
  ASSERT_TRUE(store_r.ok());
  auto store = std::move(store_r).value();
  std::vector<uint64_t> zero(2, 0);
  ASSERT_OK(ApplyChunkStandard(data, zero, log_dims, store.get(),
                               Normalization::kAverage));

  std::vector<uint64_t> lo{4, 4}, hi{27, 27};
  ASSERT_OK_AND_ASSIGN(
      const auto rounds,
      ProgressiveRangeSumStandard(store.get(), log_dims, lo, hi,
                                  QueryOptions{}));
  const double exact = rounds.back().estimate;
  // After the first couple of rounds the estimate is within 15% of exact.
  ASSERT_GE(rounds.size(), 3u);
  EXPECT_LT(std::abs(rounds[1].estimate - exact), 0.15 * std::abs(exact));
}

TEST(ProgressiveRangeSumTest, NonstandardFinalRoundIsExact) {
  const uint32_t d = 2, n = 4;
  Tensor data(TensorShape::Cube(d, 16), RandomVector(256, 43));
  auto layout = std::make_unique<NonstandardTiling>(d, n, 2);
  MemoryBlockManager manager(layout->block_capacity());
  auto store_r = TiledStore::Create(std::move(layout), &manager, 512);
  ASSERT_TRUE(store_r.ok());
  auto store = std::move(store_r).value();
  std::vector<uint64_t> zero(d, 0);
  ASSERT_OK(ApplyChunkNonstandard(data, zero, n, store.get(),
                                  Normalization::kAverage));

  std::vector<uint64_t> lo{2, 5}, hi{13, 11};
  ASSERT_OK_AND_ASSIGN(const double exact,
                       RangeSumNonstandard(store.get(), n, lo, hi,
                                           QueryOptions{}));
  ASSERT_OK_AND_ASSIGN(
      const auto rounds,
      ProgressiveRangeSumNonstandard(store.get(), n, lo, hi,
                                     QueryOptions{}));
  ASSERT_FALSE(rounds.empty());
  EXPECT_NEAR(rounds.back().estimate, exact, 1e-9);
  double brute = 0.0;
  std::vector<uint64_t> c(2);
  for (c[0] = lo[0]; c[0] <= hi[0]; ++c[0]) {
    for (c[1] = lo[1]; c[1] <= hi[1]; ++c[1]) brute += data.At(c);
  }
  EXPECT_NEAR(rounds.back().estimate, brute, 1e-8);
  for (size_t i = 1; i < rounds.size(); ++i) {
    EXPECT_GT(rounds[i].depth, rounds[i - 1].depth);
    EXPECT_GE(rounds[i].coefficients_read, rounds[i - 1].coefficients_read);
  }
}

TEST(ProgressiveRangeSumTest, ValidatesArguments) {
  const std::vector<uint32_t> log_dims{3, 3};
  Bundle bundle = LoadedStandard(log_dims, 42);
  std::vector<uint64_t> lo{5, 0}, hi{3, 7};
  EXPECT_FALSE(ProgressiveRangeSumStandard(bundle.store.get(), log_dims, lo,
                                           hi, QueryOptions{})
                   .ok());
}

}  // namespace
}  // namespace shiftsplit
