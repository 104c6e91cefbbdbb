// Scale sanity: million-coefficient 1-d and quarter-million 2-d stores
// built under tight memory budgets, with queries spot-checked against the
// generator. Kept fast (seconds) because query cost is logarithmic.

#include <gtest/gtest.h>

#include <cmath>

#include "shiftsplit/core/query.h"
#include "shiftsplit/core/reconstruct.h"
#include "shiftsplit/core/shift_split.h"
#include "shiftsplit/core/wavelet_cube.h"
#include "shiftsplit/data/synthetic.h"
#include "shiftsplit/storage/memory_block_manager.h"
#include "shiftsplit/tile/tree_tiling.h"
#include "testing.h"

namespace shiftsplit {
namespace {

TEST(ScaleTest, MillionValueVectorUnderTinyPool) {
  const uint32_t n = 20, m = 10, b = 6;  // 1M values, 1K chunks, 64-slot tiles
  MemoryBlockManager device(uint64_t{1} << b);
  ASSERT_OK_AND_ASSIGN(
      auto store, TiledStore::Create(std::make_unique<TreeTilingLayout>(n, b),
                                     &device, /*pool_blocks=*/8));
  auto value = [](uint64_t i) {
    return std::sin(static_cast<double>(i) * 0.001) +
           static_cast<double>(i % 17) * 0.25;
  };
  std::vector<double> chunk(uint64_t{1} << m);
  for (uint64_t k = 0; k < (uint64_t{1} << (n - m)); ++k) {
    for (uint64_t i = 0; i < chunk.size(); ++i) {
      chunk[i] = value((k << m) + i);
    }
    ASSERT_OK(TransformAndApplyChunk1D(chunk, n, k, store.get(),
                                       Normalization::kAverage));
  }
  // Spot point queries (single-block strategy).
  const std::vector<uint32_t> log_dims{n};
  QueryOptions q;
  q.use_scaling_slots = true;
  Xoshiro256 rng(81);
  for (int i = 0; i < 200; ++i) {
    std::vector<uint64_t> p{rng.NextBounded(uint64_t{1} << n)};
    ASSERT_OK(store->pool().Clear());
    device.stats().Reset();
    ASSERT_OK_AND_ASSIGN(
        const double v,
        ExactValue(PointQueryStandard(store.get(), log_dims, p, q)));
    ASSERT_NEAR(v, value(p[0]), 1e-8);
    ASSERT_EQ(device.stats().block_reads, 1u);
  }
  // A wide range sum.
  std::vector<uint64_t> lo{123456}, hi{789012};
  double brute = 0.0;
  for (uint64_t i = lo[0]; i <= hi[0]; ++i) brute += value(i);
  ASSERT_OK_AND_ASSIGN(
      const double sum,
      ExactValue(RangeSumStandard(store.get(), log_dims, lo, hi,
                                  QueryOptions{})));
  EXPECT_NEAR(sum, brute, std::abs(brute) * 1e-9 + 1e-6);
}

TEST(ScaleTest, QuarterMillionCellCubeEndToEnd) {
  auto dataset = MakeSmoothDataset(TensorShape({512, 512}), 82);
  WaveletCube::Options options;
  options.b = 3;
  options.pool_blocks = 128;
  ASSERT_OK_AND_ASSIGN(auto cube,
                       WaveletCube::CreateInMemory({9, 9}, options));
  ASSERT_OK(cube->Ingest(dataset.get(), /*log_chunk=*/5));

  Xoshiro256 rng(83);
  for (int i = 0; i < 50; ++i) {
    std::vector<uint64_t> p{rng.NextBounded(512), rng.NextBounded(512)};
    ASSERT_OK_AND_ASSIGN(const double v, cube->PointQuery(p));
    ASSERT_NEAR(v, dataset->Cell(p), 1e-8);
  }
  // Extract a 64x64 region and verify a diagonal.
  std::vector<uint64_t> lo{100, 300}, hi{163, 363};
  ASSERT_OK_AND_ASSIGN(Tensor box, cube->Extract(lo, hi));
  for (uint64_t i = 0; i < 64; i += 7) {
    std::vector<uint64_t> local{i, i};
    std::vector<uint64_t> cell{100 + i, 300 + i};
    ASSERT_NEAR(box.At(local), dataset->Cell(cell), 1e-8);
  }
}

}  // namespace
}  // namespace shiftsplit
