// End-to-end pipeline tests: generate a dataset, transform it chunk by
// chunk onto a tile store, then query, batch-update, append and reconstruct
// — everything a downstream user would chain together.

#include <gtest/gtest.h>

#include "shiftsplit/core/appender.h"
#include "shiftsplit/core/chunked_transform.h"
#include "shiftsplit/core/query.h"
#include "shiftsplit/core/reconstruct.h"
#include "shiftsplit/core/updater.h"
#include "shiftsplit/data/precipitation.h"
#include "shiftsplit/data/temperature.h"
#include "shiftsplit/storage/memory_block_manager.h"
#include "shiftsplit/tile/nonstandard_tiling.h"
#include "shiftsplit/tile/standard_tiling.h"
#include "testing.h"

namespace shiftsplit {
namespace {

TEST(EndToEndTest, TemperatureCubeStandardPipeline) {
  TemperatureOptions data_options;
  data_options.log_lat = 3;
  data_options.log_lon = 3;
  data_options.log_alt = 2;
  data_options.log_time = 4;
  auto dataset = MakeTemperatureDataset(data_options);
  const std::vector<uint32_t> log_dims{3, 3, 2, 4};

  auto layout = std::make_unique<StandardTiling>(log_dims, 2);
  MemoryBlockManager manager(layout->block_capacity());
  ASSERT_OK_AND_ASSIGN(auto store,
                       TiledStore::Create(std::move(layout), &manager, 512));
  ASSERT_OK(
      TransformDatasetStandard(dataset.get(), 2, store.get()).status());

  // Point queries in both modes agree with the generator.
  QueryOptions path_mode, slot_mode;
  slot_mode.use_scaling_slots = true;
  Xoshiro256 rng(1);
  for (int i = 0; i < 50; ++i) {
    std::vector<uint64_t> point{rng.NextBounded(8), rng.NextBounded(8),
                                rng.NextBounded(4), rng.NextBounded(16)};
    ASSERT_OK_AND_ASSIGN(
        const double via_path,
        ExactValue(PointQueryStandard(store.get(), log_dims, point,
                                      path_mode)));
    ASSERT_OK_AND_ASSIGN(
        const double via_slots,
        ExactValue(PointQueryStandard(store.get(), log_dims, point,
                                      slot_mode)));
    EXPECT_NEAR(via_path, dataset->Cell(point), 1e-8);
    EXPECT_NEAR(via_slots, dataset->Cell(point), 1e-8);
  }

  // A range sum agrees with summing the generator.
  std::vector<uint64_t> lo{1, 2, 0, 3}, hi{5, 6, 3, 12};
  double brute = 0.0;
  std::vector<uint64_t> c = lo;
  for (c[0] = lo[0]; c[0] <= hi[0]; ++c[0])
    for (c[1] = lo[1]; c[1] <= hi[1]; ++c[1])
      for (c[2] = lo[2]; c[2] <= hi[2]; ++c[2])
        for (c[3] = lo[3]; c[3] <= hi[3]; ++c[3]) brute += dataset->Cell(c);
  ASSERT_OK_AND_ASSIGN(
      const double sum,
      ExactValue(RangeSumStandard(store.get(), log_dims, lo, hi,
                                  QueryOptions{})));
  EXPECT_NEAR(sum, brute, 1e-6);

  // Batch-update a region, then reconstruct it.
  Tensor deltas(TensorShape({2, 2, 2, 2}));
  deltas.Fill(1.25);
  std::vector<uint64_t> origin{3, 3, 1, 5};
  ASSERT_OK(UpdateRangeStandard(store.get(), log_dims, deltas, origin,
                                Normalization::kAverage));
  std::vector<uint64_t> q{4, 4, 2, 6};
  ASSERT_OK_AND_ASSIGN(
      const double updated,
      ExactValue(PointQueryStandard(store.get(), log_dims, q, slot_mode)));
  EXPECT_NEAR(updated, dataset->Cell(q) + 1.25, 1e-8);
}

TEST(EndToEndTest, NonstandardCubePipeline) {
  TemperatureOptions data_options;
  data_options.log_lat = 4;
  data_options.log_lon = 4;
  data_options.log_alt = 4;
  data_options.log_time = 4;
  auto dataset = MakeTemperatureDataset(data_options);
  const uint32_t n = 4;

  auto layout = std::make_unique<NonstandardTiling>(4, n, 2);
  MemoryBlockManager manager(layout->block_capacity());
  ASSERT_OK_AND_ASSIGN(auto store,
                       TiledStore::Create(std::move(layout), &manager, 512));
  TransformOptions options;
  options.zorder = true;
  ASSERT_OK(TransformDatasetNonstandard(dataset.get(), 2, store.get(),
                                        options)
                .status());

  QueryOptions slot_mode;
  slot_mode.use_scaling_slots = true;
  Xoshiro256 rng(2);
  for (int i = 0; i < 30; ++i) {
    std::vector<uint64_t> point{rng.NextBounded(16), rng.NextBounded(16),
                                rng.NextBounded(16), rng.NextBounded(16)};
    ASSERT_OK_AND_ASSIGN(
        const double v,
        PointQueryNonstandard(store.get(), n, point, slot_mode));
    EXPECT_NEAR(v, dataset->Cell(point), 1e-8);
  }

  // Reconstruct a dyadic cube.
  std::vector<uint64_t> range_pos{1, 2, 3, 0};
  ASSERT_OK_AND_ASSIGN(Tensor box,
                       ReconstructDyadicNonstandard(store.get(), n, 2,
                                                    range_pos,
                                                    Normalization::kAverage));
  std::vector<uint64_t> local(4, 0);
  do {
    std::vector<uint64_t> cell(4);
    for (uint32_t i = 0; i < 4; ++i) cell[i] = (range_pos[i] << 2) + local[i];
    ASSERT_NEAR(box.At(local), dataset->Cell(cell), 1e-8);
  } while (box.shape().Next(local));
}

TEST(EndToEndTest, PrecipitationAppendScenario) {
  // Figure 13's pipeline at test scale: monthly slabs into an appender,
  // with correctness verified against the full-period dataset.
  PrecipitationOptions options;
  const uint64_t kMonths = 6;
  Appender::Options a_options;
  a_options.b = 2;
  a_options.pool_blocks = 128;
  ASSERT_OK_AND_ASSIGN(auto appender,
                       Appender::Create({3, 3, 5}, 2, a_options));
  for (uint64_t month = 0; month < kMonths; ++month) {
    ASSERT_OK(appender->Append(MakePrecipitationMonth(month, options)));
  }
  EXPECT_EQ(appender->filled(), kMonths * 32);
  EXPECT_EQ(appender->capacity(), 256u);  // 32 -> 64 -> 128 -> 256
  EXPECT_EQ(appender->expansions(), 3u);

  auto dataset = MakePrecipitationDataset(kMonths, options);
  Xoshiro256 rng(3);
  for (int i = 0; i < 60; ++i) {
    std::vector<uint64_t> point{rng.NextBounded(8), rng.NextBounded(8),
                                rng.NextBounded(kMonths * 32)};
    ASSERT_OK_AND_ASSIGN(
        const double v,
        ExactValue(PointQueryStandard(appender->store(), appender->log_dims(),
                                      point, QueryOptions{})));
    EXPECT_NEAR(v, dataset->Cell(point), 1e-8);
  }
}

}  // namespace
}  // namespace shiftsplit
