#include "shiftsplit/core/query.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>

#include "shiftsplit/core/md_shift_split.h"
#include "shiftsplit/wavelet/standard_transform.h"
#include "shiftsplit/storage/memory_block_manager.h"
#include "shiftsplit/tile/naive_tiling.h"
#include "shiftsplit/tile/nonstandard_tiling.h"
#include "shiftsplit/tile/standard_tiling.h"
#include "testing.h"

namespace shiftsplit {
namespace {

using testing::RandomVector;

// The degradable spelling of a query: any degraded answer beats none.
QueryOptions Approx(QueryOptions options) {
  options.max_error = std::numeric_limits<double>::infinity();
  return options;
}

struct Bundle {
  std::unique_ptr<MemoryBlockManager> manager;
  std::unique_ptr<TiledStore> store;
  Tensor data;
};

Bundle LoadedStandard(std::vector<uint32_t> log_dims, Normalization norm,
                      uint64_t seed, uint32_t b = 2) {
  Bundle bundle;
  std::vector<uint64_t> dims;
  for (uint32_t n : log_dims) dims.push_back(uint64_t{1} << n);
  TensorShape shape(dims);
  bundle.data = Tensor(shape, RandomVector(shape.num_elements(), seed));
  auto layout = std::make_unique<StandardTiling>(log_dims, b);
  bundle.manager =
      std::make_unique<MemoryBlockManager>(layout->block_capacity());
  auto r = TiledStore::Create(std::move(layout), bundle.manager.get(), 512);
  EXPECT_TRUE(r.ok());
  bundle.store = std::move(r).value();
  std::vector<uint64_t> zero(log_dims.size(), 0);
  EXPECT_OK(ApplyChunkStandard(bundle.data, zero, log_dims,
                               bundle.store.get(), norm));
  return bundle;
}

Bundle LoadedNonstandard(uint32_t d, uint32_t n, Normalization norm,
                         uint64_t seed, uint32_t b = 2) {
  Bundle bundle;
  TensorShape shape = TensorShape::Cube(d, uint64_t{1} << n);
  bundle.data = Tensor(shape, RandomVector(shape.num_elements(), seed));
  auto layout = std::make_unique<NonstandardTiling>(d, n, b);
  bundle.manager =
      std::make_unique<MemoryBlockManager>(layout->block_capacity());
  auto r = TiledStore::Create(std::move(layout), bundle.manager.get(), 512);
  EXPECT_TRUE(r.ok());
  bundle.store = std::move(r).value();
  std::vector<uint64_t> zero(d, 0);
  EXPECT_OK(ApplyChunkNonstandard(bundle.data, zero, n, bundle.store.get(),
                                  norm));
  return bundle;
}

class PointQueryTest
    : public ::testing::TestWithParam<std::tuple<Normalization, bool>> {};

TEST_P(PointQueryTest, StandardEveryPoint) {
  const auto [norm, slots] = GetParam();
  const std::vector<uint32_t> log_dims{4, 3};
  Bundle bundle = LoadedStandard(log_dims, norm, 21);
  QueryOptions options;
  options.norm = norm;
  options.use_scaling_slots = slots;
  std::vector<uint64_t> point(2, 0);
  do {
    ASSERT_OK_AND_ASSIGN(
        const double v,
        ExactValue(PointQueryStandard(bundle.store.get(), log_dims, point,
                                      options)));
    ASSERT_NEAR(v, bundle.data.At(point), 1e-9);
  } while (bundle.data.shape().Next(point));
}

TEST_P(PointQueryTest, NonstandardEveryPoint) {
  const auto [norm, slots] = GetParam();
  const uint32_t d = 2, n = 4;
  Bundle bundle = LoadedNonstandard(d, n, norm, 22);
  QueryOptions options;
  options.norm = norm;
  options.use_scaling_slots = slots;
  std::vector<uint64_t> point(d, 0);
  do {
    ASSERT_OK_AND_ASSIGN(
        const double v,
        PointQueryNonstandard(bundle.store.get(), n, point, options));
    ASSERT_NEAR(v, bundle.data.At(point), 1e-9);
  } while (bundle.data.shape().Next(point));
}

INSTANTIATE_TEST_SUITE_P(
    NormsAndModes, PointQueryTest,
    ::testing::Combine(::testing::Values(Normalization::kAverage,
                                         Normalization::kOrthonormal),
                       ::testing::Bool()));

TEST(PointQueryTest, ScalingSlotsCutBlockReadsToOne) {
  // The paper's §3 claim: with the stored subtree-root scalings a point
  // query needs a single block (per dimension band product it would
  // otherwise multiply).
  const std::vector<uint32_t> log_dims{6, 6};
  Bundle bundle = LoadedStandard(log_dims, Normalization::kAverage, 23, 3);
  std::vector<uint64_t> point{37, 11};

  QueryOptions path_mode;
  ASSERT_OK(bundle.store->pool().Clear());
  bundle.manager->stats().Reset();
  ASSERT_OK(PointQueryStandard(bundle.store.get(), log_dims, point,
                               path_mode)
                .status());
  const uint64_t path_blocks = bundle.manager->stats().block_reads;

  QueryOptions slot_mode;
  slot_mode.use_scaling_slots = true;
  ASSERT_OK(bundle.store->pool().Clear());
  bundle.manager->stats().Reset();
  ASSERT_OK(PointQueryStandard(bundle.store.get(), log_dims, point,
                               slot_mode)
                .status());
  const uint64_t slot_blocks = bundle.manager->stats().block_reads;

  EXPECT_EQ(path_blocks, 4u);  // 2 bands per dim -> 2x2 blocks
  EXPECT_EQ(slot_blocks, 1u);  // deepest tile cross product only
}

TEST(PointQueryTest, NonstandardScalingSlotsCutBlockReadsToOne) {
  const uint32_t d = 2, n = 6;
  Bundle bundle = LoadedNonstandard(d, n, Normalization::kAverage, 24, 3);
  std::vector<uint64_t> point{41, 17};
  QueryOptions slot_mode;
  slot_mode.use_scaling_slots = true;
  ASSERT_OK(bundle.store->pool().Clear());
  bundle.manager->stats().Reset();
  ASSERT_OK(
      PointQueryNonstandard(bundle.store.get(), n, point, slot_mode).status());
  EXPECT_EQ(bundle.manager->stats().block_reads, 1u);
}

TEST(PointQueryTest, FallsBackToPathsOnNaiveLayout) {
  const std::vector<uint32_t> log_dims{3, 3};
  Tensor data(TensorShape({8, 8}),
              RandomVector(64, 25));
  MemoryBlockManager manager(16);
  auto store_r = TiledStore::Create(
      std::make_unique<NaiveTiling>(log_dims, 16), &manager, 8);
  ASSERT_TRUE(store_r.ok());
  auto store = std::move(store_r).value();
  std::vector<uint64_t> zero(2, 0);
  ASSERT_OK(ApplyChunkStandard(data, zero, log_dims, store.get(),
                               Normalization::kAverage));
  QueryOptions options;
  options.use_scaling_slots = true;  // no such slots: must fall back
  std::vector<uint64_t> point{5, 6};
  ASSERT_OK_AND_ASSIGN(
      const double v,
      ExactValue(PointQueryStandard(store.get(), log_dims, point, options)));
  EXPECT_NEAR(v, data.At(point), 1e-9);
}

TEST(PointQueryTest, NonstandardFallsBackOnNaiveLayout) {
  const uint32_t d = 2, n = 3;
  Tensor data(TensorShape::Cube(d, 8), RandomVector(64, 26));
  MemoryBlockManager manager(16);
  auto store_r = TiledStore::Create(
      std::make_unique<NaiveTiling>(std::vector<uint32_t>{n, n}, 16),
      &manager, 8);
  ASSERT_TRUE(store_r.ok());
  auto store = std::move(store_r).value();
  std::vector<uint64_t> zero(d, 0);
  ASSERT_OK(ApplyChunkNonstandard(data, zero, n, store.get(),
                                  Normalization::kAverage));
  QueryOptions options;
  options.use_scaling_slots = true;  // no slots on the naive layout
  std::vector<uint64_t> point{6, 1};
  ASSERT_OK_AND_ASSIGN(
      const double v, PointQueryNonstandard(store.get(), n, point, options));
  EXPECT_NEAR(v, data.At(point), 1e-9);
}

TEST(RangeSumWeightTest, MatchesBruteForce) {
  const uint32_t n = 5;
  auto data = RandomVector(1u << n, 26);
  for (Normalization norm :
       {Normalization::kAverage, Normalization::kOrthonormal}) {
    for (uint64_t idx = 0; idx < (1u << n); idx += 3) {
      for (uint64_t lo = 0; lo < 32; lo += 5) {
        for (uint64_t hi = lo; hi < 32; hi += 7) {
          double brute = 0.0;
          for (uint64_t t = lo; t <= hi; ++t) {
            brute += ReconstructionWeight(n, idx, t, norm);
          }
          EXPECT_NEAR(RangeSumWeight(n, idx, lo, hi, norm), brute, 1e-9)
              << "idx=" << idx << " lo=" << lo << " hi=" << hi;
        }
      }
    }
  }
}

class RangeSumTest : public ::testing::TestWithParam<Normalization> {};

TEST_P(RangeSumTest, StandardMatchesBruteForce) {
  const Normalization norm = GetParam();
  const std::vector<uint32_t> log_dims{4, 3};
  Bundle bundle = LoadedStandard(log_dims, norm, 27);
  QueryOptions options;
  options.norm = norm;
  const std::vector<std::pair<std::vector<uint64_t>, std::vector<uint64_t>>>
      boxes = {{{0, 0}, {15, 7}},
               {{3, 2}, {11, 5}},
               {{7, 7}, {7, 7}},
               {{0, 3}, {8, 3}}};
  for (const auto& [lo, hi] : boxes) {
    double brute = 0.0;
    for (uint64_t x = lo[0]; x <= hi[0]; ++x) {
      for (uint64_t y = lo[1]; y <= hi[1]; ++y) {
        std::vector<uint64_t> cell{x, y};
        brute += bundle.data.At(cell);
      }
    }
    ASSERT_OK_AND_ASSIGN(
        const double sum,
        ExactValue(RangeSumStandard(bundle.store.get(), log_dims, lo, hi,
                                    options)));
    EXPECT_NEAR(sum, brute, 1e-8);
  }
}

TEST_P(RangeSumTest, NonstandardMatchesBruteForce) {
  const Normalization norm = GetParam();
  const uint32_t d = 2, n = 4;
  Bundle bundle = LoadedNonstandard(d, n, norm, 28);
  QueryOptions options;
  options.norm = norm;
  const std::vector<std::pair<std::vector<uint64_t>, std::vector<uint64_t>>>
      boxes = {{{0, 0}, {15, 15}},
               {{3, 2}, {11, 5}},
               {{7, 7}, {7, 7}},
               {{8, 0}, {15, 7}}};
  for (const auto& [lo, hi] : boxes) {
    double brute = 0.0;
    for (uint64_t x = lo[0]; x <= hi[0]; ++x) {
      for (uint64_t y = lo[1]; y <= hi[1]; ++y) {
        std::vector<uint64_t> cell{x, y};
        brute += bundle.data.At(cell);
      }
    }
    ASSERT_OK_AND_ASSIGN(
        const double sum,
        RangeSumNonstandard(bundle.store.get(), n, lo, hi, options));
    EXPECT_NEAR(sum, brute, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Norms, RangeSumTest,
                         ::testing::Values(Normalization::kAverage,
                                           Normalization::kOrthonormal));

TEST(RangeSumTest, Lemma2CoefficientBound) {
  // 1-d range sums read at most 2 log N + 1 coefficients.
  const std::vector<uint32_t> log_dims{8};
  Bundle bundle = LoadedStandard(log_dims, Normalization::kAverage, 29);
  bundle.manager->stats().Reset();
  std::vector<uint64_t> lo{37}, hi{200};
  ASSERT_OK(RangeSumStandard(bundle.store.get(), log_dims, lo, hi,
                             QueryOptions{})
                .status());
  EXPECT_LE(bundle.manager->stats().coeff_reads, 2u * 8u + 1u);
}

TEST(BatchPointQueryTest, ResultsMatchIndividualQueries) {
  const std::vector<uint32_t> log_dims{5, 5};
  Bundle bundle = LoadedStandard(log_dims, Normalization::kAverage, 31, 3);
  Xoshiro256 rng(32);
  std::vector<std::vector<uint64_t>> points;
  for (int i = 0; i < 64; ++i) {
    points.push_back({rng.NextBounded(32), rng.NextBounded(32)});
  }
  QueryOptions slot_mode;
  slot_mode.use_scaling_slots = true;
  ASSERT_OK_AND_ASSIGN(
      const auto batch,
      BatchPointQueryStandard(bundle.store.get(), log_dims, points,
                              slot_mode));
  ASSERT_EQ(batch.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_NEAR(batch[i].value, bundle.data.At(points[i]), 1e-9)
        << "point " << i;
  }
}

TEST(BatchPointQueryTest, SchedulingReducesBlockReads) {
  // With a tiny pool, randomly-ordered individual queries thrash; the
  // batch's block-grouped schedule reads each home block once.
  const std::vector<uint32_t> log_dims{6, 6};
  Bundle bundle = LoadedStandard(log_dims, Normalization::kAverage, 33, 3);
  Xoshiro256 rng(34);
  std::vector<std::vector<uint64_t>> points;
  for (int i = 0; i < 200; ++i) {
    points.push_back({rng.NextBounded(64), rng.NextBounded(64)});
  }
  QueryOptions slot_mode;
  slot_mode.use_scaling_slots = true;

  // Rebuild the pool small for this comparison: fresh store over the same
  // device with 2 frames.
  ASSERT_OK(bundle.store->Flush());
  auto layout = std::make_unique<StandardTiling>(log_dims, 3);
  ASSERT_OK_AND_ASSIGN(
      auto tiny, TiledStore::Create(std::move(layout), bundle.manager.get(),
                                    2));
  bundle.manager->stats().Reset();
  for (const auto& p : points) {
    ASSERT_OK(PointQueryStandard(tiny.get(), log_dims, p, slot_mode)
                  .status());
  }
  const uint64_t individual = bundle.manager->stats().block_reads;

  bundle.manager->stats().Reset();
  ASSERT_OK(
      BatchPointQueryStandard(tiny.get(), log_dims, points, slot_mode)
          .status());
  const uint64_t batched = bundle.manager->stats().block_reads;
  EXPECT_LT(batched, individual);
  // The batch reads at most one block per distinct home tile (64 tiles in
  // the leaf band cross product for n=6, b=3).
  EXPECT_LE(batched, 64u);
}

TEST(BatchPointQueryTest, ValidatesPoints) {
  const std::vector<uint32_t> log_dims{3, 3};
  Bundle bundle = LoadedStandard(log_dims, Normalization::kAverage, 35);
  std::vector<std::vector<uint64_t>> bad{{1}};
  QueryOptions slot_mode;
  slot_mode.use_scaling_slots = true;
  EXPECT_FALSE(BatchPointQueryStandard(bundle.store.get(), log_dims, bad,
                                       slot_mode)
                   .ok());
}

TEST(BatchPointQueryTest, EmptyBatchSucceedsWithoutIo) {
  const std::vector<uint32_t> log_dims{3, 3};
  Bundle bundle = LoadedStandard(log_dims, Normalization::kAverage, 36);
  ASSERT_OK(bundle.store->Flush());
  bundle.manager->stats().Reset();
  const std::vector<std::vector<uint64_t>> none;
  for (bool slots : {false, true}) {
    QueryOptions options;
    options.use_scaling_slots = slots;
    ASSERT_OK_AND_ASSIGN(const auto batch,
                         BatchPointQueryStandard(bundle.store.get(),
                                                 log_dims, none, options));
    EXPECT_TRUE(batch.empty());
    ASSERT_OK_AND_ASSIGN(
        const auto resilient,
        BatchPointQueryStandard(bundle.store.get(), log_dims, none,
                                Approx(options)));
    EXPECT_TRUE(resilient.empty());
  }
  EXPECT_EQ(bundle.manager->stats().block_reads, 0u);
}

TEST(BatchPointQueryTest, DuplicatePointsAllAnswerInInputOrder) {
  const std::vector<uint32_t> log_dims{4, 4};
  Bundle bundle = LoadedStandard(log_dims, Normalization::kAverage, 37);
  // The same point several times, interleaved with distinct ones: every
  // occurrence must answer, in input order, regardless of the block-
  // locality schedule.
  const std::vector<std::vector<uint64_t>> points{
      {3, 7}, {12, 1}, {3, 7}, {0, 0}, {3, 7}, {12, 1}};
  QueryOptions slot_mode;
  slot_mode.use_scaling_slots = true;
  ASSERT_OK_AND_ASSIGN(
      const auto batch,
      BatchPointQueryStandard(bundle.store.get(), log_dims, points,
                              slot_mode));
  ASSERT_EQ(batch.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_NEAR(batch[i].value, bundle.data.At(points[i]), 1e-9)
        << "point " << i;
  }
  EXPECT_EQ(batch[0].value, batch[2].value);
  EXPECT_EQ(batch[2].value, batch[4].value);
  EXPECT_EQ(batch[1].value, batch[5].value);
}

TEST(BatchPointQueryTest, OutOfRangePointFailsUpFrontWithoutIo) {
  const std::vector<uint32_t> log_dims{3, 3};
  Bundle bundle = LoadedStandard(log_dims, Normalization::kAverage, 38);
  ASSERT_OK(bundle.store->Flush());
  bundle.manager->stats().Reset();
  // Valid points surround the bad one: validation is up front, so no
  // prefix of the batch is evaluated and the store sees zero reads.
  const std::vector<std::vector<uint64_t>> points{
      {1, 1}, {2, 2}, {8, 0}, {3, 3}};
  QueryOptions slot_mode;
  slot_mode.use_scaling_slots = true;
  const auto r = BatchPointQueryStandard(bundle.store.get(), log_dims,
                                         points, slot_mode);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(bundle.manager->stats().block_reads, 0u);

  const auto resilient = BatchPointQueryStandard(bundle.store.get(), log_dims,
                                                 points, Approx(slot_mode));
  ASSERT_FALSE(resilient.ok());
  EXPECT_EQ(resilient.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(bundle.manager->stats().block_reads, 0u);

  const std::vector<std::vector<uint64_t>> wrong_d{{1, 1}, {1}};
  const auto mismatch = BatchPointQueryStandard(bundle.store.get(), log_dims,
                                                wrong_d, slot_mode);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResilientQueryTest, MatchesExactPathBitForBitWhenHealthy) {
  const std::vector<uint32_t> log_dims{4, 3};
  Bundle bundle = LoadedStandard(log_dims, Normalization::kAverage, 39);
  QueryOptions options;
  std::vector<uint64_t> point(2, 0);
  do {
    ASSERT_OK_AND_ASSIGN(
        const double exact,
        ExactValue(PointQueryStandard(bundle.store.get(), log_dims, point,
                                      options)));
    ASSERT_OK_AND_ASSIGN(
        const DegradedResult r,
        PointQueryStandard(bundle.store.get(), log_dims, point,
                           Approx(options)));
    EXPECT_TRUE(r.exact());
    EXPECT_EQ(r.value, exact);
  } while (bundle.data.shape().Next(point));

  const std::vector<uint64_t> lo{1, 2}, hi{13, 6};
  ASSERT_OK_AND_ASSIGN(
      const double exact_sum,
      ExactValue(RangeSumStandard(bundle.store.get(), log_dims, lo, hi,
                                  options)));
  ASSERT_OK_AND_ASSIGN(
      const DegradedResult sum,
      RangeSumStandard(bundle.store.get(), log_dims, lo, hi, Approx(options)));
  EXPECT_TRUE(sum.exact());
  EXPECT_EQ(sum.value, exact_sum);
}

TEST(ResilientQueryTest, DegradedReasonNamesAreStable) {
  EXPECT_STREQ(DegradedReasonToString(DegradedReason::kNone), "None");
  EXPECT_STREQ(DegradedReasonToString(DegradedReason::kQuarantined),
               "Quarantined");
  EXPECT_STREQ(DegradedReasonToString(DegradedReason::kPinExhaustion),
               "PinExhaustion");
  EXPECT_STREQ(DegradedReasonToString(DegradedReason::kDeadline),
               "Deadline");
  EXPECT_STREQ(DegradedReasonToString(DegradedReason::kUnavailable),
               "Unavailable");
}

// A CoefficientOverlay that counts its calls. Its pending values per
// (block, slot) fold with += in list order, like the serving DeltaBuffer's.
class CountingOverlay : public CoefficientOverlay {
 public:
  void FoldBlock(uint64_t block, std::span<const double> stored,
                 std::span<const uint64_t> slots,
                 std::span<double> merged) const override {
    ++calls;
    terms += slots.size();
    blocks.insert(block);
    for (size_t i = 0; i < slots.size(); ++i) {
      merged[i] = stored.empty() ? 0.0 : stored[slots[i]];
      const auto it = pending.find({block, slots[i]});
      if (it == pending.end()) continue;
      for (const double v : it->second) merged[i] += v;
    }
  }

  void Reset() {
    calls = 0;
    terms = 0;
    blocks.clear();
  }

  std::map<std::pair<uint64_t, uint64_t>, std::vector<double>> pending;
  mutable uint64_t calls = 0;
  mutable uint64_t terms = 0;  // slots folded, one per query term
  mutable std::set<uint64_t> blocks;
};

// The evaluator folds each distinct block once, and its merged answers are
// those of a store to which the pending values were applied.
TEST(OverlayFoldTest, OneFoldPerDistinctBlockMatchesAppliedStore) {
  const std::vector<uint32_t> log_dims{5, 5};
  Bundle live = LoadedStandard(log_dims, Normalization::kAverage, 41);
  Bundle applied = LoadedStandard(log_dims, Normalization::kAverage, 41);
  // Dyadic pending values on a third of the slots (two on some), applied to
  // the reference store in the same order.
  CountingOverlay overlay;
  const TileLayout& layout = live.store->layout();
  for (uint64_t block = 0; block < layout.num_blocks(); ++block) {
    std::vector<SlotUpdate> ops;
    for (uint64_t slot = 0; slot < layout.block_capacity(); ++slot) {
      if ((block + slot) % 3 != 0) continue;
      std::vector<double>& values = overlay.pending[{block, slot}];
      values.push_back(0.125 * static_cast<double>((block * 7 + slot) % 9) -
                       0.5);
      if (slot % 2 == 0) values.push_back(0.25);
      for (const double v : values) ops.push_back({slot, v, false});
    }
    ASSERT_OK(applied.store->ApplyToBlock(block, ops));
  }
  QueryOptions plain;
  QueryOptions merged;
  merged.overlay = &overlay;
  const auto reads = [&] { return live.manager->stats().coeff_reads.load(); };

  for (const bool slots : {false, true}) {
    plain.use_scaling_slots = merged.use_scaling_slots = slots;
    std::vector<uint64_t> point(2, 0);
    do {
      overlay.Reset();
      const uint64_t reads_before = reads();
      ASSERT_OK_AND_ASSIGN(
          const DegradedResult got,
          PointQueryStandard(live.store.get(), log_dims, point, merged));
      ASSERT_OK_AND_ASSIGN(
          const DegradedResult want,
          PointQueryStandard(applied.store.get(), log_dims, point, plain));
      EXPECT_EQ(got.value, want.value);
      EXPECT_EQ(reads() - reads_before, overlay.terms);
      EXPECT_EQ(overlay.calls, overlay.blocks.size());
      if (slots) {
        EXPECT_EQ(overlay.calls, 1u);  // the deepest tile holds every term
      } else {
        EXPECT_EQ(overlay.terms, 36u);  // (n + 1)^2 path terms
      }
    } while (live.data.shape().Next(point));
  }

  Xoshiro256 rng(42);
  for (int i = 0; i < 200; ++i) {
    std::vector<uint64_t> lo(2), hi(2);
    for (int d = 0; d < 2; ++d) {
      const uint64_t a = rng.NextBounded(32), b = rng.NextBounded(32);
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    ASSERT_OK(live.store->pool().Clear());
    overlay.Reset();
    const uint64_t misses_before = live.store->pool().misses();
    const uint64_t reads_before = reads();
    ASSERT_OK_AND_ASSIGN(
        const DegradedResult got,
        RangeSumStandard(live.store.get(), log_dims, lo, hi, merged));
    ASSERT_OK_AND_ASSIGN(
        const DegradedResult want,
        RangeSumStandard(applied.store.get(), log_dims, lo, hi, plain));
    EXPECT_EQ(got.value, want.value);
    EXPECT_EQ(overlay.calls, overlay.blocks.size());
    EXPECT_EQ(overlay.calls, live.store->pool().misses() - misses_before);
    EXPECT_EQ(reads() - reads_before, overlay.terms);

    overlay.Reset();
    ASSERT_OK_AND_ASSIGN(
        const auto got_rounds,
        ProgressiveRangeSumStandard(live.store.get(), log_dims, lo, hi,
                                    merged));
    ASSERT_OK_AND_ASSIGN(
        const auto want_rounds,
        ProgressiveRangeSumStandard(applied.store.get(), log_dims, lo, hi,
                                    plain));
    ASSERT_EQ(got_rounds.size(), want_rounds.size());
    for (size_t r = 0; r < got_rounds.size(); ++r) {
      EXPECT_EQ(got_rounds[r].estimate, want_rounds[r].estimate);
    }
    EXPECT_EQ(got_rounds.back().coefficients_read, overlay.terms);
    EXPECT_EQ(overlay.calls, overlay.blocks.size());
  }

  std::vector<std::vector<uint64_t>> points;
  for (int i = 0; i < 50; ++i) {
    points.push_back({rng.NextBounded(32), rng.NextBounded(32)});
  }
  plain.use_scaling_slots = merged.use_scaling_slots = true;
  overlay.Reset();
  ASSERT_OK_AND_ASSIGN(
      const auto got,
      BatchPointQueryStandard(live.store.get(), log_dims, points, merged));
  EXPECT_EQ(overlay.calls, points.size());
  ASSERT_OK_AND_ASSIGN(
      const auto want,
      BatchPointQueryStandard(applied.store.get(), log_dims, points, plain));
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(got[i].value, want[i].value) << "point " << i;
  }
}

TEST(QueryTest, ValidatesArguments) {
  const std::vector<uint32_t> log_dims{3, 3};
  Bundle bundle = LoadedStandard(log_dims, Normalization::kAverage, 30);
  std::vector<uint64_t> bad_point{8, 0};
  EXPECT_FALSE(PointQueryStandard(bundle.store.get(), log_dims, bad_point,
                                  QueryOptions{})
                   .ok());
  std::vector<uint64_t> lo{5, 0}, hi{3, 7};
  EXPECT_FALSE(RangeSumStandard(bundle.store.get(), log_dims, lo, hi,
                                QueryOptions{})
                   .ok());
  std::vector<uint64_t> wrong_d{1};
  EXPECT_FALSE(PointQueryStandard(bundle.store.get(), log_dims, wrong_d,
                                  QueryOptions{})
                   .ok());
}

TEST(QueryTest, ClipBoxToSlabIntersectsAlongOneDimension) {
  std::vector<uint64_t> lo{2, 5}, hi{11, 9};
  std::vector<uint64_t> clipped_lo, clipped_hi;
  // Slab [4, 7] along dim 0 clips the box; the other dimension is kept.
  ASSERT_TRUE(ClipBoxToSlab(lo, hi, /*dim=*/0, 4, 7, &clipped_lo,
                            &clipped_hi));
  EXPECT_EQ(clipped_lo, (std::vector<uint64_t>{4, 5}));
  EXPECT_EQ(clipped_hi, (std::vector<uint64_t>{7, 9}));
  // A slab containing the whole box returns it unchanged.
  ASSERT_TRUE(ClipBoxToSlab(lo, hi, /*dim=*/0, 0, 15, &clipped_lo,
                            &clipped_hi));
  EXPECT_EQ(clipped_lo, lo);
  EXPECT_EQ(clipped_hi, hi);
  // Clipping along the other dimension.
  ASSERT_TRUE(ClipBoxToSlab(lo, hi, /*dim=*/1, 8, 15, &clipped_lo,
                            &clipped_hi));
  EXPECT_EQ(clipped_lo, (std::vector<uint64_t>{2, 8}));
  EXPECT_EQ(clipped_hi, (std::vector<uint64_t>{11, 9}));
  // Disjoint slabs report no intersection.
  EXPECT_FALSE(ClipBoxToSlab(lo, hi, /*dim=*/0, 12, 15, &clipped_lo,
                             &clipped_hi));
  EXPECT_FALSE(ClipBoxToSlab(lo, hi, /*dim=*/1, 0, 4, &clipped_lo,
                             &clipped_hi));
}

}  // namespace
}  // namespace shiftsplit
