// Randomized differential tests: a random interleaving of chunk builds,
// batch updates, point/range queries and reconstructions runs against a
// plain in-memory tensor oracle. Any divergence between the wavelet-domain
// maintenance and the direct recomputation is a bug; the sequences are
// seeded, so failures reproduce exactly.

#include <gtest/gtest.h>

#include "shiftsplit/core/md_shift_split.h"
#include "shiftsplit/core/query.h"
#include "shiftsplit/core/reconstruct.h"
#include "shiftsplit/core/updater.h"
#include "shiftsplit/storage/memory_block_manager.h"
#include "shiftsplit/tile/nonstandard_tiling.h"
#include "shiftsplit/tile/standard_tiling.h"
#include "shiftsplit/util/random.h"
#include "testing.h"

namespace shiftsplit {
namespace {

struct Harness {
  std::vector<uint32_t> log_dims;
  Normalization norm;
  std::unique_ptr<MemoryBlockManager> manager;
  std::unique_ptr<TiledStore> store;
  Tensor oracle;  // current untransformed data
};

Harness MakeHarness(std::vector<uint32_t> log_dims, Normalization norm,
                    uint32_t b) {
  Harness h;
  h.log_dims = std::move(log_dims);
  h.norm = norm;
  std::vector<uint64_t> dims;
  for (uint32_t n : h.log_dims) dims.push_back(uint64_t{1} << n);
  h.oracle = Tensor(TensorShape(dims));
  auto layout = std::make_unique<StandardTiling>(h.log_dims, b);
  h.manager = std::make_unique<MemoryBlockManager>(layout->block_capacity());
  auto r = TiledStore::Create(std::move(layout), h.manager.get(), 256);
  EXPECT_TRUE(r.ok());
  h.store = std::move(r).value();
  return h;
}

// A random dyadic-aligned box: per-dim level in [0, n_i], aligned position.
void RandomDyadicBox(Xoshiro256& rng, const std::vector<uint32_t>& log_dims,
                     std::vector<uint32_t>* box_log,
                     std::vector<uint64_t>* box_pos) {
  const uint32_t d = static_cast<uint32_t>(log_dims.size());
  box_log->resize(d);
  box_pos->resize(d);
  for (uint32_t i = 0; i < d; ++i) {
    (*box_log)[i] = static_cast<uint32_t>(rng.NextBounded(log_dims[i] + 1));
    (*box_pos)[i] =
        rng.NextBounded(uint64_t{1} << (log_dims[i] - (*box_log)[i]));
  }
}

class DifferentialTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, Normalization>> {};

TEST_P(DifferentialTest, RandomOperationSequence) {
  const auto [seed, norm] = GetParam();
  Xoshiro256 rng(seed);
  Harness h = MakeHarness({4, 3}, norm, 2);
  const uint32_t d = 2;

  for (int step = 0; step < 60; ++step) {
    const uint64_t op = rng.NextBounded(5);
    if (op == 0) {
      // Batch-update a random dyadic box with random deltas.
      std::vector<uint32_t> box_log;
      std::vector<uint64_t> box_pos;
      RandomDyadicBox(rng, h.log_dims, &box_log, &box_pos);
      std::vector<uint64_t> box_dims(d);
      for (uint32_t i = 0; i < d; ++i) box_dims[i] = uint64_t{1} << box_log[i];
      Tensor deltas{TensorShape(box_dims)};
      for (uint64_t i = 0; i < deltas.size(); ++i) {
        deltas[i] = rng.NextUniform(-2.0, 2.0);
      }
      ASSERT_OK(UpdateDyadicStandard(h.store.get(), h.log_dims, deltas,
                                     box_pos, h.norm));
      std::vector<uint64_t> local(d, 0), cell(d);
      do {
        for (uint32_t i = 0; i < d; ++i) {
          cell[i] = (box_pos[i] << box_log[i]) + local[i];
        }
        h.oracle.At(cell) += deltas.At(local);
      } while (deltas.shape().Next(local));
    } else if (op == 1) {
      // Point query (both modes).
      std::vector<uint64_t> point(d);
      for (uint32_t i = 0; i < d; ++i) {
        point[i] = rng.NextBounded(uint64_t{1} << h.log_dims[i]);
      }
      QueryOptions q;
      q.norm = h.norm;
      q.use_scaling_slots = rng.NextBounded(2) == 1;
      ASSERT_OK_AND_ASSIGN(
          const double v,
          ExactValue(PointQueryStandard(h.store.get(), h.log_dims, point, q)));
      ASSERT_NEAR(v, h.oracle.At(point), 1e-8)
          << "seed=" << seed << " step=" << step;
    } else if (op == 2) {
      // Range sum over a random box.
      std::vector<uint64_t> lo(d), hi(d);
      for (uint32_t i = 0; i < d; ++i) {
        const uint64_t extent = uint64_t{1} << h.log_dims[i];
        const uint64_t a = rng.NextBounded(extent);
        const uint64_t b = rng.NextBounded(extent);
        lo[i] = std::min(a, b);
        hi[i] = std::max(a, b);
      }
      QueryOptions q;
      q.norm = h.norm;
      ASSERT_OK_AND_ASSIGN(
          const double sum,
          ExactValue(RangeSumStandard(h.store.get(), h.log_dims, lo, hi, q)));
      double brute = 0.0;
      std::vector<uint64_t> c(d);
      for (c[0] = lo[0]; c[0] <= hi[0]; ++c[0]) {
        for (c[1] = lo[1]; c[1] <= hi[1]; ++c[1]) {
          brute += h.oracle.At(c);
        }
      }
      ASSERT_NEAR(sum, brute, 1e-7) << "seed=" << seed << " step=" << step;
    } else if (op == 3) {
      // Reconstruct a random dyadic box.
      std::vector<uint32_t> box_log;
      std::vector<uint64_t> box_pos;
      RandomDyadicBox(rng, h.log_dims, &box_log, &box_pos);
      ASSERT_OK_AND_ASSIGN(
          Tensor box, ReconstructDyadicStandard(h.store.get(), h.log_dims,
                                                box_log, box_pos, h.norm));
      std::vector<uint64_t> local(d, 0), cell(d);
      do {
        for (uint32_t i = 0; i < d; ++i) {
          cell[i] = (box_pos[i] << box_log[i]) + local[i];
        }
        ASSERT_NEAR(box.At(local), h.oracle.At(cell), 1e-8)
            << "seed=" << seed << " step=" << step;
      } while (box.shape().Next(local));
    } else {
      // Unaligned range update.
      std::vector<uint64_t> origin(d), box_dims(d);
      for (uint32_t i = 0; i < d; ++i) {
        const uint64_t extent = uint64_t{1} << h.log_dims[i];
        box_dims[i] = uint64_t{1} << rng.NextBounded(h.log_dims[i]);
        origin[i] = rng.NextBounded(extent - box_dims[i] + 1);
      }
      Tensor deltas{TensorShape(box_dims)};
      for (uint64_t i = 0; i < deltas.size(); ++i) {
        deltas[i] = rng.NextUniform(-1.0, 1.0);
      }
      ASSERT_OK(UpdateRangeStandard(h.store.get(), h.log_dims, deltas,
                                    origin, h.norm));
      std::vector<uint64_t> local(d, 0), cell(d);
      do {
        for (uint32_t i = 0; i < d; ++i) cell[i] = origin[i] + local[i];
        h.oracle.At(cell) += deltas.At(local);
      } while (deltas.shape().Next(local));
    }
  }

  // Final sweep: every cell of the store matches the oracle.
  std::vector<uint64_t> point(d, 0);
  QueryOptions q;
  q.norm = h.norm;
  do {
    ASSERT_OK_AND_ASSIGN(
        const double v,
        ExactValue(PointQueryStandard(h.store.get(), h.log_dims, point, q)));
    ASSERT_NEAR(v, h.oracle.At(point), 1e-8) << "seed=" << seed;
  } while (h.oracle.shape().Next(point));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndNorms, DifferentialTest,
    ::testing::Combine(::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3}, uint64_t{4},
                                         uint64_t{5}),
                       ::testing::Values(Normalization::kAverage,
                                         Normalization::kOrthonormal)));

TEST(DifferentialTest, NonstandardRandomUpdatesAndQueries) {
  Xoshiro256 rng(99);
  const uint32_t d = 2, n = 4;
  Tensor oracle(TensorShape::Cube(d, 16));
  auto layout = std::make_unique<NonstandardTiling>(d, n, 2);
  MemoryBlockManager manager(layout->block_capacity());
  auto store_r = TiledStore::Create(std::move(layout), &manager, 256);
  ASSERT_TRUE(store_r.ok());
  auto store = std::move(store_r).value();

  for (int step = 0; step < 40; ++step) {
    if (rng.NextBounded(2) == 0) {
      const uint32_t m = static_cast<uint32_t>(rng.NextBounded(n + 1));
      std::vector<uint64_t> pos(d);
      for (uint32_t i = 0; i < d; ++i) {
        pos[i] = rng.NextBounded(uint64_t{1} << (n - m));
      }
      Tensor deltas(TensorShape::Cube(d, uint64_t{1} << m));
      for (uint64_t i = 0; i < deltas.size(); ++i) {
        deltas[i] = rng.NextUniform(-2.0, 2.0);
      }
      ASSERT_OK(UpdateDyadicNonstandard(store.get(), n, deltas, pos,
                                        Normalization::kAverage));
      std::vector<uint64_t> local(d, 0), cell(d);
      do {
        for (uint32_t i = 0; i < d; ++i) cell[i] = (pos[i] << m) + local[i];
        oracle.At(cell) += deltas.At(local);
      } while (deltas.shape().Next(local));
    } else {
      std::vector<uint64_t> point(d);
      for (uint32_t i = 0; i < d; ++i) point[i] = rng.NextBounded(16);
      QueryOptions q;
      q.use_scaling_slots = rng.NextBounded(2) == 1;
      ASSERT_OK_AND_ASSIGN(
          const double v, PointQueryNonstandard(store.get(), n, point, q));
      ASSERT_NEAR(v, oracle.At(point), 1e-8) << "step=" << step;
    }
  }
}

}  // namespace
}  // namespace shiftsplit
