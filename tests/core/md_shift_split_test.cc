#include "shiftsplit/core/md_shift_split.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "shiftsplit/storage/memory_block_manager.h"
#include "shiftsplit/tile/naive_tiling.h"
#include "shiftsplit/tile/nonstandard_tiling.h"
#include "shiftsplit/tile/standard_tiling.h"
#include "shiftsplit/wavelet/haar.h"
#include "shiftsplit/wavelet/nonstandard_transform.h"
#include "shiftsplit/wavelet/standard_transform.h"
#include "testing.h"

namespace shiftsplit {
namespace {

using testing::RandomVector;

Tensor RandomTensor(TensorShape shape, uint64_t seed) {
  auto v = RandomVector(shape.num_elements(), seed);
  return Tensor(std::move(shape), std::move(v));
}

// Extracts the chunk at per-dim position `pos` (chunk shape `chunk_shape`)
// from `full`.
Tensor ExtractChunk(const Tensor& full, const TensorShape& chunk_shape,
                    std::span<const uint64_t> pos) {
  Tensor chunk(chunk_shape);
  std::vector<uint64_t> local(chunk_shape.ndim(), 0);
  std::vector<uint64_t> global(chunk_shape.ndim());
  do {
    for (uint32_t i = 0; i < chunk_shape.ndim(); ++i) {
      global[i] = pos[i] * chunk_shape.dim(i) + local[i];
    }
    chunk.At(local) = full.At(global);
  } while (chunk_shape.Next(local));
  return chunk;
}

// Applies every chunk of `data` (chunk shape `chunk_shape`) to the store.
void ApplyAllChunksStandard(const Tensor& data, const TensorShape& chunk_shape,
                            std::span<const uint32_t> log_dims,
                            TiledStore* store, Normalization norm,
                            const ApplyOptions& options = {}) {
  std::vector<uint64_t> grid_dims(data.shape().ndim());
  for (uint32_t i = 0; i < grid_dims.size(); ++i) {
    grid_dims[i] = data.shape().dim(i) / chunk_shape.dim(i);
  }
  TensorShape grid(grid_dims);
  std::vector<uint64_t> pos(grid_dims.size(), 0);
  do {
    Tensor chunk = ExtractChunk(data, chunk_shape, pos);
    ASSERT_OK(
        ApplyChunkStandard(chunk, pos, log_dims, store, norm, options));
  } while (grid.Next(pos));
}

struct MdCase {
  std::vector<uint32_t> log_dims;
  std::vector<uint32_t> log_chunk;
  Normalization norm;
};

// gtest prints the parameter into the test's name; the default byte dump
// would include the vectors' heap pointers, which change from run to run.
// Prints e.g. "n4x4_m2x2_average": n are the log_dims, m the log_chunk.
void PrintTo(const MdCase& c, std::ostream* os) {
  const auto print_extents = [os](const std::vector<uint32_t>& v) {
    for (size_t i = 0; i < v.size(); ++i) *os << (i == 0 ? "" : "x") << v[i];
  };
  *os << "n";
  print_extents(c.log_dims);
  *os << "_m";
  print_extents(c.log_chunk);
  *os << "_" << NormalizationToString(c.norm);
}

class ApplyChunkStandardTest : public ::testing::TestWithParam<MdCase> {};

TEST_P(ApplyChunkStandardTest, ChunkedConstructionMatchesDirect) {
  const MdCase& c = GetParam();
  const uint32_t d = static_cast<uint32_t>(c.log_dims.size());
  std::vector<uint64_t> dims(d), chunk_dims(d);
  for (uint32_t i = 0; i < d; ++i) {
    dims[i] = uint64_t{1} << c.log_dims[i];
    chunk_dims[i] = uint64_t{1} << c.log_chunk[i];
  }
  Tensor data = RandomTensor(TensorShape(dims), 42 + d);
  Tensor expected = data;
  ASSERT_OK(ForwardStandard(&expected, c.norm));

  MemoryBlockManager manager(uint64_t{1} << (2 * d));
  ASSERT_OK_AND_ASSIGN(
      auto store,
      TiledStore::Create(std::make_unique<StandardTiling>(c.log_dims, 2),
                         &manager, 256));
  ApplyAllChunksStandard(data, TensorShape(chunk_dims), c.log_dims,
                         store.get(), c.norm);

  std::vector<uint64_t> address(d, 0);
  do {
    ASSERT_OK_AND_ASSIGN(const double v, store->Get(address));
    ASSERT_NEAR(v, expected.At(address), 1e-9);
  } while (expected.shape().Next(address));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ApplyChunkStandardTest,
    ::testing::Values(
        MdCase{{4, 4}, {2, 2}, Normalization::kAverage},
        MdCase{{4, 4}, {2, 2}, Normalization::kOrthonormal},
        MdCase{{4, 4}, {1, 2}, Normalization::kAverage},
        MdCase{{3, 5}, {3, 2}, Normalization::kAverage},
        MdCase{{3, 3, 3}, {1, 1, 1}, Normalization::kAverage},
        MdCase{{3, 3, 3}, {2, 2, 2}, Normalization::kOrthonormal},
        MdCase{{4, 4}, {4, 4}, Normalization::kAverage},
        MdCase{{2, 2, 2, 2}, {1, 1, 1, 1}, Normalization::kAverage}));

TEST(ApplyChunkStandardTest, MixedScalingSlotsHoldPartialTransformValues) {
  // The redundant slots of the standard tiling hold cross products of
  // per-dim (subtree detail | subtree-root scaling) bases. Verify every
  // slot of every block against an expansion of the direct transform.
  const std::vector<uint32_t> log_dims{4, 4};
  const uint32_t b = 2;
  const Normalization norm = Normalization::kAverage;
  Tensor data = RandomTensor(TensorShape({16, 16}), 77);
  Tensor direct = data;
  ASSERT_OK(ForwardStandard(&direct, norm));

  MemoryBlockManager manager(16);
  auto layout = std::make_unique<StandardTiling>(log_dims, b);
  const StandardTiling& tiling = *layout;
  ASSERT_OK_AND_ASSIGN(auto store,
                       TiledStore::Create(std::move(layout), &manager, 256));
  ApplyAllChunksStandard(data, TensorShape({4, 4}), log_dims, store.get(),
                         norm);

  // For every pair of per-dim scaling slots (level 2, the non-root band
  // root), the stored value must equal the expansion over the direct
  // transform: sum over per-dim ScalingExpansion in the *global* tree.
  const TreeTiling& dt = tiling.dim_tiling(0);
  for (uint64_t q0 = 0; q0 < 4; ++q0) {
    for (uint64_t q1 = 0; q1 < 4; ++q1) {
      ASSERT_OK_AND_ASSIGN(const BlockSlot p0, dt.LocateScaling(2, q0));
      ASSERT_OK_AND_ASSIGN(const BlockSlot p1,
                           tiling.dim_tiling(1).LocateScaling(2, q1));
      const BlockSlot parts[] = {p0, p1};
      ASSERT_OK_AND_ASSIGN(const double stored,
                           store->GetAt(tiling.Combine(parts)));
      double expected = 0.0;
      for (const auto& [i0, w0] : ScalingExpansion(4, 2, q0, norm)) {
        for (const auto& [i1, w1] : ScalingExpansion(4, 2, q1, norm)) {
          std::vector<uint64_t> addr{i0, i1};
          expected += w0 * w1 * direct.At(addr);
        }
      }
      EXPECT_NEAR(stored, expected, 1e-9) << "q0=" << q0 << " q1=" << q1;
      // For the average normalization this is just the box average.
      double box = 0.0;
      std::vector<uint64_t> cell(2);
      for (uint64_t x = 0; x < 4; ++x) {
        for (uint64_t y = 0; y < 4; ++y) {
          cell[0] = q0 * 4 + x;
          cell[1] = q1 * 4 + y;
          box += data.At(cell);
        }
      }
      EXPECT_NEAR(stored, box / 16.0, 1e-9);
    }
  }

  // Mixed detail x scaling slots.
  for (uint64_t detail_idx = 4; detail_idx < 8; ++detail_idx) {
    const BlockSlot p0 = dt.Locate(detail_idx);
    ASSERT_OK_AND_ASSIGN(const BlockSlot p1,
                         tiling.dim_tiling(1).LocateScaling(2, 1));
    const BlockSlot parts[] = {p0, p1};
    ASSERT_OK_AND_ASSIGN(const double stored,
                         store->GetAt(tiling.Combine(parts)));
    double expected = 0.0;
    for (const auto& [i1, w1] : ScalingExpansion(4, 2, 1, norm)) {
      std::vector<uint64_t> addr{detail_idx, i1};
      expected += w1 * direct.At(addr);
    }
    EXPECT_NEAR(stored, expected, 1e-9) << "detail " << detail_idx;
  }
}

TEST(ApplyChunkStandardTest, UpdateModeMatchesRetransform) {
  const std::vector<uint32_t> log_dims{3, 3};
  const Normalization norm = Normalization::kAverage;
  Tensor data = RandomTensor(TensorShape({8, 8}), 5);

  MemoryBlockManager manager(16);
  ASSERT_OK_AND_ASSIGN(
      auto store,
      TiledStore::Create(std::make_unique<StandardTiling>(log_dims, 2),
                         &manager, 64));
  ApplyAllChunksStandard(data, TensorShape({2, 2}), log_dims, store.get(),
                         norm);

  // Apply a delta chunk at position (1, 2).
  Tensor delta = RandomTensor(TensorShape({2, 2}), 6);
  std::vector<uint64_t> pos{1, 2};
  ApplyOptions update;
  update.mode = ApplyMode::kUpdate;
  ASSERT_OK(ApplyChunkStandard(delta, pos, log_dims, store.get(), norm,
                               update));

  Tensor updated = data;
  std::vector<uint64_t> local(2, 0);
  std::vector<uint64_t> cell(2);
  do {
    cell[0] = pos[0] * 2 + local[0];
    cell[1] = pos[1] * 2 + local[1];
    updated.At(cell) += delta.At(local);
  } while (delta.shape().Next(local));
  ASSERT_OK(ForwardStandard(&updated, norm));

  std::vector<uint64_t> address(2, 0);
  do {
    ASSERT_OK_AND_ASSIGN(const double v, store->Get(address));
    ASSERT_NEAR(v, updated.At(address), 1e-9);
  } while (updated.shape().Next(address));
}

TEST(ApplyChunkStandardTest, WorksOnNaiveLayout) {
  const std::vector<uint32_t> log_dims{3, 3};
  Tensor data = RandomTensor(TensorShape({8, 8}), 9);
  Tensor expected = data;
  ASSERT_OK(ForwardStandard(&expected, Normalization::kAverage));

  MemoryBlockManager manager(16);
  ASSERT_OK_AND_ASSIGN(
      auto store,
      TiledStore::Create(std::make_unique<NaiveTiling>(log_dims, 16),
                         &manager, 8));
  ApplyAllChunksStandard(data, TensorShape({4, 4}), log_dims, store.get(),
                         Normalization::kAverage);
  std::vector<uint64_t> address(2, 0);
  do {
    ASSERT_OK_AND_ASSIGN(const double v, store->Get(address));
    ASSERT_NEAR(v, expected.At(address), 1e-9);
  } while (expected.shape().Next(address));
}

TEST(ApplyChunkStandardTest, ValidatesArguments) {
  Tensor chunk(TensorShape({4, 4}));
  MemoryBlockManager manager(16);
  ASSERT_OK_AND_ASSIGN(
      auto store,
      TiledStore::Create(
          std::make_unique<StandardTiling>(std::vector<uint32_t>{3, 3}, 2),
          &manager, 8));
  std::vector<uint32_t> log_dims{3, 3};
  std::vector<uint64_t> pos{0, 0};
  std::vector<uint64_t> bad_pos{2, 0};
  std::vector<uint32_t> small_dims{1, 1};
  EXPECT_FALSE(ApplyChunkStandard(chunk, pos, small_dims, store.get(),
                                  Normalization::kAverage)
                   .ok());
  EXPECT_FALSE(ApplyChunkStandard(chunk, bad_pos, log_dims, store.get(),
                                  Normalization::kAverage)
                   .ok());
  std::vector<uint64_t> wrong_d{0};
  EXPECT_FALSE(ApplyChunkStandard(chunk, wrong_d, log_dims, store.get(),
                                  Normalization::kAverage)
                   .ok());
}

// ---------------------------------------------------------------------------
// Non-standard form
// ---------------------------------------------------------------------------

void ApplyAllChunksNonstandard(const Tensor& data, uint32_t log_chunk,
                               uint32_t n, TiledStore* store,
                               Normalization norm,
                               const ApplyOptions& options = {}) {
  const uint32_t d = data.shape().ndim();
  const uint64_t grid_extent = data.shape().dim(0) >> log_chunk;
  TensorShape grid = TensorShape::Cube(d, grid_extent);
  TensorShape chunk_shape = TensorShape::Cube(d, uint64_t{1} << log_chunk);
  std::vector<uint64_t> pos(d, 0);
  do {
    Tensor chunk = ExtractChunk(data, chunk_shape, pos);
    ASSERT_OK(ApplyChunkNonstandard(chunk, pos, n, store, norm, options));
  } while (grid.Next(pos));
}

struct NsCase {
  uint32_t d;
  uint32_t n;
  uint32_t m;
  Normalization norm;
};

class ApplyChunkNonstandardTest : public ::testing::TestWithParam<NsCase> {};

TEST_P(ApplyChunkNonstandardTest, ChunkedConstructionMatchesDirect) {
  const NsCase& c = GetParam();
  Tensor data = RandomTensor(TensorShape::Cube(c.d, uint64_t{1} << c.n),
                             c.d * 100 + c.n * 10 + c.m);
  Tensor expected = data;
  ASSERT_OK(ForwardNonstandard(&expected, c.norm));

  const uint32_t b = 2;
  MemoryBlockManager manager(uint64_t{1} << (b * c.d));
  ASSERT_OK_AND_ASSIGN(
      auto store,
      TiledStore::Create(std::make_unique<NonstandardTiling>(c.d, c.n, b),
                         &manager, 256));
  ApplyAllChunksNonstandard(data, c.m, c.n, store.get(), c.norm);

  std::vector<uint64_t> address(c.d, 0);
  do {
    ASSERT_OK_AND_ASSIGN(const double v, store->Get(address));
    ASSERT_NEAR(v, expected.At(address), 1e-9);
  } while (expected.shape().Next(address));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ApplyChunkNonstandardTest,
    ::testing::Values(NsCase{1, 5, 2, Normalization::kAverage},
                      NsCase{2, 4, 2, Normalization::kAverage},
                      NsCase{2, 4, 2, Normalization::kOrthonormal},
                      NsCase{2, 4, 0, Normalization::kAverage},
                      NsCase{2, 4, 4, Normalization::kAverage},
                      NsCase{3, 3, 1, Normalization::kAverage},
                      NsCase{3, 3, 1, Normalization::kOrthonormal}));

TEST(ApplyChunkNonstandardTest, ScalingSlotsHoldNodeAverages) {
  const uint32_t d = 2, n = 4, m = 2, b = 2;
  const Normalization norm = Normalization::kAverage;
  Tensor data = RandomTensor(TensorShape::Cube(d, 16), 21);
  Tensor direct = data;
  std::vector<Tensor> pyramid;
  ASSERT_OK(ForwardNonstandardWithPyramid(&direct, norm, &pyramid));

  MemoryBlockManager manager(16);
  auto layout = std::make_unique<NonstandardTiling>(d, n, b);
  const NonstandardTiling& tiling = *layout;
  ASSERT_OK_AND_ASSIGN(auto store,
                       TiledStore::Create(std::move(layout), &manager, 256));
  ApplyAllChunksNonstandard(data, m, n, store.get(), norm);

  // Level-2 node scalings (the redundant band) must equal the pyramid.
  std::vector<uint64_t> node(d);
  for (node[0] = 0; node[0] < 4; ++node[0]) {
    for (node[1] = 0; node[1] < 4; ++node[1]) {
      ASSERT_OK_AND_ASSIGN(const BlockSlot at, tiling.LocateScaling(2, node));
      ASSERT_OK_AND_ASSIGN(const double v, store->GetAt(at));
      EXPECT_NEAR(v, pyramid[2].At(node), 1e-9);
    }
  }
}

TEST(ApplyChunkNonstandardTest, UpdateModeMatchesRetransform) {
  const uint32_t d = 2, n = 3, m = 1;
  const Normalization norm = Normalization::kOrthonormal;
  Tensor data = RandomTensor(TensorShape::Cube(d, 8), 31);

  MemoryBlockManager manager(16);
  ASSERT_OK_AND_ASSIGN(
      auto store,
      TiledStore::Create(std::make_unique<NonstandardTiling>(d, n, 2),
                         &manager, 64));
  ApplyAllChunksNonstandard(data, m, n, store.get(), norm);

  Tensor delta = RandomTensor(TensorShape::Cube(d, 2), 32);
  std::vector<uint64_t> pos{3, 1};
  ApplyOptions update;
  update.mode = ApplyMode::kUpdate;
  ASSERT_OK(ApplyChunkNonstandard(delta, pos, n, store.get(), norm, update));

  Tensor updated = data;
  std::vector<uint64_t> local(d, 0), cell(d);
  do {
    cell[0] = pos[0] * 2 + local[0];
    cell[1] = pos[1] * 2 + local[1];
    updated.At(cell) += delta.At(local);
  } while (delta.shape().Next(local));
  ASSERT_OK(ForwardNonstandard(&updated, norm));

  std::vector<uint64_t> address(d, 0);
  do {
    ASSERT_OK_AND_ASSIGN(const double v, store->Get(address));
    ASSERT_NEAR(v, updated.At(address), 1e-9);
  } while (updated.shape().Next(address));
}

TEST(ApplyChunkNonstandardTest, ValidatesArguments) {
  MemoryBlockManager manager(16);
  ASSERT_OK_AND_ASSIGN(
      auto store,
      TiledStore::Create(std::make_unique<NonstandardTiling>(2, 3, 2),
                         &manager, 8));
  Tensor non_cube(TensorShape({2, 4}));
  std::vector<uint64_t> pos{0, 0};
  EXPECT_FALSE(ApplyChunkNonstandard(non_cube, pos, 3, store.get(),
                                     Normalization::kAverage)
                   .ok());
  Tensor too_big(TensorShape::Cube(2, 16));
  EXPECT_FALSE(ApplyChunkNonstandard(too_big, pos, 3, store.get(),
                                     Normalization::kAverage)
                   .ok());
  Tensor chunk(TensorShape::Cube(2, 2));
  std::vector<uint64_t> bad_pos{4, 0};
  EXPECT_FALSE(ApplyChunkNonstandard(chunk, bad_pos, 3, store.get(),
                                     Normalization::kAverage)
                   .ok());
}

}  // namespace
}  // namespace shiftsplit
