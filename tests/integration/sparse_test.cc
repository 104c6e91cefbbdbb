// Sparse-data tests (paper §5.1's modification: with z non-zero values the
// transformation costs O(z + z log(N/z)) instead of touching everything).

#include <gtest/gtest.h>

#include "shiftsplit/core/chunked_transform.h"
#include "shiftsplit/core/query.h"
#include "shiftsplit/data/synthetic.h"
#include "shiftsplit/storage/memory_block_manager.h"
#include "shiftsplit/tile/nonstandard_tiling.h"
#include "shiftsplit/tile/standard_tiling.h"
#include "shiftsplit/wavelet/standard_transform.h"
#include "testing.h"

namespace shiftsplit {
namespace {

struct Bundle {
  std::unique_ptr<MemoryBlockManager> manager;
  std::unique_ptr<TiledStore> store;
};

Bundle MakeBundle(std::vector<uint32_t> log_dims, uint32_t b) {
  Bundle bundle;
  auto layout = std::make_unique<StandardTiling>(std::move(log_dims), b);
  bundle.manager =
      std::make_unique<MemoryBlockManager>(layout->block_capacity());
  auto r = TiledStore::Create(std::move(layout), bundle.manager.get(), 4096);
  EXPECT_TRUE(r.ok());
  bundle.store = std::move(r).value();
  return bundle;
}

TEST(SparseTransformTest, SparseModeIsExact) {
  // Correctness first: the sparse path must produce the identical transform.
  const std::vector<uint32_t> log_dims{5, 5};
  auto dataset = MakeSparseDataset(TensorShape({32, 32}), 0.05, 1.0, 1);
  ASSERT_OK_AND_ASSIGN(Tensor direct, dataset->Materialize());
  ASSERT_OK(ForwardStandard(&direct, Normalization::kAverage));

  auto bundle = MakeBundle(log_dims, 2);
  TransformOptions options;
  options.sparse = true;
  ASSERT_OK(TransformDatasetStandard(dataset.get(), 3, bundle.store.get(),
                                     options)
                .status());
  std::vector<uint64_t> address(2, 0);
  do {
    ASSERT_OK_AND_ASSIGN(const double v, bundle.store->Get(address));
    ASSERT_NEAR(v, direct.At(address), 1e-9);
  } while (direct.shape().Next(address));
}

TEST(SparseTransformTest, SparseModeSkipsZeroRegions) {
  // A dataset that is zero outside a small corner: sparse mode must do far
  // less coefficient I/O than the dense path.
  const std::vector<uint32_t> log_dims{6, 6};
  TensorShape shape({64, 64});
  FunctionDataset dataset(shape, [](std::span<const uint64_t> c) {
    return (c[0] < 8 && c[1] < 8)
               ? static_cast<double>(c[0] * 8 + c[1] + 1)
               : 0.0;
  });
  FunctionDataset dataset2(shape, [](std::span<const uint64_t> c) {
    return (c[0] < 8 && c[1] < 8)
               ? static_cast<double>(c[0] * 8 + c[1] + 1)
               : 0.0;
  });

  auto dense = MakeBundle(log_dims, 2);
  TransformOptions dense_options;
  dense_options.maintain_scaling_slots = false;
  ASSERT_OK_AND_ASSIGN(
      const TransformResult dense_result,
      TransformDatasetStandard(&dataset, 3, dense.store.get(),
                               dense_options));

  auto sparse = MakeBundle(log_dims, 2);
  TransformOptions sparse_options = dense_options;
  sparse_options.sparse = true;
  ASSERT_OK_AND_ASSIGN(
      const TransformResult sparse_result,
      TransformDatasetStandard(&dataset2, 3, sparse.store.get(),
                               sparse_options));

  EXPECT_EQ(sparse_result.chunks, 1u);  // only the non-zero chunk applied
  EXPECT_LT(sparse_result.store_io.coeff_writes * 20,
            dense_result.store_io.coeff_writes);

  // And the sparse store answers queries identically.
  std::vector<uint64_t> point{3, 5};
  ASSERT_OK_AND_ASSIGN(
      const double a,
      ExactValue(PointQueryStandard(dense.store.get(), log_dims, point,
                                    QueryOptions{})));
  ASSERT_OK_AND_ASSIGN(
      const double b,
      ExactValue(PointQueryStandard(sparse.store.get(), log_dims, point,
                                    QueryOptions{})));
  EXPECT_NEAR(a, b, 1e-12);
}

TEST(SparseTransformTest, NonstandardSparseModeIsExact) {
  auto dataset = MakeSparseDataset(TensorShape::Cube(2, 32), 0.03, 1.0, 2);
  ASSERT_OK_AND_ASSIGN(Tensor direct, dataset->Materialize());
  Tensor expected = direct;
  ASSERT_OK(ForwardNonstandard(&expected, Normalization::kAverage));

  auto layout = std::make_unique<NonstandardTiling>(2, 5, 2);
  MemoryBlockManager manager(layout->block_capacity());
  ASSERT_OK_AND_ASSIGN(auto store,
                       TiledStore::Create(std::move(layout), &manager, 1024));
  TransformOptions options;
  options.sparse = true;
  options.zorder = true;
  ASSERT_OK(TransformDatasetNonstandard(dataset.get(), 2, store.get(),
                                        options)
                .status());
  std::vector<uint64_t> address(2, 0);
  do {
    ASSERT_OK_AND_ASSIGN(const double v, store->Get(address));
    ASSERT_NEAR(v, expected.At(address), 1e-9);
  } while (expected.shape().Next(address));
}

TEST(SparseTransformTest, IoScalesWithDensity) {
  const std::vector<uint32_t> log_dims{6, 6};
  uint64_t previous = 0;
  for (double density : {0.01, 0.05, 0.25}) {
    auto dataset =
        MakeSparseDataset(TensorShape({64, 64}), density, 0.0, 3);
    auto bundle = MakeBundle(log_dims, 2);
    TransformOptions options;
    options.sparse = true;
    options.maintain_scaling_slots = false;
    ASSERT_OK_AND_ASSIGN(
        const TransformResult result,
        TransformDatasetStandard(dataset.get(), 2, bundle.store.get(),
                                 options));
    EXPECT_GT(result.store_io.coeff_writes, previous);
    previous = result.store_io.coeff_writes;
  }
}

}  // namespace
}  // namespace shiftsplit
