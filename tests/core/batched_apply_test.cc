// Parity and I/O-count tests of the tile-batched apply path: the batched
// plan must produce bit-identical stores to the per-coefficient reference
// path (each (block, slot) is written exactly once per chunk, so grouping
// writes by block cannot change any value), while pinning each destination
// block once instead of once per coefficient. The parallel ingest pipeline
// commits plans in chunk order, so any thread count is byte-for-byte
// deterministic.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "shiftsplit/core/chunked_transform.h"
#include "shiftsplit/core/md_shift_split.h"
#include "shiftsplit/data/synthetic.h"
#include "shiftsplit/storage/memory_block_manager.h"
#include "shiftsplit/tile/naive_tiling.h"
#include "shiftsplit/tile/nonstandard_tiling.h"
#include "shiftsplit/tile/standard_tiling.h"
#include "testing.h"

namespace shiftsplit {
namespace {

using testing::RandomVector;

Tensor RandomTensor(TensorShape shape, uint64_t seed) {
  auto v = RandomVector(shape.num_elements(), seed);
  return Tensor(std::move(shape), std::move(v));
}

struct Bundle {
  std::unique_ptr<MemoryBlockManager> manager;
  std::unique_ptr<TiledStore> store;
};

Bundle MakeBundle(std::unique_ptr<TileLayout> layout, uint64_t pool_blocks) {
  Bundle bundle;
  bundle.manager =
      std::make_unique<MemoryBlockManager>(layout->block_capacity());
  auto r =
      TiledStore::Create(std::move(layout), bundle.manager.get(), pool_blocks);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  bundle.store = std::move(r).value();
  return bundle;
}

Bundle MakeStandard(const std::vector<uint32_t>& log_dims, uint32_t b,
                    uint64_t pool_blocks) {
  return MakeBundle(std::make_unique<StandardTiling>(log_dims, b),
                    pool_blocks);
}

Bundle MakeNonstandard(uint32_t d, uint32_t n, uint32_t b,
                       uint64_t pool_blocks) {
  return MakeBundle(std::make_unique<NonstandardTiling>(d, n, b),
                    pool_blocks);
}

Bundle MakeNaive(const std::vector<uint32_t>& log_dims, uint64_t capacity,
                 uint64_t pool_blocks) {
  return MakeBundle(std::make_unique<NaiveTiling>(log_dims, capacity),
                    pool_blocks);
}

// Bitwise comparison of the full device contents (after Flush).
void ExpectBitIdentical(BlockManager* a, BlockManager* b) {
  ASSERT_EQ(a->num_blocks(), b->num_blocks());
  std::vector<double> block_a(a->block_size()), block_b(b->block_size());
  ASSERT_EQ(block_a.size(), block_b.size());
  for (uint64_t id = 0; id < a->num_blocks(); ++id) {
    ASSERT_OK(a->ReadBlock(id, block_a));
    ASSERT_OK(b->ReadBlock(id, block_b));
    ASSERT_EQ(0, std::memcmp(block_a.data(), block_b.data(),
                             block_a.size() * sizeof(double)))
        << "block " << id << " differs";
  }
}

// Applies every chunk of `data` to the store with the given options.
void ApplyAllStandard(const Tensor& data, const TensorShape& chunk_shape,
                      std::span<const uint32_t> log_dims, TiledStore* store,
                      Normalization norm, const ApplyOptions& options) {
  std::vector<uint64_t> grid_dims(data.shape().ndim());
  for (uint32_t i = 0; i < grid_dims.size(); ++i) {
    grid_dims[i] = data.shape().dim(i) / chunk_shape.dim(i);
  }
  TensorShape grid(grid_dims);
  Tensor chunk(chunk_shape);
  std::vector<uint64_t> pos(grid_dims.size(), 0);
  do {
    std::vector<uint64_t> local(chunk_shape.ndim(), 0);
    std::vector<uint64_t> global(chunk_shape.ndim());
    do {
      for (uint32_t i = 0; i < chunk_shape.ndim(); ++i) {
        global[i] = pos[i] * chunk_shape.dim(i) + local[i];
      }
      chunk.At(local) = data.At(global);
    } while (chunk_shape.Next(local));
    ASSERT_OK(ApplyChunkStandard(chunk, pos, log_dims, store, norm, options));
  } while (grid.Next(pos));
}

struct ParityCase {
  ApplyMode mode = ApplyMode::kConstruct;
  bool maintain_scaling_slots = true;
  bool skip_zero_writes = false;
  Normalization norm = Normalization::kAverage;
};

class BatchedParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(BatchedParityTest, StandardStoreIsBitIdentical) {
  const ParityCase& c = GetParam();
  const std::vector<uint32_t> log_dims{4, 4};
  const TensorShape chunk_shape({4, 4});
  Tensor data = RandomTensor(TensorShape({16, 16}), 7);

  auto reference = MakeStandard(log_dims, 2, 256);
  auto batched = MakeStandard(log_dims, 2, 256);
  ApplyOptions options;
  options.mode = c.mode;
  options.maintain_scaling_slots = c.maintain_scaling_slots;
  options.skip_zero_writes = c.skip_zero_writes;

  options.batched = false;
  ApplyAllStandard(data, chunk_shape, log_dims, reference.store.get(),
                   c.norm, options);
  options.batched = true;
  ApplyAllStandard(data, chunk_shape, log_dims, batched.store.get(), c.norm,
                   options);

  ASSERT_OK(reference.store->Flush());
  ASSERT_OK(batched.store->Flush());
  ExpectBitIdentical(reference.manager.get(), batched.manager.get());
}

TEST_P(BatchedParityTest, NonstandardStoreIsBitIdentical) {
  const ParityCase& c = GetParam();
  const uint32_t d = 2, n = 4, m = 2;
  Tensor data = RandomTensor(TensorShape::Cube(d, uint64_t{1} << n), 11);

  auto reference = MakeNonstandard(d, n, 2, 256);
  auto batched = MakeNonstandard(d, n, 2, 256);
  ApplyOptions options;
  options.mode = c.mode;
  options.maintain_scaling_slots = c.maintain_scaling_slots;
  options.skip_zero_writes = c.skip_zero_writes;

  const TensorShape chunk_shape = TensorShape::Cube(d, uint64_t{1} << m);
  const TensorShape grid = TensorShape::Cube(d, uint64_t{1} << (n - m));
  Tensor chunk(chunk_shape);
  std::vector<uint64_t> pos(d, 0);
  do {
    std::vector<uint64_t> local(d, 0), global(d);
    do {
      for (uint32_t i = 0; i < d; ++i) {
        global[i] = pos[i] * chunk_shape.dim(i) + local[i];
      }
      chunk.At(local) = data.At(global);
    } while (chunk_shape.Next(local));
    options.batched = false;
    ASSERT_OK(ApplyChunkNonstandard(chunk, pos, n, reference.store.get(),
                                    c.norm, options));
    options.batched = true;
    ASSERT_OK(
        ApplyChunkNonstandard(chunk, pos, n, batched.store.get(), c.norm,
                              options));
  } while (grid.Next(pos));

  ASSERT_OK(reference.store->Flush());
  ASSERT_OK(batched.store->Flush());
  ExpectBitIdentical(reference.manager.get(), batched.manager.get());
}

// gtest names each case by the raw bytes of its ParityCase, padding
// included. A static array has zeroed padding, so the names are the same on
// every build; temporaries would leave stack garbage in it.
constexpr ParityCase kParityCases[] = {
    {ApplyMode::kConstruct, true, false, Normalization::kAverage},
    {ApplyMode::kConstruct, true, false, Normalization::kOrthonormal},
    {ApplyMode::kConstruct, false, false, Normalization::kAverage},
    {ApplyMode::kUpdate, true, false, Normalization::kAverage},
    {ApplyMode::kUpdate, false, false, Normalization::kOrthonormal},
    {ApplyMode::kConstruct, true, true, Normalization::kAverage},
};

INSTANTIATE_TEST_SUITE_P(Cases, BatchedParityTest,
                         ::testing::ValuesIn(kParityCases));

TEST(BatchedParityTest, NaiveLayoutIsBitIdentical) {
  // Exercises the plan builder's address -> Locate branch (no per-dim parts,
  // no scaling slots).
  const std::vector<uint32_t> log_dims{3, 4};
  Tensor data = RandomTensor(TensorShape({8, 16}), 13);
  auto reference = MakeNaive(log_dims, 8, 64);
  auto batched = MakeNaive(log_dims, 8, 64);

  ApplyOptions options;
  options.batched = false;
  ApplyAllStandard(data, TensorShape({4, 4}), log_dims,
                   reference.store.get(), Normalization::kAverage, options);
  options.batched = true;
  ApplyAllStandard(data, TensorShape({4, 4}), log_dims, batched.store.get(),
                   Normalization::kAverage, options);

  ASSERT_OK(reference.store->Flush());
  ASSERT_OK(batched.store->Flush());
  ExpectBitIdentical(reference.manager.get(), batched.manager.get());
}

TEST(BatchedApplyTest, PinsEachDistinctBlockOnce) {
  // The acceptance criterion of the batched path: GetBlock calls per chunk
  // drop from one per coefficient write to one per distinct destination
  // block.
  const std::vector<uint32_t> log_dims{4, 4};
  const std::vector<uint64_t> pos{1, 2};
  Tensor chunk = RandomTensor(TensorShape({4, 4}), 17);

  auto batched = MakeStandard(log_dims, 2, 256);
  ASSERT_OK_AND_ASSIGN(
      const ChunkApplyPlan plan,
      PlanChunkStandard(chunk, pos, log_dims, batched.store->layout(),
                        Normalization::kAverage, ApplyOptions{}));
  ASSERT_GT(plan.total_ops, plan.blocks.size());

  ApplyOptions options;
  options.batched = true;
  ASSERT_OK(ApplyChunkStandard(chunk, pos, log_dims, batched.store.get(),
                               Normalization::kAverage, options));
  const BufferPool::Stats bs = batched.store->pool_stats();
  EXPECT_EQ(bs.hits + bs.misses, plan.blocks.size());

  auto reference = MakeStandard(log_dims, 2, 256);
  options.batched = false;
  ASSERT_OK(ApplyChunkStandard(chunk, pos, log_dims, reference.store.get(),
                               Normalization::kAverage, options));
  const BufferPool::Stats rs = reference.store->pool_stats();
  EXPECT_EQ(rs.hits + rs.misses, plan.total_ops);
}

TEST(BatchedApplyTest, PrefetchWarmsThePoolAndPreservesParity) {
  const std::vector<uint32_t> log_dims{4, 4};
  const TensorShape chunk_shape({4, 4});
  Tensor data = RandomTensor(TensorShape({16, 16}), 23);

  auto plain = MakeStandard(log_dims, 2, 256);
  auto prefetched = MakeStandard(log_dims, 2, 256);
  ApplyOptions options;
  options.batched = true;
  ApplyAllStandard(data, chunk_shape, log_dims, plain.store.get(),
                   Normalization::kAverage, options);
  options.prefetch = true;
  ApplyAllStandard(data, chunk_shape, log_dims, prefetched.store.get(),
                   Normalization::kAverage, options);

  const BufferPool::Stats stats = prefetched.store->pool_stats();
  EXPECT_GT(stats.prefetched, 0u);
  // Every block is resident by the time the batched writes pin it.
  EXPECT_EQ(stats.misses, 0u);

  ASSERT_OK(plain.store->Flush());
  ASSERT_OK(prefetched.store->Flush());
  ExpectBitIdentical(plain.manager.get(), prefetched.manager.get());
}

// A sparse apply reads only the blocks it writes, prefetch or not: the
// chunk's cross-product block set also holds blocks whose every write is a
// skipped zero, and prefetching that set would read them.
TEST(BatchedApplyTest, SparsePrefetchReadsOnlyWrittenBlocks) {
  const std::vector<uint32_t> log_dims{6, 6};
  Tensor chunk(TensorShape({8, 8}));
  chunk.At(std::vector<uint64_t>{3, 5}) = 2.5;  // the only non-zero cell
  const std::vector<uint64_t> pos{2, 5};

  auto plain = MakeStandard(log_dims, 2, 256);
  auto prefetched = MakeStandard(log_dims, 2, 256);
  ApplyOptions options;
  options.batched = true;
  options.skip_zero_writes = true;
  ASSERT_OK(ApplyChunkStandard(chunk, pos, log_dims, plain.store.get(),
                               Normalization::kAverage, options));
  options.prefetch = true;
  ASSERT_OK(ApplyChunkStandard(chunk, pos, log_dims, prefetched.store.get(),
                               Normalization::kAverage, options));
  EXPECT_EQ(prefetched.store->stats().block_reads,
            plain.store->stats().block_reads);

  ASSERT_OK(plain.store->Flush());
  ASSERT_OK(prefetched.store->Flush());
  ExpectBitIdentical(plain.manager.get(), prefetched.manager.get());
}

// Runs TransformDatasetStandard with the given thread count on a fresh
// store and returns the bundle.
Bundle IngestStandard(uint32_t num_threads, bool prefetch, bool zorder) {
  auto dataset = MakeUniformDataset(TensorShape({32, 32}), -1.0, 1.0, 5);
  auto bundle = MakeStandard({5, 5}, 2, 256);
  TransformOptions options;
  options.num_threads = num_threads;
  options.oversubscribe = true;  // exercise real workers even on 1-CPU hosts
  options.prefetch = prefetch;
  options.zorder = zorder;
  auto result =
      TransformDatasetStandard(dataset.get(), 3, bundle.store.get(), options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) {
    EXPECT_EQ(result->chunks, 16u);
  }
  return bundle;
}

TEST(ParallelIngestTest, FourThreadsMatchSerialByteForByte) {
  auto serial = IngestStandard(1, false, false);
  auto parallel = IngestStandard(4, false, false);
  ExpectBitIdentical(serial.manager.get(), parallel.manager.get());
}

TEST(ParallelIngestTest, ThreadsWithPrefetchAndZOrderMatchSerial) {
  auto serial = IngestStandard(1, false, true);
  auto parallel = IngestStandard(4, true, true);
  ExpectBitIdentical(serial.manager.get(), parallel.manager.get());
}

TEST(ParallelIngestTest, NonstandardFourThreadsMatchSerial) {
  auto run = [](uint32_t num_threads) {
    auto dataset = MakeSmoothDataset(TensorShape::Cube(2, 32), 9);
    auto bundle = MakeNonstandard(2, 5, 2, 256);
    TransformOptions options;
    options.num_threads = num_threads;
    options.oversubscribe = true;
    auto result = TransformDatasetNonstandard(dataset.get(), 2,
                                              bundle.store.get(), options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (result.ok()) {
      EXPECT_EQ(result->chunks, 64u);
    }
    return bundle;
  };
  auto serial = run(1);
  auto parallel = run(4);
  ExpectBitIdentical(serial.manager.get(), parallel.manager.get());
}

TEST(ParallelIngestTest, MultipleThreadsRequireBatchedPath) {
  auto dataset = MakeUniformDataset(TensorShape({16, 16}), 0.0, 1.0, 3);
  auto bundle = MakeStandard({4, 4}, 2, 256);
  TransformOptions options;
  options.num_threads = 2;
  options.batched = false;
  const auto result =
      TransformDatasetStandard(dataset.get(), 2, bundle.store.get(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace shiftsplit
