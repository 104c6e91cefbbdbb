#include "shiftsplit/core/appender.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "shiftsplit/core/query.h"
#include "shiftsplit/storage/file_block_manager.h"
#include "shiftsplit/wavelet/standard_transform.h"
#include "testing.h"

namespace shiftsplit {
namespace {

using testing::RandomVector;

Tensor RandomTensor(TensorShape shape, uint64_t seed) {
  auto v = RandomVector(shape.num_elements(), seed);
  return Tensor(std::move(shape), std::move(v));
}

Appender::Options DefaultOptions() {
  Appender::Options options;
  options.b = 2;
  options.pool_blocks = 64;
  return options;
}

// Verifies the appender store against a direct transform of `truth`, whose
// time extent equals the appender's current capacity (unfilled tail = 0).
void ExpectMatchesDirect(Appender* appender, const Tensor& truth,
                         Normalization norm) {
  Tensor expected = truth;
  ASSERT_OK(ForwardStandard(&expected, norm));
  std::vector<uint64_t> address(truth.shape().ndim(), 0);
  do {
    ASSERT_OK_AND_ASSIGN(const double v, appender->store()->Get(address));
    ASSERT_NEAR(v, expected.At(address), 1e-9);
  } while (truth.shape().Next(address));
}

TEST(AppenderTest, AppendsWithinCapacity) {
  ASSERT_OK_AND_ASSIGN(auto appender,
                       Appender::Create({2, 3}, 1, DefaultOptions()));
  // Capacity 8 along dim 1; append two slabs of thickness 4.
  Tensor slab1 = RandomTensor(TensorShape({4, 4}), 1);
  Tensor slab2 = RandomTensor(TensorShape({4, 4}), 2);
  ASSERT_OK(appender->Append(slab1));
  EXPECT_EQ(appender->filled(), 4u);
  ASSERT_OK(appender->Append(slab2));
  EXPECT_EQ(appender->filled(), 8u);
  EXPECT_EQ(appender->expansions(), 0u);

  Tensor truth(TensorShape({4, 8}));
  std::vector<uint64_t> c(2, 0);
  do {
    const Tensor& src = c[1] < 4 ? slab1 : slab2;
    std::vector<uint64_t> s{c[0], c[1] % 4};
    truth.At(c) = src.At(s);
  } while (truth.shape().Next(c));
  ExpectMatchesDirect(appender.get(), truth, Normalization::kAverage);
}

TEST(AppenderTest, ExpansionPreservesTransform) {
  // Paper Figure 10: the tree doubles; old coefficients shift, the old root
  // splits. The result must equal transforming the padded dataset directly.
  ASSERT_OK_AND_ASSIGN(auto appender,
                       Appender::Create({2, 2}, 1, DefaultOptions()));
  Tensor slab = RandomTensor(TensorShape({4, 4}), 3);
  ASSERT_OK(appender->Append(slab));  // fills capacity exactly
  ASSERT_OK(appender->Expand());
  EXPECT_EQ(appender->capacity(), 8u);
  EXPECT_EQ(appender->expansions(), 1u);

  Tensor truth(TensorShape({4, 8}));  // second half zero
  std::vector<uint64_t> c(2, 0);
  do {
    std::vector<uint64_t> s{c[0], c[1]};
    truth.At(c) = c[1] < 4 ? slab.At(s = {c[0], c[1]}) : 0.0;
  } while (truth.shape().Next(c));
  ExpectMatchesDirect(appender.get(), truth, Normalization::kAverage);
}

TEST(AppenderTest, MonthlyAppendScenario) {
  // Repeated appends trigger expansions exactly at capacity-doubling
  // boundaries, and the store always equals the direct transform.
  Appender::Options options = DefaultOptions();
  options.norm = Normalization::kOrthonormal;
  ASSERT_OK_AND_ASSIGN(auto appender, Appender::Create({2, 1}, 1, options));
  const uint64_t kMonths = 8;
  std::vector<Tensor> slabs;
  for (uint64_t month = 0; month < kMonths; ++month) {
    slabs.push_back(RandomTensor(TensorShape({4, 2}), 100 + month));
    ASSERT_OK(appender->Append(slabs.back()));
  }
  EXPECT_EQ(appender->filled(), 16u);
  EXPECT_EQ(appender->capacity(), 16u);
  EXPECT_EQ(appender->expansions(), 3u);  // 2 -> 4 -> 8 -> 16

  Tensor truth(TensorShape({4, 16}));
  std::vector<uint64_t> c(2, 0);
  do {
    std::vector<uint64_t> s{c[0], c[1] % 2};
    truth.At(c) = slabs[c[1] / 2].At(s);
  } while (truth.shape().Next(c));
  ExpectMatchesDirect(appender.get(), truth, Normalization::kOrthonormal);
}

TEST(AppenderTest, ExpansionCostIsProportionalToStoredCoefficients) {
  ASSERT_OK_AND_ASSIGN(auto appender,
                       Appender::Create({3, 3}, 1, DefaultOptions()));
  ASSERT_OK(appender->Append(RandomTensor(TensorShape({8, 8}), 4)));
  const IoStats before = appender->total_io();
  ASSERT_OK(appender->Expand());
  const IoStats delta = appender->total_io() - before;
  // Reads the 64 old coefficients; writes 8 x (7 shifted + 2 split) = 72.
  EXPECT_EQ(delta.coeff_reads, 64u);
  EXPECT_EQ(delta.coeff_writes, 72u);
}

TEST(AppenderTest, QueriesWorkAfterAppendsAndExpansions) {
  ASSERT_OK_AND_ASSIGN(auto appender,
                       Appender::Create({2, 2}, 1, DefaultOptions()));
  std::vector<Tensor> slabs;
  for (uint64_t i = 0; i < 4; ++i) {
    slabs.push_back(RandomTensor(TensorShape({4, 4}), 200 + i));
    ASSERT_OK(appender->Append(slabs[i]));
  }
  QueryOptions q;
  std::vector<uint32_t> log_dims = appender->log_dims();
  for (uint64_t x = 0; x < 4; ++x) {
    for (uint64_t t = 0; t < 16; ++t) {
      std::vector<uint64_t> point{x, t};
      ASSERT_OK_AND_ASSIGN(
          const double v,
          ExactValue(PointQueryStandard(appender->store(), log_dims, point,
                                        q)));
      std::vector<uint64_t> s{x, t % 4};
      EXPECT_NEAR(v, slabs[t / 4].At(s), 1e-9) << x << "," << t;
    }
  }
}

TEST(AppenderTest, ScalingSlotRebuildKeepsSlotQueriesCorrect) {
  Appender::Options options = DefaultOptions();
  options.maintain_scaling_slots = true;
  ASSERT_OK_AND_ASSIGN(auto appender, Appender::Create({2, 2}, 1, options));
  std::vector<Tensor> slabs;
  for (uint64_t i = 0; i < 2; ++i) {
    slabs.push_back(RandomTensor(TensorShape({4, 4}), 300 + i));
    ASSERT_OK(appender->Append(slabs[i]));
  }
  ASSERT_EQ(appender->expansions(), 1u);
  QueryOptions q;
  q.use_scaling_slots = true;
  for (uint64_t x = 0; x < 4; ++x) {
    for (uint64_t t = 0; t < 8; ++t) {
      std::vector<uint64_t> point{x, t};
      ASSERT_OK_AND_ASSIGN(
          const double v,
          ExactValue(PointQueryStandard(appender->store(), appender->log_dims(),
                                        point, q)));
      std::vector<uint64_t> s{x, t % 4};
      EXPECT_NEAR(v, slabs[t / 4].At(s), 1e-9);
    }
  }
}

TEST(AppenderTest, ValidatesSlabs) {
  ASSERT_OK_AND_ASSIGN(auto appender,
                       Appender::Create({2, 2}, 1, DefaultOptions()));
  Tensor wrong_const(TensorShape({2, 4}));
  EXPECT_FALSE(appender->Append(wrong_const).ok());
  Tensor wrong_ndim(TensorShape({4}));
  EXPECT_FALSE(appender->Append(wrong_ndim).ok());
  // Misaligned fill: thickness 4 then 2 leaves filled=4... thickness 2 is
  // fine (4 % 2 == 0) but thickness 8 after filled=4 is not.
  ASSERT_OK(appender->Append(Tensor(TensorShape({4, 4}))));
  EXPECT_FALSE(appender->Append(Tensor(TensorShape({4, 8}))).ok());
}

TEST(AppenderTest, CreateValidates) {
  EXPECT_FALSE(Appender::Create({}, 0, DefaultOptions()).ok());
  EXPECT_FALSE(Appender::Create({2, 2}, 5, DefaultOptions()).ok());
}

TEST(AppenderTest, GrowsAnyDesignatedDimension) {
  // Appending along dimension 0 (not just the last one).
  ASSERT_OK_AND_ASSIGN(auto appender,
                       Appender::Create({1, 3}, 0, DefaultOptions()));
  std::vector<Tensor> slabs;
  for (int i = 0; i < 3; ++i) {
    slabs.push_back(RandomTensor(TensorShape({2, 8}), 400 + i));
    ASSERT_OK(appender->Append(slabs[i]));
  }
  EXPECT_EQ(appender->expansions(), 2u);  // 2 -> 4 -> 8
  EXPECT_EQ(appender->capacity(), 8u);

  Tensor truth(TensorShape({8, 8}));
  std::vector<uint64_t> c(2, 0);
  do {
    if (c[0] < 6) {
      std::vector<uint64_t> s{c[0] % 2, c[1]};
      truth.At(c) = slabs[c[0] / 2].At(s);
    }
  } while (truth.shape().Next(c));
  ExpectMatchesDirect(appender.get(), truth, Normalization::kAverage);
}

TEST(AppenderTest, ResumeContinuesAppendingOverPersistedDevice) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("shiftsplit_resume_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / "store.blocks").string();
  auto file_factory = [&](uint64_t block_size)
      -> std::unique_ptr<BlockManager> {
    auto opened = FileBlockManager::Open(path, block_size);
    return opened.ok() ? std::move(*opened) : nullptr;
  };
  Appender::Options options = DefaultOptions();
  options.factory = file_factory;

  Tensor slab1 = RandomTensor(TensorShape({4, 4}), 600);
  Tensor slab2 = RandomTensor(TensorShape({4, 4}), 601);
  {
    ASSERT_OK_AND_ASSIGN(auto appender, Appender::Create({2, 3}, 1, options));
    ASSERT_OK(appender->Append(slab1));
    ASSERT_OK(appender->store()->Flush());
  }
  {
    // "Restart": resume over the same file at the recorded fill level.
    ASSERT_OK_AND_ASSIGN(auto appender,
                         Appender::Resume({2, 3}, 1, 4, options));
    EXPECT_EQ(appender->filled(), 4u);
    ASSERT_OK(appender->Append(slab2));

    Tensor truth(TensorShape({4, 8}));
    std::vector<uint64_t> c(2, 0);
    do {
      std::vector<uint64_t> s{c[0], c[1] % 4};
      truth.At(c) = (c[1] < 4 ? slab1 : slab2).At(s);
    } while (truth.shape().Next(c));
    ExpectMatchesDirect(appender.get(), truth, Normalization::kAverage);
  }
  fs::remove_all(dir);
}

TEST(AppenderTest, ResumeValidates) {
  Appender::Options options = DefaultOptions();
  EXPECT_FALSE(Appender::Resume({2, 2}, 1, 100, options).ok());  // > capacity
  EXPECT_FALSE(Appender::Resume({}, 0, 0, options).ok());
}

TEST(AppenderTest, FileBackedAppenderSurvivesExpansions) {
  // A factory that hands out fresh files per expansion: the paper's
  // append-and-expand cycle on a real device.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("shiftsplit_appender_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  int generation = 0;
  Appender::Options options = DefaultOptions();
  options.factory = [&](uint64_t block_size) -> std::unique_ptr<BlockManager> {
    const std::string path =
        (dir / ("gen" + std::to_string(generation++) + ".blocks")).string();
    auto opened = FileBlockManager::Open(path, block_size);
    return opened.ok() ? std::move(*opened) : nullptr;
  };
  {
    ASSERT_OK_AND_ASSIGN(auto appender, Appender::Create({2, 2}, 1, options));
    std::vector<Tensor> slabs;
    for (int i = 0; i < 3; ++i) {
      slabs.push_back(RandomTensor(TensorShape({4, 4}), 500 + i));
      ASSERT_OK(appender->Append(slabs[i]));
    }
    EXPECT_EQ(appender->expansions(), 2u);  // 4 -> 8 -> 16
    EXPECT_EQ(generation, 3);
    Tensor truth(TensorShape({4, 16}));
    std::vector<uint64_t> c(2, 0);
    do {
      if (c[1] < 12) {
        std::vector<uint64_t> s{c[0], c[1] % 4};
        truth.At(c) = slabs[c[1] / 4].At(s);
      }
    } while (truth.shape().Next(c));
    ExpectMatchesDirect(appender.get(), truth, Normalization::kAverage);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace shiftsplit
