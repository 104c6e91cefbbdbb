// Randomized differential suite for the kernel dispatch tiers: every
// compiled-and-runnable tier must produce BIT-identical results to the
// scalar reference on every operation, every size (including odd tails that
// exercise the vector epilogues), and both Haar normalizations. This is the
// contract that lets the rest of the system call kernels::Active() without
// caring which ISA is underneath — parity tests, crash replay, and the
// serving layer's merged-read bit-identity all lean on it.
//
// Seeded: every random buffer derives from a fixed mt19937_64 seed, so a
// failure reproduces exactly.

#include "shiftsplit/kernels/kernels.h"

#include <cmath>
#include <cstring>
#include <ostream>
#include <random>
#include <vector>

#include "gtest/gtest.h"

namespace shiftsplit::kernels {

// gtest prints a TierTest parameter into the test's name; the default would
// print the table's address, which changes from run to run. Found by ADL, so
// it has to live in KernelOps's namespace.
void PrintTo(const KernelOps* ops, std::ostream* os) { *os << ops->name; }

namespace {

constexpr uint64_t kSeed = 0x5eed5eedULL;

// Sizes 1..2^16 with dense coverage of small counts and every power-of-two
// neighborhood — the +-1 cases are the vector-tail paths.
std::vector<size_t> TestSizes() {
  std::vector<size_t> sizes;
  for (size_t n = 1; n <= 40; ++n) sizes.push_back(n);
  for (size_t p = 6; p <= 16; ++p) {
    const size_t n = size_t{1} << p;
    sizes.push_back(n - 1);
    sizes.push_back(n);
    sizes.push_back(n + 1);
  }
  return sizes;
}

std::vector<double> RandomDoubles(std::mt19937_64& rng, size_t n) {
  std::uniform_real_distribution<double> dist(-1e3, 1e3);
  std::vector<double> out(n);
  for (double& v : out) v = dist(rng);
  return out;
}

void ExpectBitsEqual(const std::vector<double>& expected,
                     const std::vector<double>& actual, const char* tier,
                     const char* what, size_t n) {
  ASSERT_EQ(expected.size(), actual.size());
  if (std::memcmp(expected.data(), actual.data(),
                  expected.size() * sizeof(double)) == 0) {
    return;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    uint64_t e, a;
    std::memcpy(&e, &expected[i], sizeof(e));
    std::memcpy(&a, &actual[i], sizeof(a));
    ASSERT_EQ(e, a) << tier << " " << what << " diverges at index " << i
                    << " of " << n << " (" << expected[i] << " vs "
                    << actual[i] << ")";
  }
}

// Both normalizations' forward scales plus the kAverage inverse scale.
const double kScales[] = {0.5, 1.0 / std::sqrt(2.0), 1.0};

class TierTest : public ::testing::TestWithParam<const KernelOps*> {};

TEST_P(TierTest, HaarForwardLevelMatchesScalarBitForBit) {
  const KernelOps& tier = *GetParam();
  const KernelOps& scalar = Scalar();
  std::mt19937_64 rng(kSeed);
  for (const size_t half : TestSizes()) {
    const std::vector<double> in = RandomDoubles(rng, 2 * half);
    for (const double scale : kScales) {
      std::vector<double> want_avg(half), want_det(half);
      std::vector<double> got_avg(half), got_det(half);
      scalar.haar_forward_level(in.data(), want_avg.data(), want_det.data(),
                                half, scale);
      tier.haar_forward_level(in.data(), got_avg.data(), got_det.data(),
                              half, scale);
      ExpectBitsEqual(want_avg, got_avg, tier.name, "forward avg", half);
      ExpectBitsEqual(want_det, got_det, tier.name, "forward det", half);
    }
  }
}

TEST_P(TierTest, HaarInverseLevelMatchesScalarBitForBit) {
  const KernelOps& tier = *GetParam();
  const KernelOps& scalar = Scalar();
  std::mt19937_64 rng(kSeed + 1);
  for (const size_t half : TestSizes()) {
    const std::vector<double> avg = RandomDoubles(rng, half);
    const std::vector<double> det = RandomDoubles(rng, half);
    for (const double scale : kScales) {
      std::vector<double> want(2 * half), got(2 * half);
      scalar.haar_inverse_level(avg.data(), det.data(), want.data(), half,
                                scale);
      tier.haar_inverse_level(avg.data(), det.data(), got.data(), half,
                              scale);
      ExpectBitsEqual(want, got, tier.name, "inverse", half);
    }
  }
}

TEST_P(TierTest, RoundTripThroughAnyTierRestoresAverageNormBits) {
  // kAverage inverse scale is 1.0, so forward+inverse of dyadic data is
  // exact — a stronger end-to-end check that the pairing logic is right.
  const KernelOps& tier = *GetParam();
  std::mt19937_64 rng(kSeed + 2);
  for (const size_t half : {1u, 2u, 3u, 4u, 7u, 8u, 33u, 1000u}) {
    std::vector<double> in(2 * half);
    std::uniform_int_distribution<int> dist(-512, 512);
    for (double& v : in) v = static_cast<double>(dist(rng));
    std::vector<double> avg(half), det(half), out(2 * half);
    tier.haar_forward_level(in.data(), avg.data(), det.data(), half, 0.5);
    tier.haar_inverse_level(avg.data(), det.data(), out.data(), half, 1.0);
    ExpectBitsEqual(in, out, tier.name, "round trip", half);
  }
}

TEST_P(TierTest, FoldAddMatchesScalarBitForBit) {
  const KernelOps& tier = *GetParam();
  const KernelOps& scalar = Scalar();
  std::mt19937_64 rng(kSeed + 3);
  for (const size_t n : TestSizes()) {
    const std::vector<double> src = RandomDoubles(rng, n);
    const std::vector<double> base = RandomDoubles(rng, n);
    std::vector<double> want = base, got = base;
    scalar.fold_add(want.data(), src.data(), n);
    tier.fold_add(got.data(), src.data(), n);
    ExpectBitsEqual(want, got, tier.name, "fold_add", n);
  }
}

TEST_P(TierTest, StridedFoldsMatchScalarBitForBit) {
  const KernelOps& tier = *GetParam();
  const KernelOps& scalar = Scalar();
  std::mt19937_64 rng(kSeed + 4);
  for (const size_t stride : {1u, 2u, 3u, 4u, 7u}) {
    for (const size_t n : TestSizes()) {
      if (n > (size_t{1} << 14)) continue;  // keep the strided sweep bounded
      const std::vector<double> src = RandomDoubles(rng, n * stride);
      const std::vector<double> base = RandomDoubles(rng, n);
      std::vector<double> want = base, got = base;
      scalar.fold_add_strided(want.data(), src.data(), stride, n);
      tier.fold_add_strided(got.data(), src.data(), stride, n);
      ExpectBitsEqual(want, got, tier.name, "fold_add_strided", n);
      want = base;
      got = base;
      scalar.fold_copy_strided(want.data(), src.data(), stride, n);
      tier.fold_copy_strided(got.data(), src.data(), stride, n);
      ExpectBitsEqual(want, got, tier.name, "fold_copy_strided", n);
    }
  }
}

TEST_P(TierTest, ChainFoldMatchesSerialSumBitForBit) {
  // fold_chain is scalar in every tier BY DESIGN (a serial dependent sum
  // cannot be vectorized bit-exactly); this pins the tier tables to that.
  const KernelOps& tier = *GetParam();
  std::mt19937_64 rng(kSeed + 5);
  for (const size_t stride : {1u, 2u, 3u}) {
    for (const size_t n : {0u, 1u, 2u, 3u, 17u, 255u, 4096u}) {
      const std::vector<double> src = RandomDoubles(rng, n * stride + 1);
      const double init = RandomDoubles(rng, 1)[0];
      double want = init;
      for (size_t i = 0; i < n; ++i) want += src[i * stride];
      const double got = tier.fold_chain_strided(init, src.data(), stride, n);
      uint64_t w, g;
      std::memcpy(&w, &want, sizeof(w));
      std::memcpy(&g, &got, sizeof(g));
      EXPECT_EQ(w, g) << tier.name << " chain fold, n=" << n
                      << " stride=" << stride;
    }
  }
}

TEST_P(TierTest, Crc32cMatchesScalarOnRandomBuffers) {
  const KernelOps& tier = *GetParam();
  const KernelOps& scalar = Scalar();
  std::mt19937_64 rng(kSeed + 6);
  for (const size_t n : TestSizes()) {
    std::vector<uint8_t> buf(n + 8);
    for (uint8_t& b : buf) b = static_cast<uint8_t>(rng());
    // Offset sweep exercises the hardware path's alignment prologue.
    for (size_t off = 0; off < 8 && off < n; ++off) {
      const uint32_t want = scalar.crc32c(0, buf.data() + off, n - off);
      const uint32_t got = tier.crc32c(0, buf.data() + off, n - off);
      ASSERT_EQ(want, got) << tier.name << " crc, n=" << n << " off=" << off;
      // Chained updates must agree too (the block checksums chain header
      // and payload through one running CRC).
      const size_t split = (n - off) / 2;
      const uint32_t want2 = scalar.crc32c(
          scalar.crc32c(17, buf.data() + off, split),
          buf.data() + off + split, n - off - split);
      const uint32_t got2 =
          tier.crc32c(tier.crc32c(17, buf.data() + off, split),
                      buf.data() + off + split, n - off - split);
      ASSERT_EQ(want2, got2) << tier.name << " chained crc, n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTiers, TierTest, ::testing::ValuesIn(AvailableTiers().begin(),
                                            AvailableTiers().end()));

TEST(DispatchTest, ScalarIsAlwaysTheFirstTier) {
  ASSERT_FALSE(AvailableTiers().empty());
  EXPECT_EQ(AvailableTiers().front(), &Scalar());
  EXPECT_STREQ(Scalar().name, "scalar");
}

TEST(DispatchTest, ForceScalarSelectsScalar) {
  EXPECT_EQ(&Choose(/*force_scalar=*/true), &Scalar());
}

TEST(DispatchTest, DefaultChoosesWidestAvailableTier) {
  EXPECT_EQ(&Choose(/*force_scalar=*/false), AvailableTiers().back());
}

TEST(DispatchTest, ActiveIsOneOfTheAvailableTiers) {
  const KernelOps& active = Active();
  bool found = false;
  for (const KernelOps* tier : AvailableTiers()) {
    if (tier == &active) found = true;
  }
  EXPECT_TRUE(found) << active.name;
}

TEST(DispatchTest, EveryTierHasACompleteTable) {
  for (const KernelOps* tier : AvailableTiers()) {
    EXPECT_NE(tier->name, nullptr);
    EXPECT_NE(tier->haar_forward_level, nullptr) << tier->name;
    EXPECT_NE(tier->haar_inverse_level, nullptr) << tier->name;
    EXPECT_NE(tier->fold_add, nullptr) << tier->name;
    EXPECT_NE(tier->fold_add_strided, nullptr) << tier->name;
    EXPECT_NE(tier->fold_copy_strided, nullptr) << tier->name;
    EXPECT_NE(tier->fold_chain_strided, nullptr) << tier->name;
    EXPECT_NE(tier->crc32c, nullptr) << tier->name;
  }
}

}  // namespace
}  // namespace shiftsplit::kernels
