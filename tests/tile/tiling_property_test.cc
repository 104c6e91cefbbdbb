// Cross-layout property sweeps: for every (d, n, b) configuration, every
// layout must map every coefficient address to a distinct in-range slot,
// and the tree tilings must reserve slot 0 of every tile for the scaling
// coefficient.

#include <gtest/gtest.h>

#include <set>

#include "shiftsplit/tile/naive_tiling.h"
#include "shiftsplit/tile/nonstandard_tiling.h"
#include "shiftsplit/tile/standard_tiling.h"
#include "shiftsplit/wavelet/tensor.h"
#include "testing.h"

namespace shiftsplit {
namespace {

struct Config {
  uint32_t d;
  uint32_t n;
  uint32_t b;
};

class TilingPropertyTest : public ::testing::TestWithParam<Config> {};

void CheckBijection(const TileLayout& layout, uint32_t d, uint32_t n) {
  TensorShape shape = TensorShape::Cube(d, uint64_t{1} << n);
  std::set<std::pair<uint64_t, uint64_t>> seen;
  std::vector<uint64_t> address(d, 0);
  do {
    auto at = layout.Locate(address);
    ASSERT_TRUE(at.ok()) << at.status().ToString();
    ASSERT_LT(at->block, layout.num_blocks());
    ASSERT_LT(at->slot, layout.block_capacity());
    ASSERT_TRUE(seen.insert({at->block, at->slot}).second)
        << "slot collision in " << layout.ToString();
  } while (shape.Next(address));
  ASSERT_EQ(seen.size(), shape.num_elements());
}

TEST_P(TilingPropertyTest, StandardLocateIsInjective) {
  const Config& c = GetParam();
  StandardTiling tiling(std::vector<uint32_t>(c.d, c.n), c.b);
  CheckBijection(tiling, c.d, c.n);
}

TEST_P(TilingPropertyTest, NonstandardLocateIsInjective) {
  const Config& c = GetParam();
  NonstandardTiling tiling(c.d, c.n, c.b);
  CheckBijection(tiling, c.d, c.n);
}

TEST_P(TilingPropertyTest, NaiveLocateIsInjective) {
  const Config& c = GetParam();
  NaiveTiling tiling(std::vector<uint32_t>(c.d, c.n),
                     uint64_t{1} << (c.b * c.d));
  CheckBijection(tiling, c.d, c.n);
}

TEST_P(TilingPropertyTest, ScalingSlotsNeverCollideWithDetails) {
  const Config& c = GetParam();
  NonstandardTiling tiling(c.d, c.n, c.b);
  // Every reserved node-scaling slot is slot 0 of some block, and no
  // detail coefficient maps there (checked by the bijection above plus the
  // invariant that details of non-top tiles use slots >= 1).
  for (uint32_t level = 1; level <= c.n; ++level) {
    if (!tiling.IsScalingLevel(level)) continue;
    std::vector<uint64_t> node(c.d, 0);
    TensorShape grid = TensorShape::Cube(c.d, uint64_t{1} << (c.n - level));
    std::set<uint64_t> blocks;
    do {
      auto at = tiling.LocateScaling(level, node);
      ASSERT_TRUE(at.ok());
      EXPECT_EQ(at->slot, 0u);
      EXPECT_TRUE(blocks.insert(at->block).second);
    } while (grid.Next(node));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TilingPropertyTest,
    ::testing::Values(Config{1, 6, 2}, Config{1, 7, 3}, Config{2, 4, 1},
                      Config{2, 5, 2}, Config{2, 5, 3}, Config{3, 3, 1},
                      Config{3, 4, 2}, Config{4, 2, 1}, Config{4, 3, 2}),
    [](const ::testing::TestParamInfo<Config>& info) {
      std::string name = "d";
      name += std::to_string(info.param.d) + "n" +
              std::to_string(info.param.n) + "b" +
              std::to_string(info.param.b);
      return name;
    });

}  // namespace
}  // namespace shiftsplit
