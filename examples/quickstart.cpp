// Quickstart: the 60-second tour of the shiftsplit library.
//
// 1. Transform a 1-d vector with the paper's Haar normalization.
// 2. Store a transform in disk-block tiles and run SHIFT-SPLIT maintenance.
// 3. Query and reconstruct straight from the tiles.
// 4. Do all of the above in three lines with the WaveletCube facade.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <memory>
#include <vector>

#include "shiftsplit/core/query.h"
#include "shiftsplit/core/reconstruct.h"
#include "shiftsplit/core/shift_split.h"
#include "shiftsplit/core/wavelet_cube.h"
#include "shiftsplit/data/dataset.h"
#include "shiftsplit/storage/memory_block_manager.h"
#include "shiftsplit/tile/tree_tiling.h"
#include "shiftsplit/wavelet/haar.h"

using namespace shiftsplit;

int main() {
  // --- 1. Plain Haar transform (paper §2.1's worked example) -------------
  std::vector<double> v{3, 5, 7, 5};
  if (auto s = ForwardHaar1D(v, Normalization::kAverage); !s.ok()) {
    std::fprintf(stderr, "transform failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("DWT({3,5,7,5})      = {%g, %g, %g, %g}   (paper: {5,-1,-1,1})\n",
              v[0], v[1], v[2], v[3]);

  // --- 2. A disk-resident transform built chunk by chunk -----------------
  // Dataset of N = 2^10 values, transformed with only M = 2^4 values of
  // memory at a time, stored in B = 2^3 coefficient tiles.
  const uint32_t n = 10, m = 4, b = 3;
  MemoryBlockManager device(uint64_t{1} << b);
  auto store_result = TiledStore::Create(
      std::make_unique<TreeTilingLayout>(n, b), &device, /*pool_blocks=*/16);
  if (!store_result.ok()) return 1;
  std::unique_ptr<TiledStore> store = std::move(store_result).value();

  std::vector<double> data(uint64_t{1} << n);
  for (uint64_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<double>(i % 97) * 0.25;
  }
  for (uint64_t k = 0; k < (uint64_t{1} << (n - m)); ++k) {
    auto chunk = std::span<const double>(data).subspan(k << m, 1u << m);
    if (auto s = TransformAndApplyChunk1D(chunk, n, k, store.get(),
                                          Normalization::kAverage);
        !s.ok()) {
      std::fprintf(stderr, "chunk apply failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::printf("transformed %llu values using %llu-value chunks: %s\n",
              static_cast<unsigned long long>(data.size()),
              static_cast<unsigned long long>(uint64_t{1} << m),
              store->stats().ToString().c_str());

  // --- 3. Query without decompressing -------------------------------------
  const std::vector<uint32_t> log_dims{n};
  std::vector<uint64_t> point{531};
  QueryOptions options;
  options.use_scaling_slots = true;  // 1 disk block per point query
  auto value = PointQueryStandard(store.get(), log_dims, point, options);
  std::printf("data[531] via 1 tile = %g (expected %g)\n", value->value,
              data[531]);

  std::vector<uint64_t> lo{100}, hi{200};
  auto sum = RangeSumStandard(store.get(), log_dims, lo, hi, QueryOptions{});
  double expected = 0;
  for (uint64_t i = 100; i <= 200; ++i) expected += data[i];
  std::printf("sum(data[100..200]) = %g (expected %g)\n", sum->value,
              expected);

  // Reconstruct a dyadic sub-range (Result 6) without touching the rest.
  std::vector<uint32_t> range_log{5};
  std::vector<uint64_t> range_pos{7};  // values [224, 256)
  auto box = ReconstructDyadicStandard(store.get(), log_dims, range_log,
                                       range_pos, Normalization::kAverage);
  std::printf("reconstructed range [224,256): first=%g last=%g (expected "
              "%g / %g)\n",
              (*box)[0], (*box)[31], data[224], data[255]);

  // --- 4. The same lifecycle through the WaveletCube facade ---------------
  auto cube = WaveletCube::CreateInMemory({6, 6}, WaveletCube::Options{});
  if (!cube.ok()) return 1;
  FunctionDataset grid(TensorShape({64, 64}),
                       [](std::span<const uint64_t> c) {
                         return static_cast<double>(c[0]) * 0.5 -
                                static_cast<double>(c[1]) * 0.25;
                       });
  if (auto s = (*cube)->Ingest(&grid, /*log_chunk=*/3); !s.ok()) return 1;
  std::vector<uint64_t> at{40, 8};
  std::vector<uint64_t> qlo{0, 0}, qhi{15, 15};
  std::printf("facade: cube(40,8)=%g, sum(16x16 corner)=%g\n",
              *(*cube)->PointQuery(at), *(*cube)->RangeSum(qlo, qhi));
  return 0;
}
