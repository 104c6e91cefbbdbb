// Approximate and progressive OLAP answers — the database use of wavelets
// the paper's introduction cites: a K-term synopsis answers range
// aggregates with no I/O and a provable error bound, while the progressive
// evaluator streams refinements coarse-to-fine until exact.
//
// Build & run:  ./build/examples/approx_olap

#include <cmath>
#include <cstdio>
#include <memory>

#include "shiftsplit/core/approx.h"
#include "shiftsplit/core/chunked_transform.h"
#include "shiftsplit/core/query.h"
#include "shiftsplit/data/temperature.h"
#include "shiftsplit/storage/memory_block_manager.h"
#include "shiftsplit/tile/standard_tiling.h"

using namespace shiftsplit;

int main() {
  // A 64 x 64 (lat x lon) surface temperature grid.
  TemperatureOptions data_options;
  data_options.log_lat = 6;
  data_options.log_lon = 6;
  data_options.log_alt = 0;
  data_options.log_time = 0;
  auto dataset = MakeTemperatureDataset(data_options);
  const std::vector<uint32_t> log_dims{6, 6, 0, 0};

  auto layout = std::make_unique<StandardTiling>(log_dims, 2);
  MemoryBlockManager device(layout->block_capacity());
  auto store_r = TiledStore::Create(std::move(layout), &device, 1024);
  if (!store_r.ok()) return 1;
  auto store = std::move(store_r).value();
  if (!TransformDatasetStandard(dataset.get(), 3, store.get()).ok()) return 1;

  std::vector<uint64_t> lo{10, 20, 0, 0}, hi{40, 55, 0, 0};
  const double cells = 31.0 * 36.0;
  auto exact_r = RangeSumStandard(store.get(), log_dims, lo, hi,
                                  QueryOptions{});
  if (!exact_r.ok()) return 1;
  const double exact = exact_r->value;
  std::printf("exact mean temperature of the box: %.4f C\n\n", exact / cells);

  // ---- K-term synopsis answers (zero I/O after the build scan) ----------
  std::printf("K-term synopsis estimates (error bound is guaranteed):\n");
  std::printf("%8s %14s %12s %14s %14s\n", "K", "estimate/C", "actual err",
              "guaranteed", "energy kept");
  for (uint64_t k : {16u, 64u, 256u, 1024u}) {
    auto synopsis_r = CompressedSynopsis::Build(store.get(), log_dims, k,
                                                Normalization::kAverage);
    if (!synopsis_r.ok()) return 1;
    const CompressedSynopsis& synopsis = *synopsis_r;
    const double estimate = synopsis.RangeSumEstimate(lo, hi);
    std::printf("%8llu %14.4f %12.4f %14.1f %13.4f%%\n",
                static_cast<unsigned long long>(k), estimate / cells,
                std::abs(estimate - exact) / cells,
                synopsis.RangeSumErrorBound(lo, hi) / cells,
                100.0 * synopsis.energy_fraction());
  }

  // ---- Progressive exact evaluation --------------------------------------
  std::printf("\nprogressive evaluation (coarse-to-fine, exact at the end):\n");
  std::printf("%8s %14s %14s\n", "depth", "estimate/C", "coeffs read");
  auto rounds_r = ProgressiveRangeSumStandard(store.get(), log_dims, lo, hi,
                                              QueryOptions{});
  if (!rounds_r.ok()) return 1;
  for (const ProgressiveEstimate& round : *rounds_r) {
    std::printf("%8u %14.4f %14llu\n", round.depth, round.estimate / cells,
                static_cast<unsigned long long>(round.coefficients_read));
  }
  std::printf("\n(final progressive estimate == exact: %.10f == %.10f)\n",
              rounds_r->back().estimate / cells, exact / cells);
  return 0;
}
