// OLAP-style scenario on the 4-d TEMPERATURE cube (the paper's §6.1
// dataset, synthetic stand-in): transform the cube chunk by chunk into both
// decomposition forms, then answer range aggregates and extract regions —
// the workloads the paper's introduction motivates.
//
// Build & run:  ./build/examples/temperature_cube

#include <cstdio>
#include <memory>

#include "shiftsplit/core/chunked_transform.h"
#include "shiftsplit/core/query.h"
#include "shiftsplit/core/reconstruct.h"
#include "shiftsplit/data/temperature.h"
#include "shiftsplit/storage/memory_block_manager.h"
#include "shiftsplit/tile/nonstandard_tiling.h"
#include "shiftsplit/tile/standard_tiling.h"

using namespace shiftsplit;

int main() {
  // A 32 x 32 x 8 x 64 (lat, lon, alt, time) cube: 2^21 cells.
  TemperatureOptions data_options;
  data_options.log_lat = 5;
  data_options.log_lon = 5;
  data_options.log_alt = 3;
  data_options.log_time = 6;
  auto dataset = MakeTemperatureDataset(data_options);
  const std::vector<uint32_t> log_dims{5, 5, 3, 6};
  std::printf("TEMPERATURE cube %s (%llu cells)\n",
              dataset->shape().ToString().c_str(),
              static_cast<unsigned long long>(
                  dataset->shape().num_elements()));

  // ---- Standard form, chunked transformation (Result 1) -----------------
  const uint32_t b = 2;
  auto layout = std::make_unique<StandardTiling>(log_dims, b);
  MemoryBlockManager device(layout->block_capacity());
  auto store_r = TiledStore::Create(std::move(layout), &device, 1024);
  if (!store_r.ok()) return 1;
  auto store = std::move(store_r).value();

  TransformOptions t_options;
  t_options.maintain_scaling_slots = true;
  auto result = TransformDatasetStandard(dataset.get(), /*log_chunk=*/3,
                                         store.get(), t_options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("standard transform: %llu chunks, %s\n",
              static_cast<unsigned long long>(result->chunks),
              result->store_io.ToString().c_str());

  // ---- OLAP queries -------------------------------------------------------
  // Average temperature of the equatorial band at the surface over the
  // whole period: a range-sum divided by the cell count.
  std::vector<uint64_t> lo{14, 0, 0, 0}, hi{17, 31, 0, 63};
  auto sum = RangeSumStandard(store.get(), log_dims, lo, hi, QueryOptions{});
  const double cells = 4.0 * 32.0 * 1.0 * 64.0;
  std::printf("equatorial surface mean temperature: %.2f C  (block I/O so "
              "far: %llu)\n",
              sum->value / cells,
              static_cast<unsigned long long>(store->stats().total_blocks()));

  // Point probes via the single-tile scaling-slot path.
  QueryOptions probe;
  probe.use_scaling_slots = true;
  std::vector<uint64_t> north_winter{28, 10, 0, 2};
  std::vector<uint64_t> south_winter{3, 10, 0, 2};
  auto tn = PointQueryStandard(store.get(), log_dims, north_winter, probe);
  auto ts = PointQueryStandard(store.get(), log_dims, south_winter, probe);
  std::printf("probe north=%.2f C south=%.2f C (generator: %.2f / %.2f)\n",
              tn->value, ts->value, dataset->Cell(north_winter),
              dataset->Cell(south_winter));

  // Extract a (lat x lon) surface patch at one time step (Result 6).
  std::vector<uint32_t> range_log{2, 2, 0, 0};
  std::vector<uint64_t> range_pos{4, 3, 0, 17};
  auto patch = ReconstructDyadicStandard(store.get(), log_dims, range_log,
                                         range_pos, Normalization::kAverage);
  std::printf("4x4 surface patch at t=17 reconstructed; corner = %.2f C "
              "(generator %.2f C)\n",
              (*patch)[0],
              dataset->Cell(std::vector<uint64_t>{16, 12, 0, 17}));

  // ---- Non-standard form on the cubic (lat, lon) slices ------------------
  // The non-standard decomposition needs a hypercube; demonstrate it on the
  // 32x32 surface slice of the cube at altitude 0, time 0.
  auto ns_layout = std::make_unique<NonstandardTiling>(2, 5, b);
  MemoryBlockManager ns_device(ns_layout->block_capacity());
  auto ns_store_r = TiledStore::Create(std::move(ns_layout), &ns_device, 256);
  if (!ns_store_r.ok()) return 1;
  auto ns_store = std::move(ns_store_r).value();
  FunctionDataset surface(
      TensorShape::Cube(2, 32), [&](std::span<const uint64_t> c) {
        std::vector<uint64_t> cell{c[0], c[1], 0, 0};
        return dataset->Cell(cell);
      });
  TransformOptions ns_options;
  ns_options.zorder = true;  // Result 2's optimal access pattern
  auto ns_result =
      TransformDatasetNonstandard(&surface, 3, ns_store.get(), ns_options);
  if (!ns_result.ok()) return 1;
  std::printf("non-standard surface transform (z-order): %s\n",
              ns_result->store_io.ToString().c_str());
  std::vector<uint64_t> p{20, 5};
  QueryOptions ns_probe;
  ns_probe.use_scaling_slots = true;
  auto pv = PointQueryNonstandard(ns_store.get(), 5, p, ns_probe);
  std::printf("surface probe (20,5) = %.2f C (generator %.2f C)\n", *pv,
              surface.Cell(p));
  return 0;
}
