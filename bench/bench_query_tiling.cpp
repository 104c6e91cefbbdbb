// Ablation — the §3 block-allocation claim: the subtree tiling minimizes
// the blocks a query touches. Point queries and range sums on the same
// transformed data under (a) naive row-major allocation, (b) subtree tiling
// walking full paths, (c) subtree tiling using the stored redundant
// scalings (slot mode). Cold cache per query (pool cleared).

#include <chrono>
#include <limits>

#include "bench_util.h"
#include "shiftsplit/core/md_shift_split.h"
#include "shiftsplit/core/query.h"
#include "shiftsplit/util/random.h"

using namespace shiftsplit;
using namespace shiftsplit::bench;

namespace {

struct Workload {
  std::vector<std::vector<uint64_t>> points;
  std::vector<std::pair<std::vector<uint64_t>, std::vector<uint64_t>>> ranges;
};

Workload MakeWorkload(uint32_t d, uint32_t n, int count) {
  Workload w;
  Xoshiro256 rng(11);
  for (int i = 0; i < count; ++i) {
    std::vector<uint64_t> p(d), q(d);
    for (uint32_t j = 0; j < d; ++j) {
      p[j] = rng.NextBounded(uint64_t{1} << n);
      q[j] = rng.NextBounded(uint64_t{1} << n);
    }
    w.points.push_back(p);
    std::vector<uint64_t> lo(d), hi(d);
    for (uint32_t j = 0; j < d; ++j) {
      lo[j] = std::min(p[j], q[j]);
      hi[j] = std::max(p[j], q[j]);
    }
    w.ranges.emplace_back(lo, hi);
  }
  return w;
}

}  // namespace

int main() {
  const uint32_t d = 2, n = 8, b = 2;
  const std::vector<uint32_t> log_dims(d, n);
  const int kQueries = 200;

  Tensor data(TensorShape::Cube(d, uint64_t{1} << n));
  Xoshiro256 rng(10);
  for (uint64_t i = 0; i < data.size(); ++i) data[i] = rng.NextGaussian();
  std::vector<uint64_t> zero(d, 0);

  auto naive = MakeNaiveStore(log_dims, uint64_t{1} << (b * d), 1u << 12);
  DieOnError(ApplyChunkStandard(data, zero, log_dims, naive.store.get(),
                                Normalization::kAverage),
             "load naive");
  auto tiled = MakeStandardStore(log_dims, b, 1u << 12);
  DieOnError(ApplyChunkStandard(data, zero, log_dims, tiled.store.get(),
                                Normalization::kAverage),
             "load tiled");

  const Workload workload = MakeWorkload(d, n, kQueries);

  auto run_points = [&](StoreBundle& bundle, const QueryOptions& options) {
    uint64_t blocks = 0;
    for (const auto& p : workload.points) {
      DieOnError(bundle.store->pool().Clear(), "clear");
      bundle.manager->stats().Reset();
      DieOnError(
          PointQueryStandard(bundle.store.get(), log_dims, p, options)
              .status(),
          "point query");
      blocks += bundle.manager->stats().block_reads;
    }
    return static_cast<double>(blocks) / kQueries;
  };
  auto run_ranges = [&](StoreBundle& bundle, const QueryOptions& options) {
    uint64_t blocks = 0;
    for (const auto& [lo, hi] : workload.ranges) {
      DieOnError(bundle.store->pool().Clear(), "clear");
      bundle.manager->stats().Reset();
      DieOnError(RangeSumStandard(bundle.store.get(), log_dims, lo, hi,
                                  options)
                     .status(),
                 "range query");
      blocks += bundle.manager->stats().block_reads;
    }
    return static_cast<double>(blocks) / kQueries;
  };

  QueryOptions path_mode;
  QueryOptions slot_mode;
  slot_mode.use_scaling_slots = true;

  std::printf(
      "Query-cost ablation: blocks read per cold query (d=2, N=%u, tile "
      "%ux%u, %d queries)\n",
      1u << n, 1u << b, 1u << b, kQueries);
  PrintRow({"allocation", "point q", "range sum"}, 18);
  PrintRow({"row-major", F(run_points(naive, path_mode)),
            F(run_ranges(naive, path_mode))},
           18);
  PrintRow({"tiling (paths)", F(run_points(tiled, path_mode)),
            F(run_ranges(tiled, path_mode))},
           18);
  PrintRow({"tiling (scalings)", F(run_points(tiled, slot_mode)),
            F(run_ranges(tiled, path_mode))},
           18);
  std::printf(
      "\nClaim check (paper §3): the subtree tiling groups each root path\n"
      "into ceil(n/b) blocks per dimension, far below the row-major layout's\n"
      "scatter; the stored subtree-root scalings cut a point query to a\n"
      "single block.\n");

  // Resilience tax: per-query wall latency of cold range sums with no
  // context, with an armed (generous) deadline — the cost of the deadline/
  // cancellation gates on the fetch path — and with a tight deadline under
  // the approximate path, where queries degrade instead of overrunning.
  auto run_latency = [&](OperationContext* (*make_ctx)(OperationContext&),
                         double max_error, uint64_t* degraded) {
    std::vector<double> us;
    us.reserve(workload.ranges.size());
    for (const auto& [lo, hi] : workload.ranges) {
      DieOnError(tiled.store->pool().Clear(), "clear");
      OperationContext storage;
      QueryOptions options;
      options.context = make_ctx(storage);
      options.max_error = max_error;
      const auto start = std::chrono::steady_clock::now();
      const DegradedResult r = DieOnError(
          RangeSumStandard(tiled.store.get(), log_dims, lo, hi, options),
          "range query");
      if (degraded != nullptr && !r.exact()) ++*degraded;
      us.push_back(std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - start)
                       .count());
    }
    return us;
  };

  const auto no_ctx = [](OperationContext&) -> OperationContext* {
    return nullptr;
  };
  const auto generous = [](OperationContext& ctx) -> OperationContext* {
    ctx.set_timeout(std::chrono::seconds(10));
    return &ctx;
  };
  const auto tight = [](OperationContext& ctx) -> OperationContext* {
    ctx.set_timeout(std::chrono::microseconds(50));
    return &ctx;
  };

  std::printf("\nQuery latency, cold range sums (%d queries, microseconds)\n",
              kQueries);
  PrintRow({"configuration", "p50 us", "p99 us", "degraded"}, 22);
  uint64_t degraded = 0;
  auto base = run_latency(no_ctx, 0.0, nullptr);
  PrintRow({"no deadline", F(Percentile(base, 50)), F(Percentile(base, 99)),
            "-"},
           22);
  auto gated = run_latency(generous, 0.0, nullptr);
  PrintRow({"10 s deadline", F(Percentile(gated, 50)),
            F(Percentile(gated, 99)), "-"},
           22);
  auto approx = run_latency(tight, std::numeric_limits<double>::infinity(),
                            &degraded);
  PrintRow({"50 us deadline, approx", F(Percentile(approx, 50)),
            F(Percentile(approx, 99)), U(degraded)},
           22);
  std::printf(
      "\nThe deadline gate is a branch per block fetch: the armed-deadline\n"
      "row should sit within noise of the no-deadline row, while the tight\n"
      "deadline caps tail latency by degrading to bounded approximations.\n");
  return 0;
}
