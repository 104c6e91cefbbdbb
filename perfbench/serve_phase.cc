// Phase `serve_mixed`: nproc - 1 in-process client threads in a closed loop
// against a durable monolithic ServingCube (durable acks, one maintenance
// worker, pool about 1/16 of the store). Also the serving store's setup,
// the bit-for-bit model check shared with the wire phase, and the
// sequential blocks-per-query probe.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <thread>

#include "phases.h"
#include "shiftsplit/core/wavelet_cube.h"
#include "shiftsplit/tile/standard_tiling.h"
#include "stats.h"

namespace perfbench {

using namespace shiftsplit;

namespace {

constexpr uint32_t kServeLogChunk = 5;
constexpr uint64_t kServePoolDivisor = 16;
constexpr int kCheckPoints = 4000;
constexpr int kCheckSums = 1000;
constexpr int kProbeQueries = 500;
/// The probe is an instrument, not a workload input: a fixed seed keeps its
/// block counts comparable across runs with any workload seed.
constexpr uint64_t kProbeSeed = 0x70726f6265ull;
/// Traced runs alternate untraced and traced slices of this length, so the
/// tracing overhead is measured inside one run.
constexpr int64_t kTraceSliceNs = 250'000'000;
/// The end-to-end serving figures are read over the busiest quarter of the
/// window's 1 s slices. The speed of a shared host swings by tens of
/// percent within seconds as other tenants come and go, and a disk stall
/// parks clients in their adds, which speeds up the reads of the others.
/// The slices in which the closed loop completed the most operations are
/// the least disturbed; a slower program is slower in all of them.
constexpr double kBusiestShare = 0.25;

/// Per-kind latencies and acked adds of one client.
struct ClientLog {
  /// (seconds into the window, latency us) of each ok op, per kind.
  std::vector<std::pair<double, double>> latency_us[kOpKinds];
  std::vector<Op> acked_adds;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

int64_t BoundedSumBlocks() {
  const int64_t per_dim = 2 * kServeLogEdge + 1;  // 2 log N + 1
  return per_dim * per_dim;                       // ^d, d = 2
}

}  // namespace

ServingCube::Options ServingOptions() {
  ServingCube::Options options;
  options.durable_acks = true;
  options.num_workers = 1;
  return options;
}

Result<ServeStore> BuildServeStore(const std::string& dir, uint64_t seed,
                                   uint32_t threads) {
  RemoveAndSync(dir);
  ServeStore store;
  store.dir = dir;
  Xoshiro256 rng(StreamSeed(seed, Stream::kServeField));
  store.model = std::make_unique<DenseModel>(kServeLogEdge,
                                             rng.NextUniform(0.0, 6.28));
  const std::vector<uint32_t> log_dims = {kServeLogEdge, kServeLogEdge};
  store.store_blocks = StandardTiling(log_dims, kServeB).num_blocks();
  store.pool_blocks =
      std::max<uint64_t>(1, store.store_blocks / kServePoolDivisor);

  const DenseModel* model = store.model.get();
  FunctionDataset field(
      TensorShape({model->edge(), model->edge()}),
      [model](std::span<const uint64_t> c) {
        return static_cast<double>(model->At(c[0], c[1]));
      });
  WaveletCube::Options options;
  options.b = kServeB;
  options.pool_blocks = store.pool_blocks;
  TransformOptions transform;
  transform.num_threads = threads;
  const int64_t t0 = NowNs();
  SS_ASSIGN_OR_RETURN(auto cube,
                      WaveletCube::CreateOnDisk(dir, log_dims, options));
  SS_RETURN_IF_ERROR(cube->Ingest(&field, kServeLogChunk, &transform));
  SS_RETURN_IF_ERROR(cube->Close());
  store.ingest_s = (NowNs() - t0) * 1e-9;
  store.ingest_block_ios = cube->stats().total_blocks();
  return store;
}

Status CheckAgainstModel(DenseModel* model, uint64_t seed,
                         const PointFn& point, const SumFn& sum) {
  model->BuildPrefix();
  Xoshiro256 rng(StreamSeed(seed, Stream::kCheck));
  const uint64_t edge = model->edge();
  for (int i = 0; i < kCheckPoints; ++i) {
    const uint64_t p[2] = {rng.NextBounded(edge), rng.NextBounded(edge)};
    SS_ASSIGN_OR_RETURN(const double got, point(p));
    const double want = static_cast<double>(model->At(p[0], p[1]));
    if (got != want) {
      return Status::Internal("point (" + std::to_string(p[0]) + "," +
                              std::to_string(p[1]) + ") = " +
                              std::to_string(got) + ", model " +
                              std::to_string(want));
    }
  }
  for (int i = 0; i < kCheckSums; ++i) {
    uint64_t lo[2], hi[2];
    for (int d = 0; d < 2; ++d) {
      const uint64_t a = rng.NextBounded(edge), b = rng.NextBounded(edge);
      lo[d] = std::min(a, b);
      hi[d] = std::max(a, b);
    }
    SS_ASSIGN_OR_RETURN(const double got, sum(lo, hi));
    const double want = static_cast<double>(model->BoxSum(lo, hi));
    if (got != want) {
      return Status::Internal("range sum = " + std::to_string(got) +
                              ", model " + std::to_string(want));
    }
  }
  return Status::OK();
}

SlicedSamples Slice(const std::vector<std::pair<double, double>>& samples,
                    double window_s, double slice_s) {
  SlicedSamples sliced(window_s, slice_s);
  for (const auto& [t_s, us] : samples) sliced.Add(t_s, us);
  return sliced;
}

void ReportLatency(const std::string& prefix, const SlicedSamples& samples,
                   std::initializer_list<int> percentiles, Report* report,
                   JsonObject* stamp) {
  for (int p : percentiles) {
    report->Add(prefix + "_p" + std::to_string(p) + "_us",
                samples.Percentile(p), "us");
  }
  stamp->Obj(prefix,
             JsonObject()
                 .Int("samples", samples.count())
                 .Int("slices", samples.slices())
                 .Int("min_slice_samples", samples.min_slice_count())
                 .Num("highest_supported_pct",
                      HighestSupportedPercentile(samples.min_slice_count())));
}

Status RunServePhase(const RunConfig& config, ServeStore* store,
                     double budget_s, Tracer* tracer, PhaseOutput* out) {
  SS_ASSIGN_OR_RETURN(
      auto cube,
      ServingCube::OpenOnDisk(store->dir, store->pool_blocks,
                              ServingOptions()));
  const KeyPermutation perm(
      2 * kServeLogEdge,
      StreamSeed(config.seed, Stream::kKeyPermutation));
  const uint32_t clients = std::max<uint32_t>(1, config.nproc - 1);

  const ServingStats s0 = cube->stats();
  const BufferPool::Stats pool0 = cube->cube()->pool_stats();
  const DurabilityStats d0 = cube->cube()->durability_stats();
  const ProcSample p0 = SampleProc();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(budget_s * 1e9);

  std::vector<ClientLog> logs(clients);
  // Ops completed in untraced [0] and traced [1] slices (traced runs).
  std::atomic<uint64_t> slice_ops[2] = {0, 0};
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      OpSource ops(kServeLogEdge, config.keys, &perm,
                   StreamSeed(config.seed, Stream::kServeClient, c));
      Tracer::Local spans(tracer);
      ClientLog& log = logs[c];
      uint64_t local_slice_ops[2] = {0, 0};
      static const char* const kSpanNames[kOpKinds] = {
          "serving_cube.point_query", "serving_cube.range_sum",
          "serving_cube.add"};
      for (uint64_t n = 0;; ++n) {
        const int64_t t0 = NowNs();
        if (t0 >= deadline) break;
        const Op op = ops.Next();
        Status status;
        switch (op.kind) {
          case OpKind::kPoint:
            status = cube->PointQuery({op.lo, 2}).status();
            break;
          case OpKind::kSum:
            status = cube->RangeSum({op.lo, 2}, {op.hi, 2}).status();
            break;
          case OpKind::kAdd:
            status = cube->Add({op.lo, 2}, static_cast<double>(op.delta));
            break;
        }
        const int64_t t1 = NowNs();
        const int k = static_cast<int>(op.kind);
        ++log.attempted;
        if (!status.ok()) {
          ++log.failed;
          continue;
        }
        log.latency_us[k].emplace_back((t0 - start) * 1e-9, (t1 - t0) * 1e-3);
        if (op.kind == OpKind::kAdd) log.acked_adds.push_back(op);
        if (tracer->enabled()) {
          const int traced =
              static_cast<int>(((t0 - start) / kTraceSliceNs) % 2);
          ++local_slice_ops[traced];
          if (traced) {
            spans.Record(kSpanNames[k], (uint64_t{c} << 40) | n, t0, t1);
          }
        }
      }
      slice_ops[0] += local_slice_ops[0];
      slice_ops[1] += local_slice_ops[1];
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = (NowNs() - start) * 1e-9;
  const ProcSample p1 = SampleProc();
  const ServingStats s1 = cube->stats();
  const BufferPool::Stats pool1 = cube->cube()->pool_stats();
  const DurabilityStats d1 = cube->cube()->durability_stats();

  // Quiesce, then check the answers against the model bit for bit.
  SS_RETURN_IF_ERROR(cube->DrainAll());
  std::vector<std::pair<double, double>> lat[kOpKinds];
  std::vector<std::pair<double, double>> all_ops;
  for (ClientLog& log : logs) {
    out->attempted += log.attempted;
    out->failed += log.failed;
    for (const Op& op : log.acked_adds) {
      store->model->Add(op.lo[0], op.lo[1], op.delta);
    }
    for (int k = 0; k < kOpKinds; ++k) {
      lat[k].insert(lat[k].end(), log.latency_us[k].begin(),
                    log.latency_us[k].end());
      all_ops.insert(all_ops.end(), log.latency_us[k].begin(),
                     log.latency_us[k].end());
    }
  }
  SS_RETURN_IF_ERROR(CheckAgainstModel(
      store->model.get(), config.seed,
      [&](const uint64_t* p) { return cube->PointQuery({p, 2}); },
      [&](const uint64_t* lo, const uint64_t* hi) {
        return cube->RangeSum({lo, 2}, {hi, 2});
      }));

  // Sequential probe on the quiesced cube: each query starts from an empty
  // pool, so its pool misses are the distinct blocks it touches.
  OpSource probe_ops(kServeLogEdge, KeyDist::kUniform, &perm, kProbeSeed);
  BufferPool& pool = cube->cube()->store()->pool();
  uint64_t point_blocks = 0, sum_blocks = 0, points = 0, sums = 0;
  int64_t max_point = 0, max_sum = 0;
  while (points < kProbeQueries || sums < kProbeQueries) {
    const Op op = probe_ops.Next();
    if (op.kind == OpKind::kAdd ||
        (op.kind == OpKind::kPoint && points >= kProbeQueries) ||
        (op.kind == OpKind::kSum && sums >= kProbeQueries)) {
      continue;
    }
    SS_RETURN_IF_ERROR(pool.Clear());
    const uint64_t before = pool.misses();
    if (op.kind == OpKind::kPoint) {
      SS_RETURN_IF_ERROR(cube->PointQuery({op.lo, 2}).status());
    } else {
      SS_RETURN_IF_ERROR(cube->RangeSum({op.lo, 2}, {op.hi, 2}).status());
    }
    const int64_t blocks = static_cast<int64_t>(pool.misses() - before);
    if (op.kind == OpKind::kPoint) {
      point_blocks += blocks;
      max_point = std::max(max_point, blocks);
      ++points;
    } else {
      sum_blocks += blocks;
      max_sum = std::max(max_sum, blocks);
      ++sums;
    }
  }
  if (max_point > 1) {
    return Status::Internal("a point query fetched " +
                            std::to_string(max_point) + " blocks, not 1");
  }
  if (max_sum > BoundedSumBlocks()) {
    return Status::Internal("a range sum fetched " + std::to_string(max_sum) +
                            " blocks, above (2 log N + 1)^d");
  }
  SS_RETURN_IF_ERROR(cube->Close());

  // End-to-end, over the busiest slices of the window.
  const SlicedSamples ops_slices = Slice(all_ops, budget_s);
  const std::vector<size_t> busy = ops_slices.BusiestSlices(kBusiestShare);
  out->e2e.Add("ops_per_s", ops_slices.Only(busy).RatePerSecond(), "1/s");
  JsonObject lat_stamp;
  ReportLatency("point", Slice(lat[0], budget_s).Only(busy), {50, 99},
                &out->e2e, &lat_stamp);
  ReportLatency("sum", Slice(lat[1], budget_s).Only(busy), {50, 99},
                &out->e2e, &lat_stamp);

  // Per-layer.
  Report& L = out->layers;
  // The durable-ack latency of an add is a per-layer figure, not a gated
  // one: it is one fsync of the delta log, and the fsync latency of a
  // shared virtual disk drifts between runs by more than any allowed bound.
  ReportLatency("service.add_ack", Slice(lat[2], budget_s), {50, 90}, &L,
                &lat_stamp);
  uint64_t read_ops = 0;
  for (ClientLog& log : logs) {
    read_ops += log.latency_us[0].size() + log.latency_us[1].size();
  }
  L.Add("core.point_blocks_per_op",
        static_cast<double>(point_blocks) / static_cast<double>(points),
        "blocks");
  L.Add("core.sum_blocks_per_op",
        static_cast<double>(sum_blocks) / static_cast<double>(sums), "blocks");
  const double hits = pool1.hits - pool0.hits;
  const double misses = pool1.misses - pool0.misses;
  L.Add("storage.serve_pool_hit_rate", Ratio(hits, hits + misses), "frac");
  L.Add("storage.serve_block_reads",
        static_cast<double>(pool1.io.block_reads - pool0.io.block_reads),
        "count");
  L.Add("storage.serve_pool_evictions",
        static_cast<double>(pool1.evictions - pool0.evictions), "count");
  L.Add("storage.journal_commits",
        static_cast<double>(d1.journal_commits - d0.journal_commits), "count");
  const double syncs = s1.log_syncs - s0.log_syncs;
  L.Add("storage.log_syncs", syncs, "count");
  L.Add("storage.appends_per_sync",
        Ratio(s1.log_appends - s0.log_appends, syncs), "ratio");
  L.Add("service.latch_wait_us",
        static_cast<double>(s1.latch_wait_us_total - s0.latch_wait_us_total),
        "us");
  L.Add("service.latch_hold_us_total",
        static_cast<double>(s1.latch_hold_us_total - s0.latch_hold_us_total),
        "us");
  L.Add("service.latch_hold_us_max", static_cast<double>(s1.latch_hold_us_max),
        "us");
  L.Add("service.applied_per_batch",
        Ratio(s1.applied_deltas - s0.applied_deltas,
              s1.apply_batches - s0.apply_batches),
        "deltas");
  L.Add("service.coalesced_frac",
        Ratio(s1.coalesced_deltas - s0.coalesced_deltas,
              s1.acked_deltas - s0.acked_deltas),
        "frac");
  L.Add("service.stall_us", static_cast<double>(s1.stall_us - s0.stall_us),
        "us");
  L.Add("service.rejected",
        static_cast<double>(s1.rejected_unavailable - s0.rejected_unavailable),
        "count");
  const double probes = s1.overlay_probes - s0.overlay_probes;
  L.Add("service.overlay_probes_per_query", Ratio(probes, read_ops), "probes");
  L.Add("service.overlay_hit_frac",
        Ratio(s1.overlay_hits - s0.overlay_hits, probes), "frac");
  L.Add("proc.serve_cpu_util", CpuUtil(p0, p1), "cpu/s");
  if (tracer->enabled()) {
    const double untraced = static_cast<double>(slice_ops[0].load());
    const double traced = static_cast<double>(slice_ops[1].load());
    L.Add("trace.overhead_pct", Ratio(untraced - traced, traced) * 100.0,
          "%");
  }

  out->stamp.Obj(
      "serve_mixed",
      JsonObject()
          .Int("client_threads", clients)
          .Int("maintenance_workers", ServingOptions().num_workers)
          .Int("cells", uint64_t{1} << (2 * kServeLogEdge))
          .Int("store_blocks", store->store_blocks)
          .Int("pool_blocks", store->pool_blocks)
          .Num("window_s", wall_s)
          .Int("probe_max_point_blocks", static_cast<uint64_t>(max_point))
          .Int("probe_max_sum_blocks", static_cast<uint64_t>(max_sum))
          .Int("sum_block_bound", static_cast<uint64_t>(BoundedSumBlocks()))
          .Obj("latency", lat_stamp));
  return Status::OK();
}

}  // namespace perfbench
