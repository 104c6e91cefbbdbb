// Phase `ingest`: the paper's Result 1 path end to end. The TEMPERATURE
// cube, materialized in memory during setup, is transformed into a fresh
// file-backed v2 store (checksums + redo journal) with a buffer pool of at
// most 1/8 of the store's blocks: CreateOnDisk, standard-form Ingest with
// b = 2, chunk edge 2^3 and one worker per core, then Close().

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <thread>

#include "phases.h"
#include "shiftsplit/core/wavelet_cube.h"
#include "shiftsplit/data/temperature.h"
#include "shiftsplit/tile/standard_tiling.h"
#include "stats.h"

namespace perfbench {

using namespace shiftsplit;

namespace {

constexpr uint32_t kIngestB = 2;
constexpr uint32_t kLogChunk = 3;
constexpr uint64_t kPoolDivisor = 8;
constexpr int kCheckPoints = 2000;
constexpr double kCheckTolerance = 1e-9;  // relative; values are not dyadic

/// Forwards to the dataset and times every ReadChunk (traced runs only).
class TimedSource : public ChunkSource {
 public:
  explicit TimedSource(ChunkSource* inner) : inner_(inner) {}

  const TensorShape& shape() const override { return inner_->shape(); }
  bool thread_safe_reads() const override {
    return inner_->thread_safe_reads();
  }
  Status ReadChunk(std::span<const uint64_t> chunk_pos, Tensor* out) override {
    const int64_t start = NowNs();
    Status status = inner_->ReadChunk(chunk_pos, out);
    const int64_t end = NowNs();
    read_ns_.fetch_add(end - start, std::memory_order_relaxed);
    chunks_.fetch_add(1, std::memory_order_relaxed);
    CountCellsRead(out->size());
    return status;
  }

  double read_s() const { return read_ns_.load() * 1e-9; }
  uint64_t chunks() const { return chunks_.load(); }

 private:
  ChunkSource* inner_;
  std::atomic<int64_t> read_ns_{0};
  std::atomic<uint64_t> chunks_{0};
};

/// One CreateOnDisk + Ingest + Close repetition.
struct RepOutcome {
  double seconds = 0.0;
  double ingest_s = 0.0;
  double commit_s = 0.0;
  double read_chunk_s = 0.0;
  double block_ios = 0.0;
  double write_amp = 0.0;
  double pool_hit_rate = 0.0;
  double cpu_util = 0.0;
  uint64_t chunks = 0;
  IoStats io;
  BufferPool::Stats pool;
};

}  // namespace

IngestData MakeIngestData(uint64_t seed, uint32_t threads) {
  TemperatureOptions options;
  options.log_lat = 6;
  options.log_lon = 7;
  options.log_alt = 3;
  options.log_time = 8;
  options.seed = StreamSeed(seed, Stream::kTemperature);
  auto fn = MakeTemperatureDataset(options);
  const TensorShape& shape = fn->shape();
  Tensor tensor{shape};
  // One latitude row per chunk read, rows spread over the threads.
  const uint64_t rows = shape.dim(0);
  const uint64_t row_cells = tensor.size() / rows;
  std::atomic<uint64_t> next_row{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < std::max<uint32_t>(1, threads); ++t) {
    workers.emplace_back([&] {
      Tensor row{TensorShape({1, shape.dim(1), shape.dim(2), shape.dim(3)})};
      for (uint64_t r = next_row.fetch_add(1); r < rows;
           r = next_row.fetch_add(1)) {
        const uint64_t pos[4] = {r, 0, 0, 0};
        if (!fn->ReadChunk(pos, &row).ok()) failed = true;
        std::memcpy(tensor.data().data() + r * row_cells, row.data().data(),
                    row_cells * sizeof(double));
      }
    });
  }
  for (auto& w : workers) w.join();
  if (failed) {
    std::fprintf(stderr, "perfbench: materializing TEMPERATURE failed\n");
    std::exit(1);
  }
  IngestData data;
  data.log_dims = {options.log_lat, options.log_lon, options.log_alt,
                   options.log_time};
  data.data = std::make_unique<TensorDataset>(std::move(tensor));
  return data;
}

Status RunIngestPhase(const RunConfig& config, const IngestData& data,
                      double budget_s, Tracer* tracer, PhaseOutput* out) {
  const uint64_t cells = data.data->tensor().size();
  const uint64_t store_blocks =
      StandardTiling(data.log_dims, kIngestB).num_blocks();
  WaveletCube::Options options;
  options.b = kIngestB;
  options.pool_blocks = std::max<uint64_t>(1, store_blocks / kPoolDivisor);
  options.format_version = 2;
  TransformOptions transform;
  transform.num_threads = config.nproc;
  const std::string dir = config.work_dir + "/ingest";

  Tracer::Local spans(tracer);
  std::vector<RepOutcome> reps;
  const int64_t phase_start = NowNs();
  // At least one repetition; more while the budget lasts.
  while (reps.empty() || (NowNs() - phase_start) * 1e-9 < budget_s) {
    RemoveAndSync(dir);
    RepOutcome rep;
    const uint64_t cause = reps.size() + 1;
    TimedSource timed(data.data.get());
    ChunkSource* source = tracer->enabled()
                              ? static_cast<ChunkSource*>(&timed)
                              : static_cast<ChunkSource*>(data.data.get());
    const ProcSample before = SampleProc();
    const int64_t t0 = NowNs();
    std::unique_ptr<WaveletCube> cube;
    {
      Tracer::Scope span(&spans, "wavelet_cube.create_on_disk", cause);
      SS_ASSIGN_OR_RETURN(
          cube, WaveletCube::CreateOnDisk(dir, data.log_dims, options));
    }
    const int64_t t1 = NowNs();
    {
      Tracer::Scope span(&spans, "wavelet_cube.ingest", cause);
      SS_RETURN_IF_ERROR(cube->Ingest(source, kLogChunk, &transform));
    }
    const int64_t t2 = NowNs();
    {
      Tracer::Scope span(&spans, "wavelet_cube.close", cause);
      SS_RETURN_IF_ERROR(cube->Close());
    }
    const int64_t t3 = NowNs();
    const ProcSample after = SampleProc();
    rep.seconds = (t3 - t0) * 1e-9;
    rep.ingest_s = (t2 - t1) * 1e-9;
    rep.commit_s = (t3 - t2) * 1e-9;
    rep.read_chunk_s = timed.read_s();
    rep.chunks = timed.chunks();
    rep.io = cube->stats();
    rep.pool = cube->pool_stats();
    rep.block_ios = static_cast<double>(rep.io.total_blocks());
    rep.write_amp =
        static_cast<double>(after.write_bytes - before.write_bytes) /
        (static_cast<double>(cells) * sizeof(double));
    rep.pool_hit_rate = rep.pool.hit_rate();
    rep.cpu_util = CpuUtil(before, after);
    reps.push_back(rep);
    ++out->attempted;
  }

  // Correctness: sampled points of the last store against the tensor.
  {
    SS_ASSIGN_OR_RETURN(auto cube,
                        WaveletCube::OpenOnDisk(dir, options.pool_blocks));
    Xoshiro256 rng(StreamSeed(config.seed, Stream::kCheck));
    const TensorShape& shape = data.data->shape();
    for (int i = 0; i < kCheckPoints; ++i) {
      uint64_t p[4];
      for (uint32_t d = 0; d < 4; ++d) p[d] = rng.NextBounded(shape.dim(d));
      SS_ASSIGN_OR_RETURN(const double got, cube->PointQuery(p));
      const double want = data.data->tensor().At(p);
      const double tolerance = kCheckTolerance * std::max(1.0, std::fabs(want));
      if (std::fabs(got - want) > tolerance) {
        return Status::Internal("ingest check: point mismatch, got " +
                                std::to_string(got) + " want " +
                                std::to_string(want));
      }
    }
    SS_RETURN_IF_ERROR(cube->Close());
  }
  RemoveAndSync(dir);

  auto median_of = [&](double RepOutcome::*field) {
    std::vector<double> v;
    for (const RepOutcome& r : reps) v.push_back(r.*field);
    return Median(v);
  };
  const double mcells = static_cast<double>(cells) / double(1 << 20);
  const double rep_s = median_of(&RepOutcome::seconds);
  out->e2e.Add("ingest_mcells_per_s", mcells / rep_s, "Mcells/s");
  out->e2e.Add("ingest_block_ios_per_mcell",
               median_of(&RepOutcome::block_ios) / mcells, "blocks/Mcell");

  // Counts repeat exactly from one repetition to the next; times are
  // medians.
  const RepOutcome& first = reps.front();
  const double read_s = median_of(&RepOutcome::read_chunk_s);
  Report& L = out->layers;
  L.Add("data.read_chunk_s", read_s, "s");
  L.Add("core.ingest_self_s", median_of(&RepOutcome::ingest_s) - read_s, "s");
  L.Add("core.chunks", static_cast<double>(first.chunks), "count");
  L.Add("storage.commit_s", median_of(&RepOutcome::commit_s), "s");
  L.Add("storage.block_reads", static_cast<double>(first.io.block_reads),
        "count");
  L.Add("storage.block_writes", static_cast<double>(first.io.block_writes),
        "count");
  L.Add("storage.write_amp", median_of(&RepOutcome::write_amp), "bytes/byte");
  L.Add("storage.pool_hit_rate", median_of(&RepOutcome::pool_hit_rate),
        "frac");
  L.Add("storage.pool_evictions", static_cast<double>(first.pool.evictions),
        "count");
  L.Add("storage.pool_write_backs",
        static_cast<double>(first.pool.write_backs), "count");
  L.Add("proc.cpu_util", median_of(&RepOutcome::cpu_util), "cpu/s");

  JsonObject stamp;
  stamp.Int("cells", cells)
      .Int("store_blocks", store_blocks)
      .Int("pool_blocks", options.pool_blocks)
      .Int("b", kIngestB)
      .Int("log_chunk", kLogChunk)
      .Int("ingest_threads", transform.num_threads)
      .Int("reps", reps.size())
      .Num("rep_s_median", rep_s);
  out->stamp.Obj("ingest", stamp);
  return Status::OK();
}

}  // namespace perfbench
