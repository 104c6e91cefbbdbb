// The three phases of a benchmark run. Every run executes all three, in
// this order, so every workload reports every metric:
//
//   serve_mixed  closed-loop in-process clients against a durable
//                ServingCube (point queries, range sums, durable adds);
//   wire_mixed   the same store and mix behind a CubeServer, driven by an
//                open-loop generator at a fixed rate, then a knee search;
//   ingest       bulk SHIFT-SPLIT transformation of the TEMPERATURE cube
//                into a file-backed store (the paper's Result 1 path).
//
// The workload (key distribution) changes only the serving phases' keys.

#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "report.h"
#include "stats.h"
#include "shiftsplit/data/dataset.h"
#include "shiftsplit/service/serving_cube.h"
#include "shiftsplit/util/status.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  KeyDist keys = KeyDist::kZipf;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  double wire_rate = 0.0;  ///< fixed offered rate of wire phase 1, ops/s
  std::string work_dir;    ///< scratch space for stores and traces
  uint32_t nproc = 1;
};

/// Where the phases leave their metrics and counts.
struct PhaseOutput {
  Report e2e;     ///< end-to-end metrics (untraced runs)
  Report layers;  ///< per-layer metrics (traced runs)
  JsonObject stamp;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// --- ingest -----------------------------------------------------------------

/// The materialized TEMPERATURE cube (about 2^24 cells).
struct IngestData {
  std::unique_ptr<shiftsplit::TensorDataset> data;
  std::vector<uint32_t> log_dims;
};

IngestData MakeIngestData(uint64_t seed, uint32_t threads);

/// Times CreateOnDisk + Ingest + Close at least once and again while
/// `budget_s` lasts, then checks sampled points of the last store against
/// the source tensor.
shiftsplit::Status RunIngestPhase(const RunConfig& config,
                                  const IngestData& data, double budget_s,
                                  Tracer* tracer, PhaseOutput* out);

// --- serving store ----------------------------------------------------------

inline constexpr uint32_t kServeLogEdge = 10;  ///< 2^10 x 2^10 cells
inline constexpr uint32_t kServeB = 3;

/// The serving store on disk and the dense model of its contents.
struct ServeStore {
  std::string dir;
  uint64_t store_blocks = 0;
  uint64_t pool_blocks = 0;
  std::unique_ptr<DenseModel> model;
  /// The setup's own bulk load of the store.
  double ingest_s = 0.0;
  uint64_t ingest_block_ios = 0;
};

shiftsplit::Result<ServeStore> BuildServeStore(const std::string& dir,
                                               uint64_t seed,
                                               uint32_t threads);

/// Serving options shared by both serving phases: durable acks, one
/// maintenance worker.
shiftsplit::ServingCube::Options ServingOptions();

/// Compares sampled point queries and range sums of the quiesced cube
/// bit for bit against the model, which already holds every acked add.
using PointFn = std::function<shiftsplit::Result<double>(const uint64_t*)>;
using SumFn = std::function<shiftsplit::Result<double>(const uint64_t*,
                                                       const uint64_t*)>;
shiftsplit::Status CheckAgainstModel(DenseModel* model, uint64_t seed,
                                     const PointFn& point, const SumFn& sum);

shiftsplit::Status RunServePhase(const RunConfig& config, ServeStore* store,
                                 double budget_s, Tracer* tracer,
                                 PhaseOutput* out);

shiftsplit::Status RunWirePhase(const RunConfig& config, ServeStore* store,
                                double fixed_s, double knee_s, Tracer* tracer,
                                PhaseOutput* out);

// --- helpers shared by the phases ------------------------------------------

/// Length of the slices a window's latencies are split into (stats.h).
inline constexpr double kSliceS = 1.0;

/// Slices (seconds into the window, value) samples of a window.
SlicedSamples Slice(const std::vector<std::pair<double, double>>& samples,
                    double window_s, double slice_s = kSliceS);

/// Reports the per-slice median of each percentile p as `prefix`_p<p>_us
/// and stamps the sample counts and the highest percentile the smallest
/// slice supports.
void ReportLatency(const std::string& prefix, const SlicedSamples& samples,
                   std::initializer_list<int> percentiles, Report* report,
                   JsonObject* stamp);

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
