// perfbench: the repository benchmark. One seeded run executes the three
// phases (serve_mixed, wire_mixed, ingest; see phases.h), checks every
// answer, and prints an environment stamp line followed by the result line
//
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same phases run with spans and counter snapshots and the metrics are the
// per-layer ones. A failed correctness check exits non-zero and prints no
// metrics.
//
//   perfbench --workload zipf|uniform --seed N --seconds S --trace 0|1
//             --wire-rate OPS --work-dir DIR [--trace-out FILE]

#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "phases.h"
#include "shiftsplit/kernels/kernels.h"
#include "stats.h"

namespace {

using namespace perfbench;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload zipf|uniform "
               "--seed N --seconds S --trace 0|1 --wire-rate OPS "
               "--work-dir DIR [--trace-out FILE]\n",
               why);
  std::exit(2);
}

[[noreturn]] void Fail(const std::string& what, const shiftsplit::Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(1);
}

constexpr int kSetupReps = 3;

// Shares of --seconds given to each timed part of the run. The ingest
// share fits one repetition on a 4-core machine: each one writes about
// 700 MB, and the device work it leaves behind disturbs the fsyncs of the
// serving phases of the runs that follow.
constexpr double kServeShare = 0.40;
constexpr double kWireFixedShare = 0.10;
constexpr double kKneeShare = 0.40;
constexpr double kIngestShare = 0.10;

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "perfbench: refusing to report from an unoptimized build\n");
  return 3;
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::fprintf(stderr, "perfbench: refusing to report from a %s build\n",
                 build_type.c_str());
    return 3;
  }

  RunConfig config;
  std::string trace_out;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        config.trace = value == "1";
        have_trace = true;
      } else if (flag == "--wire-rate") {
        config.wire_rate = std::stod(value);
      } else if (flag == "--work-dir") {
        config.work_dir = value;
      } else if (flag == "--trace-out") {
        trace_out = value;
      } else {
        Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (config.workload == "zipf") {
    config.keys = KeyDist::kZipf;
  } else if (config.workload == "uniform") {
    config.keys = KeyDist::kUniform;
  } else {
    Usage("--workload must be zipf or uniform");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace are required");
  }
  if (config.seconds <= 0 || config.wire_rate <= 0 || config.work_dir.empty()) {
    Usage("--seconds and --wire-rate must be positive; --work-dir is required");
  }
  config.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::filesystem::create_directories(config.work_dir);

  Tracer tracer(config.trace);
  PhaseOutput out;

  // Setup, several times: materialize the ingest data and build the serving
  // store. The last one is used; setup_s is the median.
  std::vector<double> setup_s;
  IngestData ingest_data;
  shiftsplit::Result<ServeStore> serve_store = shiftsplit::Status::Internal("");
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t t0 = NowNs();
    ingest_data = IngestData{};
    ingest_data = MakeIngestData(config.seed, config.nproc);
    serve_store =
        BuildServeStore(config.work_dir + "/serve", config.seed, config.nproc);
    if (!serve_store.ok()) Fail("serving store setup", serve_store.status());
    setup_s.push_back((NowNs() - t0) * 1e-9);
  }

  // The serving phases run first: the ingest phase writes about a
  // gigabyte, and the device is still busy with it for a while after.
  const double S = config.seconds;
  shiftsplit::Status status =
      RunServePhase(config, &*serve_store, kServeShare * S, &tracer, &out);
  if (!status.ok()) Fail("serve_mixed phase", status);
  status = RunWirePhase(config, &*serve_store, kWireFixedShare * S,
                        kKneeShare * S, &tracer, &out);
  if (!status.ok()) Fail("wire_mixed phase", status);
  status = RunIngestPhase(config, ingest_data, kIngestShare * S, &tracer, &out);
  if (!status.ok()) Fail("ingest phase", status);

  RemoveAndSync(config.work_dir);
  if (config.trace && !trace_out.empty() && !tracer.Write(trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    return 1;
  }

  Report e2e;
  e2e.Add("setup_s", Median(setup_s), "s");
  e2e.Add("peak_rss_mb", PeakRssMb(), "MB");
  e2e.Add("ok_frac", 1.0 - Ratio(out.failed, out.attempted), "frac");
  e2e.Append(out.e2e);

  JsonObject stamp;
  stamp.Str("workload", config.workload)
      .Int("seed", config.seed)
      .Num("seconds", config.seconds)
      .Bool("trace", config.trace)
      .Int("nproc", config.nproc)
      .Str("kernel_tier", shiftsplit::kernels::Active().name)
      .Str("build_type", build_type)
      .Num("wire_fixed_rate", config.wire_rate)
      .Raw("setup_s", [&] {
        std::string s = "[";
        for (size_t i = 0; i < setup_s.size(); ++i) {
          s += (i ? ", " : "") + std::to_string(setup_s[i]);
        }
        return s + "]";
      }())
      .Raw("phases", out.stamp.str());
  std::cout << "{\"stamp\": " << stamp.str() << "}\n";

  const Report& metrics = config.trace ? out.layers : e2e;
  for (const std::string& name : metrics.missing()) {
    std::fprintf(stderr,
                 "perfbench: metric %s is missing (too few samples)\n",
                 name.c_str());
  }
  std::cout << metrics.Json(true, out.attempted, out.failed) << std::endl;
  return 0;
}
