// shiftsplit_tool — command-line front end for disk-resident wavelet stores.
//
//   create   <dir> --form F --dims A,B,.. [--b N] [--norm average|orthonormal]
//            [--shards N] [--parity G]
//   ingest   <dir> --dataset NAME [--chunk LOG] [--zorder] [--sparse] [--seed S]
//   info     <dir>
//   point    <dir> --at X,Y,..  [--slots]
//   sum      <dir> --lo X,Y,.. --hi X,Y,..
//   extract  <dir> --lo X,Y,.. --hi X,Y,..
//   scrub    <dir> [--repair]
//   serve-sim <dir> [--deltas N] [--seed S] [--crash] [--verify]
//   stats    <dir>
//   selftest [dir]
//
// A store directory holds `store.manifest` (see storage/manifest.h) and
// `blocks.bin` (the tile device). Datasets: temperature, uniform, smooth,
// sparse (synthetic; see src/shiftsplit/data/).
//
// `create --shards N` (N a power of two > 1) lays out a sharded store
// instead: a `shardset.manifest` plus one complete store directory per
// dyadic sub-domain (shard-0000, ...). serve-sim and stats detect sharded
// directories automatically and operate through the composing router.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <csignal>
#include <thread>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "shiftsplit/core/wavelet_cube.h"
#include "shiftsplit/data/synthetic.h"
#include "shiftsplit/data/temperature.h"
#include "shiftsplit/net/cube_client.h"
#include "shiftsplit/net/cube_registry.h"
#include "shiftsplit/net/cube_server.h"
#include "shiftsplit/service/serving_cube.h"
#include "shiftsplit/service/sharded_cube.h"
#include "shiftsplit/storage/manifest.h"

namespace shiftsplit::tool {
namespace {

constexpr char kUsage[] =
    "usage: shiftsplit_tool "
    "<create|ingest|info|point|sum|extract|scrub|serve-sim|serve|client|"
    "stats|selftest> "
    "<store-dir> [flags]\n"
    "  create  --form standard|nonstandard --dims 4,4,6 [--b 2]\n"
    "          [--norm average|orthonormal] [--shards N] [--parity G]\n"
    "          (--parity G groups every G data blocks under one XOR parity\n"
    "          block, enabling scrub --repair and in-place healing)\n"
    "  ingest  --dataset temperature|uniform|smooth|sparse [--chunk 3]\n"
    "          [--zorder] [--sparse] [--seed 1] [--threads T] [--prefetch]\n"
    "          [--per-coeff]\n"
    "  info\n"
    "  point   --at 1,2,3 [--slots] [--deadline-ms MS] [--approx-ok]\n"
    "  sum     --lo 0,0,0 --hi 3,3,3 [--deadline-ms MS] [--approx-ok]\n"
    "  extract --lo 0,0,0 --hi 3,3,3\n"
    "  scrub   [--repair]\n"
    "          (verify every block checksum; exits 1 on corruption.\n"
    "          --repair also rebuilds corrupt blocks from group parity:\n"
    "          exit 0 all clean, 1 repaired everything, 2 unrepairable\n"
    "          blocks remain. Sharded stores are scrubbed shard by shard)\n"
    "  serve-sim [--deltas 32] [--seed 1] [--crash] [--verify]\n"
    "          [--crash-shard K] [--expect-recover]\n"
    "          (buffer deltas through the serving layer; --crash exits\n"
    "          before draining, --verify replays and checks them;\n"
    "          sharded stores are routed automatically. --crash-shard K\n"
    "          poisons shard K mid-run; with --expect-recover the\n"
    "          supervisor must quarantine, recover and re-admit it or the\n"
    "          run exits non-zero. Exits non-zero whenever the cube ends\n"
    "          poisoned, printing the cause)\n"
    "  stats   (pool + durability + serving counters in one table, with\n"
    "          shard health and poison cause; sharded stores add\n"
    "          per-shard serving rows)\n"
    "  serve   --cube NAME=DIR[,NAME=DIR...] [--listen PORT]\n"
    "          [--threads T] [--port-file PATH]\n"
    "          (multi-tenant TCP front-end, DESIGN.md §13: opens every\n"
    "          named store — monolithic or sharded, auto-detected — and\n"
    "          serves the binary wire protocol until SIGINT/SIGTERM, then\n"
    "          drains gracefully. --listen 0 binds an ephemeral port;\n"
    "          --port-file writes the bound port for scripts)\n"
    "  client  <ping|point|sum|add|update|stats> --connect HOST:PORT\n"
    "          [--cube NAME] [--deadline-ms MS] [--max-error E]\n"
    "          [--at X,Y,..] [--lo ..] [--hi ..]\n"
    "          [--origin ..] [--dims ..] [--values V1,V2,..] [--delta D]\n"
    "          (speaks the wire protocol to a running serve instance;\n"
    "          values print with %.17g so answers compare bit-exactly)\n";

struct Args {
  std::string command;
  std::string dir;
  std::map<std::string, std::string> flags;
  std::vector<std::string> bare;  // leftover positionals
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  if (argc < 2) return Status::InvalidArgument("missing command");
  args.command = argv[1];
  int i = 2;
  // serve takes no positional (cubes ride in --cube NAME=DIR); client's
  // positional is the remote operation, not a store directory; selftest's
  // directory is optional.
  if (args.command == "serve") {
    // flags only
  } else if (args.command == "client") {
    if (argc < 3 || argv[2][0] == '-') {
      return Status::InvalidArgument(
          "client needs an operation (ping|point|sum|add|update|stats)");
    }
    args.dir = argv[2];  // the remote operation
    i = 3;
  } else if (args.command != "selftest") {
    if (argc < 3) return Status::InvalidArgument("missing store directory");
    args.dir = argv[2];
    i = 3;
  } else if (argc >= 3 && argv[2][0] != '-') {
    args.dir = argv[2];
    i = 3;
  }
  for (; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      const std::string key = a.substr(2);
      if (key == "zorder" || key == "sparse" || key == "slots" ||
          key == "prefetch" || key == "per-coeff" || key == "approx-ok" ||
          key == "crash" || key == "verify" || key == "expect-recover" ||
          key == "repair") {
        // Assigned as a std::string: GCC 12 at -O3 reports a false
        // -Wrestrict inside char_traits for a string-literal assignment.
        args.flags[key] = std::string("1");
      } else if (i + 1 < argc) {
        args.flags[key] = argv[++i];
      } else {
        return Status::InvalidArgument("flag --" + key + " needs a value");
      }
    } else {
      args.bare.push_back(std::move(a));
    }
  }
  return args;
}

Result<std::vector<uint64_t>> ParseList(const std::string& csv) {
  std::vector<uint64_t> out;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const std::string part =
        csv.substr(start, comma == std::string::npos ? comma : comma - start);
    if (part.empty()) return Status::InvalidArgument("bad list: " + csv);
    out.push_back(std::stoull(part));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

Status CmdCreate(const Args& args) {
  WaveletCube::Options options;
  if (auto it = args.flags.find("form"); it != args.flags.end()) {
    SS_ASSIGN_OR_RETURN(options.form, StoreFormFromString(it->second));
  }
  if (auto it = args.flags.find("norm"); it != args.flags.end()) {
    if (it->second == "orthonormal") {
      options.norm = Normalization::kOrthonormal;
    } else if (it->second != "average") {
      return Status::InvalidArgument("unknown normalization " + it->second);
    }
  }
  if (auto it = args.flags.find("b"); it != args.flags.end()) {
    options.b = static_cast<uint32_t>(std::stoul(it->second));
  }
  if (auto it = args.flags.find("parity"); it != args.flags.end()) {
    options.parity_group = std::stoull(it->second);
  }
  auto dims_it = args.flags.find("dims");
  if (dims_it == args.flags.end()) {
    return Status::InvalidArgument("create needs --dims (log2 extents)");
  }
  SS_ASSIGN_OR_RETURN(const auto dims, ParseList(dims_it->second));
  std::vector<uint32_t> log_dims;
  for (uint64_t d : dims) log_dims.push_back(static_cast<uint32_t>(d));
  uint32_t shards = 1;
  if (auto it = args.flags.find("shards"); it != args.flags.end()) {
    shards = static_cast<uint32_t>(std::stoul(it->second));
  }
  if (shards > 1) {
    ShardedCube::Options sharded_options;
    sharded_options.serving.start_workers = false;
    SS_ASSIGN_OR_RETURN(auto sharded,
                        ShardedCube::CreateOnDisk(args.dir, log_dims, shards,
                                                  options, sharded_options));
    const ShardRouter& router = sharded->router();
    std::printf("created sharded store %s: %u shard(s) split on dim %u "
                "(slab extent %llu)\n",
                args.dir.c_str(), router.num_shards(), router.split_dim(),
                static_cast<unsigned long long>(router.slab_extent()));
    return sharded->Close();
  }
  SS_ASSIGN_OR_RETURN(auto cube,
                      WaveletCube::CreateOnDisk(args.dir, log_dims, options));
  std::printf("created %s store %s: %llu blocks of %llu coefficients\n",
              StoreFormToString(cube->manifest().form), args.dir.c_str(),
              static_cast<unsigned long long>(
                  cube->store()->layout().num_blocks()),
              static_cast<unsigned long long>(
                  cube->store()->layout().block_capacity()));
  return cube->Close();
}

Result<std::unique_ptr<ChunkSource>> MakeDataset(const StoreManifest& manifest,
                                                 const std::string& name,
                                                 uint64_t seed) {
  std::vector<uint64_t> dims;
  for (uint32_t n : manifest.log_dims) dims.push_back(uint64_t{1} << n);
  TensorShape shape(dims);
  if (name == "uniform") {
    return std::unique_ptr<ChunkSource>(
        MakeUniformDataset(shape, -1.0, 1.0, seed));
  }
  if (name == "smooth") {
    return std::unique_ptr<ChunkSource>(MakeSmoothDataset(shape, seed));
  }
  if (name == "sparse") {
    return std::unique_ptr<ChunkSource>(
        MakeSparseDataset(shape, 0.05, 1.0, seed));
  }
  if (name == "temperature") {
    if (manifest.log_dims.size() != 4) {
      return Status::InvalidArgument(
          "the temperature dataset is 4-dimensional");
    }
    TemperatureOptions options;
    options.log_lat = manifest.log_dims[0];
    options.log_lon = manifest.log_dims[1];
    options.log_alt = manifest.log_dims[2];
    options.log_time = manifest.log_dims[3];
    options.seed = seed;
    return std::unique_ptr<ChunkSource>(MakeTemperatureDataset(options));
  }
  return Status::InvalidArgument("unknown dataset " + name);
}

Status CmdIngest(const Args& args) {
  SS_ASSIGN_OR_RETURN(auto cube, WaveletCube::OpenOnDisk(args.dir, 1024));
  auto it = args.flags.find("dataset");
  if (it == args.flags.end()) {
    return Status::InvalidArgument("ingest needs --dataset");
  }
  uint64_t seed = 1;
  if (auto s = args.flags.find("seed"); s != args.flags.end()) {
    seed = std::stoull(s->second);
  }
  SS_ASSIGN_OR_RETURN(auto dataset,
                      MakeDataset(cube->manifest(), it->second, seed));
  uint32_t log_chunk = 3;
  if (auto c = args.flags.find("chunk"); c != args.flags.end()) {
    log_chunk = static_cast<uint32_t>(std::stoul(c->second));
  }
  TransformOptions options;
  options.zorder = args.flags.contains("zorder");
  options.sparse = args.flags.contains("sparse");
  options.batched = !args.flags.contains("per-coeff");
  options.prefetch = args.flags.contains("prefetch");
  if (auto t = args.flags.find("threads"); t != args.flags.end()) {
    options.num_threads = static_cast<uint32_t>(std::stoul(t->second));
    // An explicit --threads T means T workers, even on boxes with fewer
    // hardware threads (otherwise the count silently clamps to 1 there).
    options.oversubscribe = options.num_threads > 1;
  }
  SS_RETURN_IF_ERROR(cube->Ingest(dataset.get(), log_chunk, &options));
  SS_RETURN_IF_ERROR(cube->Close());
  std::printf("ingested %s: %s\n", it->second.c_str(),
              cube->stats().ToString().c_str());
  const BufferPool::Stats cache = cube->pool_stats();
  std::printf("cache: %.1f%% hit rate (%llu GetBlock calls: %llu hits, "
              "%llu misses), %llu prefetched, %llu evictions, "
              "%llu write-backs\n",
              100.0 * cache.hit_rate(),
              static_cast<unsigned long long>(cache.hits + cache.misses),
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.prefetched),
              static_cast<unsigned long long>(cache.evictions),
              static_cast<unsigned long long>(cache.write_backs));
  return Status::OK();
}

Status CmdInfo(const Args& args) {
  SS_ASSIGN_OR_RETURN(auto cube, WaveletCube::OpenOnDisk(args.dir, 2));
  const StoreManifest& manifest = cube->manifest();
  std::printf("store:       %s\n", args.dir.c_str());
  std::printf("form:        %s\n", StoreFormToString(manifest.form));
  std::printf("norm:        %s\n", NormalizationToString(manifest.norm));
  std::printf("tile edge:   2^%u\n", manifest.b);
  std::printf("dims (log2):");
  for (uint32_t n : manifest.log_dims) std::printf(" %u", n);
  std::printf("\n");
  BlockManager& device = cube->store()->manager();
  std::printf("blocks:      %llu x %llu coefficients (%.2f MiB)\n",
              static_cast<unsigned long long>(device.num_blocks()),
              static_cast<unsigned long long>(device.block_size()),
              static_cast<double>(device.num_blocks() * device.block_size() *
                                  8) /
                  (1024.0 * 1024.0));
  return Status::OK();
}

// --deadline-ms arms `ctx` and returns it; otherwise returns null (no
// deadline, no retries — the pre-resilience behaviour).
Result<OperationContext*> QueryContext(const Args& args,
                                       OperationContext* ctx) {
  auto it = args.flags.find("deadline-ms");
  if (it == args.flags.end()) return static_cast<OperationContext*>(nullptr);
  uint64_t ms = 0;
  try {
    ms = std::stoull(it->second);
  } catch (const std::exception&) {
    return Status::InvalidArgument("bad --deadline-ms: " + it->second);
  }
  ctx->set_timeout(std::chrono::milliseconds(ms));
  return ctx;
}

void PrintDegraded(const DegradedResult& r) {
  std::printf("%.10g\n", r.value);
  if (!r.exact()) {
    std::printf("# degraded: %s, %llu block(s) skipped, |error| <= %.10g\n",
                DegradedReasonToString(r.reason),
                static_cast<unsigned long long>(r.blocks_missing),
                r.error_bound);
  }
}

// The query options of the `point`/`sum` commands: --approx-ok opts into a
// degraded answer with any bound (energy tracking on for finite bounds).
Result<QueryOptions> CliQueryOptions(const Args& args, WaveletCube* cube,
                                     OperationContext* ctx) {
  QueryOptions q{.use_scaling_slots = args.flags.contains("slots"),
                 .context = ctx};
  if (args.flags.contains("approx-ok")) {
    SS_RETURN_IF_ERROR(cube->EnableEnergyTracking());
    q.max_error = std::numeric_limits<double>::infinity();
  }
  return q;
}

Status CmdPoint(const Args& args) {
  SS_ASSIGN_OR_RETURN(auto cube, WaveletCube::OpenOnDisk(args.dir, 64));
  auto it = args.flags.find("at");
  if (it == args.flags.end()) return Status::InvalidArgument("need --at");
  SS_ASSIGN_OR_RETURN(const auto point, ParseList(it->second));
  OperationContext deadline_ctx;
  SS_ASSIGN_OR_RETURN(OperationContext* ctx,
                      QueryContext(args, &deadline_ctx));
  SS_ASSIGN_OR_RETURN(const QueryOptions q,
                      CliQueryOptions(args, cube.get(), ctx));
  SS_ASSIGN_OR_RETURN(const DegradedResult r, cube->PointQuery(point, q));
  PrintDegraded(r);
  std::printf("# block reads: %llu\n",
              static_cast<unsigned long long>(cube->stats().block_reads));
  return Status::OK();
}

Status CmdSum(const Args& args) {
  SS_ASSIGN_OR_RETURN(auto cube, WaveletCube::OpenOnDisk(args.dir, 64));
  auto lo_it = args.flags.find("lo");
  auto hi_it = args.flags.find("hi");
  if (lo_it == args.flags.end() || hi_it == args.flags.end()) {
    return Status::InvalidArgument("need --lo and --hi");
  }
  SS_ASSIGN_OR_RETURN(const auto lo, ParseList(lo_it->second));
  SS_ASSIGN_OR_RETURN(const auto hi, ParseList(hi_it->second));
  OperationContext deadline_ctx;
  SS_ASSIGN_OR_RETURN(OperationContext* ctx,
                      QueryContext(args, &deadline_ctx));
  SS_ASSIGN_OR_RETURN(const QueryOptions q,
                      CliQueryOptions(args, cube.get(), ctx));
  SS_ASSIGN_OR_RETURN(const DegradedResult r, cube->RangeSum(lo, hi, q));
  PrintDegraded(r);
  return Status::OK();
}

Status CmdExtract(const Args& args) {
  SS_ASSIGN_OR_RETURN(auto cube, WaveletCube::OpenOnDisk(args.dir, 256));
  auto lo_it = args.flags.find("lo");
  auto hi_it = args.flags.find("hi");
  if (lo_it == args.flags.end() || hi_it == args.flags.end()) {
    return Status::InvalidArgument("need --lo and --hi");
  }
  SS_ASSIGN_OR_RETURN(const auto lo, ParseList(lo_it->second));
  SS_ASSIGN_OR_RETURN(const auto hi, ParseList(hi_it->second));
  SS_ASSIGN_OR_RETURN(Tensor box, cube->Extract(lo, hi));
  std::vector<uint64_t> local(lo.size(), 0);
  for (;;) {
    bool in_box = true;
    for (size_t i = 0; i < lo.size(); ++i) {
      in_box = in_box && lo[i] + local[i] <= hi[i];
    }
    if (in_box) {
      for (size_t i = 0; i < lo.size(); ++i) {
        std::printf("%llu%s",
                    static_cast<unsigned long long>(lo[i] + local[i]),
                    i + 1 < lo.size() ? "," : "");
      }
      std::printf("\t%.10g\n", box.At(local));
    }
    if (!box.shape().Next(local)) break;
  }
  return Status::OK();
}

// The store directories one scrub invocation covers: the directory itself
// for a monolithic store, every shard-* subdirectory for a sharded one.
Result<std::vector<std::string>> ScrubTargets(const std::string& dir) {
  if (!ShardedCube::IsShardedDir(dir)) return std::vector<std::string>{dir};
  std::vector<std::string> shards;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_directory() &&
        entry.path().filename().string().rfind("shard-", 0) == 0) {
      shards.push_back(entry.path().string());
    }
  }
  if (shards.empty()) {
    return Status::NotFound("sharded store " + dir + " has no shard-* dirs");
  }
  std::sort(shards.begin(), shards.end());
  return shards;
}

// Exit code 0 = every block verified clean, 1 = corruption found and fully
// repaired, 2 = unrepairable blocks remain (store left read-only).
Result<int> CmdScrub(const Args& args) {
  const bool repair = args.flags.count("repair") > 0;
  SS_ASSIGN_OR_RETURN(const std::vector<std::string> targets,
                      ScrubTargets(args.dir));
  uint64_t verified = 0;
  uint64_t repaired = 0;
  std::vector<uint64_t> bad;  // corrupt (plain) or unrepairable (--repair)
  for (const std::string& target : targets) {
    SS_ASSIGN_OR_RETURN(auto cube, WaveletCube::OpenOnDisk(target, 64));
    const DurabilityStats recovery = cube->durability_stats();
    if (recovery.journal_replays > 0 || recovery.journal_rollbacks > 0) {
      std::printf("recovery: %llu commit(s) replayed, %llu rolled back\n",
                  static_cast<unsigned long long>(recovery.journal_replays),
                  static_cast<unsigned long long>(recovery.journal_rollbacks));
    }
    verified += cube->store()->manager().num_blocks();
    if (repair) {
      SS_ASSIGN_OR_RETURN(const ScrubReport report, cube->ScrubRepair());
      repaired += report.repaired.size();
      bad.insert(bad.end(), report.unrepairable.begin(),
                 report.unrepairable.end());
    } else {
      SS_ASSIGN_OR_RETURN(const std::vector<uint64_t> corrupt, cube->Scrub());
      bad.insert(bad.end(), corrupt.begin(), corrupt.end());
    }
    SS_RETURN_IF_ERROR(cube->Close());
  }
  if (bad.empty()) {
    if (repaired > 0) {
      std::printf("scrub repaired %llu corrupt block(s); "
                  "%llu block(s) verified clean\n",
                  static_cast<unsigned long long>(repaired),
                  static_cast<unsigned long long>(verified));
      return 1;
    }
    std::printf("scrub OK: %llu block(s) verified\n",
                static_cast<unsigned long long>(verified));
    return 0;
  }
  std::printf("scrub FAILED: %llu %s block(s):",
              static_cast<unsigned long long>(bad.size()),
              repair ? "unrepairable" : "corrupt");
  for (uint64_t id : bad) {
    std::printf(" %llu", static_cast<unsigned long long>(id));
  }
  std::printf("\nstore degraded to read-only; corrupt blocks read as zeros\n");
  if (repair) {
    if (repaired > 0) {
      std::printf("(%llu other corrupt block(s) were repaired)\n",
                  static_cast<unsigned long long>(repaired));
    }
    return 2;
  }
  return Status::ChecksumMismatch("store failed scrub");
}

// Deterministic serve-sim cell schedule: distinct cells (odd-stride walk of
// the power-of-two domain) and a value derived from the index, so a later
// --verify run can recompute exactly what an earlier run buffered.
struct SimDelta {
  std::vector<uint64_t> coords;
  double value;
};

SimDelta SimDeltaAt(std::span<const uint32_t> log_dims, uint64_t i,
                    uint64_t seed) {
  uint64_t total = 1;
  std::vector<uint64_t> dims;
  for (uint32_t n : log_dims) {
    dims.push_back(uint64_t{1} << n);
    total *= uint64_t{1} << n;
  }
  uint64_t flat = (i * 5 + seed) % total;  // odd stride => bijective mod 2^k
  std::vector<uint64_t> coords(dims.size());
  for (size_t d = dims.size(); d-- > 0;) {
    coords[d] = flat % dims[d];
    flat /= dims[d];
  }
  return {std::move(coords), 1.0 + 0.5 * static_cast<double>(i % 97)};
}

// serve-sim: push N deltas through the serving layer. Default run drains and
// closes cleanly; --crash exits the process after the deltas are acked but
// before any drain (simulating kill -9); --verify reopens, checks that every
// acked delta was replayed and is visible, then drains and re-checks.
Status CmdServeSim(const Args& args) {
  uint64_t deltas = 32;
  if (auto it = args.flags.find("deltas"); it != args.flags.end()) {
    deltas = std::stoull(it->second);
  }
  uint64_t seed = 1;
  if (auto it = args.flags.find("seed"); it != args.flags.end()) {
    seed = std::stoull(it->second);
  }
  bool crash_shard = false;
  uint32_t victim = 0;
  if (auto it = args.flags.find("crash-shard"); it != args.flags.end()) {
    crash_shard = true;
    victim = static_cast<uint32_t>(std::stoul(it->second));
  }
  const bool expect_recover = args.flags.contains("expect-recover");
  if (expect_recover && !crash_shard) {
    return Status::InvalidArgument("--expect-recover needs --crash-shard K");
  }

  // Monolithic and sharded stores run the identical schedule through one
  // ServeHandle, so their crash/verify contracts are exercised by the same
  // code. Default: drains only where the sim says. A supervised run instead
  // starts workers and the supervisor so --expect-recover can watch the
  // full quarantine -> recover -> re-admit cycle happen on its own.
  ServingCube::Options options;
  options.start_workers = expect_recover;
  options.oversubscribe = expect_recover;
  std::shared_ptr<ShardedCube> sharded;  // --crash-shard's victim lives here
  std::shared_ptr<net::ServeHandle> serving;
  if (crash_shard) {
    if (!ShardedCube::IsShardedDir(args.dir)) {
      return Status::InvalidArgument(
          "--crash-shard needs a sharded store directory");
    }
    ShardedCube::Options sharded_options;
    sharded_options.serving = options;
    sharded_options.supervisor_poll = std::chrono::milliseconds(5);
    SS_ASSIGN_OR_RETURN(sharded,
                        ShardedCube::OpenOnDisk(args.dir, sharded_options));
    if (victim >= sharded->num_shards()) {
      return Status::InvalidArgument(
          "--crash-shard " + std::to_string(victim) + " out of range (store"
          " has " + std::to_string(sharded->num_shards()) + " shards)");
    }
    serving = net::ServeHandle::Wrap(sharded);
  } else {
    SS_ASSIGN_OR_RETURN(serving,
                        net::ServeHandle::Open(args.dir, 256, options));
  }
  const std::vector<uint32_t>& log_dims = serving->log_dims();
  const auto point = [&](std::span<const uint64_t> at) -> Result<double> {
    return ExactValue(serving->PointQuery(at, 0.0, nullptr));
  };

  if (args.flags.contains("verify")) {
    const ServingStats stats = serving->stats();
    if (stats.replayed_deltas != deltas || stats.pending_deltas != deltas) {
      return Status::Internal(
          "serve-sim verify: expected " + std::to_string(deltas) +
          " replayed+pending deltas, got replayed=" +
          std::to_string(stats.replayed_deltas) +
          " pending=" + std::to_string(stats.pending_deltas));
    }
    // The base store under the crashed deltas is arbitrary (it may have been
    // ingested), so check the serving layer's exactness contract instead of
    // absolute values: answers with the replayed deltas merged from the
    // buffer must be bit-identical to the same answers after every delta is
    // drained into the store.
    std::vector<double> merged(deltas);
    for (uint64_t i = 0; i < deltas; ++i) {
      const SimDelta d = SimDeltaAt(log_dims, i, seed);
      SS_ASSIGN_OR_RETURN(merged[i], point(d.coords));
    }
    SS_RETURN_IF_ERROR(serving->DrainAll());
    if (serving->stats().pending_deltas != 0) {
      return Status::Internal("serve-sim verify: deltas left after drain");
    }
    for (uint64_t i = 0; i < deltas; ++i) {
      const SimDelta d = SimDeltaAt(log_dims, i, seed);
      SS_ASSIGN_OR_RETURN(const double applied, point(d.coords));
      if (std::bit_cast<uint64_t>(applied) !=
          std::bit_cast<uint64_t>(merged[i])) {
        return Status::Internal(
            "serve-sim verify: merged/applied mismatch at #" +
            std::to_string(i));
      }
    }
    SS_RETURN_IF_ERROR(serving->Close());
    std::printf("serve-sim verify OK: %llu delta(s) recovered and applied\n",
                static_cast<unsigned long long>(deltas));
    return Status::OK();
  }

  // Writes bounced by an unavailable (healing) shard are retried once the
  // shard is re-admitted — the sim's contract is that every delta lands.
  std::vector<uint64_t> unacked;
  for (uint64_t i = 0; i < deltas; ++i) {
    if (crash_shard && i == deltas / 2) {
      // Poison the victim mid-run, exactly as a torn drain would.
      if (auto cube = sharded->shard_for_test(victim)) {
        SS_RETURN_IF_ERROR(cube->CrashForTest());
        std::printf("serve-sim: crashed shard %u after %llu delta(s)\n",
                    victim, static_cast<unsigned long long>(i));
      }
    }
    const SimDelta d = SimDeltaAt(log_dims, i, seed);
    const Status added = serving->Add(d.coords, d.value, nullptr);
    if (added.ok()) continue;
    if (crash_shard && added.code() == StatusCode::kUnavailable) {
      unacked.push_back(i);
      continue;
    }
    return added;
  }
  if (args.flags.contains("crash")) {
    // Every delta above is fsynced in the log; nothing is drained. Exit
    // without unwinding so no destructor flushes state — the closest a
    // process can get to kill -9 on itself.
    std::printf("serve-sim: %llu delta(s) acked durably; crashing now\n",
                static_cast<unsigned long long>(deltas));
    std::fflush(stdout);
    std::_Exit(0);
  }
  if (expect_recover) {
    // The supervisor must quarantine, rebuild and re-admit the victim on
    // its own; then the bounced writes retry against the healed shard.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
      const auto info = sharded->shard_health(victim);
      if (info.health == ShardHealth::kHealthy && info.recoveries >= 1) break;
      if (info.health == ShardHealth::kFailed) {
        return Status::Unavailable("shard " + std::to_string(victim) +
                                   " failed terminally: " +
                                   info.cause.ToString());
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        return Status::DeadlineExceeded(
            "shard " + std::to_string(victim) + " did not recover (health " +
            ShardHealthToString(info.health) + ")");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (const uint64_t i : unacked) {
      const SimDelta d = SimDeltaAt(log_dims, i, seed);
      SS_RETURN_IF_ERROR(serving->Add(d.coords, d.value, nullptr));
    }
    const auto info = sharded->shard_health(victim);
    std::printf("serve-sim: shard %u quarantined and re-admitted "
                "(%llu recover%s); %zu bounced write(s) retried\n",
                victim, static_cast<unsigned long long>(info.recoveries),
                info.recoveries == 1 ? "y" : "ies", unacked.size());
  }
  SS_RETURN_IF_ERROR(serving->DrainAll());
  const ServingStats stats = serving->stats();
  SS_RETURN_IF_ERROR(serving->Close());
  std::printf("serve-sim: %s\n", stats.ToString().c_str());
  // A cube that ends the run poisoned is an operator problem, not a clean
  // exit: surface the cause and fail the process.
  if (!ShardHealthServes(stats.health)) {
    return Status::Unavailable(
        "cube ended " + std::string(ShardHealthToString(stats.health)) +
        ": " + std::string(StatusCodeToString(stats.poison_code)) + ": " +
        stats.poison_message);
  }
  return Status::OK();
}

void PrintServingRows(const ServingStats& serve) {
  const auto row = [](const char* name, uint64_t value) {
    std::printf("  %-24s %llu\n", name,
                static_cast<unsigned long long>(value));
  };
  row("pending_deltas", serve.pending_deltas);
  row("pending_slots", serve.pending_slots);
  row("replayed_deltas", serve.replayed_deltas);
  row("log_torn_records", serve.log_torn_records);
  row("latch_wait_us_total", serve.latch_wait_us_total);
  row("latch_hold_us_total", serve.latch_hold_us_total);
  row("latch_hold_us_max", serve.latch_hold_us_max);
  row("latch_exclusive_holds", serve.latch_exclusive_holds);
  row("last_seq", serve.last_seq);
  row("durable_seq", serve.durable_seq);
  row("applied_seq", serve.applied_seq);
  std::printf("  %-24s %s\n", "health", ShardHealthToString(serve.health));
  if (serve.poison_code != StatusCode::kOk) {
    std::printf("  %-24s %s: %s\n", "poison_cause",
                StatusCodeToString(serve.poison_code),
                serve.poison_message.c_str());
    row("poisoned_at_us", serve.poisoned_at_us);
  }
  row("log_sync_failures", serve.log_sync_failures);
  if (serve.quarantines != 0 || serve.recovery_attempts != 0 ||
      serve.parked_writes != 0 || serve.parked_dropped != 0) {
    row("quarantines", serve.quarantines);
    row("recovery_attempts", serve.recovery_attempts);
    row("recoveries", serve.recoveries);
    row("parked_writes", serve.parked_writes);
    row("parked_dropped", serve.parked_dropped);
  }
  if (serve.scrub_passes != 0 || serve.scrubbed_blocks != 0 ||
      serve.parity_repairs != 0 || serve.parity_unrepairable != 0) {
    row("scrub_passes", serve.scrub_passes);
    row("scrubbed_blocks", serve.scrubbed_blocks);
    row("scrub_repairs", serve.scrub_repairs);
    row("parity_repairs", serve.parity_repairs);
    row("parity_unrepairable", serve.parity_unrepairable);
  }
}

Status CmdStats(const Args& args) {
  if (ShardedCube::IsShardedDir(args.dir)) {
    ShardedCube::Options options;
    options.serving.start_workers = false;  // observe; never drain
    SS_ASSIGN_OR_RETURN(auto sharded, ShardedCube::OpenOnDisk(args.dir,
                                                              options));
    const ShardRouter& router = sharded->router();
    std::printf("sharded: %u shard(s), split dim %u, slab extent %llu\n",
                router.num_shards(), router.split_dim(),
                static_cast<unsigned long long>(router.slab_extent()));
    if (const auto first = sharded->shard_for_test(0); first != nullptr) {
      std::printf("parity group: %llu\n",
                  static_cast<unsigned long long>(
                      first->cube()->manifest().parity_group));
    }
    std::printf("serving (aggregate):\n");
    PrintServingRows(sharded->stats());
    for (uint32_t s = 0; s < sharded->num_shards(); ++s) {
      std::printf("shard %u: %s\n", s,
                  sharded->shard_stats(s).ToString().c_str());
    }
    return Status::OK();
  }
  ServingCube::Options options;
  options.start_workers = false;  // observe; never drain as a side effect
  SS_ASSIGN_OR_RETURN(auto serving,
                      ServingCube::OpenOnDisk(args.dir, 64, options));
  WaveletCube* cube = serving->cube();
  const BufferPool::Stats pool = cube->pool_stats();
  const DurabilityStats durability = cube->durability_stats();
  const auto row = [](const char* name, uint64_t value) {
    std::printf("  %-24s %llu\n", name,
                static_cast<unsigned long long>(value));
  };
  std::printf("pool:\n");
  row("hits", pool.hits);
  row("misses", pool.misses);
  row("prefetched", pool.prefetched);
  row("evictions", pool.evictions);
  row("write_backs", pool.write_backs);
  std::printf("durability:\n");
  row("checksum_failures", durability.checksum_failures);
  row("quarantined_blocks", durability.quarantined_blocks);
  row("io_retries", durability.io_retries);
  row("journal_commits", durability.journal_commits);
  row("journal_replays", durability.journal_replays);
  row("journal_rollbacks", durability.journal_rollbacks);
  row("read_only", durability.read_only ? 1 : 0);
  row("parity group", cube->manifest().parity_group);
  row("repaired", durability.repaired_blocks);
  row("unrepairable", durability.unrepairable_blocks);
  std::printf("serving:\n");
  PrintServingRows(serving->stats());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// serve / client: the TCP front-end (DESIGN.md §13).

volatile std::sig_atomic_t g_serve_stop = 0;
void ServeSignalHandler(int) { g_serve_stop = 1; }

Status CmdServe(const Args& args) {
  const auto cube_it = args.flags.find("cube");
  if (cube_it == args.flags.end()) {
    return Status::InvalidArgument(
        "serve needs --cube NAME=DIR[,NAME=DIR...]");
  }
  auto registry = std::make_shared<net::CubeRegistry>();
  std::vector<std::string> names;
  const std::string& spec = cube_it->second;
  size_t start = 0;
  while (start <= spec.size()) {
    const size_t comma = spec.find(',', start);
    const std::string part =
        spec.substr(start, comma == std::string::npos ? comma : comma - start);
    const size_t eq = part.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= part.size()) {
      return Status::InvalidArgument("bad --cube entry (want NAME=DIR): " +
                                     part);
    }
    registry->Configure(part.substr(0, eq), part.substr(eq + 1));
    names.push_back(part.substr(0, eq));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  // Eager open: a missing or corrupt store fails the launch, not the first
  // request.
  for (const std::string& name : names) {
    SS_RETURN_IF_ERROR(registry->Open(name).status());
  }

  net::CubeServer::Options options;
  if (auto it = args.flags.find("listen"); it != args.flags.end()) {
    options.port = static_cast<uint16_t>(std::stoul(it->second));
  }
  if (auto it = args.flags.find("threads"); it != args.flags.end()) {
    options.num_threads = static_cast<uint32_t>(std::stoul(it->second));
  }
  net::CubeServer server(registry, options);
  SS_RETURN_IF_ERROR(server.Start());
  std::printf("serving %zu cube(s) on 127.0.0.1:%u\n", names.size(),
              server.port());
  std::fflush(stdout);
  if (auto it = args.flags.find("port-file"); it != args.flags.end()) {
    FILE* f = std::fopen(it->second.c_str(), "w");
    if (f == nullptr) {
      server.Stop();
      return Status::IOError("cannot write --port-file " + it->second);
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
  }

  std::signal(SIGINT, ServeSignalHandler);
  std::signal(SIGTERM, ServeSignalHandler);
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("draining\n");
  server.Stop();
  return registry->CloseAll();
}

Result<std::vector<double>> ParseDoubleList(const std::string& csv) {
  std::vector<double> out;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const std::string part =
        csv.substr(start, comma == std::string::npos ? comma : comma - start);
    if (part.empty()) return Status::InvalidArgument("bad list: " + csv);
    try {
      out.push_back(std::stod(part));
    } catch (const std::exception&) {
      return Status::InvalidArgument("bad value: " + part);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

Result<std::vector<uint64_t>> RequiredList(const Args& args,
                                           const char* flag) {
  const auto it = args.flags.find(flag);
  if (it == args.flags.end()) {
    return Status::InvalidArgument(std::string("need --") + flag);
  }
  return ParseList(it->second);
}

Status CmdClient(const Args& args) {
  const std::string& op = args.dir;  // the positional after "client"
  const auto connect_it = args.flags.find("connect");
  if (connect_it == args.flags.end()) {
    return Status::InvalidArgument("client needs --connect HOST:PORT");
  }
  const std::string& endpoint = connect_it->second;
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon + 1 >= endpoint.size()) {
    return Status::InvalidArgument("bad --connect (want HOST:PORT): " +
                                   endpoint);
  }
  const std::string host = endpoint.substr(0, colon);
  const uint16_t port =
      static_cast<uint16_t>(std::stoul(endpoint.substr(colon + 1)));

  uint32_t deadline_ms = 0;
  if (auto it = args.flags.find("deadline-ms"); it != args.flags.end()) {
    deadline_ms = static_cast<uint32_t>(std::stoul(it->second));
  }
  double max_error = 0.0;
  if (auto it = args.flags.find("max-error"); it != args.flags.end()) {
    SS_ASSIGN_OR_RETURN(const auto parsed, ParseDoubleList(it->second));
    if (parsed.size() != 1) {
      return Status::InvalidArgument("--max-error wants one value");
    }
    max_error = parsed[0];
  }
  std::string cube;
  if (auto it = args.flags.find("cube"); it != args.flags.end()) {
    cube = it->second;
  }
  const auto need_cube = [&]() -> Status {
    if (cube.empty()) {
      return Status::InvalidArgument("client " + op + " needs --cube NAME");
    }
    return Status::OK();
  };

  net::CubeClient client(host, port);
  if (op == "ping") {
    SS_RETURN_IF_ERROR(client.Ping(deadline_ms));
    std::printf("pong\n");
    return Status::OK();
  }
  if (op == "point") {
    SS_RETURN_IF_ERROR(need_cube());
    SS_ASSIGN_OR_RETURN(const auto at, RequiredList(args, "at"));
    SS_ASSIGN_OR_RETURN(
        const DegradedResult result,
        client.PointDegraded(cube, at, max_error, deadline_ms));
    std::printf("%.17g\n", result.value);
    if (!result.exact()) {
      std::printf("# degraded: %s, |error| <= %.17g\n",
                  DegradedReasonToString(result.reason), result.error_bound);
    }
    return Status::OK();
  }
  if (op == "sum") {
    SS_RETURN_IF_ERROR(need_cube());
    SS_ASSIGN_OR_RETURN(const auto lo, RequiredList(args, "lo"));
    SS_ASSIGN_OR_RETURN(const auto hi, RequiredList(args, "hi"));
    SS_ASSIGN_OR_RETURN(
        const DegradedResult result,
        client.SumDegraded(cube, lo, hi, max_error, deadline_ms));
    std::printf("%.17g\n", result.value);
    if (!result.exact()) {
      std::printf("# degraded: %s, %zu shard(s) skipped, |error| <= %.17g\n",
                  DegradedReasonToString(result.reason),
                  result.shards_missing.size(), result.error_bound);
    }
    return Status::OK();
  }
  if (op == "add") {
    SS_RETURN_IF_ERROR(need_cube());
    SS_ASSIGN_OR_RETURN(const auto at, RequiredList(args, "at"));
    const auto delta_it = args.flags.find("delta");
    if (delta_it == args.flags.end()) {
      return Status::InvalidArgument("client add needs --delta D");
    }
    SS_ASSIGN_OR_RETURN(const auto delta, ParseDoubleList(delta_it->second));
    if (delta.size() != 1) {
      return Status::InvalidArgument("--delta wants one value");
    }
    SS_RETURN_IF_ERROR(client.Add(cube, at, delta[0], deadline_ms));
    std::printf("acked\n");
    return Status::OK();
  }
  if (op == "update") {
    SS_RETURN_IF_ERROR(need_cube());
    SS_ASSIGN_OR_RETURN(const auto origin, RequiredList(args, "origin"));
    SS_ASSIGN_OR_RETURN(const auto dims, RequiredList(args, "dims"));
    const auto values_it = args.flags.find("values");
    if (values_it == args.flags.end()) {
      return Status::InvalidArgument("client update needs --values V1,V2,..");
    }
    SS_ASSIGN_OR_RETURN(const auto values,
                        ParseDoubleList(values_it->second));
    SS_RETURN_IF_ERROR(
        client.Update(cube, origin, dims, values, deadline_ms));
    std::printf("acked %zu value(s)\n", values.size());
    return Status::OK();
  }
  if (op == "stats") {
    SS_ASSIGN_OR_RETURN(const net::StatsReply stats,
                        client.Stats(cube, deadline_ms));
    for (const auto& [key, value] : stats.counters) {
      std::printf("%-36s %llu\n", key.c_str(),
                  static_cast<unsigned long long>(value));
    }
    return Status::OK();
  }
  return Status::InvalidArgument("unknown client operation " + op);
}

Status CmdSelftest(const Args& args) {
  const std::string dir =
      args.dir.empty()
          ? (std::filesystem::temp_directory_path() / "shiftsplit_selftest")
                .string()
          : args.dir;
  std::filesystem::remove_all(dir);

  Args create;
  create.dir = dir;
  create.flags = {{"form", "standard"}, {"dims", "3,3,4"}, {"b", "2"}};
  SS_RETURN_IF_ERROR(CmdCreate(create));

  Args ingest;
  ingest.dir = dir;
  ingest.flags = {{"dataset", "smooth"}, {"chunk", "2"}, {"seed", "7"}};
  SS_RETURN_IF_ERROR(CmdIngest(ingest));

  // Query and verify against the generator.
  SS_ASSIGN_OR_RETURN(auto cube, WaveletCube::OpenOnDisk(dir, 64));
  auto dataset = MakeSmoothDataset(TensorShape({8, 8, 16}), 7);
  std::vector<uint64_t> point{3, 5, 9};
  SS_ASSIGN_OR_RETURN(const double v, cube->PointQuery(point));
  const double expected = dataset->Cell(point);
  if (std::abs(v - expected) > 1e-8) {
    return Status::Internal("selftest point mismatch");
  }
  std::filesystem::remove_all(dir);
  std::printf("selftest OK\n");
  return Status::OK();
}

int Main(int argc, char** argv) {
  auto args_result = ParseArgs(argc, argv);
  if (!args_result.ok()) {
    std::fprintf(stderr, "%s\n%s", args_result.status().ToString().c_str(),
                 kUsage);
    return 2;
  }
  const Args& args = *args_result;
  Status status;
  if (args.command == "create") {
    status = CmdCreate(args);
  } else if (args.command == "ingest") {
    status = CmdIngest(args);
  } else if (args.command == "info") {
    status = CmdInfo(args);
  } else if (args.command == "point") {
    status = CmdPoint(args);
  } else if (args.command == "sum") {
    status = CmdSum(args);
  } else if (args.command == "extract") {
    status = CmdExtract(args);
  } else if (args.command == "scrub") {
    // scrub owns its exit code (0 clean / 1 repaired or corrupt / 2
    // unrepairable); only hard errors go through the generic mapping.
    const Result<int> scrub = CmdScrub(args);
    if (scrub.ok()) return *scrub;
    status = scrub.status();
  } else if (args.command == "serve-sim") {
    status = CmdServeSim(args);
  } else if (args.command == "serve") {
    status = CmdServe(args);
  } else if (args.command == "client") {
    status = CmdClient(args);
  } else if (args.command == "stats") {
    status = CmdStats(args);
  } else if (args.command == "selftest") {
    status = CmdSelftest(args);
  } else {
    std::fprintf(stderr, "unknown command %s\n%s", args.command.c_str(),
                 kUsage);
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace shiftsplit::tool

int main(int argc, char** argv) { return shiftsplit::tool::Main(argc, argv); }
