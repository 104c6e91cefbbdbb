#include "shiftsplit/core/wavelet_cube.h"

#include <filesystem>
#include <random>

#include "shiftsplit/core/query.h"
#include "shiftsplit/core/reconstruct.h"
#include "shiftsplit/core/updater.h"
#include "shiftsplit/storage/file_block_manager.h"
#include "shiftsplit/storage/memory_block_manager.h"

namespace shiftsplit {

namespace {

std::string ManifestPath(const std::string& dir) {
  return (std::filesystem::path(dir) / "store.manifest").string();
}
std::string BlocksPath(const std::string& dir) {
  return (std::filesystem::path(dir) / "blocks.bin").string();
}
std::string JournalPath(const std::string& dir) {
  return (std::filesystem::path(dir) / "store.journal").string();
}

// Non-standard evaluators answer exactly only.
Status NonstandardIsExactOnly(const QueryOptions& options) {
  if (!options.approx_ok()) return Status::OK();
  return Status::Unimplemented(
      "graceful degradation currently supports standard-form cubes; "
      "non-standard queries answer exactly (max_error 0)");
}

// Nonzero random epoch stamped into every v2 block footer, so blocks from a
// deleted-and-recreated store at the same path can never verify.
uint64_t RandomEpoch() {
  std::random_device rd;
  uint64_t epoch = 0;
  do {
    epoch = (static_cast<uint64_t>(rd()) << 32) | rd();
  } while (epoch == 0);
  return epoch;
}

StoreManifest MakeManifest(std::vector<uint32_t> log_dims,
                           const WaveletCube::Options& options) {
  StoreManifest manifest;
  manifest.form = options.form;
  manifest.norm = options.norm;
  manifest.b = options.b;
  manifest.log_dims = std::move(log_dims);
  return manifest;
}

}  // namespace

Status WaveletCube::OpenStore(uint64_t pool_blocks, BlockManager* borrowed) {
  SS_ASSIGN_OR_RETURN(auto layout, manifest_.MakeLayout());
  if (dir_.empty()) {
    BlockManager* device = borrowed;
    if (device == nullptr) {
      device_ =
          std::make_unique<MemoryBlockManager>(layout->block_capacity());
      device = device_.get();
    } else if (device->block_size() != layout->block_capacity()) {
      return Status::InvalidArgument(
          "borrowed device block size does not match the layout");
    }
    SS_ASSIGN_OR_RETURN(
        store_, TiledStore::Create(std::move(layout), device, pool_blocks));
    return Status::OK();
  }
  FileBlockManager::Options file_options;
  file_options.checksums = manifest_.format_version >= 2;
  file_options.epoch = manifest_.store_epoch;
  file_options.parity_group = manifest_.parity_group;
  SS_ASSIGN_OR_RETURN(device_,
                      FileBlockManager::Open(BlocksPath(dir_),
                                             layout->block_capacity(),
                                             file_options));
  if (manifest_.format_version >= 2) {
    SS_ASSIGN_OR_RETURN(
        store_, TiledStore::Open(std::move(layout), device_.get(),
                                 pool_blocks,
                                 std::make_unique<Journal>(
                                     JournalPath(dir_))));
    return Status::OK();
  }
  SS_ASSIGN_OR_RETURN(store_, TiledStore::Create(std::move(layout),
                                                 device_.get(), pool_blocks));
  return Status::OK();
}

Result<std::unique_ptr<WaveletCube>> WaveletCube::CreateInMemory(
    std::vector<uint32_t> log_dims, const Options& options) {
  if (options.form == StoreForm::kNaive) {
    return Status::InvalidArgument(
        "WaveletCube manages tiled stores; use TiledStore directly for the "
        "naive layout");
  }
  std::unique_ptr<WaveletCube> cube(new WaveletCube());
  cube->manifest_ = MakeManifest(std::move(log_dims), options);
  SS_RETURN_IF_ERROR(cube->OpenStore(options.pool_blocks, options.device));
  return cube;
}

Result<std::unique_ptr<WaveletCube>> WaveletCube::CreateOnDisk(
    const std::string& dir, std::vector<uint32_t> log_dims,
    const Options& options) {
  if (options.form == StoreForm::kNaive) {
    return Status::InvalidArgument(
        "WaveletCube manages tiled stores; use TiledStore directly for the "
        "naive layout");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create store directory " + dir);
  }
  std::unique_ptr<WaveletCube> cube(new WaveletCube());
  cube->dir_ = dir;
  cube->manifest_ = MakeManifest(std::move(log_dims), options);
  cube->manifest_.format_version = options.format_version;
  if (options.format_version >= 2) {
    cube->manifest_.store_epoch = RandomEpoch();
  }
  if (options.parity_group > 0) {
    if (options.format_version < 2) {
      return Status::InvalidArgument(
          "parity groups require a checksummed store (format_version >= 2)");
    }
    cube->manifest_.format_version = 3;
    cube->manifest_.parity_group = options.parity_group;
  }
  SS_RETURN_IF_ERROR(cube->manifest_.Save(ManifestPath(dir)));
  SS_RETURN_IF_ERROR(cube->OpenStore(options.pool_blocks));
  return cube;
}

Result<std::unique_ptr<WaveletCube>> WaveletCube::OpenOnDisk(
    const std::string& dir, uint64_t pool_blocks) {
  std::unique_ptr<WaveletCube> cube(new WaveletCube());
  cube->dir_ = dir;
  SS_ASSIGN_OR_RETURN(cube->manifest_,
                      StoreManifest::Load(ManifestPath(dir)));
  SS_RETURN_IF_ERROR(cube->OpenStore(pool_blocks));
  return cube;
}

Status WaveletCube::Ingest(ChunkSource* source, uint32_t log_chunk,
                           const TransformOptions* options) {
  TransformOptions resolved;
  if (options != nullptr) resolved = *options;
  resolved.norm = manifest_.norm;
  if (manifest_.form == StoreForm::kNonstandard) {
    return TransformDatasetNonstandard(source, log_chunk, store_.get(),
                                       resolved)
        .status();
  }
  return TransformDatasetStandard(source, log_chunk, store_.get(), resolved)
      .status();
}

Result<double> WaveletCube::PointQuery(std::span<const uint64_t> point,
                                       bool use_scaling_slots,
                                       OperationContext* ctx) {
  return ExactValue(PointQuery(
      point, QueryOptions{.use_scaling_slots = use_scaling_slots,
                          .context = ctx}));
}

Result<double> WaveletCube::RangeSum(std::span<const uint64_t> lo,
                                     std::span<const uint64_t> hi,
                                     OperationContext* ctx) {
  return ExactValue(RangeSum(lo, hi, QueryOptions{.context = ctx}));
}

Result<DegradedResult> WaveletCube::PointQuery(std::span<const uint64_t> point,
                                               const QueryOptions& options) {
  QueryOptions q = options;
  q.norm = manifest_.norm;
  if (manifest_.form == StoreForm::kStandard) {
    return PointQueryStandard(store_.get(), manifest_.log_dims, point, q);
  }
  SS_RETURN_IF_ERROR(NonstandardIsExactOnly(q));
  DegradedResult out;
  SS_ASSIGN_OR_RETURN(out.value, PointQueryNonstandard(
                                     store_.get(), manifest_.log_dims[0],
                                     point, q));
  return out;
}

Result<DegradedResult> WaveletCube::RangeSum(std::span<const uint64_t> lo,
                                             std::span<const uint64_t> hi,
                                             const QueryOptions& options) {
  QueryOptions q = options;
  q.norm = manifest_.norm;
  if (manifest_.form == StoreForm::kStandard) {
    return RangeSumStandard(store_.get(), manifest_.log_dims, lo, hi, q);
  }
  SS_RETURN_IF_ERROR(NonstandardIsExactOnly(q));
  DegradedResult out;
  SS_ASSIGN_OR_RETURN(out.value, RangeSumNonstandard(
                                     store_.get(), manifest_.log_dims[0], lo,
                                     hi, q));
  return out;
}

Result<Tensor> WaveletCube::Extract(std::span<const uint64_t> lo,
                                    std::span<const uint64_t> hi,
                                    OperationContext* ctx) {
  if (manifest_.form == StoreForm::kNonstandard) {
    return ReconstructRangeNonstandard(store_.get(), manifest_.log_dims[0],
                                       lo, hi, manifest_.norm, ctx);
  }
  return ReconstructRangeStandard(store_.get(), manifest_.log_dims, lo, hi,
                                  manifest_.norm, ctx);
}

Status WaveletCube::Update(const Tensor& deltas,
                           std::span<const uint64_t> origin) {
  if (manifest_.form == StoreForm::kNonstandard) {
    return UpdateRangeNonstandard(store_.get(), manifest_.log_dims[0],
                                  deltas, origin, manifest_.norm);
  }
  return UpdateRangeStandard(store_.get(), manifest_.log_dims, deltas,
                             origin, manifest_.norm);
}

Result<CompressedSynopsis> WaveletCube::Compress(uint64_t k) {
  if (manifest_.form != StoreForm::kStandard) {
    return Status::Unimplemented(
        "synopsis compression currently supports standard-form cubes");
  }
  return CompressedSynopsis::Build(store_.get(), manifest_.log_dims, k,
                                   manifest_.norm);
}

Status WaveletCube::Flush() {
  SS_RETURN_IF_ERROR(store_->Flush());
  return store_->manager().Sync();
}

Status WaveletCube::Close() { return store_->Close(); }

Result<std::vector<uint64_t>> WaveletCube::Scrub() {
  return store_->Scrub();
}

Result<ScrubReport> WaveletCube::ScrubRepair() {
  return store_->ScrubRepair();
}

Status WaveletCube::UpgradeParityOnDisk(const std::string& dir,
                                        uint64_t parity_group,
                                        uint64_t pool_blocks) {
  if (parity_group == 0) {
    return Status::InvalidArgument("parity_group must be nonzero");
  }
  SS_ASSIGN_OR_RETURN(StoreManifest manifest,
                      StoreManifest::Load(ManifestPath(dir)));
  if (manifest.format_version == 3 &&
      manifest.parity_group == parity_group) {
    return Status::OK();  // already upgraded
  }
  if (manifest.format_version < 2) {
    return Status::InvalidArgument(
        "parity upgrade requires a checksummed (v2) store");
  }
  // Open with parity forced on: FileBlockManager creates the sidecar
  // zero-filled, and the repair scrub's stale-parity detection rewrites
  // every group's stride from the verified data. The manifest is stamped v3
  // only after the sidecar is complete and synced, so a crash mid-upgrade
  // leaves a valid v2 store and rerunning finishes the job.
  std::unique_ptr<WaveletCube> cube(new WaveletCube());
  cube->dir_ = dir;
  cube->manifest_ = manifest;
  cube->manifest_.parity_group = parity_group;
  SS_RETURN_IF_ERROR(cube->OpenStore(pool_blocks));
  SS_ASSIGN_OR_RETURN(const ScrubReport report, cube->ScrubRepair());
  if (!report.unrepairable.empty()) {
    return Status::ChecksumMismatch(
        "parity upgrade aborted: " +
        std::to_string(report.unrepairable.size()) +
        " blocks failed verification and cannot be rebuilt");
  }
  SS_RETURN_IF_ERROR(cube->Close());
  cube->manifest_.format_version = 3;
  return cube->manifest_.Save(ManifestPath(dir));
}

}  // namespace shiftsplit
