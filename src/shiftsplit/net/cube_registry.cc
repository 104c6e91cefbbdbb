#include "shiftsplit/net/cube_registry.h"

#include <utility>

namespace shiftsplit {
namespace net {

// ---------------------------------------------------------------------------
// ServeHandle.

Result<std::shared_ptr<ServeHandle>> ServeHandle::Open(
    const std::string& dir, uint64_t pool_blocks,
    const ServingCube::Options& options) {
  auto handle = std::shared_ptr<ServeHandle>(new ServeHandle());
  if (ShardedCube::IsShardedDir(dir)) {
    ShardedCube::Options sharded_options;
    sharded_options.serving = options;
    sharded_options.pool_blocks_per_shard = pool_blocks;
    SS_ASSIGN_OR_RETURN(auto cube,
                        ShardedCube::OpenOnDisk(dir, sharded_options));
    handle->log_dims_ = cube->router().log_dims();
    handle->sharded_ = std::move(cube);
    return handle;
  }
  SS_ASSIGN_OR_RETURN(auto cube,
                      ServingCube::OpenOnDisk(dir, pool_blocks, options));
  handle->log_dims_ = cube->cube()->log_dims();
  handle->mono_ = std::move(cube);
  return handle;
}

std::shared_ptr<ServeHandle> ServeHandle::Wrap(
    std::shared_ptr<ServingCube> cube) {
  auto handle = std::shared_ptr<ServeHandle>(new ServeHandle());
  handle->log_dims_ = cube->cube()->log_dims();
  handle->mono_ = std::move(cube);
  return handle;
}

std::shared_ptr<ServeHandle> ServeHandle::Wrap(
    std::shared_ptr<ShardedCube> cube) {
  auto handle = std::shared_ptr<ServeHandle>(new ServeHandle());
  handle->log_dims_ = cube->router().log_dims();
  handle->sharded_ = std::move(cube);
  return handle;
}

Status ServeHandle::Add(std::span<const uint64_t> coords, double delta,
                        OperationContext* ctx) {
  return sharded_ ? sharded_->Add(coords, delta, ctx)
                  : mono_->Add(coords, delta, ctx);
}

Status ServeHandle::Update(const Tensor& deltas,
                           std::span<const uint64_t> origin,
                           OperationContext* ctx) {
  return sharded_ ? sharded_->Update(deltas, origin, ctx)
                  : mono_->Update(deltas, origin, ctx);
}

Result<DegradedResult> ServeHandle::PointQuery(std::span<const uint64_t> point,
                                               double max_error,
                                               OperationContext* ctx) {
  const QueryOptions options{
      .use_scaling_slots = true, .context = ctx, .max_error = max_error};
  return sharded_ ? sharded_->PointQuery(point, options)
                  : mono_->PointQuery(point, options);
}

Result<DegradedResult> ServeHandle::RangeSum(std::span<const uint64_t> lo,
                                             std::span<const uint64_t> hi,
                                             double max_error,
                                             OperationContext* ctx) {
  const QueryOptions options{.context = ctx, .max_error = max_error};
  return sharded_ ? sharded_->RangeSum(lo, hi, options)
                  : mono_->RangeSum(lo, hi, options);
}

ServingStats ServeHandle::stats() const {
  return sharded_ ? sharded_->stats() : mono_->stats();
}

Status ServeHandle::DrainAll() {
  return sharded_ ? sharded_->DrainAll() : mono_->DrainAll();
}

Status ServeHandle::Close() {
  return sharded_ ? sharded_->Close() : mono_->Close();
}

// ---------------------------------------------------------------------------
// CubeRegistry.

void CubeRegistry::Configure(const std::string& name,
                             const std::string& dir) {
  std::unique_lock lock(mu_);
  configured_[name] = dir;
}

Result<std::shared_ptr<ServeHandle>> CubeRegistry::Open(
    const std::string& name, const std::string& dir) {
  std::string open_dir = dir;
  {
    std::unique_lock lock(mu_);
    auto it = open_.find(name);
    if (it != open_.end()) return it->second;
    if (open_dir.empty()) {
      auto conf = configured_.find(name);
      if (conf == configured_.end()) {
        return Status::NotFound("cube \"" + name +
                                "\" is not configured; pass a directory");
      }
      open_dir = conf->second;
    }
  }
  // The open itself runs unlocked (it replays logs — possibly seconds);
  // concurrent opens of the same name race benignly: the loser's instance
  // is closed and the winner's handle returned.
  SS_ASSIGN_OR_RETURN(
      auto handle,
      ServeHandle::Open(open_dir, options_.pool_blocks, options_.serving));
  std::unique_lock lock(mu_);
  auto [it, inserted] = open_.emplace(name, handle);
  if (!inserted) {
    lock.unlock();
    (void)handle->Close();
    return it->second;
  }
  configured_[name] = open_dir;
  return handle;
}

Status CubeRegistry::Insert(const std::string& name,
                            std::shared_ptr<ServeHandle> handle) {
  std::unique_lock lock(mu_);
  auto [it, inserted] = open_.emplace(name, std::move(handle));
  if (!inserted) {
    return Status::AlreadyExists("cube \"" + name + "\" is already open");
  }
  return Status::OK();
}

Result<std::shared_ptr<ServeHandle>> CubeRegistry::Find(
    const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = open_.find(name);
  if (it == open_.end()) {
    return Status::NotFound("cube \"" + name + "\" is not open");
  }
  return it->second;
}

Status CubeRegistry::CloseCube(const std::string& name) {
  std::shared_ptr<ServeHandle> handle;
  {
    std::unique_lock lock(mu_);
    auto it = open_.find(name);
    if (it == open_.end()) {
      return Status::NotFound("cube \"" + name + "\" is not open");
    }
    handle = std::move(it->second);
    open_.erase(it);
  }
  return handle->Close();
}

Status CubeRegistry::CloseAll() {
  std::map<std::string, std::shared_ptr<ServeHandle>> victims;
  {
    std::unique_lock lock(mu_);
    victims.swap(open_);
  }
  Status first;
  for (auto& [name, handle] : victims) {
    Status st = handle->Close();
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

std::vector<std::string> CubeRegistry::Names() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> names;
  names.reserve(open_.size());
  for (const auto& [name, handle] : open_) names.push_back(name);
  return names;
}

}  // namespace net
}  // namespace shiftsplit
