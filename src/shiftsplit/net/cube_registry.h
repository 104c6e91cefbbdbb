// Multi-tenant cube registry for the network front-end (DESIGN.md §13):
// maps cube names to open serving instances — monolithic ServingCubes or
// ShardedCubes, auto-detected from the store directory — so one server
// process serves many datasets concurrently.
//
// Lifecycle: names are Configure()d (bound to a directory, e.g. from the
// CLI's --cube NAME=DIR list) and opened lazily or eagerly; Open() on an
// unconfigured name requires an explicit directory. CloseCube drains and
// closes one tenant; CloseAll is the graceful-drain path the server runs on
// shutdown. Handles are shared_ptrs, so an in-flight request on a cube
// being closed finishes against the live instance — the close drains after
// the map drops the name, and stragglers fail cleanly on the closed cube
// rather than dangling.

#ifndef SHIFTSPLIT_NET_CUBE_REGISTRY_H_
#define SHIFTSPLIT_NET_CUBE_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "shiftsplit/core/query.h"
#include "shiftsplit/service/serving_cube.h"
#include "shiftsplit/service/sharded_cube.h"
#include "shiftsplit/util/operation_context.h"
#include "shiftsplit/util/status.h"

namespace shiftsplit {
namespace net {

/// \brief Uniform serving interface over one tenant: either a monolithic
/// ServingCube or a ShardedCube, with the same operations the wire handlers
/// need. Thread-safe (both wrapped types are).
class ServeHandle {
 public:
  /// \brief Opens the store under `dir`, auto-detecting sharded layouts
  /// (ShardedCube::IsShardedDir). `pool_blocks` is per store (per shard for
  /// sharded stores).
  static Result<std::shared_ptr<ServeHandle>> Open(
      const std::string& dir, uint64_t pool_blocks,
      const ServingCube::Options& options);

  /// \brief Wraps an already-open cube (tests compare in-process answers
  /// against the same instance the server serves).
  static std::shared_ptr<ServeHandle> Wrap(std::shared_ptr<ServingCube> cube);
  static std::shared_ptr<ServeHandle> Wrap(std::shared_ptr<ShardedCube> cube);

  Status Add(std::span<const uint64_t> coords, double delta,
             OperationContext* ctx);
  Status Update(const Tensor& deltas, std::span<const uint64_t> origin,
                OperationContext* ctx);

  /// Point query (scaling-slot strategy) and range sum under
  /// QueryOptions::max_error: 0 answers exactly or fails with the failed
  /// fetch's own status; > 0 lets monolithic and sharded stores alike
  /// degrade — skipped blocks, and on sharded stores skipped shards —
  /// within that bound.
  Result<DegradedResult> PointQuery(std::span<const uint64_t> point,
                                    double max_error, OperationContext* ctx);
  Result<DegradedResult> RangeSum(std::span<const uint64_t> lo,
                                  std::span<const uint64_t> hi,
                                  double max_error, OperationContext* ctx);

  ServingStats stats() const;
  Status DrainAll();
  Status Close();

  const std::vector<uint32_t>& log_dims() const { return log_dims_; }
  bool sharded() const { return sharded_ != nullptr; }
  uint32_t num_shards() const {
    return sharded_ ? sharded_->num_shards() : 1;
  }

 private:
  ServeHandle() = default;

  std::shared_ptr<ServingCube> mono_;
  std::shared_ptr<ShardedCube> sharded_;
  std::vector<uint32_t> log_dims_;
};

/// \brief Name → ServeHandle map behind a shared_mutex; lookups are
/// shared-locked (the per-request hot path), open/close exclusive.
class CubeRegistry {
 public:
  struct Options {
    uint64_t pool_blocks = 256;  ///< per store (per shard when sharded)
    ServingCube::Options serving;
  };

  CubeRegistry() = default;
  explicit CubeRegistry(const Options& options) : options_(options) {}

  /// \brief Binds `name` to a store directory without opening it; a later
  /// Open(name) (or the first wire `open` request) opens it lazily.
  void Configure(const std::string& name, const std::string& dir);

  /// \brief Opens (or returns the already-open) cube `name`. With an empty
  /// `dir` the name must have been Configure()d. AlreadyExists is not an
  /// error — opening an open cube returns the live handle.
  Result<std::shared_ptr<ServeHandle>> Open(const std::string& name,
                                            const std::string& dir = "");

  /// \brief Registers an externally built handle under `name` (tests).
  Status Insert(const std::string& name, std::shared_ptr<ServeHandle> handle);

  /// \brief The open handle for `name`, or NotFound.
  Result<std::shared_ptr<ServeHandle>> Find(const std::string& name) const;

  /// \brief Drains and closes one tenant; the name becomes NotFound first,
  /// so no new request lands on the closing cube.
  Status CloseCube(const std::string& name);

  /// \brief Drains and closes every tenant (graceful shutdown); returns the
  /// first failure but closes all.
  Status CloseAll();

  std::vector<std::string> Names() const;

 private:
  Options options_;
  mutable std::shared_mutex mu_;
  std::map<std::string, std::shared_ptr<ServeHandle>> open_;
  std::map<std::string, std::string> configured_;  ///< name → dir
};

}  // namespace net
}  // namespace shiftsplit

#endif  // SHIFTSPLIT_NET_CUBE_REGISTRY_H_
