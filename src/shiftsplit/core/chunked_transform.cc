#include "shiftsplit/core/chunked_transform.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "shiftsplit/core/md_shift_split.h"
#include "shiftsplit/util/bitops.h"

namespace shiftsplit {

namespace {

// Enumerates the chunk-grid positions, row-major or z-order.
std::vector<std::vector<uint64_t>> ChunkOrder(const TensorShape& grid,
                                              bool zorder) {
  std::vector<std::vector<uint64_t>> order;
  order.reserve(grid.num_elements());
  if (!zorder) {
    std::vector<uint64_t> pos(grid.ndim(), 0);
    do {
      order.push_back(pos);
    } while (grid.Next(pos));
    return order;
  }
  // Z-order: distribute each rank's bits over the (bit, dim) pairs of the
  // Morton code, least significant first, skipping pairs beyond a
  // dimension's extent. This is the ascending Morton enumeration restricted
  // to the (possibly non-cubic) grid — identical order to filtering the
  // bounding cube's codes, but O(grid cells) instead of O(cube cells).
  const uint32_t d = grid.ndim();
  const std::vector<uint32_t> log_dims = grid.LogDims();
  uint32_t max_bits = 0;
  for (uint32_t i = 0; i < d; ++i) max_bits = std::max(max_bits, log_dims[i]);
  for (uint64_t rank = 0; rank < grid.num_elements(); ++rank) {
    std::vector<uint64_t> pos(d, 0);
    uint64_t rest = rank;
    for (uint32_t bit = 0; bit < max_bits && rest != 0; ++bit) {
      for (uint32_t dim = 0; dim < d; ++dim) {
        if (bit >= log_dims[dim]) continue;
        pos[dim] |= (rest & 1u) << bit;
        rest >>= 1;
      }
    }
    order.push_back(std::move(pos));
  }
  return order;
}

bool AllZero(const Tensor& chunk) {
  for (double x : chunk.data()) {
    if (x != 0.0) return false;
  }
  return true;
}

// Parallel ingest: workers claim chunk indices, read the chunk (concurrently
// when the source allows it, serialized otherwise), transform and plan it
// concurrently, then commit plans to the store strictly in chunk order — so
// the store ends up byte-identical to a single-threaded run (floating-point
// accumulation order is preserved). A chunk that fails (or is skipped as
// all-zero) still takes its commit turn, so the turn chain never stalls; the
// error surfaced is the one of the lowest-index failing chunk.
template <typename PlanFn>
Status ParallelIngest(ChunkSource* source, const TensorShape& chunk_shape,
                      const std::vector<std::vector<uint64_t>>& order,
                      TiledStore* store, const TransformOptions& options,
                      uint32_t threads, const PlanFn& plan_chunk,
                      uint64_t* chunks_applied) {
  const bool lock_source = !source->thread_safe_reads();
  std::mutex source_mu;  // serializes thread-compatible sources only
  std::mutex commit_mu;  // guards commit_turn, first_error, committed
  std::condition_variable commit_cv;
  std::atomic<uint64_t> next_index{0};
  std::atomic<bool> failed{false};
  uint64_t commit_turn = 0;
  uint64_t committed = 0;
  Status first_error;

  // Every pool call is made under commit_mu (ApplyChunkPlan at the commit
  // turn; planning reads only the layout), so the calls never overlap and
  // the pool needs no thread-safe mode: it keeps one exact LRU, and the
  // ingest issues the serial run's block I/O.

  auto work = [&]() {
    Tensor chunk(chunk_shape);
    for (;;) {
      const uint64_t idx = next_index.fetch_add(1);
      if (idx >= order.size()) return;
      Status status;
      ChunkApplyPlan plan;
      bool have_plan = false;
      if (!failed.load(std::memory_order_relaxed)) {
        {
          std::unique_lock<std::mutex> lock;
          if (lock_source) lock = std::unique_lock(source_mu);
          status = source->ReadChunk(order[idx], &chunk);
        }
        if (status.ok() && !(options.sparse && AllZero(chunk))) {
          Result<ChunkApplyPlan> planned = plan_chunk(chunk, order[idx]);
          if (planned.ok()) {
            plan = std::move(planned).value();
            have_plan = true;
          } else {
            status = planned.status();
          }
        }
      }
      std::unique_lock lock(commit_mu);
      commit_cv.wait(lock, [&] { return commit_turn == idx; });
      if (first_error.ok()) {
        if (!status.ok()) {
          first_error = status;
          failed.store(true, std::memory_order_relaxed);
        } else if (have_plan) {
          const Status applied = ApplyChunkPlan(plan, store, options.prefetch);
          if (applied.ok()) {
            ++committed;
          } else {
            first_error = applied;
            failed.store(true, std::memory_order_relaxed);
          }
        }
      }
      ++commit_turn;
      commit_cv.notify_all();
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (uint32_t t = 0; t < threads; ++t) workers.emplace_back(work);
  for (std::thread& w : workers) w.join();

  SS_RETURN_IF_ERROR(first_error);
  *chunks_applied = committed;
  return Status::OK();
}

// Shared driver of both transform forms: serial per-chunk apply for one
// thread, the ordered-commit pipeline otherwise.
template <typename PlanFn, typename ApplyFn>
Result<TransformResult> DriveTransform(
    ChunkSource* source, const TensorShape& chunk_shape,
    const std::vector<std::vector<uint64_t>>& order, TiledStore* store,
    const TransformOptions& options, const PlanFn& plan_chunk,
    const ApplyFn& apply_chunk) {
  if (options.num_threads > 1 && !options.batched) {
    return Status::InvalidArgument(
        "num_threads > 1 requires the batched apply path");
  }
  // Clamp the worker count to the work available and (unless the caller
  // forces oversubscription) to the hardware concurrency; a clamped count of
  // one takes the cheaper serial path below.
  uint32_t threads = static_cast<uint32_t>(
      std::min<uint64_t>(options.num_threads, order.size()));
  if (!options.oversubscribe) {
    threads = std::min(threads,
                       std::max(1u, std::thread::hardware_concurrency()));
  }
  TransformResult result;
  const IoStats before = store->stats();
  const uint64_t cells_before = source->cells_read();
  if (threads > 1) {
    SS_RETURN_IF_ERROR(ParallelIngest(source, chunk_shape, order, store,
                                      options, threads, plan_chunk,
                                      &result.chunks));
  } else {
    Tensor chunk(chunk_shape);
    for (const auto& pos : order) {
      SS_RETURN_IF_ERROR(source->ReadChunk(pos, &chunk));
      if (options.sparse && AllZero(chunk)) continue;
      SS_RETURN_IF_ERROR(apply_chunk(chunk, pos));
      ++result.chunks;
    }
  }
  SS_RETURN_IF_ERROR(store->Flush());
  result.store_io = store->stats() - before;
  result.cells_read = source->cells_read() - cells_before;
  return result;
}

ApplyOptions MakeApplyOptions(const TransformOptions& options) {
  ApplyOptions apply;
  apply.mode = ApplyMode::kConstruct;
  apply.maintain_scaling_slots = options.maintain_scaling_slots;
  apply.skip_zero_writes = options.sparse;
  apply.batched = options.batched;
  apply.prefetch = options.prefetch;
  return apply;
}

}  // namespace

Result<TransformResult> TransformDatasetStandard(
    ChunkSource* source, uint32_t log_chunk, TiledStore* store,
    const TransformOptions& options) {
  const TensorShape& shape = source->shape();
  const uint32_t d = shape.ndim();
  std::vector<uint32_t> log_dims = shape.LogDims();
  std::vector<uint64_t> chunk_dims(d), grid_dims(d);
  for (uint32_t i = 0; i < d; ++i) {
    const uint32_t m = std::min(log_chunk, log_dims[i]);
    chunk_dims[i] = uint64_t{1} << m;
    grid_dims[i] = shape.dim(i) >> m;
  }
  TensorShape chunk_shape(chunk_dims);
  TensorShape grid(grid_dims);

  const ApplyOptions apply = MakeApplyOptions(options);
  const auto order = ChunkOrder(grid, options.zorder);
  return DriveTransform(
      source, chunk_shape, order, store, options,
      [&](const Tensor& chunk, const std::vector<uint64_t>& pos) {
        return PlanChunkStandard(chunk, pos, log_dims, store->layout(),
                                 options.norm, apply);
      },
      [&](const Tensor& chunk, const std::vector<uint64_t>& pos) {
        return ApplyChunkStandard(chunk, pos, log_dims, store, options.norm,
                                  apply);
      });
}

Result<TransformResult> TransformDatasetNonstandard(
    ChunkSource* source, uint32_t log_chunk, TiledStore* store,
    const TransformOptions& options) {
  const TensorShape& shape = source->shape();
  const uint32_t d = shape.ndim();
  if (!shape.IsCube()) {
    return Status::InvalidArgument(
        "non-standard transformation requires a hypercube dataset");
  }
  const uint32_t n = Log2(shape.dim(0));
  const uint32_t m = std::min(log_chunk, n);
  TensorShape chunk_shape = TensorShape::Cube(d, uint64_t{1} << m);
  TensorShape grid = TensorShape::Cube(d, uint64_t{1} << (n - m));

  const ApplyOptions apply = MakeApplyOptions(options);
  const auto order = ChunkOrder(grid, options.zorder);
  return DriveTransform(
      source, chunk_shape, order, store, options,
      [&](const Tensor& chunk, const std::vector<uint64_t>& pos) {
        return PlanChunkNonstandard(chunk, pos, n, store->layout(),
                                    options.norm, apply);
      },
      [&](const Tensor& chunk, const std::vector<uint64_t>& pos) {
        return ApplyChunkNonstandard(chunk, pos, n, store, options.norm,
                                     apply);
      });
}

}  // namespace shiftsplit
