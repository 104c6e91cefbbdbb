#include "shiftsplit/core/aggregate.h"

#include <cmath>

#include "shiftsplit/core/md_shift_split.h"
#include "shiftsplit/core/query.h"
#include "shiftsplit/tile/standard_tiling.h"

namespace shiftsplit {

AggregateCube::AggregateCube(std::vector<uint32_t> log_dims, Options options)
    : log_dims_(std::move(log_dims)), options_(options) {}

Result<std::unique_ptr<AggregateCube>> AggregateCube::Build(
    ChunkSource* source, const Options& options) {
  const TensorShape& shape = source->shape();
  std::unique_ptr<AggregateCube> cube(
      new AggregateCube(shape.LogDims(), options));

  auto make_store = [&](std::unique_ptr<MemoryBlockManager>* device,
                        std::unique_ptr<TiledStore>* store) -> Status {
    auto layout = std::make_unique<StandardTiling>(cube->log_dims_,
                                                   options.b);
    *device = std::make_unique<MemoryBlockManager>(layout->block_capacity());
    SS_ASSIGN_OR_RETURN(*store,
                        TiledStore::Create(std::move(layout), device->get(),
                                           options.pool_blocks));
    return Status::OK();
  };
  SS_RETURN_IF_ERROR(make_store(&cube->values_device_, &cube->values_));
  SS_RETURN_IF_ERROR(make_store(&cube->squares_device_, &cube->squares_));

  // Stream the source once; each chunk feeds both transforms.
  const uint32_t d = shape.ndim();
  std::vector<uint64_t> chunk_dims(d), grid_dims(d);
  for (uint32_t i = 0; i < d; ++i) {
    const uint32_t m = std::min(options.log_chunk, cube->log_dims_[i]);
    chunk_dims[i] = uint64_t{1} << m;
    grid_dims[i] = shape.dim(i) >> m;
  }
  TensorShape chunk_shape(chunk_dims);
  TensorShape grid(grid_dims);
  Tensor chunk(chunk_shape);
  Tensor squared(chunk_shape);
  std::vector<uint64_t> pos(d, 0);
  do {
    SS_RETURN_IF_ERROR(source->ReadChunk(pos, &chunk));
    for (uint64_t i = 0; i < chunk.size(); ++i) {
      squared[i] = chunk[i] * chunk[i];
    }
    SS_RETURN_IF_ERROR(ApplyChunkStandard(chunk, pos, cube->log_dims_,
                                          cube->values_.get(), options.norm));
    SS_RETURN_IF_ERROR(ApplyChunkStandard(squared, pos, cube->log_dims_,
                                          cube->squares_.get(),
                                          options.norm));
  } while (grid.Next(pos));
  SS_RETURN_IF_ERROR(cube->values_->Flush());
  SS_RETURN_IF_ERROR(cube->squares_->Flush());
  return cube;
}

Result<AggregateCube::RangeAggregates> AggregateCube::Query(
    std::span<const uint64_t> lo, std::span<const uint64_t> hi,
    OperationContext* ctx) {
  QueryOptions q;
  q.norm = options_.norm;
  q.context = ctx;
  RangeAggregates out;
  SS_ASSIGN_OR_RETURN(
      out.sum,
      ExactValue(RangeSumStandard(values_.get(), log_dims_, lo, hi, q)));
  SS_ASSIGN_OR_RETURN(
      out.sum_squares,
      ExactValue(RangeSumStandard(squares_.get(), log_dims_, lo, hi, q)));
  out.count = 1;
  for (size_t i = 0; i < lo.size(); ++i) out.count *= hi[i] - lo[i] + 1;
  const double n = static_cast<double>(out.count);
  out.average = out.sum / n;
  out.variance = std::max(0.0, out.sum_squares / n - out.average * out.average);
  out.stddev = std::sqrt(out.variance);
  return out;
}

Status AggregateCube::UpdateDyadic(const Tensor& deltas,
                                   const Tensor& old_values,
                                   std::span<const uint64_t> chunk_pos) {
  if (!(deltas.shape() == old_values.shape())) {
    return Status::InvalidArgument(
        "deltas and old values must share a shape");
  }
  ApplyOptions update;
  update.mode = ApplyMode::kUpdate;
  SS_RETURN_IF_ERROR(ApplyChunkStandard(deltas, chunk_pos, log_dims_,
                                        values_.get(), options_.norm,
                                        update));
  // (x + d)^2 - x^2 = 2 x d + d^2.
  Tensor square_deltas(deltas.shape());
  for (uint64_t i = 0; i < deltas.size(); ++i) {
    square_deltas[i] = 2.0 * old_values[i] * deltas[i] +
                       deltas[i] * deltas[i];
  }
  SS_RETURN_IF_ERROR(ApplyChunkStandard(square_deltas, chunk_pos, log_dims_,
                                        squares_.get(), options_.norm,
                                        update));
  SS_RETURN_IF_ERROR(values_->Flush());
  return squares_->Flush();
}

IoStats AggregateCube::stats() const {
  IoStats total = values_device_->stats();
  total += squares_device_->stats();
  return total;
}

}  // namespace shiftsplit
