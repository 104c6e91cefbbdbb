#include "shiftsplit/baseline/naive_reconstruct.h"

#include "shiftsplit/core/query.h"
#include "shiftsplit/util/bitops.h"
#include "shiftsplit/wavelet/standard_transform.h"

namespace shiftsplit {

namespace {

Status ValidateBox(std::span<const uint32_t> log_dims,
                   std::span<const uint64_t> lo, std::span<const uint64_t> hi) {
  const uint32_t d = static_cast<uint32_t>(log_dims.size());
  if (lo.size() != d || hi.size() != d) {
    return Status::InvalidArgument("box dimensionality mismatch");
  }
  for (uint32_t i = 0; i < d; ++i) {
    if (lo[i] > hi[i] || hi[i] >= (uint64_t{1} << log_dims[i])) {
      return Status::OutOfRange("bad box bounds");
    }
  }
  return Status::OK();
}

TensorShape BoxShape(std::span<const uint64_t> lo,
                     std::span<const uint64_t> hi) {
  std::vector<uint64_t> dims(lo.size());
  for (uint32_t i = 0; i < lo.size(); ++i) {
    dims[i] = NextPowerOfTwo(hi[i] - lo[i] + 1);
  }
  return TensorShape(dims);
}

}  // namespace

Result<Tensor> PointwiseReconstructStandard(TiledStore* store,
                                            std::span<const uint32_t> log_dims,
                                            std::span<const uint64_t> lo,
                                            std::span<const uint64_t> hi,
                                            Normalization norm) {
  SS_RETURN_IF_ERROR(ValidateBox(log_dims, lo, hi));
  const uint32_t d = static_cast<uint32_t>(log_dims.size());
  Tensor out(BoxShape(lo, hi));
  QueryOptions options;
  options.norm = norm;
  std::vector<uint64_t> point(d);
  std::vector<uint64_t> local(d, 0);
  do {
    bool in_box = true;
    for (uint32_t i = 0; i < d; ++i) {
      point[i] = lo[i] + local[i];
      in_box = in_box && point[i] <= hi[i];
    }
    if (in_box) {
      SS_ASSIGN_OR_RETURN(
          const double v,
          ExactValue(PointQueryStandard(store, log_dims, point, options)));
      out.At(local) = v;
    }
  } while (out.shape().Next(local));
  return out;
}

Result<Tensor> FullReconstructExtractStandard(
    TiledStore* store, std::span<const uint32_t> log_dims,
    std::span<const uint64_t> lo, std::span<const uint64_t> hi,
    Normalization norm) {
  SS_RETURN_IF_ERROR(ValidateBox(log_dims, lo, hi));
  const uint32_t d = static_cast<uint32_t>(log_dims.size());
  // Read the entire transform into memory and invert it.
  std::vector<uint64_t> dims(d);
  for (uint32_t i = 0; i < d; ++i) dims[i] = uint64_t{1} << log_dims[i];
  Tensor full{TensorShape(dims)};
  std::vector<uint64_t> address(d, 0);
  do {
    SS_ASSIGN_OR_RETURN(const double v, store->Get(address));
    full.At(address) = v;
  } while (full.shape().Next(address));
  SS_RETURN_IF_ERROR(InverseStandard(&full, norm));

  Tensor out(BoxShape(lo, hi));
  std::vector<uint64_t> local(d, 0);
  std::vector<uint64_t> point(d);
  do {
    bool in_box = true;
    for (uint32_t i = 0; i < d; ++i) {
      point[i] = lo[i] + local[i];
      in_box = in_box && point[i] <= hi[i];
    }
    if (in_box) out.At(local) = full.At(point);
  } while (out.shape().Next(local));
  return out;
}

}  // namespace shiftsplit
