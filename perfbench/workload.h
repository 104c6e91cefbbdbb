// Seeded inputs of the serving phases: the request mix, the key
// distribution and the dense model the answers are checked against.
//
// Every random stream is derived from the run seed by StreamSeed(seed,
// stream), so one seed fixes the data, the keys, the mix, the range-box
// extents and the Poisson gaps, and the streams stay independent.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "shiftsplit/util/random.h"

namespace perfbench {

/// Independent random streams of one run.
enum class Stream : uint64_t {
  kTemperature = 1,
  kServeField,
  kKeyPermutation,
  kServeClient,  // + client index
  kWireOps = 64,
  kWireGaps,
  kCheck,
};

/// splitmix64 of (seed, stream + index): a distinct, reproducible seed per
/// stream (`index` numbers the clients of kServeClient).
inline uint64_t StreamSeed(uint64_t seed, Stream stream, uint64_t index = 0) {
  const uint64_t id = static_cast<uint64_t>(stream) + index;
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (id + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

enum class OpKind : uint8_t { kPoint = 0, kSum = 1, kAdd = 2 };
inline constexpr int kOpKinds = 3;

/// One request of the serving mix on the 2-d serving domain.
struct Op {
  OpKind kind = OpKind::kPoint;
  uint64_t lo[2] = {0, 0};  ///< the point / cell, or the box's low corner
  uint64_t hi[2] = {0, 0};  ///< the box's high corner (sums only)
  int64_t delta = 0;        ///< integer (hence dyadic) add delta
};

enum class KeyDist { kZipf, kUniform };

/// Bijection on [0, 2^bits): scatters Zipf ranks over the domain so hot
/// keys do not cluster in one corner (two odd multiplies and xorshifts).
class KeyPermutation {
 public:
  KeyPermutation(uint32_t bits, uint64_t seed)
      : mask_((uint64_t{1} << bits) - 1), shift_(bits / 2 + 1) {
    shiftsplit::Xoshiro256 rng(seed);
    mul1_ = rng() | 1;
    mul2_ = rng() | 1;
    add_ = rng();
  }
  uint64_t operator()(uint64_t x) const {
    x = (x * mul1_ + add_) & mask_;
    x ^= x >> shift_;
    x = (x * mul2_) & mask_;
    x ^= x >> shift_;
    return x;
  }

 private:
  uint64_t mask_;
  uint32_t shift_;
  uint64_t mul1_ = 1, mul2_ = 1, add_ = 0;
};

/// Draws the serving mix: 80% point queries, 10% range sums with per-
/// dimension extents log-uniform in [1, edge], 10% one-cell adds with
/// deltas in {-2, -1, +1, +2}. Keys (points and add cells) follow `dist`.
class OpSource {
 public:
  OpSource(uint32_t log_edge, KeyDist dist, const KeyPermutation* perm,
           uint64_t seed)
      : log_edge_(log_edge),
        edge_(uint64_t{1} << log_edge),
        dist_(dist),
        perm_(perm),
        rng_(seed),
        zipf_(uint64_t{1} << (2 * log_edge), 0.99) {}

  Op Next() {
    Op op;
    const uint64_t roll = rng_.NextBounded(100);
    if (roll < 80) {
      op.kind = OpKind::kPoint;
      Cell(op.lo);
    } else if (roll < 90) {
      op.kind = OpKind::kSum;
      for (int d = 0; d < 2; ++d) {
        const double u = rng_.NextDouble();
        uint64_t extent = static_cast<uint64_t>(
            std::exp2(u * static_cast<double>(log_edge_ + 1)));
        if (extent < 1) extent = 1;
        if (extent > edge_) extent = edge_;
        op.lo[d] = rng_.NextBounded(edge_ - extent + 1);
        op.hi[d] = op.lo[d] + extent - 1;
      }
    } else {
      op.kind = OpKind::kAdd;
      Cell(op.lo);
      static constexpr int64_t kDeltas[] = {-2, -1, 1, 2};
      op.delta = kDeltas[rng_.NextBounded(4)];
    }
    return op;
  }

 private:
  void Cell(uint64_t* out) {
    const uint64_t cells = edge_ * edge_;
    const uint64_t index = dist_ == KeyDist::kZipf
                               ? (*perm_)(zipf_.Sample(rng_))
                               : rng_.NextBounded(cells);
    out[0] = index >> log_edge_;
    out[1] = index & (edge_ - 1);
  }

  uint32_t log_edge_;
  uint64_t edge_;
  KeyDist dist_;
  const KeyPermutation* perm_;
  shiftsplit::Xoshiro256 rng_;
  shiftsplit::BoundedZipfSampler zipf_;
};

/// Integer cell value of the serving field: a smooth pattern in [0, 16).
/// Integers keep every coefficient, reconstruction and range sum exact in
/// binary floating point, so answers compare bit for bit.
inline int64_t ServeFieldValue(uint64_t x, uint64_t y, uint64_t edge,
                               double phase) {
  const double fx = static_cast<double>(x) / static_cast<double>(edge);
  const double fy = static_cast<double>(y) / static_cast<double>(edge);
  const double v = 7.5 + 4.0 * std::sin(6.283185307179586 * fx + phase) +
                   3.0 * std::cos(6.283185307179586 * 2.0 * fy - phase);
  return static_cast<int64_t>(std::floor(v));
}

/// Dense model of the serving cube: the field plus every acked add. Range
/// sums use a 2-d prefix table built once the cube is quiesced.
class DenseModel {
 public:
  DenseModel(uint32_t log_edge, double phase)
      : edge_(uint64_t{1} << log_edge), cells_(edge_ * edge_) {
    for (uint64_t x = 0; x < edge_; ++x) {
      for (uint64_t y = 0; y < edge_; ++y) {
        cells_[x * edge_ + y] = ServeFieldValue(x, y, edge_, phase);
      }
    }
  }

  uint64_t edge() const { return edge_; }
  int64_t At(uint64_t x, uint64_t y) const { return cells_[x * edge_ + y]; }
  void Add(uint64_t x, uint64_t y, int64_t delta) {
    cells_[x * edge_ + y] += delta;
  }

  void BuildPrefix() {
    prefix_.assign((edge_ + 1) * (edge_ + 1), 0);
    const uint64_t w = edge_ + 1;
    for (uint64_t x = 0; x < edge_; ++x) {
      for (uint64_t y = 0; y < edge_; ++y) {
        prefix_[(x + 1) * w + (y + 1)] = cells_[x * edge_ + y] +
                                         prefix_[x * w + (y + 1)] +
                                         prefix_[(x + 1) * w + y] -
                                         prefix_[x * w + y];
      }
    }
  }

  /// Sum over the inclusive box; BuildPrefix() first.
  int64_t BoxSum(const uint64_t* lo, const uint64_t* hi) const {
    const uint64_t w = edge_ + 1;
    return prefix_[(hi[0] + 1) * w + (hi[1] + 1)] -
           prefix_[lo[0] * w + (hi[1] + 1)] -
           prefix_[(hi[0] + 1) * w + lo[1]] + prefix_[lo[0] * w + lo[1]];
  }

 private:
  uint64_t edge_;
  std::vector<int64_t> cells_;
  std::vector<int64_t> prefix_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
