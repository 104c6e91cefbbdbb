// Sharded serving: router unit tests, the sharded-vs-monolithic bit-identity
// property (with mid-drain snapshots), the kill-at-every-op per-shard crash
// recovery matrix, and shard failure isolation.
//
// On bit-identity: sharded and monolithic cubes associate their floating-
// point additions differently (per-shard transforms vs one global one), so
// bitwise equality cannot hold for arbitrary doubles. The property tests
// therefore feed dyadic-exact deltas (small integers): every intermediate —
// transform averages/differences, overlay folds, range-sum weights — is then
// exactly representable, both sides compute the same real number with exact
// arithmetic, and any bitwise mismatch is a genuine routing or composition
// bug, not rounding.

#include "shiftsplit/service/sharded_cube.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "shiftsplit/core/wavelet_cube.h"
#include "shiftsplit/service/serving_cube.h"
#include "shiftsplit/service/shard_router.h"
#include "shiftsplit/storage/manifest.h"
#include "shiftsplit/storage/memory_block_manager.h"
#include "shiftsplit/tile/standard_tiling.h"
#include "shiftsplit/util/random.h"
#include "storage/fault_injection_block_manager.h"
#include "testing.h"

namespace shiftsplit {
namespace {

std::filesystem::path MakeTempDir(const char* tag) {
  auto dir = std::filesystem::temp_directory_path() /
             (std::string("shiftsplit_sharded_") + tag + "_" +
              std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

struct Delta {
  std::vector<uint64_t> coords;  // global
  double value = 0.0;
};

// Random cells with dyadic-exact (integer) values in [-8, 8].
std::vector<Delta> MakeDyadicDeltas(std::span<const uint32_t> log_dims,
                                    uint64_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Delta> deltas;
  deltas.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Delta d;
    for (uint32_t log : log_dims) {
      d.coords.push_back(rng.NextBounded(uint64_t{1} << log));
    }
    d.value = static_cast<double>(static_cast<int64_t>(rng.NextBounded(17)) -
                                  8);
    deltas.push_back(std::move(d));
  }
  return deltas;
}

// ---------------------------------------------------------------------------
// ShardRouter

TEST(ShardRouterTest, PicksWidestDimensionLowestIndexOnTies) {
  EXPECT_EQ(ShardRouter::PickSplitDim(std::vector<uint32_t>{3, 5, 4}), 1u);
  EXPECT_EQ(ShardRouter::PickSplitDim(std::vector<uint32_t>{4, 4, 4}), 0u);
  EXPECT_EQ(ShardRouter::PickSplitDim(std::vector<uint32_t>{2, 6, 6}), 1u);
}

TEST(ShardRouterTest, ValidatesConstruction) {
  EXPECT_FALSE(ShardRouter::Make({4, 3}, /*num_shards=*/3).ok());
  EXPECT_FALSE(ShardRouter::Make({4, 3}, /*num_shards=*/0).ok());
  // 2^4 = 16 shards would leave no levels on a log-4 dimension.
  EXPECT_FALSE(ShardRouter::Make({4, 3}, /*num_shards=*/16).ok());
  EXPECT_FALSE(ShardRouter::Make({4, 3}, /*split_dim=*/2, 2).ok());
  EXPECT_FALSE(ShardRouter::Make({}, 2).ok());
  ASSERT_OK_AND_ASSIGN(ShardRouter router, ShardRouter::Make({4, 3}, 4));
  EXPECT_EQ(router.split_dim(), 0u);
  EXPECT_EQ(router.prefix_bits(), 2u);
  EXPECT_EQ(router.slab_extent(), 4u);
  EXPECT_EQ(router.shard_log_dims(), (std::vector<uint32_t>{2, 3}));
}

TEST(ShardRouterTest, RoutesPointsByDyadicPrefix) {
  ASSERT_OK_AND_ASSIGN(ShardRouter router, ShardRouter::Make({4, 3}, 4));
  for (uint64_t x = 0; x < 16; ++x) {
    for (uint64_t y = 0; y < 8; ++y) {
      ASSERT_OK_AND_ASSIGN(const uint32_t shard,
                           router.RoutePoint(std::vector<uint64_t>{x, y}));
      EXPECT_EQ(shard, x >> 2);  // top 2 of 4 bits
      const auto local = router.ToLocal(std::vector<uint64_t>{x, y}, shard);
      EXPECT_EQ(local, (std::vector<uint64_t>{x % 4, y}));
    }
  }
  EXPECT_EQ(router.RoutePoint(std::vector<uint64_t>{16, 0}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(router.RoutePoint(std::vector<uint64_t>{0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardRouterTest, DecomposedRangesTileTheBoxExactly) {
  ASSERT_OK_AND_ASSIGN(ShardRouter router, ShardRouter::Make({4, 3}, 4));
  Xoshiro256 rng(42);
  for (int i = 0; i < 2000; ++i) {
    std::vector<uint64_t> lo{rng.NextBounded(16), rng.NextBounded(8)};
    std::vector<uint64_t> hi{lo[0] + rng.NextBounded(16 - lo[0]),
                             lo[1] + rng.NextBounded(8 - lo[1])};
    ASSERT_OK_AND_ASSIGN(const std::vector<ShardRange> parts,
                         router.DecomposeRange(lo, hi));
    // Parts ascend by shard and their volumes sum to the box volume; each
    // part stays inside its shard's sub-domain.
    uint64_t volume = 0;
    uint32_t prev = 0;
    for (const ShardRange& part : parts) {
      ASSERT_TRUE(part.shard >= prev);
      prev = part.shard + 1;
      ASSERT_LE(part.lo[0], part.hi[0]);
      ASSERT_LE(part.lo[1], part.hi[1]);
      ASSERT_LT(part.hi[0], router.slab_extent());
      volume += (part.hi[0] - part.lo[0] + 1) * (part.hi[1] - part.lo[1] + 1);
      // The part maps back into [lo, hi].
      const uint64_t global_lo = part.lo[0] + router.SlabLo(part.shard);
      const uint64_t global_hi = part.hi[0] + router.SlabLo(part.shard);
      ASSERT_GE(global_lo, lo[0]);
      ASSERT_LE(global_hi, hi[0]);
      ASSERT_EQ(part.lo[1], lo[1]);
      ASSERT_EQ(part.hi[1], hi[1]);
    }
    ASSERT_EQ(volume, (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1));
  }
  EXPECT_EQ(router
                .DecomposeRange(std::vector<uint64_t>{3, 0},
                                std::vector<uint64_t>{2, 0})
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

// ---------------------------------------------------------------------------
// ShardedCube vs monolithic ServingCube

class ShardedVsMonolithic : public ::testing::Test {
 protected:
  // Global domain 32x16, four shards of 8x16 along dimension 0.
  static constexpr uint32_t kLogX = 5;
  static constexpr uint32_t kLogY = 4;

  void Open(const char* tag, uint32_t num_shards) {
    dir_ = MakeTempDir(tag);
    WaveletCube::Options cube_options;  // standard form, b = 2
    ShardedCube::Options options;
    options.serving.start_workers = false;
    ASSERT_OK_AND_ASSIGN(
        sharded_, ShardedCube::CreateOnDisk(dir_.string(), {kLogX, kLogY},
                                            num_shards, cube_options,
                                            options));
    ASSERT_OK_AND_ASSIGN(auto base, WaveletCube::CreateInMemory(
                                        {kLogX, kLogY}, cube_options));
    ServingCube::Options mono_options;
    mono_options.start_workers = false;
    mono_options.max_pending_deltas = 1 << 16;
    ASSERT_OK_AND_ASSIGN(mono_,
                         ServingCube::Attach(std::move(base), mono_options));
  }

  void AddBoth(const Delta& delta) {
    ASSERT_OK(sharded_->Add(delta.coords, delta.value));
    ASSERT_OK(mono_->Add(delta.coords, delta.value));
    expected_[delta.coords] += delta.value;
  }

  // Bitwise-compares `points` random point queries and `ranges` random range
  // sums between the sharded and monolithic cubes (and the exact reference).
  void CompareAnswers(Xoshiro256& rng, int points, int ranges) {
    for (int i = 0; i < points; ++i) {
      std::vector<uint64_t> p{rng.NextBounded(1 << kLogX),
                              rng.NextBounded(1 << kLogY)};
      ASSERT_OK_AND_ASSIGN(const double got, sharded_->PointQuery(p));
      ASSERT_OK_AND_ASSIGN(const double want, mono_->PointQuery(p));
      ASSERT_EQ(Bits(got), Bits(want))
          << "point (" << p[0] << "," << p[1] << "): " << got << " vs "
          << want;
      const auto it = expected_.find(p);
      const double exact = it == expected_.end() ? 0.0 : it->second;
      ASSERT_EQ(Bits(got), Bits(exact));
    }
    for (int i = 0; i < ranges; ++i) {
      std::vector<uint64_t> lo{rng.NextBounded(1 << kLogX),
                               rng.NextBounded(1 << kLogY)};
      std::vector<uint64_t> hi{
          lo[0] + rng.NextBounded((1 << kLogX) - lo[0]),
          lo[1] + rng.NextBounded((1 << kLogY) - lo[1])};
      ASSERT_OK_AND_ASSIGN(const double got, sharded_->RangeSum(lo, hi));
      ASSERT_OK_AND_ASSIGN(const double want, mono_->RangeSum(lo, hi));
      ASSERT_EQ(Bits(got), Bits(want))
          << "range [" << lo[0] << "," << lo[1] << "]..[" << hi[0] << ","
          << hi[1] << "]: " << got << " vs " << want;
      double exact = 0.0;
      for (const auto& [coords, value] : expected_) {
        if (coords[0] >= lo[0] && coords[0] <= hi[0] && coords[1] >= lo[1] &&
            coords[1] <= hi[1]) {
          exact += value;
        }
      }
      ASSERT_EQ(Bits(got), Bits(exact));
    }
  }

  std::filesystem::path dir_;
  std::unique_ptr<ShardedCube> sharded_;
  std::unique_ptr<ServingCube> mono_;
  std::map<std::vector<uint64_t>, double> expected_;
};

TEST_F(ShardedVsMonolithic, PropertyBitIdenticalAcrossDrainStates) {
  Open("property", /*num_shards=*/4);
  const std::vector<uint32_t> log_dims{kLogX, kLogY};
  const std::vector<Delta> deltas = MakeDyadicDeltas(log_dims, 300, 20260808);
  Xoshiro256 rng(99);

  // Everything pending on both sides.
  for (size_t i = 0; i < 150; ++i) AddBoth(deltas[i]);
  CompareAnswers(rng, 300, 200);

  // Sharded fully drained, monolithic still buffered: merged reads on one
  // side against applied coefficients on the other.
  ASSERT_OK(sharded_->DrainAll());
  EXPECT_EQ(sharded_->pending_deltas(), 0u);
  CompareAnswers(rng, 300, 200);

  // More writes land on drained shards; both sides then fully drained.
  for (size_t i = 150; i < deltas.size(); ++i) AddBoth(deltas[i]);
  ASSERT_OK(sharded_->DrainAll());
  ASSERT_OK(mono_->DrainAll());
  CompareAnswers(rng, 300, 200);

  const ServingStats stats = sharded_->stats();
  EXPECT_EQ(stats.acked_deltas, deltas.size());
  EXPECT_EQ(stats.applied_seq, stats.last_seq);
  EXPECT_GT(stats.latch_exclusive_holds, 0u);
  EXPECT_GE(stats.latch_hold_us_total, stats.latch_hold_us_max);
  ASSERT_OK(sharded_->Close());
  ASSERT_OK(mono_->Close());
}

TEST_F(ShardedVsMonolithic, MidDrainSnapshotStaysBitIdentical) {
  Open("middrain", /*num_shards=*/4);
  const std::vector<uint32_t> log_dims{kLogX, kLogY};
  const std::vector<Delta> deltas = MakeDyadicDeltas(log_dims, 120, 7);
  for (size_t i = 0; i < 60; ++i) AddBoth(deltas[i]);

  // Pin shard 1's drain horizon mid-stream, keep writing, then drain: the
  // pinned shard freezes in a genuine mid-apply state (prefix applied, rest
  // pending) while the other shards drain fully — the sharded cube now
  // serves from a mix of applied and merged state across shards.
  const std::shared_ptr<ServingCube> pinned = sharded_->shard_for_test(1);
  {
    DeltaBuffer::Snapshot pin(pinned->buffer_for_test());
    bool pinned_shard_touched = false;
    for (size_t i = 60; i < deltas.size(); ++i) {
      AddBoth(deltas[i]);
      if (sharded_->router().ShardOf(deltas[i].coords) == 1) {
        pinned_shard_touched = true;
      }
    }
    ASSERT_TRUE(pinned_shard_touched);  // seed guarantees it
    for (uint32_t s = 0; s < sharded_->num_shards(); ++s) {
      if (s == 1) continue;
      ASSERT_OK(sharded_->shard_for_test(s)->DrainAll());
    }
    const Status drained = pinned->DrainAll();
    ASSERT_EQ(drained.code(), StatusCode::kUnavailable)
        << drained.ToString();
    EXPECT_GT(pinned->pending_deltas(), 0u);

    Xoshiro256 rng(13);
    CompareAnswers(rng, 400, 300);
  }

  // Snapshot released: the tail drains and answers stay identical.
  ASSERT_OK(sharded_->DrainAll());
  ASSERT_OK(mono_->DrainAll());
  Xoshiro256 rng(14);
  CompareAnswers(rng, 200, 100);
  ASSERT_OK(sharded_->Close());
  ASSERT_OK(mono_->Close());
}

TEST_F(ShardedVsMonolithic, DenseUpdateCrossesShardBoundaries) {
  Open("update", /*num_shards=*/4);
  // A 16x4 box anchored at x=4 spans shards 0..2 (slabs of 8 along x).
  Tensor box(TensorShape({16, 4}));
  Xoshiro256 rng(5);
  for (uint64_t i = 0; i < box.size(); ++i) {
    box[i] = static_cast<double>(static_cast<int64_t>(rng.NextBounded(9)) -
                                 4);
  }
  const std::vector<uint64_t> origin{4, 8};
  ASSERT_OK(sharded_->Update(box, origin));
  ASSERT_OK(mono_->Update(box, origin));
  std::vector<uint64_t> coords(2, 0);
  do {
    expected_[{origin[0] + coords[0], origin[1] + coords[1]}] +=
        box.At(coords);
  } while (box.shape().Next(coords));

  CompareAnswers(rng, 300, 200);
  ASSERT_OK(sharded_->DrainAll());
  CompareAnswers(rng, 300, 200);

  // Out-of-domain and mis-shaped updates are rejected up front.
  EXPECT_EQ(sharded_->Update(box, std::vector<uint64_t>{20, 8}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(sharded_->Update(box, std::vector<uint64_t>{0}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_OK(sharded_->Close());
  ASSERT_OK(mono_->Close());
}

// ---------------------------------------------------------------------------
// Crash recovery

// Kill -9 at every op boundary over a 2-shard workload: after each prefix of
// the op script (adds and drains), crash every shard, reopen, and verify all
// acknowledged deltas answer exactly — then drain and verify again.
TEST(ShardedCubeCrashTest, KillAtEveryOpReopensExact) {
  const std::vector<uint32_t> log_dims{4, 3};
  struct Op {
    bool drain = false;
    Delta delta;
  };
  std::vector<Op> ops;
  const std::vector<Delta> deltas = MakeDyadicDeltas(log_dims, 20, 31337);
  for (size_t i = 0; i < deltas.size(); ++i) {
    if (i == 7 || i == 14) {
      Op drain;
      drain.drain = true;
      ops.push_back(std::move(drain));
    }
    Op add;
    add.delta = deltas[i];
    ops.push_back(std::move(add));
  }

  const auto dir = MakeTempDir("killmatrix");
  for (size_t kill_at = 0; kill_at <= ops.size(); ++kill_at) {
    std::filesystem::remove_all(dir);
    WaveletCube::Options cube_options;
    ShardedCube::Options options;
    options.serving.start_workers = false;
    ASSERT_OK_AND_ASSIGN(
        auto sharded,
        ShardedCube::CreateOnDisk(dir.string(), log_dims, /*num_shards=*/2,
                                  cube_options, options));
    std::map<std::vector<uint64_t>, double> expected;
    for (size_t i = 0; i < kill_at; ++i) {
      if (ops[i].drain) {
        ASSERT_OK(sharded->DrainAll());
      } else {
        ASSERT_OK(sharded->Add(ops[i].delta.coords, ops[i].delta.value));
        expected[ops[i].delta.coords] += ops[i].delta.value;
      }
    }
    ASSERT_OK(sharded->CrashForTest());
    sharded.reset();

    ASSERT_OK_AND_ASSIGN(auto reopened,
                         ShardedCube::OpenOnDisk(dir.string(), options));
    const auto verify = [&](const char* when) {
      for (const auto& [coords, value] : expected) {
        ASSERT_OK_AND_ASSIGN(const double got,
                             reopened->PointQuery(coords));
        ASSERT_EQ(Bits(got), Bits(value))
            << when << " kill_at=" << kill_at << " cell (" << coords[0]
            << "," << coords[1] << "): " << got << " vs " << value;
      }
      double exact = 0.0;
      for (const auto& [coords, value] : expected) exact += value;
      ASSERT_OK_AND_ASSIGN(
          const double total,
          reopened->RangeSum(std::vector<uint64_t>{0, 0},
                             std::vector<uint64_t>{15, 7}));
      ASSERT_EQ(Bits(total), Bits(exact)) << when << " kill_at=" << kill_at;
    };
    verify("after reopen");
    ASSERT_OK(reopened->DrainAll());
    verify("after drain");
    ASSERT_OK(reopened->Close());
  }
}

TEST(ShardedCubeCrashTest, SingleShardCrashIsIsolated) {
  const auto dir = MakeTempDir("isolation");
  const std::vector<uint32_t> log_dims{4, 3};
  WaveletCube::Options cube_options;
  ShardedCube::Options options;
  options.serving.start_workers = false;
  ASSERT_OK_AND_ASSIGN(
      auto sharded,
      ShardedCube::CreateOnDisk(dir.string(), log_dims, /*num_shards=*/2,
                                cube_options, options));
  // Shard 0 owns x < 8, shard 1 owns x >= 8.
  ASSERT_OK(sharded->Add(std::vector<uint64_t>{2, 1}, 3.0));
  ASSERT_OK(sharded->Add(std::vector<uint64_t>{12, 5}, 4.0));
  ASSERT_OK(sharded->shard_for_test(0)->CrashForTest());

  // The crashed shard rejects, the healthy shard keeps serving exactly, and
  // a range spanning both propagates the failure.
  EXPECT_FALSE(sharded->Add(std::vector<uint64_t>{3, 1}, 1.0).ok());
  EXPECT_FALSE(sharded->PointQuery(std::vector<uint64_t>{2, 1}).ok());
  ASSERT_OK(sharded->Add(std::vector<uint64_t>{13, 5}, 2.0));
  ASSERT_OK_AND_ASSIGN(const double healthy,
                       sharded->PointQuery(std::vector<uint64_t>{12, 5}));
  EXPECT_EQ(Bits(healthy), Bits(4.0));
  ASSERT_OK_AND_ASSIGN(const double right_half,
                       sharded->RangeSum(std::vector<uint64_t>{8, 0},
                                         std::vector<uint64_t>{15, 7}));
  EXPECT_EQ(Bits(right_half), Bits(6.0));
  EXPECT_FALSE(sharded
                   ->RangeSum(std::vector<uint64_t>{0, 0},
                              std::vector<uint64_t>{15, 7})
                   .ok());

  // Crash the rest and reopen: every acknowledged delta on both shards
  // (including the post-crash add on the healthy one) recovers.
  ASSERT_OK(sharded->CrashForTest());
  sharded.reset();
  ASSERT_OK_AND_ASSIGN(auto reopened,
                       ShardedCube::OpenOnDisk(dir.string(), options));
  ASSERT_OK_AND_ASSIGN(const double total,
                       reopened->RangeSum(std::vector<uint64_t>{0, 0},
                                          std::vector<uint64_t>{15, 7}));
  EXPECT_EQ(Bits(total), Bits(9.0));
  ASSERT_OK(reopened->DrainAll());
  ASSERT_OK(reopened->Close());
}

// An injected device failure during one cube's drain poisons that cube only
// — built from the AttachDurable seam with a fault-injection device, the
// same per-shard wiring a failing disk would hit.
TEST(ShardedCubeCrashTest, InjectedWriteFailurePoisonsOnlyThatShard) {
  const std::vector<uint32_t> log_dims{3, 3};
  StandardTiling layout(log_dims, /*b=*/2);

  MemoryBlockManager faulty_inner(layout.block_capacity());
  testing::FaultInjectionBlockManager faulty(&faulty_inner);
  MemoryBlockManager healthy_inner(layout.block_capacity());

  WaveletCube::Options faulty_options;
  faulty_options.device = &faulty;
  WaveletCube::Options healthy_options;
  healthy_options.device = &healthy_inner;
  ASSERT_OK_AND_ASSIGN(auto faulty_cube,
                       WaveletCube::CreateInMemory(log_dims, faulty_options));
  ASSERT_OK_AND_ASSIGN(
      auto healthy_cube,
      WaveletCube::CreateInMemory(log_dims, healthy_options));

  const auto faulty_dir = MakeTempDir("faulty_shard");
  const auto healthy_dir = MakeTempDir("healthy_shard");
  ServingCube::Options serving_options;
  serving_options.start_workers = false;
  ASSERT_OK_AND_ASSIGN(
      auto faulty_shard,
      ServingCube::AttachDurable(std::move(faulty_cube), faulty_dir.string(),
                                 serving_options));
  ASSERT_OK_AND_ASSIGN(
      auto healthy_shard,
      ServingCube::AttachDurable(std::move(healthy_cube),
                                 healthy_dir.string(), serving_options));

  ASSERT_OK(faulty_shard->Add(std::vector<uint64_t>{1, 1}, 5.0));
  ASSERT_OK(healthy_shard->Add(std::vector<uint64_t>{2, 2}, 7.0));
  faulty.FailNthWrite(1);
  EXPECT_FALSE(faulty_shard->DrainAll().ok());
  // Poisoned: the failed shard rejects everything from now on...
  EXPECT_FALSE(faulty_shard->Add(std::vector<uint64_t>{1, 2}, 1.0).ok());
  EXPECT_FALSE(faulty_shard->PointQuery(std::vector<uint64_t>{1, 1}).ok());
  // ...while its sibling is untouched.
  ASSERT_OK(healthy_shard->DrainAll());
  ASSERT_OK_AND_ASSIGN(const double v,
                       healthy_shard->PointQuery(std::vector<uint64_t>{2, 2}));
  EXPECT_EQ(Bits(v), Bits(7.0));
  ASSERT_OK(healthy_shard->Close());
}

// ---------------------------------------------------------------------------
// Shard-set plumbing

TEST(ShardedCubeTest, CreateValidatesAndOpenChecksTheManifest) {
  const auto dir = MakeTempDir("plumbing");
  WaveletCube::Options cube_options;
  ShardedCube::Options options;
  options.serving.start_workers = false;
  EXPECT_FALSE(ShardedCube::CreateOnDisk(dir.string(), {4, 3}, 3,
                                         cube_options, options)
                   .ok());
  EXPECT_FALSE(ShardedCube::CreateOnDisk(dir.string(), {4, 3}, 16,
                                         cube_options, options)
                   .ok());
  EXPECT_FALSE(ShardedCube::IsShardedDir(dir.string()));
  EXPECT_EQ(ShardedCube::OpenOnDisk(dir.string()).status().code(),
            StatusCode::kNotFound);

  ASSERT_OK_AND_ASSIGN(auto sharded,
                       ShardedCube::CreateOnDisk(dir.string(), {4, 3}, 4,
                                                 cube_options, options));
  EXPECT_TRUE(ShardedCube::IsShardedDir(dir.string()));
  EXPECT_EQ(sharded->num_shards(), 4u);
  ASSERT_OK(sharded->Add(std::vector<uint64_t>{9, 2}, 1.5));
  const std::vector<uint64_t> seqs = sharded->SnapshotSeqs();
  ASSERT_EQ(seqs.size(), 4u);
  EXPECT_EQ(seqs[0] + seqs[1] + seqs[2] + seqs[3], 1u);
  ASSERT_OK(sharded->Close());

  // A shard-set manifest that disagrees with the shard stores is rejected.
  ShardSetManifest bad;
  bad.num_shards = 2;
  bad.split_dim = 0;
  bad.log_dims = {4, 3};
  bad.shard_dirs = {ShardSetManifest::ShardDirName(0),
                    ShardSetManifest::ShardDirName(1)};
  ASSERT_OK(bad.Save((dir / "shardset.manifest").string()));
  EXPECT_FALSE(ShardedCube::OpenOnDisk(dir.string(), options).ok());
}

// ---------------------------------------------------------------------------
// Self-healing (DESIGN.md §11)

// The acceptance matrix: crash the owning shard at every op index of a
// write sequence, recover it in-process (RecoverShardNow runs the full
// supervised teardown -> reopen -> watermark-verify -> re-admit cycle),
// finish the sequence, and demand bit-identity with a never-faulted
// monolith holding exactly the acknowledged writes.
TEST(ShardedSelfHealingTest, KillAtEveryOpRecoversInProcessExact) {
  const std::vector<uint32_t> log_dims{5, 4};
  const std::vector<Delta> deltas = MakeDyadicDeltas(log_dims, 24, 20260808);
  WaveletCube::Options cube_options;

  for (size_t kill_at = 0; kill_at < deltas.size(); ++kill_at) {
    const auto dir = MakeTempDir("healmatrix");
    ShardedCube::Options options;
    options.serving.start_workers = false;
    ASSERT_OK_AND_ASSIGN(
        auto sharded, ShardedCube::CreateOnDisk(dir.string(), log_dims, 4,
                                                cube_options, options));
    ASSERT_OK_AND_ASSIGN(auto base,
                         WaveletCube::CreateInMemory(log_dims, cube_options));
    ServingCube::Options mono_options;
    mono_options.start_workers = false;
    ASSERT_OK_AND_ASSIGN(auto mono,
                         ServingCube::Attach(std::move(base), mono_options));

    const uint32_t victim =
        sharded->router().ShardOf(deltas[kill_at].coords);
    std::vector<size_t> unacked;
    for (size_t i = 0; i < deltas.size(); ++i) {
      if (i == kill_at) {
        // The injected failure: the victim's in-process crash poisons it.
        ASSERT_OK(sharded->shard_for_test(victim)->CrashForTest());
      }
      const Status added = sharded->Add(deltas[i].coords, deltas[i].value);
      if (added.ok()) {
        ASSERT_OK(mono->Add(deltas[i].coords, deltas[i].value));
      } else {
        // Only the victim may reject writes; healthy shards never stall.
        ASSERT_EQ(sharded->router().ShardOf(deltas[i].coords), victim);
        unacked.push_back(i);
      }
    }
    ASSERT_GE(unacked.size(), 1u);  // the kill_at write itself bounced
    EXPECT_EQ(sharded->shard_health(victim).health,
              ShardHealth::kQuarantined);

    // One full in-process recovery cycle, then the writer retries its
    // rejected writes.
    ASSERT_OK(sharded->RecoverShardNow(victim));
    const ShardedCube::ShardHealthInfo healed =
        sharded->shard_health(victim);
    EXPECT_EQ(healed.health, ShardHealth::kHealthy);
    EXPECT_EQ(healed.recoveries, 1u);
    EXPECT_EQ(healed.quarantines, 1u);
    for (const size_t i : unacked) {
      ASSERT_OK(sharded->Add(deltas[i].coords, deltas[i].value));
      ASSERT_OK(mono->Add(deltas[i].coords, deltas[i].value));
    }
    ASSERT_OK(sharded->DrainAll());
    ASSERT_OK(mono->DrainAll());

    // Bit-identical to the never-faulted monolith, point and range.
    Xoshiro256 rng(kill_at + 1);
    for (int q = 0; q < 40; ++q) {
      std::vector<uint64_t> p{rng.NextBounded(32), rng.NextBounded(16)};
      ASSERT_OK_AND_ASSIGN(const double got, sharded->PointQuery(p));
      ASSERT_OK_AND_ASSIGN(const double want, mono->PointQuery(p));
      ASSERT_EQ(Bits(got), Bits(want)) << "kill_at=" << kill_at;
    }
    const std::vector<uint64_t> all_lo{0, 0};
    const std::vector<uint64_t> all_hi{31, 15};
    ASSERT_OK_AND_ASSIGN(const double got_sum,
                         sharded->RangeSum(all_lo, all_hi));
    ASSERT_OK_AND_ASSIGN(const double want_sum,
                         mono->RangeSum(all_lo, all_hi));
    ASSERT_EQ(Bits(got_sum), Bits(want_sum)) << "kill_at=" << kill_at;

    ASSERT_OK(sharded->Close());
    ASSERT_OK(mono->Close());
    std::filesystem::remove_all(dir);
  }
}

// One bad block inside a serving shard degrades at block level, not shard
// level: the shard's own evaluator skips the block (reason kQuarantined, no
// shard listed missing) and the answer stays within its bound — the same
// contract a monolithic store gives. The shard itself keeps serving.
TEST(ShardedSelfHealingTest, BadBlockInServingShardDegradesAtBlockLevel) {
  const auto dir = MakeTempDir("badblock");
  const std::vector<uint32_t> log_dims{5, 4};
  WaveletCube::Options cube_options;
  ShardedCube::Options options;
  options.serving.start_workers = false;
  ASSERT_OK_AND_ASSIGN(
      auto sharded, ShardedCube::CreateOnDisk(dir.string(), log_dims, 4,
                                              cube_options, options));
  double true_sum = 0.0;
  for (const Delta& d : MakeDyadicDeltas(log_dims, 120, 20261017)) {
    ASSERT_OK(sharded->Add(d.coords, d.value));
    true_sum += d.value;
  }
  ASSERT_OK(sharded->DrainAll());

  // Bit rot with no parity to heal it: flip one payload byte of the victim
  // shard's root block on disk, then drop the cached copy so the next read
  // verifies the footer.
  constexpr uint32_t kVictim = 2;
  const std::shared_ptr<ServingCube> victim = sharded->shard_for_test(kVictim);
  TiledStore* store = victim->cube()->store();
  ASSERT_OK_AND_ASSIGN(const BlockSlot root,
                       store->layout().Locate(std::vector<uint64_t>{0, 0}));
  const auto blocks_bin =
      dir / ShardSetManifest::ShardDirName(kVictim) / "blocks.bin";
  const uint64_t stride =
      std::filesystem::file_size(blocks_bin) / store->manager().num_blocks();
  {
    std::fstream file(blocks_bin,
                      std::ios::in | std::ios::out | std::ios::binary);
    const auto offset = static_cast<std::streamoff>(root.block * stride + 4);
    file.seekg(offset);
    const char byte = static_cast<char>(file.get());
    file.seekp(offset);
    file.put(static_cast<char>(byte ^ 0x5a));
    ASSERT_TRUE(file.good());
  }
  ASSERT_OK(store->pool().Clear());

  const std::vector<uint64_t> all_lo{0, 0};
  const std::vector<uint64_t> all_hi{31, 15};
  QueryOptions approx;
  approx.max_error = std::numeric_limits<double>::infinity();
  ASSERT_OK_AND_ASSIGN(const DegradedResult degraded,
                       sharded->RangeSum(all_lo, all_hi, approx));
  EXPECT_EQ(degraded.reason, DegradedReason::kQuarantined);
  EXPECT_TRUE(degraded.shards_missing.empty());
  EXPECT_GE(degraded.blocks_missing, 1u);
  EXPECT_TRUE(std::isfinite(degraded.error_bound));
  EXPECT_LE(std::abs(true_sum - degraded.value), degraded.error_bound);
  EXPECT_EQ(sharded->shard_health(kVictim).health, ShardHealth::kHealthy);

  // The exact path fails with the failed fetch's own code.
  EXPECT_EQ(sharded->RangeSum(all_lo, all_hi).status().code(),
            StatusCode::kChecksumMismatch);
  ASSERT_OK(sharded->Close());
  std::filesystem::remove_all(dir);
}

// While a shard is quarantined: exact queries touching it fail fast with
// its health attached, approx-tolerant queries skip it and return a
// DegradedResult whose energy-derived bound really covers the missing
// part, and a too-tight max_error refuses the degraded answer. After
// recovery the exact answers are back, bit-identically.
TEST(ShardedSelfHealingTest, DegradedQueriesWithinBoundWhileQuarantined) {
  const auto dir = MakeTempDir("degraded");
  const std::vector<uint32_t> log_dims{5, 4};
  WaveletCube::Options cube_options;
  ShardedCube::Options options;
  options.serving.start_workers = false;
  ASSERT_OK_AND_ASSIGN(
      auto sharded, ShardedCube::CreateOnDisk(dir.string(), log_dims, 4,
                                              cube_options, options));

  const std::vector<Delta> deltas = MakeDyadicDeltas(log_dims, 120, 31337);
  std::map<std::vector<uint64_t>, double> expected;
  for (const Delta& d : deltas) {
    ASSERT_OK(sharded->Add(d.coords, d.value));
    expected[d.coords] += d.value;
  }
  ASSERT_OK(sharded->DrainAll());

  constexpr uint32_t kVictim = 2;
  ASSERT_OK(sharded->shard_for_test(kVictim)->CrashForTest());
  // First touch detects the poisoning inline and quarantines the slot.
  const std::vector<uint64_t> victim_cell{
      kVictim * 8 + 1, 3};  // split dim 0, slab extent 8
  EXPECT_FALSE(sharded->Add(victim_cell, 1.0).ok());
  EXPECT_EQ(sharded->shard_health(kVictim).health,
            ShardHealth::kQuarantined);

  const std::vector<uint64_t> all_lo{0, 0};
  const std::vector<uint64_t> all_hi{31, 15};
  double true_sum = 0.0;
  double victim_part = 0.0;
  for (const auto& [coords, value] : expected) {
    true_sum += value;
    if (coords[0] / 8 == kVictim) victim_part += value;
  }

  // Exact mode fails fast, naming the shard's health.
  const Result<double> exact = sharded->RangeSum(all_lo, all_hi);
  ASSERT_FALSE(exact.ok());
  EXPECT_EQ(exact.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(exact.status().message().find("QUARANTINED"),
            std::string::npos);

  // Approx mode degrades: the healthy shards' exact parts, the victim
  // listed missing, and a bound that covers what was skipped.
  QueryOptions approx;
  approx.max_error = std::numeric_limits<double>::infinity();
  ASSERT_OK_AND_ASSIGN(const DegradedResult degraded,
                       sharded->RangeSum(all_lo, all_hi, approx));
  EXPECT_EQ(degraded.reason, DegradedReason::kShardUnavailable);
  ASSERT_EQ(degraded.shards_missing,
            (std::vector<uint32_t>{kVictim}));
  EXPECT_GT(degraded.blocks_missing, 0u);
  EXPECT_EQ(Bits(degraded.value), Bits(true_sum - victim_part));
  EXPECT_LE(std::abs(true_sum - degraded.value), degraded.error_bound);

  // Same contract for the degradable point query on the dead shard.
  ASSERT_OK_AND_ASSIGN(const DegradedResult point,
                       sharded->PointQuery(victim_cell, approx));
  ASSERT_EQ(point.shards_missing, (std::vector<uint32_t>{kVictim}));
  const auto it = expected.find(victim_cell);
  const double point_true = it == expected.end() ? 0.0 : it->second;
  EXPECT_LE(std::abs(point_true - point.value), point.error_bound);

  // A max_error tighter than the bound refuses to answer.
  if (degraded.error_bound > 0.0) {
    QueryOptions tight;
    tight.max_error = degraded.error_bound * 0.5;
    const Result<DegradedResult> refused =
        sharded->RangeSum(all_lo, all_hi, tight);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  }
  // A range entirely inside healthy shards answers exactly — degraded
  // routing never touches the victim.
  const std::vector<uint64_t> healthy_lo{0, 0};
  const std::vector<uint64_t> healthy_hi{15, 15};
  ASSERT_OK_AND_ASSIGN(const DegradedResult healthy,
                       sharded->RangeSum(healthy_lo, healthy_hi, approx));
  EXPECT_TRUE(healthy.exact());

  // Recovery restores exact service.
  ASSERT_OK(sharded->RecoverShardNow(kVictim));
  ASSERT_OK_AND_ASSIGN(const double after,
                       sharded->RangeSum(all_lo, all_hi));
  EXPECT_EQ(Bits(after), Bits(true_sum));
  const ServingStats stats = sharded->stats();
  EXPECT_EQ(stats.health, ShardHealth::kHealthy);
  EXPECT_EQ(stats.recoveries, 1u);
  ASSERT_OK(sharded->Close());
  std::filesystem::remove_all(dir);
}

// Writes routed to a quarantined shard park in the bounded in-memory queue
// (supervisor running, no deadline), fail fast under an armed deadline,
// bounce when the queue is full — and the parked queue drains into the
// shard on re-admission, bit-identically to a monolith that accepted the
// same writes directly.
TEST(ShardedSelfHealingTest, ParkedWritesReplayOnReadmission) {
  const auto dir = MakeTempDir("parking");
  const std::vector<uint32_t> log_dims{5, 4};
  WaveletCube::Options cube_options;
  ShardedCube::Options options;
  options.serving.start_workers = true;
  options.serving.oversubscribe = true;
  // A sleepy supervisor: running (so parking is live) but effectively
  // never acting — the test drives recovery explicitly.
  options.supervisor_poll = std::chrono::milliseconds(60'000);
  options.max_parked_writes = 4;
  ASSERT_OK_AND_ASSIGN(
      auto sharded, ShardedCube::CreateOnDisk(dir.string(), log_dims, 4,
                                              cube_options, options));
  ASSERT_OK_AND_ASSIGN(auto base,
                       WaveletCube::CreateInMemory(log_dims, cube_options));
  ServingCube::Options mono_options;
  mono_options.start_workers = false;
  ASSERT_OK_AND_ASSIGN(auto mono,
                       ServingCube::Attach(std::move(base), mono_options));

  constexpr uint32_t kVictim = 1;
  const auto victim_cell = [](uint64_t x, uint64_t y) {
    return std::vector<uint64_t>{kVictim * 8 + x, y};
  };
  ASSERT_OK(sharded->Add(victim_cell(0, 0), 2.0));
  ASSERT_OK(mono->Add(victim_cell(0, 0), 2.0));
  ASSERT_OK(sharded->DrainAll());

  ASSERT_OK(sharded->shard_for_test(kVictim)->CrashForTest());
  // The detecting write fails (it raced the poisoning) ...
  EXPECT_FALSE(sharded->Add(victim_cell(1, 1), 1.0).ok());
  ASSERT_EQ(sharded->shard_health(kVictim).health,
            ShardHealth::kQuarantined);
  // ... but writes after the quarantine park, up to the bound.
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_OK(sharded->Add(victim_cell(i, 2), 1.0 + i));
    ASSERT_OK(mono->Add(victim_cell(i, 2), 1.0 + i));
  }
  EXPECT_EQ(sharded->shard_health(kVictim).parked, 4u);
  // Queue full: the fifth offer bounces.
  EXPECT_FALSE(sharded->Add(victim_cell(4, 2), 9.0).ok());
  // An armed deadline never parks: bounded latency means fail fast.
  OperationContext deadline_ctx;
  deadline_ctx.set_timeout(std::chrono::seconds(30));
  const Status fast = sharded->Add(victim_cell(5, 2), 1.0, &deadline_ctx);
  ASSERT_FALSE(fast.ok());
  EXPECT_EQ(fast.code(), StatusCode::kUnavailable);
  // Healthy shards are untouched by all of this.
  ASSERT_OK(sharded->Add(std::vector<uint64_t>{0, 0}, 3.0));
  ASSERT_OK(mono->Add(std::vector<uint64_t>{0, 0}, 3.0));

  // Re-admission replays the parked queue in arrival order.
  ASSERT_OK(sharded->RecoverShardNow(kVictim));
  const ShardedCube::ShardHealthInfo healed = sharded->shard_health(kVictim);
  EXPECT_EQ(healed.health, ShardHealth::kHealthy);
  EXPECT_EQ(healed.parked, 0u);
  const ServingStats stats = sharded->stats();
  EXPECT_EQ(stats.parked_writes, 4u);
  EXPECT_EQ(stats.parked_dropped, 0u);

  ASSERT_OK(sharded->DrainAll());
  ASSERT_OK(mono->DrainAll());
  Xoshiro256 rng(5);
  for (int q = 0; q < 60; ++q) {
    std::vector<uint64_t> p{rng.NextBounded(32), rng.NextBounded(16)};
    ASSERT_OK_AND_ASSIGN(const double got, sharded->PointQuery(p));
    ASSERT_OK_AND_ASSIGN(const double want, mono->PointQuery(p));
    ASSERT_EQ(Bits(got), Bits(want));
  }
  ASSERT_OK(sharded->Close());
  ASSERT_OK(mono->Close());
  std::filesystem::remove_all(dir);
}

// The background supervisor alone — no explicit recovery calls — detects a
// poisoned shard, quarantines it and re-admits it, while the healthy
// shards keep serving throughout.
TEST(ShardedSelfHealingTest, SupervisorAutoRecoversCrashedShard) {
  const auto dir = MakeTempDir("auto");
  const std::vector<uint32_t> log_dims{5, 4};
  WaveletCube::Options cube_options;
  ShardedCube::Options options;
  options.serving.start_workers = true;
  options.serving.oversubscribe = true;
  options.supervisor_poll = std::chrono::milliseconds(2);
  ASSERT_OK_AND_ASSIGN(
      auto sharded, ShardedCube::CreateOnDisk(dir.string(), log_dims, 4,
                                              cube_options, options));

  constexpr uint32_t kVictim = 3;
  ASSERT_OK(sharded->Add(std::vector<uint64_t>{kVictim * 8 + 2, 5}, 4.0));
  ASSERT_OK(sharded->DrainAll());
  ASSERT_OK(sharded->shard_for_test(kVictim)->CrashForTest());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (;;) {
    const ShardedCube::ShardHealthInfo info = sharded->shard_health(kVictim);
    if (info.health == ShardHealth::kHealthy && info.recoveries >= 1) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "supervisor did not recover the shard; health="
        << ShardHealthToString(info.health);
    // Healthy shards serve while the victim heals.
    ASSERT_OK(sharded->PointQuery(std::vector<uint64_t>{0, 0}).status());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const ShardedCube::ShardHealthInfo info = sharded->shard_health(kVictim);
  EXPECT_EQ(info.quarantines, 1u);
  ASSERT_OK(info.cause);  // cleared on re-admission
  // The recovered shard serves reads and writes again, exactly.
  ASSERT_OK_AND_ASSIGN(
      const double value,
      sharded->PointQuery(std::vector<uint64_t>{kVictim * 8 + 2, 5}));
  EXPECT_EQ(Bits(value), Bits(4.0));
  ASSERT_OK(sharded->Add(std::vector<uint64_t>{kVictim * 8 + 2, 5}, 1.0));
  ASSERT_OK(sharded->Close());
  std::filesystem::remove_all(dir);
}

// A shard whose store cannot be reopened exhausts its recovery attempts
// and lands in the terminal FAILED state, with the cause in stats and an
// operator-facing error on every touch — while the rest of the cube keeps
// serving, and approx-tolerant queries still answer around the hole.
TEST(ShardedSelfHealingTest, UnrecoverableShardLandsFailedTerminal) {
  const auto dir = MakeTempDir("failed");
  const std::vector<uint32_t> log_dims{5, 4};
  WaveletCube::Options cube_options;
  ShardedCube::Options options;
  options.serving.start_workers = false;
  options.max_recovery_attempts = 2;
  options.recovery_backoff = RetryPolicy{2, 1, 10, 0.0};
  ASSERT_OK_AND_ASSIGN(
      auto sharded, ShardedCube::CreateOnDisk(dir.string(), log_dims, 4,
                                              cube_options, options));
  // Data lands only on healthy shards so the hole carries zero mass.
  const std::vector<Delta> deltas = MakeDyadicDeltas(log_dims, 60, 99);
  double healthy_sum = 0.0;
  for (const Delta& d : deltas) {
    if (sharded->router().ShardOf(d.coords) == 1) continue;
    ASSERT_OK(sharded->Add(d.coords, d.value));
    healthy_sum += d.value;
  }
  ASSERT_OK(sharded->DrainAll());

  // Make shard 1 unrecoverable: poison it and destroy its manifest.
  ASSERT_OK(sharded->shard_for_test(1)->CrashForTest());
  std::filesystem::remove(dir / "shard-0001" / "store.manifest");

  EXPECT_FALSE(sharded->RecoverShardNow(1).ok());  // attempt 1 of 2
  EXPECT_EQ(sharded->shard_health(1).health, ShardHealth::kQuarantined);
  EXPECT_FALSE(sharded->RecoverShardNow(1).ok());  // attempt 2: terminal
  const ShardedCube::ShardHealthInfo info = sharded->shard_health(1);
  EXPECT_EQ(info.health, ShardHealth::kFailed);
  EXPECT_FALSE(info.cause.ok());

  // Terminal: explicit recovery refuses, writes bounce with the cause.
  const Status recover_again = sharded->RecoverShardNow(1);
  ASSERT_FALSE(recover_again.ok());
  EXPECT_NE(recover_again.message().find("FAILED"), std::string::npos);
  const Status write = sharded->Add(std::vector<uint64_t>{9, 0}, 1.0);
  ASSERT_FALSE(write.ok());
  EXPECT_EQ(write.code(), StatusCode::kUnavailable);
  EXPECT_NE(write.message().find("FAILED"), std::string::npos);

  // The cause and terminal state surface in aggregate stats.
  const ServingStats stats = sharded->stats();
  EXPECT_EQ(stats.health, ShardHealth::kFailed);
  EXPECT_NE(stats.poison_code, StatusCode::kOk);
  EXPECT_EQ(stats.recovery_attempts, 2u);
  EXPECT_EQ(stats.recoveries, 0u);

  // Healthy shards serve exact sub-queries; the global sum degrades with
  // an honest (here unbounded — the hole's energy is unknowable) bound.
  ASSERT_OK_AND_ASSIGN(
      const double left,
      sharded->RangeSum(std::vector<uint64_t>{0, 0},
                        std::vector<uint64_t>{7, 15}));
  (void)left;
  QueryOptions approx;
  approx.max_error = std::numeric_limits<double>::infinity();
  ASSERT_OK_AND_ASSIGN(
      const DegradedResult degraded,
      sharded->RangeSum(std::vector<uint64_t>{0, 0},
                        std::vector<uint64_t>{31, 15}, approx));
  ASSERT_EQ(degraded.shards_missing, (std::vector<uint32_t>{1}));
  EXPECT_EQ(Bits(degraded.value), Bits(healthy_sum));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace shiftsplit
