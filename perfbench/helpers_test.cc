// Unit tests of the benchmark's own helpers: percentiles that refuse to
// guess, the knee search, pipelined reply matching and the seeded inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "knee.h"
#include "loadgen.h"
#include "shiftsplit/net/wire.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace net = shiftsplit::net;

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(PercentileTest, NeedsTenSamplesBeyond) {
  // p99 of 1000 samples is rank 990 (value 990): 10 samples lie beyond.
  EXPECT_EQ(Percentile(Iota(1000), 99), 990.0);
  // 999 samples leave only 9 beyond p99: missing, not guessed.
  EXPECT_FALSE(Percentile(Iota(999), 99).has_value());
  EXPECT_EQ(Percentile(Iota(20), 50), 10.0);
  EXPECT_FALSE(Percentile(Iota(19), 50).has_value());
  EXPECT_FALSE(Percentile({}, 50).has_value());
}

TEST(PercentileTest, IgnoresInputOrder) {
  std::vector<double> v = Iota(2000);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(Percentile(v, 50), 1000.0);
  EXPECT_EQ(Percentile(v, 99), 1980.0);
}

TEST(PercentileTest, HighestSupportedLadder) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(15), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(25), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(200), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100000), 99.99);
}

TEST(PercentileTest, BucketUpperBound) {
  const uint64_t bounds[] = {10, 100, 1000};
  // 980 samples <= 10 us, 15 <= 100 us, 5 in overflow.
  const uint64_t counts[] = {980, 15, 0, 5};
  EXPECT_EQ(BucketUpperBound(counts, bounds, 50), 10.0);
  EXPECT_EQ(BucketUpperBound(counts, bounds, 98.5), 100.0);
  // p99.6 lands in the unbounded overflow bucket.
  const uint64_t tail[] = {9000, 900, 0, 100};
  EXPECT_FALSE(BucketUpperBound(tail, bounds, 99.5).has_value());
  const uint64_t few[] = {5, 0, 0, 0};
  EXPECT_FALSE(BucketUpperBound(few, bounds, 50).has_value());
}

TEST(SlicedSamplesTest, OneStalledSliceDoesNotMoveTheFigure) {
  SlicedSamples sliced(/*window_s=*/5.0, /*slice_s=*/1.0);
  for (int slice = 0; slice < 5; ++slice) {
    for (int i = 0; i < 1000; ++i) {
      const double us = slice == 2 ? 50000.0 : 100.0 + i % 10;  // a stall
      sliced.Add(slice + i / 1000.0, us);
    }
  }
  sliced.Add(7.5, 1.0);  // past the window: dropped
  EXPECT_EQ(sliced.count(), 5000u);
  EXPECT_EQ(sliced.Percentile(50), 104.0);
  EXPECT_EQ(sliced.Percentile(99), 109.0);
  EXPECT_EQ(sliced.RatePerSecond(), 1000.0);
}

TEST(SlicedSamplesTest, MissingUnlessHalfTheSlicesSupportThePercentile) {
  SlicedSamples sliced(/*window_s=*/4.0, /*slice_s=*/1.0);
  for (int i = 0; i < 2000; ++i) sliced.Add(0.5, 1.0);
  EXPECT_FALSE(sliced.Percentile(99).has_value());  // 1 of 4 slices
  for (int i = 0; i < 2000; ++i) sliced.Add(1.5, 3.0);
  EXPECT_EQ(sliced.Percentile(99), 2.0);  // median of {1, 3}
}

TEST(SlicedSamplesTest, QuantileOverSlices) {
  SlicedSamples sliced(/*window_s=*/5.0, /*slice_s=*/1.0);
  // Slice k holds 100 * (k + 1) samples of value k + 1.
  for (int slice = 0; slice < 5; ++slice) {
    for (int i = 0; i < 100 * (slice + 1); ++i) sliced.Add(slice, slice + 1);
  }
  EXPECT_EQ(sliced.Percentile(50, 0.25), 2.0);
  EXPECT_EQ(sliced.Percentile(50, 0.5), 3.0);
  EXPECT_EQ(sliced.Percentile(50), 3.0);
}

TEST(SlicedSamplesTest, BusiestSlicesOnly) {
  SlicedSamples sliced(/*window_s=*/8.0, /*slice_s=*/1.0);
  // Slices 2 and 5 are the busiest; slice 5 the busiest of all.
  const int counts[8] = {100, 100, 300, 100, 100, 400, 100, 100};
  for (int slice = 0; slice < 8; ++slice) {
    for (int i = 0; i < counts[slice]; ++i) sliced.Add(slice, slice);
  }
  const std::vector<size_t> busy = sliced.BusiestSlices(0.25);
  EXPECT_EQ(busy, (std::vector<size_t>{5, 2}));
  EXPECT_EQ(sliced.BusiestSlices(0.3).size(), 3u);  // rounded up
  EXPECT_EQ(sliced.BusiestSlices(0.0).size(), 1u);  // at least one
  const SlicedSamples kept = sliced.Only(busy);
  EXPECT_EQ(kept.slices(), 2u);
  EXPECT_EQ(kept.count(), 700u);
  EXPECT_EQ(kept.RatePerSecond(), 350.0);
  EXPECT_EQ(kept.Percentile(50), 3.5);  // median of {5, 2}
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(QuantileTest, InterpolatesBetweenOrderStatistics) {
  EXPECT_EQ(Quantile({40, 10, 30, 20, 50}, 0.25), 20.0);
  EXPECT_EQ(Quantile({40, 10, 30, 20}, 0.5), 25.0);
  EXPECT_EQ(Quantile({40, 10, 30, 20}, 0.0), 10.0);
  EXPECT_EQ(Quantile({40, 10, 30, 20}, 1.0), 40.0);
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
}

// A model server: latency is fine below `capacity`, explodes above it; the
// generator runs late above `generator_limit`.
RatePoint ModelPoint(double rate, double capacity, double generator_limit) {
  RatePoint p;
  p.offered_per_s = rate;
  p.scheduled = static_cast<uint64_t>(rate);
  p.completed_frac = std::min(1.0, capacity / rate);
  p.p99_us = rate <= capacity ? 800.0 : 50000.0;
  p.lag_p99_us = rate <= generator_limit ? 20.0 : 5000.0;
  return p;
}

TEST(KneeTest, ConvergesWithinResolution) {
  KneeCriteria criteria;
  for (double capacity : {12000.0, 37000.0, 81000.0}) {
    auto result = FindKnee(20000.0, criteria, [&](double r) {
      return ModelPoint(r, capacity, 1e12);
    });
    ASSERT_TRUE(result.resolved) << capacity;
    EXPECT_LE(result.knee_per_s, capacity);
    EXPECT_GE(result.knee_per_s * 1.05, capacity * 0.999) << capacity;
    EXPECT_FALSE(result.generator_bound);
  }
}

TEST(KneeTest, GeneratorLimitedPointsNeverCountAsKnee) {
  KneeCriteria criteria;
  auto result = FindKnee(20000.0, criteria, [&](double r) {
    return ModelPoint(r, /*capacity=*/100000.0, /*generator_limit=*/30000.0);
  });
  EXPECT_LE(result.knee_per_s, 30000.0);
  EXPECT_TRUE(result.generator_bound);
  for (size_t i = 0; i < result.points.size(); ++i) {
    if (result.verdicts[i] == Verdict::kPass) {
      EXPECT_LE(result.points[i].offered_per_s, 30000.0);
    }
  }
}

TEST(KneeTest, JudgeCountsOnlyInWindowCompletionsAndErrors) {
  KneeCriteria criteria;
  RatePoint p = ModelPoint(1000, 2000, 1e12);
  EXPECT_EQ(Judge(p, criteria), Verdict::kPass);
  p.completed_frac = 0.98;  // a backlog of 2% of the arrivals grew
  EXPECT_EQ(Judge(p, criteria), Verdict::kFail);
  p = ModelPoint(1000, 2000, 1e12);
  p.failed = 2;  // 0.2% errors
  EXPECT_EQ(Judge(p, criteria), Verdict::kFail);
  p = ModelPoint(1000, 2000, 1e12);
  p.p99_us.reset();  // too few samples to judge the tail
  EXPECT_EQ(Judge(p, criteria), Verdict::kFail);
}

std::vector<uint8_t> ReplyFrame(uint64_t id, double value) {
  net::FrameHeader header;
  header.opcode = net::Opcode::kReply;
  header.request_id = id;
  const auto body = net::EncodeQueryReply(net::QueryReply::Exact(value));
  header.payload_len = static_cast<uint32_t>(body.size());
  return net::EncodeFrame(header, body);
}

TEST(ReplyMatchingTest, OutOfOrderRepliesSplitAcrossReads) {
  ReplyMatcher matcher;
  for (uint64_t id = 1; id <= 5; ++id) {
    Pending p;
    p.scheduled_ns = static_cast<int64_t>(id * 100);
    ASSERT_TRUE(matcher.Expect(id, p).ok());
  }
  EXPECT_FALSE(matcher.Expect(3, Pending{}).ok());  // already in flight

  std::vector<uint8_t> stream;
  for (uint64_t id : {4, 1, 5, 2, 3}) {
    const auto frame = ReplyFrame(id, static_cast<double>(id) * 0.5);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  FrameAssembler assembler;
  std::vector<uint64_t> order;
  // Feed the bytes in awkward 7-byte pieces.
  for (size_t pos = 0; pos < stream.size(); pos += 7) {
    assembler.Append(stream.data() + pos,
                     std::min<size_t>(7, stream.size() - pos));
    net::FrameHeader header;
    std::vector<uint8_t> payload;
    for (;;) {
      auto got = assembler.Next(&header, &payload);
      ASSERT_TRUE(got.ok());
      if (!*got) break;
      auto pending = matcher.Match(header.request_id);
      ASSERT_TRUE(pending.has_value());
      EXPECT_EQ(pending->scheduled_ns,
                static_cast<int64_t>(header.request_id * 100));
      auto reply = net::DecodeQueryReply(payload);
      ASSERT_TRUE(reply.ok());
      EXPECT_EQ(reply->value, static_cast<double>(header.request_id) * 0.5);
      order.push_back(header.request_id);
    }
  }
  EXPECT_EQ(order, (std::vector<uint64_t>{4, 1, 5, 2, 3}));
  EXPECT_EQ(matcher.outstanding(), 0u);
  EXPECT_FALSE(matcher.Match(4).has_value());  // a duplicate reply
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(ReplyMatchingTest, CorruptFrameIsAnError) {
  auto frame = ReplyFrame(9, 1.0);
  frame[frame.size() - 1] ^= 0xff;  // break the CRC trailer
  FrameAssembler assembler;
  assembler.Append(frame.data(), frame.size());
  net::FrameHeader header;
  std::vector<uint8_t> payload;
  EXPECT_FALSE(assembler.Next(&header, &payload).ok());
}

TEST(WorkloadTest, KeyPermutationIsABijection) {
  const KeyPermutation perm(12, 42);
  std::set<uint64_t> seen;
  for (uint64_t x = 0; x < 4096; ++x) {
    const uint64_t y = perm(x);
    ASSERT_LT(y, 4096u);
    seen.insert(y);
  }
  EXPECT_EQ(seen.size(), 4096u);
}

TEST(WorkloadTest, SameSeedSameOps) {
  const KeyPermutation perm(8, 1);
  OpSource a(4, KeyDist::kZipf, &perm, 7), b(4, KeyDist::kZipf, &perm, 7);
  int kinds[kOpKinds] = {0, 0, 0};
  for (int i = 0; i < 2000; ++i) {
    const Op x = a.Next(), y = b.Next();
    ASSERT_EQ(x.kind, y.kind);
    ASSERT_EQ(x.lo[0], y.lo[0]);
    ASSERT_EQ(x.hi[1], y.hi[1]);
    ASSERT_EQ(x.delta, y.delta);
    ++kinds[static_cast<int>(x.kind)];
    if (x.kind == OpKind::kSum) {
      ASSERT_LE(x.lo[0], x.hi[0]);
      ASSERT_LT(x.hi[0], 16u);
    }
  }
  EXPECT_NEAR(kinds[0], 1600, 120);
  EXPECT_NEAR(kinds[1], 200, 60);
  EXPECT_NEAR(kinds[2], 200, 60);
}

TEST(WorkloadTest, ModelBoxSumMatchesDirectSum) {
  DenseModel model(4, 0.3);
  model.Add(3, 5, 7);
  model.Add(0, 0, -2);
  model.BuildPrefix();
  const uint64_t lo[2] = {0, 2}, hi[2] = {9, 13};
  int64_t direct = 0;
  for (uint64_t x = lo[0]; x <= hi[0]; ++x) {
    for (uint64_t y = lo[1]; y <= hi[1]; ++y) direct += model.At(x, y);
  }
  EXPECT_EQ(model.BoxSum(lo, hi), direct);
}

}  // namespace
}  // namespace perfbench
