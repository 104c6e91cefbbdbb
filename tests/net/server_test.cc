// Live-socket suite for the network front-end (DESIGN.md §13): end-to-end
// bit-identity of TCP answers vs in-process answers across drain states,
// degraded answers' bounds over the wire, deadline mapping, admission
// control, hostile frames, graceful shutdown and crash recovery of
// acknowledged writes.
//
// Every test binds an ephemeral loopback port, so suites run concurrently.
// Bit-identity feeds dyadic-exact deltas, like the sharded suite: with them
// every intermediate is exactly representable, so a bitwise mismatch
// between the socket path and the in-process path is a genuine protocol or
// routing bug, not rounding.

#include "shiftsplit/net/cube_server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "shiftsplit/core/wavelet_cube.h"
#include "shiftsplit/net/cube_client.h"
#include "shiftsplit/net/cube_registry.h"
#include "shiftsplit/net/wire.h"
#include "shiftsplit/service/serving_cube.h"
#include "shiftsplit/service/sharded_cube.h"
#include "shiftsplit/storage/memory_block_manager.h"
#include "shiftsplit/tile/standard_tiling.h"
#include "shiftsplit/util/random.h"
#include "shiftsplit/wavelet/wavelet_index.h"
#include "storage/fault_injection_block_manager.h"
#include "testing.h"

namespace shiftsplit {
namespace net {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

std::filesystem::path MakeTempDir(const char* tag) {
  auto dir = std::filesystem::temp_directory_path() /
             (std::string("shiftsplit_net_") + tag + "_" +
              std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Opens an on-disk monolithic serving cube under a fresh temp dir.
struct MonoFixture {
  std::filesystem::path dir;
  std::shared_ptr<ServingCube> serving;

  static MonoFixture Create(const char* tag, std::vector<uint32_t> log_dims,
                            const ServingCube::Options& options) {
    MonoFixture f;
    f.dir = MakeTempDir(tag);
    WaveletCube::Options cube_options;
    auto cube = WaveletCube::CreateOnDisk(f.dir.string(), std::move(log_dims),
                                          cube_options);
    if (!cube.ok()) {
      ADD_FAILURE() << cube.status();
      return f;
    }
    auto serving =
        ServingCube::AttachDurable(std::move(*cube), f.dir.string(), options);
    if (!serving.ok()) {
      ADD_FAILURE() << serving.status();
      return f;
    }
    f.serving = std::shared_ptr<ServingCube>(std::move(*serving));
    return f;
  }
};

/// A running server over a shared registry, torn down in reverse order.
struct ServerFixture {
  std::shared_ptr<CubeRegistry> registry;
  std::unique_ptr<CubeServer> server;

  static ServerFixture Start(CubeServer::Options options = {}) {
    ServerFixture f;
    f.registry = std::make_shared<CubeRegistry>();
    options.num_threads = options.num_threads == 0 ? 2 : options.num_threads;
    f.server = std::make_unique<CubeServer>(f.registry, options);
    const Status st = f.server->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
    return f;
  }

  CubeClient Client(CubeClient::Options options = {}) const {
    return CubeClient("127.0.0.1", server->port(), options);
  }
};

CubeClient::Options NoRetry() {
  CubeClient::Options options;
  options.retry.max_retries = 0;
  return options;
}

// ---------------------------------------------------------------------------
// Lifecycle.

TEST(CubeServerTest, StartPingStopIsCleanAndIdempotent) {
  auto fx = ServerFixture::Start();
  ASSERT_NE(fx.server->port(), 0);
  auto client = fx.Client();
  ASSERT_OK(client.Ping());
  ASSERT_OK(client.Ping());

  ASSERT_OK_AND_ASSIGN(const StatsReply stats, client.Stats());
  uint64_t requests = 0;
  bool saw_open_cubes = false;
  for (const auto& [key, value] : stats.counters) {
    if (key == "requests") requests = value;
    if (key == "open_cubes") {
      saw_open_cubes = true;
      EXPECT_EQ(value, 0u);
    }
  }
  EXPECT_GE(requests, 2u);
  EXPECT_TRUE(saw_open_cubes);

  fx.server->Stop();
  fx.server->Stop();  // idempotent
  auto late = fx.Client(NoRetry());
  EXPECT_FALSE(late.Ping().ok());
}

TEST(CubeServerTest, MissingCubeSurfacesNotFoundOverTheWire) {
  auto fx = ServerFixture::Start();
  auto client = fx.Client(NoRetry());
  const std::vector<uint64_t> p{0, 0};
  const auto result = client.Point("nope", p);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  // The server stayed healthy: an application error is not a protocol one.
  ASSERT_OK(client.Ping());
  EXPECT_EQ(fx.server->stats().protocol_errors, 0u);
}

TEST(CubeServerTest, OpenAndCloseCubeThroughTheRegistryLifecycle) {
  ServingCube::Options serving_options;
  serving_options.start_workers = false;
  auto mono = MonoFixture::Create("openclose", {3, 3}, serving_options);
  ASSERT_OK(mono.serving->Close());
  mono.serving.reset();

  auto fx = ServerFixture::Start();
  fx.registry->Configure("t", mono.dir.string());

  auto client = fx.Client(NoRetry());
  const std::vector<uint64_t> p{1, 2};
  // Not opened yet: queries miss, open is lazy via the wire op.
  EXPECT_EQ(client.Point("t", p).status().code(), StatusCode::kNotFound);
  ASSERT_OK(client.OpenCube("t"));
  ASSERT_OK(client.OpenCube("t"));  // reopen returns the live handle
  ASSERT_OK_AND_ASSIGN(const double v, client.Point("t", p));
  EXPECT_EQ(Bits(v), Bits(0.0));
  ASSERT_OK(client.CloseCube("t"));
  EXPECT_EQ(client.Point("t", p).status().code(), StatusCode::kNotFound);
  fx.server->Stop();
}

// ---------------------------------------------------------------------------
// End-to-end bit-identity: for the same seeded workload, TCP answers equal
// the in-process answers on the very same cube instance, bit for bit — in
// the fully-buffered state, mid-stream, and after a full drain.

TEST(CubeServerTest, TcpAnswersAreBitIdenticalToInProcessAcrossDrainStates) {
  ServingCube::Options serving_options;
  serving_options.start_workers = false;  // drain only when the test says so
  auto mono = MonoFixture::Create("bitid", {4, 3}, serving_options);

  auto fx = ServerFixture::Start();
  ASSERT_OK(
      fx.registry->Insert("cube", ServeHandle::Wrap(mono.serving)));
  auto client = fx.Client();

  Xoshiro256 rng(0x6e657431);
  auto check_all = [&](const char* state) {
    for (uint64_t x = 0; x < 16; ++x) {
      for (uint64_t y = 0; y < 8; ++y) {
        const std::vector<uint64_t> p{x, y};
        ASSERT_OK_AND_ASSIGN(const double over_tcp, client.Point("cube", p));
        ASSERT_OK_AND_ASSIGN(const double in_process,
                             mono.serving->PointQuery(p));
        ASSERT_EQ(Bits(over_tcp), Bits(in_process))
            << state << " point (" << x << "," << y << ")";
      }
    }
    for (int i = 0; i < 16; ++i) {
      std::vector<uint64_t> lo{rng.NextBounded(16), rng.NextBounded(8)};
      std::vector<uint64_t> hi{lo[0] + rng.NextBounded(16 - lo[0]),
                               lo[1] + rng.NextBounded(8 - lo[1])};
      ASSERT_OK_AND_ASSIGN(const double over_tcp,
                           client.Sum("cube", lo, hi));
      ASSERT_OK_AND_ASSIGN(const double in_process,
                           mono.serving->RangeSum(lo, hi));
      ASSERT_EQ(Bits(over_tcp), Bits(in_process)) << state << " sum " << i;
    }
  };

  // Phase 1: writes over TCP, everything still buffered.
  for (int i = 0; i < 48; ++i) {
    const std::vector<uint64_t> c{rng.NextBounded(16), rng.NextBounded(8)};
    const double delta =
        static_cast<double>(static_cast<int64_t>(rng.NextBounded(17)) - 8);
    ASSERT_OK(client.Add("cube", c, delta));
  }
  const std::vector<uint64_t> origin{4, 2};
  const std::vector<uint64_t> dims{4, 2};
  std::vector<double> values;
  for (int i = 0; i < 8; ++i) {
    values.push_back(
        static_cast<double>(static_cast<int64_t>(rng.NextBounded(9)) - 4));
  }
  ASSERT_OK(client.Update("cube", origin, dims, values));
  EXPECT_GT(mono.serving->pending_deltas(), 0u);
  check_all("buffered");

  // Phase 2: fully drained.
  ASSERT_OK(mono.serving->DrainAll());
  EXPECT_EQ(mono.serving->pending_deltas(), 0u);
  check_all("drained");

  // Phase 3: drained store plus a fresh buffered tail.
  for (int i = 0; i < 24; ++i) {
    const std::vector<uint64_t> c{rng.NextBounded(16), rng.NextBounded(8)};
    const double delta =
        static_cast<double>(static_cast<int64_t>(rng.NextBounded(17)) - 8);
    ASSERT_OK(client.Add("cube", c, delta));
  }
  EXPECT_GT(mono.serving->pending_deltas(), 0u);
  check_all("mixed");

  // The per-cube stats reply carries every ServingStats counter under its
  // member name, plus health, poison code and shard count, each equal to
  // the in-process snapshot (nothing touches the cube in between).
  ASSERT_OK_AND_ASSIGN(const StatsReply reply, client.Stats("cube"));
  const ServingStats in_process = mono.serving->stats();
  std::map<std::string, uint64_t> want;
  for (const ServingCounter& counter : kServingCounters) {
    want[counter.name] = in_process.*counter.member;
  }
  want["health"] = static_cast<uint64_t>(in_process.health);
  want["poison_code"] = StatusCodeToWire(in_process.poison_code);
  want["num_shards"] = 1;
  const std::map<std::string, uint64_t> got(reply.counters.begin(),
                                            reply.counters.end());
  EXPECT_EQ(reply.counters.size(), want.size());
  EXPECT_EQ(got, want);

  fx.server->Stop();
  ASSERT_OK(fx.registry->CloseAll());
}

// ---------------------------------------------------------------------------
// Degraded answers: a sharded cube with a crashed shard answers an
// approx-tolerant query over TCP with the same value, bound and skip set as
// the in-process degradable path — bit-identically — while the exact path
// surfaces kUnavailable without collapsing the code.

TEST(CubeServerTest, DegradedShardedAnswersTravelWithTheirBounds) {
  auto dir = MakeTempDir("degraded");
  ShardedCube::Options options;
  options.supervise = false;  // a crashed shard must stay down
  options.serving.oversubscribe = true;
  WaveletCube::Options cube_options;
  auto created = ShardedCube::CreateOnDisk(dir.string(), {5, 3}, 4,
                                           cube_options, options);
  ASSERT_TRUE(created.ok()) << created.status();
  std::shared_ptr<ShardedCube> sharded(std::move(*created));

  Xoshiro256 rng(0x6e657432);
  for (int i = 0; i < 96; ++i) {
    const std::vector<uint64_t> c{rng.NextBounded(32), rng.NextBounded(8)};
    const double delta =
        static_cast<double>(static_cast<int64_t>(rng.NextBounded(17)) - 8);
    ASSERT_OK(sharded->Add(c, delta));
  }
  ASSERT_OK(sharded->DrainAll());
  ASSERT_OK(sharded->shard_for_test(1)->CrashForTest());

  auto fx = ServerFixture::Start();
  ASSERT_OK(fx.registry->Insert("s", ServeHandle::Wrap(sharded)));
  auto client = fx.Client(NoRetry());

  const std::vector<uint64_t> lo{0, 0};
  const std::vector<uint64_t> hi{31, 7};
  const double inf = std::numeric_limits<double>::infinity();
  ASSERT_OK_AND_ASSIGN(const DegradedResult over_tcp,
                       client.SumDegraded("s", lo, hi, inf));
  QueryOptions in_process_options;
  in_process_options.max_error = inf;
  ASSERT_OK_AND_ASSIGN(const DegradedResult in_process,
                       sharded->RangeSum(lo, hi, in_process_options));
  EXPECT_FALSE(over_tcp.exact());
  EXPECT_EQ(Bits(over_tcp.value), Bits(in_process.value));
  EXPECT_EQ(Bits(over_tcp.error_bound), Bits(in_process.error_bound));
  EXPECT_EQ(over_tcp.reason, in_process.reason);
  EXPECT_EQ(over_tcp.shards_missing, in_process.shards_missing);
  ASSERT_EQ(over_tcp.shards_missing.size(), 1u);
  EXPECT_EQ(over_tcp.shards_missing[0], 1u);
  // track_energy gives a finite bound; it must survive the wire as-is.
  EXPECT_TRUE(std::isfinite(over_tcp.error_bound));

  // The exact path refuses — and the code crosses the wire untouched.
  const auto exact = client.Sum("s", lo, hi);
  ASSERT_FALSE(exact.ok());
  EXPECT_EQ(exact.status().code(), StatusCode::kUnavailable);

  // A point on a healthy shard still answers exactly over TCP.
  const std::vector<uint64_t> healthy_point{2, 3};  // shard 0
  ASSERT_OK_AND_ASSIGN(const double v, client.Point("s", healthy_point));
  ASSERT_OK_AND_ASSIGN(const double w, sharded->PointQuery(healthy_point));
  EXPECT_EQ(Bits(v), Bits(w));

  fx.server->Stop();
}

// An Update box spanning a serving shard and a crashed one is refused
// whole. The client retries the refusal (an error frame means "not
// applied"), so a box applied in part would land on the serving shard once
// per attempt.
TEST(CubeServerTest, RefusedShardedUpdateAppliesNoCellAcrossRetries) {
  auto dir = MakeTempDir("refusedbox");
  ShardedCube::Options options;
  options.supervise = false;  // a crashed shard must stay down
  options.serving.start_workers = false;
  WaveletCube::Options cube_options;
  auto created = ShardedCube::CreateOnDisk(dir.string(), {4, 3}, 2,
                                           cube_options, options);
  ASSERT_TRUE(created.ok()) << created.status();
  std::shared_ptr<ShardedCube> sharded(std::move(*created));
  ASSERT_OK(sharded->shard_for_test(1)->CrashForTest());

  auto fx = ServerFixture::Start();
  ASSERT_OK(fx.registry->Insert("s", ServeHandle::Wrap(sharded)));
  auto client = fx.Client();  // default retries
  const std::vector<uint64_t> origin{6, 0};  // cells 6, 7 | 8, 9
  const std::vector<uint64_t> dims{4, 1};
  const std::vector<double> ones(4, 1.0);
  EXPECT_EQ(client.Update("s", origin, dims, ones).code(),
            StatusCode::kUnavailable);
  ASSERT_OK_AND_ASSIGN(const double value, sharded->PointQuery(origin));
  EXPECT_EQ(Bits(value), Bits(0.0));

  fx.server->Stop();
  std::filesystem::remove_all(dir);
}

// Block-level degradation reaches the wire for monolithic cubes too: with
// one failing block, approx-tolerant point and range queries over TCP carry
// the same value, bound, reason and skip count as the in-process
// QueryOptions overloads — one evaluator behind both — while exact queries
// fail with the failed fetch's own code.
TEST(CubeServerTest, DegradedMonolithicAnswersTravelWithTheirBounds) {
  const std::vector<uint32_t> log_dims{4, 3};
  WaveletCube::Options cube_options;
  MemoryBlockManager device(
      StandardTiling(log_dims, cube_options.b).block_capacity());
  testing::FaultInjectionBlockManager faults(&device);
  cube_options.device = &faults;
  auto dir = MakeTempDir("mono_degraded");
  ServingCube::Options serving_options;
  serving_options.start_workers = false;
  ASSERT_OK_AND_ASSIGN(auto cube,
                       WaveletCube::CreateInMemory(log_dims, cube_options));
  ASSERT_OK_AND_ASSIGN(auto attached,
                       ServingCube::AttachDurable(std::move(cube), dir.string(),
                                                  serving_options));
  std::shared_ptr<ServingCube> serving(std::move(attached));

  Xoshiro256 rng(0x6d6f6e6f);
  for (int i = 0; i < 64; ++i) {
    const std::vector<uint64_t> c{rng.NextBounded(16), rng.NextBounded(8)};
    const double delta =
        static_cast<double>(static_cast<int64_t>(rng.NextBounded(17)) - 8);
    ASSERT_OK(serving->Add(c, delta));
  }
  ASSERT_OK(serving->DrainAll());
  ASSERT_OK(serving->cube()->EnableEnergyTracking());
  const std::vector<uint64_t> point{5, 3};
  ASSERT_OK(serving->Add(point, 2.5));  // a pending tail on the bad block

  // Fail the block a scaling-slot query of `point` reads (the tile
  // combination holding its finest-level details); range sums from `point`
  // cross it too.
  TiledStore* store = serving->cube()->store();
  const std::vector<uint64_t> finest{
      DetailIndex(log_dims[0], 1, point[0] >> 1),
      DetailIndex(log_dims[1], 1, point[1] >> 1)};
  ASSERT_OK_AND_ASSIGN(const BlockSlot home, store->layout().Locate(finest));
  ASSERT_OK(store->pool().Clear());
  faults.InjectReadStatus(home.block,
                          Status::ChecksumMismatch("injected bit rot"));

  auto fx = ServerFixture::Start();
  ASSERT_OK(fx.registry->Insert("m", ServeHandle::Wrap(serving)));
  auto client = fx.Client(NoRetry());
  const double inf = std::numeric_limits<double>::infinity();
  const auto expect_same = [](const DegradedResult& over_tcp,
                              const DegradedResult& in_process) {
    EXPECT_EQ(over_tcp.reason, DegradedReason::kQuarantined);
    EXPECT_GE(over_tcp.blocks_missing, 1u);
    EXPECT_TRUE(over_tcp.shards_missing.empty());
    EXPECT_TRUE(std::isfinite(over_tcp.error_bound));
    EXPECT_EQ(Bits(over_tcp.value), Bits(in_process.value));
    EXPECT_EQ(Bits(over_tcp.error_bound), Bits(in_process.error_bound));
    EXPECT_EQ(over_tcp.reason, in_process.reason);
    EXPECT_EQ(over_tcp.blocks_missing, in_process.blocks_missing);
  };

  // The wire answers points with the scaling-slot strategy.
  QueryOptions point_options;
  point_options.use_scaling_slots = true;
  point_options.max_error = inf;
  ASSERT_OK_AND_ASSIGN(const DegradedResult point_tcp,
                       client.PointDegraded("m", point, inf));
  ASSERT_OK_AND_ASSIGN(const DegradedResult point_local,
                       serving->PointQuery(point, point_options));
  expect_same(point_tcp, point_local);

  const std::vector<uint64_t> hi{15, 7};
  QueryOptions sum_options;
  sum_options.max_error = inf;
  ASSERT_OK_AND_ASSIGN(const DegradedResult sum_tcp,
                       client.SumDegraded("m", point, hi, inf));
  ASSERT_OK_AND_ASSIGN(const DegradedResult sum_local,
                       serving->RangeSum(point, hi, sum_options));
  expect_same(sum_tcp, sum_local);

  // max_error 0 is exact: the failed fetch's code crosses the wire as-is.
  EXPECT_EQ(client.Point("m", point).status().code(),
            StatusCode::kChecksumMismatch);
  EXPECT_EQ(client.Sum("m", point, hi).status().code(),
            StatusCode::kChecksumMismatch);

  fx.server->Stop();
  faults.ClearAllReadStatus();
  ASSERT_OK(serving->Close());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Deadlines: the frame's deadline_ms is anchored at frame arrival, so a
// request that out-waits its budget in the queue is answered
// kDeadlineExceeded before any cube work.

TEST(CubeServerTest, DeadlineExpiredBeforeDispatchIsCounted) {
  CubeServer::Options options;
  options.dispatch_delay_for_test = std::chrono::milliseconds(60);
  auto fx = ServerFixture::Start(options);
  auto client = fx.Client(NoRetry());

  const Status st = client.Ping(/*deadline_ms=*/10);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  EXPECT_GE(fx.server->stats().deadline_expired_before_dispatch, 1u);

  // Without a deadline the same delayed request succeeds.
  ASSERT_OK(client.Ping());
  fx.server->Stop();
}

// ---------------------------------------------------------------------------
// Admission control: a request beyond max_inflight_requests bounces with an
// immediate kUnavailable error frame while the connection stays healthy.

TEST(CubeServerTest, SaturatedAdmissionFastRejectsWithUnavailable) {
  CubeServer::Options options;
  options.max_inflight_requests = 1;
  options.num_threads = 2;
  options.dispatch_delay_for_test = std::chrono::milliseconds(400);
  auto fx = ServerFixture::Start(options);

  // Connections are handed to the loops round-robin and loop 0 also owns
  // the listener, so pin an idle connection onto loop 0 first: the slow
  // request then blocks loop 1 while loop 0 stays free to accept and serve
  // the probe below.
  auto pin = fx.Client(NoRetry());
  ASSERT_OK(pin.Ping());

  // Occupy the only in-flight slot from loop 1 (its thread sleeps in
  // dispatch while holding the admission ticket).
  std::atomic<bool> slow_done{false};
  std::thread slow([&] {
    auto c = fx.Client(NoRetry());
    EXPECT_OK(c.Ping());
    slow_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  auto probe = fx.Client(NoRetry());
  const Status st = probe.Ping();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  slow.join();
  EXPECT_TRUE(slow_done.load());
  EXPECT_GE(fx.server->stats().rejected_at_admission, 1u);

  // The bounced connection is still healthy once the pressure clears.
  ASSERT_OK(probe.Ping());
  fx.server->Stop();
}

TEST(CubeServerTest, ConnectionCapAcceptsAndImmediatelyCloses) {
  CubeServer::Options options;
  options.max_connections = 1;
  auto fx = ServerFixture::Start(options);

  auto first = fx.Client(NoRetry());
  ASSERT_OK(first.Ping());  // holds the only slot

  auto second = fx.Client(NoRetry());
  const Status st = second.Ping();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EXPECT_GE(fx.server->stats().connections_rejected, 1u);

  // The admitted connection keeps serving.
  ASSERT_OK(first.Ping());
  fx.server->Stop();
}

// ---------------------------------------------------------------------------
// Hostile frames. Each case runs on a fresh raw socket; afterwards the
// server must still serve and the cube must be unpoisoned.

class RawSocket {
 public:
  explicit RawSocket(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawSocket() { Close(); }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool connected() const { return connected_; }

  void Send(std::span<const uint8_t> bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<size_t>(n);
    }
  }

  /// True when the server closed the connection (recv == 0) within the
  /// receive timeout.
  bool WaitForClose() {
    uint8_t buf[64];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
      // Drain whatever the server wrote before it closed.
    }
  }

  /// Reads one full frame; empty on failure.
  std::vector<uint8_t> RecvFrame() {
    std::vector<uint8_t> frame(kHeaderSize);
    if (!RecvAll(frame.data(), kHeaderSize)) return {};
    const auto header = DecodeHeader(frame);
    if (!header.ok()) return {};
    frame.resize(kHeaderSize + header->payload_len + kTrailerSize);
    if (!RecvAll(frame.data() + kHeaderSize,
                 header->payload_len + kTrailerSize)) {
      return {};
    }
    return frame;
  }

 private:
  bool RecvAll(uint8_t* buf, size_t size) {
    size_t off = 0;
    while (off < size) {
      const ssize_t n = ::recv(fd_, buf + off, size - off, 0);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
};

TEST(CubeServerTest, HostileFramesCloseTheConnectionWithoutPoisoningAnything) {
  ServingCube::Options serving_options;
  serving_options.start_workers = false;
  auto mono = MonoFixture::Create("hostile", {3, 3}, serving_options);

  auto fx = ServerFixture::Start();
  ASSERT_OK(fx.registry->Insert("cube", ServeHandle::Wrap(mono.serving)));
  auto client = fx.Client();
  const std::vector<uint64_t> cell{1, 1};
  ASSERT_OK(client.Add("cube", cell, 2.5));

  FrameHeader ping;
  ping.opcode = Opcode::kPing;
  ping.request_id = 7;
  const auto good = EncodeFrame(ping, {});

  uint64_t expected_protocol_errors = 0;

  {  // Bad magic: close, no reply.
    RawSocket s(fx.server->port());
    ASSERT_TRUE(s.connected());
    auto frame = good;
    frame[0] ^= 0xff;
    s.Send(frame);
    EXPECT_TRUE(s.WaitForClose());
    ++expected_protocol_errors;
  }
  {  // Oversized payload_len: close before any allocation.
    RawSocket s(fx.server->port());
    ASSERT_TRUE(s.connected());
    auto frame = good;
    frame[20] = 0xff;
    frame[21] = 0xff;
    frame[22] = 0xff;
    frame[23] = 0x7f;
    s.Send(frame);
    EXPECT_TRUE(s.WaitForClose());
    ++expected_protocol_errors;
  }
  {  // CRC mismatch on a full frame: close.
    RawSocket s(fx.server->port());
    ASSERT_TRUE(s.connected());
    auto frame = good;
    frame[kHeaderSize] ^= 0x01;  // first CRC trailer byte (empty payload)
    s.Send(frame);
    EXPECT_TRUE(s.WaitForClose());
    ++expected_protocol_errors;
  }
  {  // Truncated header + disconnect: a clean close, not a protocol error.
    RawSocket s(fx.server->port());
    ASSERT_TRUE(s.connected());
    s.Send(std::span(good.data(), 10));
    s.Close();
  }
  {  // Mid-frame disconnect after a valid header: same.
    FrameHeader big;
    big.opcode = Opcode::kAdd;
    const auto frame = EncodeFrame(big, std::vector<uint8_t>(64, 0));
    RawSocket s(fx.server->port());
    ASSERT_TRUE(s.connected());
    s.Send(std::span(frame.data(), kHeaderSize + 16));
    s.Close();
  }
  {  // Unknown opcode, well-framed: error reply, connection survives.
    RawSocket s(fx.server->port());
    ASSERT_TRUE(s.connected());
    FrameHeader unknown;
    unknown.opcode = static_cast<Opcode>(42);
    unknown.request_id = 9;
    s.Send(EncodeFrame(unknown, {}));
    const auto reply = s.RecvFrame();
    ASSERT_FALSE(reply.empty());
    ASSERT_OK(VerifyFrame(reply));
    ASSERT_OK_AND_ASSIGN(const FrameHeader reply_header, DecodeHeader(reply));
    EXPECT_EQ(reply_header.opcode, Opcode::kError);
    EXPECT_EQ(reply_header.request_id, 9u);
    ASSERT_OK_AND_ASSIGN(
        const ErrorReply remote,
        DecodeErrorReply(std::span(reply.data() + kHeaderSize,
                                   reply_header.payload_len)));
    EXPECT_EQ(remote.status.code(), StatusCode::kInvalidArgument);
    // Same connection still speaks the protocol.
    s.Send(good);
    const auto pong = s.RecvFrame();
    ASSERT_FALSE(pong.empty());
    ASSERT_OK_AND_ASSIGN(const FrameHeader pong_header, DecodeHeader(pong));
    EXPECT_EQ(pong_header.opcode, Opcode::kReply);
    EXPECT_EQ(pong_header.request_id, 7u);
  }

  // Give the loops a beat to retire the closed connections.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_GE(fx.server->stats().protocol_errors, expected_protocol_errors);

  // The server still serves, and no hostile byte reached the cube: it is
  // healthy and the acked delta still reads back exactly.
  ASSERT_OK(client.Ping());
  EXPECT_EQ(mono.serving->health(), ShardHealth::kHealthy);
  ASSERT_OK_AND_ASSIGN(const double v, client.Point("cube", cell));
  EXPECT_EQ(Bits(v), Bits(2.5));

  fx.server->Stop();
  ASSERT_OK(fx.registry->CloseAll());
}

// ---------------------------------------------------------------------------
// Ack durability: a write acknowledged over TCP survives kill -9 — the
// reopened cube serves it even though the dirty pages never hit the disk.

TEST(CubeServerTest, AcknowledgedWritesSurviveACrashBetweenAckAndDrain) {
  ServingCube::Options serving_options;
  serving_options.start_workers = false;  // nothing drains: pure log replay
  auto mono = MonoFixture::Create("ackcrash", {4, 3}, serving_options);

  auto fx = ServerFixture::Start();
  ASSERT_OK(fx.registry->Insert("c", ServeHandle::Wrap(mono.serving)));
  auto client = fx.Client();

  const std::vector<uint64_t> cell{9, 4};
  ASSERT_OK(client.Add("c", cell, 1.25));
  const std::vector<uint64_t> origin{2, 2};
  const std::vector<uint64_t> dims{2, 2};
  const std::vector<double> values{0.5, -0.25, 4.0, 0.0};
  ASSERT_OK(client.Update("c", origin, dims, values));

  // kill -9 between the acks and any drain; the registry entry dies with
  // the process image.
  ASSERT_OK(mono.serving->CrashForTest());
  (void)fx.registry->CloseCube("c");  // poisoned close may fail; name is gone
  mono.serving.reset();

  // "Restart": reopen the directory through crash recovery + delta-log
  // replay, re-register, and read the acknowledged writes back over TCP.
  auto reopened = ServingCube::OpenOnDisk(mono.dir.string(), 256);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  std::shared_ptr<ServingCube> serving(std::move(*reopened));
  ASSERT_OK(fx.registry->Insert("c", ServeHandle::Wrap(serving)));

  ASSERT_OK_AND_ASSIGN(const double v, client.Point("c", cell));
  EXPECT_EQ(Bits(v), Bits(1.25));
  const std::vector<uint64_t> box_hi{3, 3};
  ASSERT_OK_AND_ASSIGN(const double box, client.Sum("c", origin, box_hi));
  EXPECT_EQ(Bits(box), Bits(0.5 - 0.25 + 4.0));

  fx.server->Stop();
  ASSERT_OK(fx.registry->CloseAll());
}

// ---------------------------------------------------------------------------
// Graceful drain: Stop() finishes in-flight work, flushes pending response
// bytes, and leaves the registry's cubes to their owner.

TEST(CubeServerTest, StopDrainsInFlightRepliesBeforeClosing) {
  ServingCube::Options serving_options;
  serving_options.start_workers = false;
  auto mono = MonoFixture::Create("drain", {3, 3}, serving_options);

  CubeServer::Options options;
  options.dispatch_delay_for_test = std::chrono::milliseconds(80);
  auto fx = ServerFixture::Start(options);
  ASSERT_OK(fx.registry->Insert("c", ServeHandle::Wrap(mono.serving)));

  // A request in flight while Stop() runs must still be answered: the drain
  // waits for the handler and flushes the reply before the close.
  std::atomic<bool> got_reply{false};
  std::thread in_flight([&] {
    auto c = fx.Client(NoRetry());
    const std::vector<uint64_t> cell{1, 1};
    const Status st = c.Add("c", cell, 3.0);
    got_reply.store(st.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  fx.server->Stop();
  in_flight.join();
  EXPECT_TRUE(got_reply.load());

  // The cube outlives the server — the acked write is in the buffer.
  ASSERT_OK_AND_ASSIGN(const double v,
                       mono.serving->PointQuery(std::vector<uint64_t>{1, 1}));
  EXPECT_EQ(Bits(v), Bits(3.0));
  ASSERT_OK(fx.registry->CloseAll());
}

}  // namespace
}  // namespace net
}  // namespace shiftsplit
