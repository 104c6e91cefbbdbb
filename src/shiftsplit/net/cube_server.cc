#include "shiftsplit/net/cube_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "shiftsplit/wavelet/tensor.h"

namespace shiftsplit {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

// epoll_event.data.u64 tags: connections are pointers (aligned, so never
// these small values).
constexpr uint64_t kTagListen = 0;
constexpr uint64_t kTagWake = 1;

int OpIndex(Opcode op) {
  switch (op) {
    case Opcode::kPing:
      return static_cast<int>(TrackedOp::kPing);
    case Opcode::kOpenCube:
      return static_cast<int>(TrackedOp::kOpenCube);
    case Opcode::kCloseCube:
      return static_cast<int>(TrackedOp::kCloseCube);
    case Opcode::kPoint:
      return static_cast<int>(TrackedOp::kPoint);
    case Opcode::kSum:
      return static_cast<int>(TrackedOp::kSum);
    case Opcode::kAdd:
      return static_cast<int>(TrackedOp::kAdd);
    case Opcode::kUpdate:
      return static_cast<int>(TrackedOp::kUpdate);
    case Opcode::kStats:
      return static_cast<int>(TrackedOp::kStats);
    default:
      return -1;
  }
}

/// ServingStats → flat counters for the per-cube `stats` reply: every
/// counter under its member name, then the health rank and the poison code
/// as numbers, so the client needs no enum tables.
void FlattenServingStats(const ServingStats& s, StatsReply* out) {
  for (const ServingCounter& counter : kServingCounters) {
    out->counters.emplace_back(counter.name, s.*counter.member);
  }
  out->counters.emplace_back("health", static_cast<uint64_t>(s.health));
  out->counters.emplace_back("poison_code", StatusCodeToWire(s.poison_code));
}

}  // namespace

const char* TrackedOpName(TrackedOp op) {
  switch (op) {
    case TrackedOp::kPing:
      return "ping";
    case TrackedOp::kOpenCube:
      return "open";
    case TrackedOp::kCloseCube:
      return "close";
    case TrackedOp::kPoint:
      return "point";
    case TrackedOp::kSum:
      return "sum";
    case TrackedOp::kAdd:
      return "add";
    case TrackedOp::kUpdate:
      return "update";
    case TrackedOp::kStats:
      return "stats";
  }
  return "unknown";
}

std::vector<std::pair<std::string, uint64_t>> ServerStats::Flatten() const {
  std::vector<std::pair<std::string, uint64_t>> out;
  auto put = [&out](std::string key, uint64_t value) {
    out.emplace_back(std::move(key), value);
  };
  put("connections_accepted", connections_accepted);
  put("connections_active", connections_active);
  put("connections_rejected", connections_rejected);
  put("requests", requests);
  put("responses", responses);
  put("error_responses", error_responses);
  put("rejected_at_admission", rejected_at_admission);
  put("deadline_expired_before_dispatch", deadline_expired_before_dispatch);
  put("frames_in", frames_in);
  put("frames_out", frames_out);
  put("bytes_in", bytes_in);
  put("bytes_out", bytes_out);
  put("protocol_errors", protocol_errors);
  for (size_t op = 0; op < kTrackedOps; ++op) {
    for (size_t b = 0; b < kLatencyBuckets; ++b) {
      if (latency[op][b] == 0) continue;
      std::string key = "rt_";
      key += TrackedOpName(static_cast<TrackedOp>(op));
      key += "_le_";
      key += b < std::size(kLatencyBucketUs)
                 ? std::to_string(kLatencyBucketUs[b]) + "us"
                 : "inf";
      put(std::move(key), latency[op][b]);
    }
  }
  return out;
}

CubeServer::CubeServer(std::shared_ptr<CubeRegistry> registry,
                       const Options& options)
    : registry_(std::move(registry)), options_(options) {}

CubeServer::~CubeServer() { Stop(); }

Status CubeServer::Start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (running_.load()) return Status::OK();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    Status st = Status::IOError(std::string("bind/listen ") + options_.host +
                                ": " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  uint32_t threads = options_.num_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  stopping_.store(false);
  loops_.clear();
  for (uint32_t i = 0; i < threads; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->wake_fd < 0) {
      for (auto& l : loops_) {
        if (l->epoll_fd >= 0) ::close(l->epoll_fd);
        if (l->wake_fd >= 0) ::close(l->wake_fd);
      }
      if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
      if (loop->wake_fd >= 0) ::close(loop->wake_fd);
      loops_.clear();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return Status::IOError("epoll/eventfd setup failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTagWake;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
    loops_.push_back(std::move(loop));
  }
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTagListen;
    ::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
  }
  running_.store(true);
  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->thread = std::thread([this, i] { LoopMain(i); });
  }
  return Status::OK();
}

void CubeServer::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (!running_.load()) return;
  stopping_.store(true);
  for (auto& loop : loops_) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(loop->wake_fd, &one, sizeof(one));
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& loop : loops_) {
    ::close(loop->epoll_fd);
    ::close(loop->wake_fd);
  }
  loops_.clear();
  running_.store(false);
}

void CubeServer::LoopMain(size_t index) {
  Loop* loop = loops_[index].get();
  epoll_event events[64];
  bool draining = false;
  Clock::time_point drain_deadline{};

  for (;;) {
    if (stopping_.load(std::memory_order_relaxed) && !draining) {
      draining = true;
      drain_deadline = Clock::now() + options_.drain_timeout;
      // The listener must stop before the drain; only loop 0 owns it, and
      // deregistering (not closing — Stop still owns the fd) is enough.
      if (index == 0 && listen_fd_ >= 0) {
        ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
      }
    }
    if (draining) {
      bool pending = false;
      for (const auto& conn : loop->conns) {
        if (conn->fd >= 0 && conn->out_pos < conn->out.size()) {
          pending = true;
          break;
        }
      }
      if (!pending || Clock::now() >= drain_deadline) break;
    }

    const int timeout_ms = draining ? 10 : 200;
    const int n = ::epoll_wait(loop->epoll_fd, events, 64, timeout_ms);
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kTagListen) {
        if (!draining) AcceptReady();
        continue;
      }
      if (tag == kTagWake) {
        uint64_t buf;
        while (::read(loop->wake_fd, &buf, sizeof(buf)) > 0) {
        }
        AdoptIncoming(loop);
        continue;
      }
      auto* conn = reinterpret_cast<Connection*>(tag);
      if (conn->fd < 0) continue;  // closed earlier in this batch
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(loop, conn);
        continue;
      }
      if ((events[i].events & EPOLLOUT) && !OnWritable(loop, conn)) {
        CloseConnection(loop, conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) && !draining &&
          !OnReadable(loop, conn)) {
        CloseConnection(loop, conn);
        continue;
      }
    }
    loop->conns.erase(
        std::remove_if(loop->conns.begin(), loop->conns.end(),
                       [](const auto& c) { return c->fd < 0; }),
        loop->conns.end());
  }

  for (auto& conn : loop->conns) {
    if (conn->fd >= 0) CloseConnection(loop, conn.get());
  }
  loop->conns.clear();
}

void CubeServer::AcceptReady() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient accept failure
    if (connections_active_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_active_.fetch_add(1, std::memory_order_relaxed);
    const size_t target =
        next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
    Loop* loop = loops_[target].get();
    {
      std::lock_guard<std::mutex> lock(loop->mu);
      loop->incoming.push_back(fd);
    }
    const uint64_t kick = 1;
    [[maybe_unused]] ssize_t n =
        ::write(loop->wake_fd, &kick, sizeof(kick));
  }
}

void CubeServer::AdoptIncoming(Loop* loop) {
  std::deque<int> fds;
  {
    std::lock_guard<std::mutex> lock(loop->mu);
    fds.swap(loop->incoming);
  }
  for (int fd : fds) {
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = reinterpret_cast<uint64_t>(conn.get());
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      connections_active_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    loop->conns.push_back(std::move(conn));
  }
}

bool CubeServer::OnReadable(Loop* loop, Connection* conn) {
  uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->in.insert(conn->in.end(), buf, buf + n);
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n == 0) return false;  // peer closed (possibly mid-frame) — clean
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }

  const auto arrival = Clock::now();
  size_t consumed = 0;
  while (conn->in.size() - consumed >= kHeaderSize) {
    std::span<const uint8_t> avail(conn->in.data() + consumed,
                                   conn->in.size() - consumed);
    auto header = DecodeHeader(avail, options_.max_payload);
    if (!header.ok()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;  // framing is untrustworthy: close without a reply
    }
    const size_t total =
        kHeaderSize + header->payload_len + kTrailerSize;
    if (avail.size() < total) break;  // wait for the rest of the frame
    const std::span<const uint8_t> frame = avail.subspan(0, total);
    if (Status st = VerifyFrame(frame); !st.ok()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    bytes_in_.fetch_add(total, std::memory_order_relaxed);
    if (!DispatchFrame(loop, conn, *header,
                       frame.subspan(kHeaderSize, header->payload_len),
                       arrival)) {
      return false;
    }
    consumed += total;
  }
  if (consumed > 0) {
    conn->in.erase(conn->in.begin(),
                   conn->in.begin() + static_cast<ptrdiff_t>(consumed));
  }
  return true;
}

bool CubeServer::DispatchFrame(Loop* loop, Connection* conn,
                               const FrameHeader& header,
                               std::span<const uint8_t> payload,
                               Clock::time_point arrival) {
  const int op_index = OpIndex(header.opcode);
  if (op_index < 0 || header.opcode == Opcode::kReply ||
      header.opcode == Opcode::kError) {
    // Well-framed but unknown (or response-typed) opcode: the connection
    // is healthy, answer with an error frame and keep serving it.
    error_responses_.fetch_add(1, std::memory_order_relaxed);
    const auto body = EncodeErrorReply(
        Status::InvalidArgument("unknown request opcode"));
    return SendReply(loop, conn, Opcode::kError, header.request_id, body);
  }
  requests_.fetch_add(1, std::memory_order_relaxed);

  // Fast-reject admission (the BufferPool ticket pattern, non-blocking
  // flavor): saturation answers kUnavailable immediately so the client's
  // RetryPolicy backs off, instead of queueing unbounded work.
  if (inflight_.fetch_add(1, std::memory_order_acq_rel) >=
      options_.max_inflight_requests) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    rejected_at_admission_.fetch_add(1, std::memory_order_relaxed);
    error_responses_.fetch_add(1, std::memory_order_relaxed);
    const auto body = EncodeErrorReply(
        Status::Unavailable("server at max in-flight requests"));
    return SendReply(loop, conn, Opcode::kError, header.request_id, body);
  }

  if (options_.dispatch_delay_for_test.count() > 0) {
    std::this_thread::sleep_for(options_.dispatch_delay_for_test);
  }

  OperationContext ctx;
  OperationContext* ctx_ptr = nullptr;
  if (header.deadline_ms > 0) {
    // Anchored at frame arrival, so queueing counts against the budget.
    ctx.set_deadline(arrival + std::chrono::milliseconds(header.deadline_ms));
    ctx_ptr = &ctx;
  }

  Result<std::vector<uint8_t>> reply = [&]() -> Result<std::vector<uint8_t>> {
    if (ctx_ptr != nullptr && ctx_ptr->deadline_exceeded()) {
      deadline_expired_before_dispatch_.fetch_add(1,
                                                  std::memory_order_relaxed);
      return Status::DeadlineExceeded("deadline expired before dispatch");
    }
    return HandleRequest(header, payload, ctx_ptr);
  }();
  inflight_.fetch_sub(1, std::memory_order_acq_rel);

  const uint64_t micros =
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                Clock::now() - arrival)
                                .count());
  RecordLatency(header.opcode, micros);

  if (reply.ok()) {
    responses_.fetch_add(1, std::memory_order_relaxed);
    return SendReply(loop, conn, Opcode::kReply, header.request_id, *reply);
  }
  error_responses_.fetch_add(1, std::memory_order_relaxed);
  const auto body = EncodeErrorReply(reply.status());
  return SendReply(loop, conn, Opcode::kError, header.request_id, body);
}

Result<std::vector<uint8_t>> CubeServer::HandleRequest(
    const FrameHeader& header, std::span<const uint8_t> payload,
    OperationContext* ctx) {
  switch (header.opcode) {
    case Opcode::kPing: {
      if (!payload.empty()) {
        return Status::InvalidArgument("ping carries no payload");
      }
      return std::vector<uint8_t>{};
    }
    case Opcode::kOpenCube: {
      SS_ASSIGN_OR_RETURN(const auto req, DecodeCubeNameRequest(payload));
      SS_RETURN_IF_ERROR(registry_->Open(req.cube).status());
      return std::vector<uint8_t>{};
    }
    case Opcode::kCloseCube: {
      SS_ASSIGN_OR_RETURN(const auto req, DecodeCubeNameRequest(payload));
      SS_RETURN_IF_ERROR(registry_->CloseCube(req.cube));
      return std::vector<uint8_t>{};
    }
    case Opcode::kPoint: {
      SS_ASSIGN_OR_RETURN(const auto req, DecodePointRequest(payload));
      SS_ASSIGN_OR_RETURN(const auto handle, registry_->Find(req.cube));
      SS_ASSIGN_OR_RETURN(
          const DegradedResult result,
          handle->PointQuery(req.point, req.max_error, ctx));
      return EncodeQueryReply(QueryReply::Degraded(result));
    }
    case Opcode::kSum: {
      SS_ASSIGN_OR_RETURN(const auto req, DecodeSumRequest(payload));
      SS_ASSIGN_OR_RETURN(const auto handle, registry_->Find(req.cube));
      SS_ASSIGN_OR_RETURN(
          const DegradedResult result,
          handle->RangeSum(req.lo, req.hi, req.max_error, ctx));
      return EncodeQueryReply(QueryReply::Degraded(result));
    }
    case Opcode::kAdd: {
      SS_ASSIGN_OR_RETURN(const auto req, DecodeAddRequest(payload));
      SS_ASSIGN_OR_RETURN(const auto handle, registry_->Find(req.cube));
      SS_RETURN_IF_ERROR(handle->Add(req.coords, req.delta, ctx));
      return std::vector<uint8_t>{};
    }
    case Opcode::kUpdate: {
      SS_ASSIGN_OR_RETURN(const auto req,
                          DecodeUpdateRequest(payload, options_.max_payload));
      SS_ASSIGN_OR_RETURN(const auto handle, registry_->Find(req.cube));
      Tensor deltas{TensorShape(req.dims)};
      std::copy(req.values.begin(), req.values.end(), deltas.data().begin());
      SS_RETURN_IF_ERROR(handle->Update(deltas, req.origin, ctx));
      return std::vector<uint8_t>{};
    }
    case Opcode::kStats:
      return HandleStats(payload);
    default:
      return Status::InvalidArgument("unknown request opcode");
  }
}

Result<std::vector<uint8_t>> CubeServer::HandleStats(
    std::span<const uint8_t> payload) {
  SS_ASSIGN_OR_RETURN(const auto req, DecodeCubeNameRequest(payload));
  StatsReply reply;
  if (req.cube.empty()) {
    for (auto& pair : stats().Flatten()) {
      reply.counters.push_back(std::move(pair));
    }
    reply.counters.emplace_back("open_cubes", registry_->Names().size());
  } else {
    SS_ASSIGN_OR_RETURN(const auto handle, registry_->Find(req.cube));
    FlattenServingStats(handle->stats(), &reply);
    reply.counters.emplace_back("num_shards", handle->num_shards());
  }
  return EncodeStatsReply(reply);
}

bool CubeServer::SendReply(Loop* loop, Connection* conn, Opcode opcode,
                           uint64_t request_id,
                           std::span<const uint8_t> body) {
  FrameHeader header;
  header.opcode = opcode;
  header.request_id = request_id;
  const auto frame = EncodeFrame(header, body);
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  bytes_out_.fetch_add(frame.size(), std::memory_order_relaxed);
  conn->out.insert(conn->out.end(), frame.begin(), frame.end());
  if (!FlushWrites(conn)) return false;
  ArmWritable(loop, conn, conn->out_pos < conn->out.size());
  return true;
}

bool CubeServer::FlushWrites(Connection* conn) {
  while (conn->out_pos < conn->out.size()) {
    const ssize_t n = ::write(conn->fd, conn->out.data() + conn->out_pos,
                              conn->out.size() - conn->out_pos);
    if (n > 0) {
      conn->out_pos += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  if (conn->out_pos >= conn->out.size()) {
    conn->out.clear();
    conn->out_pos = 0;
  }
  return true;
}

void CubeServer::ArmWritable(Loop* loop, Connection* conn, bool want_out) {
  if (want_out == conn->writable_armed) return;
  epoll_event ev{};
  ev.events =
      EPOLLIN | (want_out ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = reinterpret_cast<uint64_t>(conn);
  if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    conn->writable_armed = want_out;
  }
}

bool CubeServer::OnWritable(Loop* loop, Connection* conn) {
  if (!FlushWrites(conn)) return false;
  ArmWritable(loop, conn, conn->out_pos < conn->out.size());
  return true;
}

void CubeServer::CloseConnection(Loop* loop, Connection* conn) {
  (void)loop;
  if (conn->fd < 0) return;
  ::close(conn->fd);  // closing also deregisters from epoll
  conn->fd = -1;
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
}

void CubeServer::RecordLatency(Opcode opcode, uint64_t micros) {
  const int op = OpIndex(opcode);
  if (op < 0) return;
  size_t bucket = std::size(kLatencyBucketUs);
  for (size_t b = 0; b < std::size(kLatencyBucketUs); ++b) {
    if (micros <= kLatencyBucketUs[b]) {
      bucket = b;
      break;
    }
  }
  latency_[static_cast<size_t>(op)][bucket].fetch_add(
      1, std::memory_order_relaxed);
}

ServerStats CubeServer::stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_active = connections_active_.load();
  s.connections_rejected = connections_rejected_.load();
  s.requests = requests_.load();
  s.responses = responses_.load();
  s.error_responses = error_responses_.load();
  s.rejected_at_admission = rejected_at_admission_.load();
  s.deadline_expired_before_dispatch =
      deadline_expired_before_dispatch_.load();
  s.frames_in = frames_in_.load();
  s.frames_out = frames_out_.load();
  s.bytes_in = bytes_in_.load();
  s.bytes_out = bytes_out_.load();
  s.protocol_errors = protocol_errors_.load();
  for (size_t op = 0; op < kTrackedOps; ++op) {
    for (size_t b = 0; b < kLatencyBuckets; ++b) {
      s.latency[op][b] = latency_[op][b].load(std::memory_order_relaxed);
    }
  }
  return s;
}

}  // namespace net
}  // namespace shiftsplit
