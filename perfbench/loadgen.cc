#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>

#include "trace.h"

namespace perfbench {

namespace net = shiftsplit::net;
using shiftsplit::Result;
using shiftsplit::Status;

namespace {

// Every reply is awaited, so every acked add reaches the model; a reply
// still missing after this long means the server is stuck and the run
// fails.
constexpr double kHardDrainLimitS = 20.0;

}  // namespace

void FrameAssembler::Append(const uint8_t* data, size_t n) {
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

Result<bool> FrameAssembler::Next(net::FrameHeader* header,
                                  std::vector<uint8_t>* payload) {
  const size_t avail = buf_.size() - pos_;
  if (avail < net::kHeaderSize) return false;
  std::span<const uint8_t> bytes(buf_.data() + pos_, avail);
  SS_ASSIGN_OR_RETURN(*header, net::DecodeHeader(bytes));
  const size_t total =
      net::kHeaderSize + header->payload_len + net::kTrailerSize;
  if (avail < total) return false;
  SS_RETURN_IF_ERROR(net::VerifyFrame(bytes.subspan(0, total)));
  payload->assign(bytes.begin() + net::kHeaderSize,
                  bytes.begin() + net::kHeaderSize + header->payload_len);
  pos_ += total;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (1u << 16)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  return true;
}

Status ReplyMatcher::Expect(uint64_t request_id, const Pending& pending) {
  if (!pending_.emplace(request_id, pending).second) {
    return Status::AlreadyExists("request_id already in flight");
  }
  return Status::OK();
}

std::optional<Pending> ReplyMatcher::Match(uint64_t request_id) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) return std::nullopt;
  Pending pending = it->second;
  pending_.erase(it);
  return pending;
}

OpenLoopGenerator::OpenLoopGenerator(const Options& options)
    : options_(options) {}

OpenLoopGenerator::~OpenLoopGenerator() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

Status OpenLoopGenerator::Connect() {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host " + options_.host);
  }
  conns_.resize(std::max<uint32_t>(1, options_.connections));
  for (Conn& conn : conns_) {
    conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn.fd < 0) return Status::IOError("socket failed");
    if (::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      return Status::IOError(std::string("connect: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const int flags = ::fcntl(conn.fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK) < 0) {
      return Status::IOError("cannot make the socket non-blocking");
    }
  }
  return Status::OK();
}

std::vector<uint8_t> OpenLoopGenerator::EncodeRequest(const Op& op,
                                                      uint64_t request_id,
                                                      WindowResult* result) {
  const int64_t t0 = options_.trace_codecs ? NowNs() : 0;
  net::FrameHeader header;
  header.request_id = request_id;
  std::vector<uint8_t> payload;
  switch (op.kind) {
    case OpKind::kPoint:
      header.opcode = net::Opcode::kPoint;
      payload = net::EncodePointRequest(
          {options_.cube, {op.lo[0], op.lo[1]}, 0.0});
      break;
    case OpKind::kSum:
      header.opcode = net::Opcode::kSum;
      payload = net::EncodeSumRequest(
          {options_.cube, {op.lo[0], op.lo[1]}, {op.hi[0], op.hi[1]}, 0.0});
      break;
    case OpKind::kAdd:
      header.opcode = net::Opcode::kAdd;
      payload = net::EncodeAddRequest(
          {options_.cube, {op.lo[0], op.lo[1]}, static_cast<double>(op.delta)});
      break;
  }
  header.payload_len = static_cast<uint32_t>(payload.size());
  std::vector<uint8_t> frame = net::EncodeFrame(header, payload);
  if (options_.trace_codecs) result->codec_s += (NowNs() - t0) * 1e-9;
  return frame;
}

Status OpenLoopGenerator::Flush(Conn* conn, int64_t window_start_ns,
                                WindowResult* result) {
  while (conn->out_pos < conn->out.size()) {
    const ssize_t n = ::write(conn->fd, conn->out.data() + conn->out_pos,
                              conn->out.size() - conn->out_pos);
    if (n > 0) {
      conn->out_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return Status::IOError(std::string("write: ") + std::strerror(errno));
  }
  const int64_t sent_ns = NowNs();
  size_t done = 0;
  while (done < conn->unsent.size() &&
         conn->unsent[done].first <= conn->out_pos) {
    const int64_t scheduled = conn->unsent[done].second;
    result->lag_us.emplace_back((scheduled - window_start_ns) * 1e-9,
                                (sent_ns - scheduled) * 1e-3);
    ++done;
  }
  conn->unsent.erase(conn->unsent.begin(),
                     conn->unsent.begin() + static_cast<ptrdiff_t>(done));
  if (conn->out_pos == conn->out.size()) {
    conn->out.clear();
    conn->out_pos = 0;
  }
  return Status::OK();
}

Status OpenLoopGenerator::Drain(Conn* conn, int64_t window_start_ns,
                                int64_t window_end_ns, int64_t slice_ns,
                                WindowResult* result) {
  uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->in.Append(buf, static_cast<size_t>(n));
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n == 0) return Status::IOError("server closed the connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return Status::IOError(std::string("read: ") + std::strerror(errno));
  }
  const int64_t recv_ns = NowNs();
  const double kInf = std::numeric_limits<double>::infinity();
  net::FrameHeader header;
  std::vector<uint8_t> payload;
  for (;;) {
    const int64_t t0 = options_.trace_codecs ? NowNs() : 0;
    SS_ASSIGN_OR_RETURN(const bool got, conn->in.Next(&header, &payload));
    if (!got) break;
    auto pending = matcher_.Match(header.request_id);
    if (!pending.has_value()) {
      return Status::Internal("reply to a request that is not in flight");
    }
    bool ok = header.opcode == net::Opcode::kReply;
    if (ok && pending->op.kind != OpKind::kAdd) {
      SS_ASSIGN_OR_RETURN(const auto reply, net::DecodeQueryReply(payload));
      ok = !reply.degraded;
    } else if (!ok) {
      SS_RETURN_IF_ERROR(net::DecodeErrorReply(payload).status());
    }
    if (options_.trace_codecs) result->codec_s += (NowNs() - t0) * 1e-9;
    const bool measured = pending->scheduled_ns >= window_start_ns;
    if (!ok) {
      ++result->failed_total;
      if (measured) {
        ++result->failed;
        result->all_us.emplace_back(
            (pending->scheduled_ns - window_start_ns) * 1e-9, kInf);
      }
      continue;
    }
    if (pending->op.kind == OpKind::kAdd) {
      result->acked_adds.push_back(pending->op);
    }
    if (recv_ns >= window_start_ns && recv_ns < window_end_ns) {
      ++result->completed_in_window;
      const size_t slice =
          static_cast<size_t>((recv_ns - window_start_ns) / slice_ns);
      if (slice < result->slice_completions.size()) {
        ++result->slice_completions[slice];
      }
    }
    if (!measured) continue;
    const double t_s = (pending->scheduled_ns - window_start_ns) * 1e-9;
    const double us = (recv_ns - pending->scheduled_ns) * 1e-3;
    result->latency_us[static_cast<int>(pending->op.kind)].emplace_back(t_s,
                                                                        us);
    result->all_us.emplace_back(t_s, us);
  }
  return Status::OK();
}

Result<WindowResult> OpenLoopGenerator::Run(double rate, double warmup_s,
                                            double seconds, double slice_s,
                                            OpSource* ops,
                                            shiftsplit::Xoshiro256* gaps) {
  if (conns_.empty()) return Status::InvalidArgument("not connected");
  // Wake up on schedule instead of up to 50 us late.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  WindowResult result;
  result.offered_per_s = rate;
  result.window_s = seconds;
  const double mean_gap_ns = 1e9 / rate;
  const int64_t start_ns = NowNs() + 1'000'000;
  const int64_t window_ns = start_ns + static_cast<int64_t>(warmup_s * 1e9);
  const int64_t end_ns = window_ns + static_cast<int64_t>(seconds * 1e9);
  const int64_t slice_ns = static_cast<int64_t>(slice_s * 1e9);
  const size_t slices =
      std::max<size_t>(1, static_cast<size_t>(seconds / slice_s));
  result.slice_arrivals.assign(slices, 0);
  result.slice_completions.assign(slices, 0);
  const int64_t hard_end_ns =
      end_ns + static_cast<int64_t>(kHardDrainLimitS * 1e9);
  double next_ns = static_cast<double>(start_ns) +
                   gaps->NextExponential(mean_gap_ns);
  std::vector<pollfd> pfds(conns_.size());

  for (;;) {
    int64_t now = NowNs();
    while (next_ns < static_cast<double>(end_ns) &&
           next_ns <= static_cast<double>(now)) {
      const int64_t scheduled = static_cast<int64_t>(next_ns);
      const Op op = ops->Next();
      const uint64_t id = next_request_id_++;
      Conn& conn = conns_[next_conn_++ % conns_.size()];
      const auto frame = EncodeRequest(op, id, &result);
      conn.out.insert(conn.out.end(), frame.begin(), frame.end());
      if (scheduled >= window_ns) {
        conn.unsent.emplace_back(conn.out.size(), scheduled);
        ++result.scheduled;
        const size_t slice =
            static_cast<size_t>((scheduled - window_ns) / slice_ns);
        if (slice < slices) ++result.slice_arrivals[slice];
      }
      SS_RETURN_IF_ERROR(matcher_.Expect(id, Pending{scheduled, op}));
      ++result.sent;
      next_ns += gaps->NextExponential(mean_gap_ns);
    }
    result.outstanding_max =
        std::max<uint64_t>(result.outstanding_max, matcher_.outstanding());
    bool out_pending = false;
    for (Conn& conn : conns_) {
      if (conn.out_pos < conn.out.size()) {
        SS_RETURN_IF_ERROR(Flush(&conn, window_ns, &result));
      }
      out_pending = out_pending || conn.out_pos < conn.out.size();
    }
    const bool arrivals_done = next_ns >= static_cast<double>(end_ns);
    now = NowNs();
    if (arrivals_done && matcher_.outstanding() == 0 && !out_pending) break;
    if (now >= hard_end_ns) {
      return Status::DeadlineExceeded("replies still missing after 20 s");
    }

    // Sleep until the next arrival or a reply. (Busy-polling instead takes
    // a core from the server and lowers the knee by a quarter.)
    int64_t wait_ns = arrivals_done ? hard_end_ns - now
                                    : static_cast<int64_t>(next_ns) - now;
    if (wait_ns < 0) wait_ns = 0;
    for (size_t i = 0; i < conns_.size(); ++i) {
      pfds[i].fd = conns_[i].fd;
      pfds[i].events = POLLIN;
      if (conns_[i].out_pos < conns_[i].out.size()) {
        pfds[i].events |= POLLOUT;
      }
      pfds[i].revents = 0;
    }
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      return Status::IOError(std::string("ppoll: ") + std::strerror(errno));
    }
    if (ready <= 0) continue;
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        return Status::IOError("connection error");
      }
      if (pfds[i].revents & POLLIN) {
        SS_RETURN_IF_ERROR(
            Drain(&conns_[i], window_ns, end_ns, slice_ns, &result));
      }
    }
  }
  return result;
}

}  // namespace perfbench
