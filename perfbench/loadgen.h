// Open-loop wire load generator: one thread sends Poisson arrivals over a
// few non-blocking connections, pipelines any number of outstanding frames
// per connection, and matches replies to requests by request_id. Every
// request is timed from its scheduled send time, so a server stall keeps
// charging the requests queued behind it; the generator's own lateness
// (actual minus scheduled send) is recorded separately.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "shiftsplit/net/wire.h"
#include "shiftsplit/util/random.h"
#include "shiftsplit/util/status.h"
#include "workload.h"

namespace perfbench {

/// Reassembles wire frames from a byte stream that arrives in arbitrary
/// pieces.
class FrameAssembler {
 public:
  void Append(const uint8_t* data, size_t n);

  /// Extracts the next complete frame into `header` and `payload`. Returns
  /// false when no complete frame is buffered; a malformed frame is an
  /// error.
  shiftsplit::Result<bool> Next(shiftsplit::net::FrameHeader* header,
                                std::vector<uint8_t>* payload);

  size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
};

/// One request in flight.
struct Pending {
  int64_t scheduled_ns = 0;
  Op op;
};

/// Outstanding requests keyed by request_id; replies may arrive in any
/// order.
class ReplyMatcher {
 public:
  /// Registers a request; a request_id already in flight is an error.
  shiftsplit::Status Expect(uint64_t request_id, const Pending& pending);
  /// Removes and returns the request a reply answers, or nullopt for an id
  /// that is not in flight (a duplicate or unknown reply).
  std::optional<Pending> Match(uint64_t request_id);
  size_t outstanding() const { return pending_.size(); }

 private:
  std::unordered_map<uint64_t, Pending> pending_;
};

/// Outcome of one open-loop window. Arrivals start a warm-up before the
/// window, so the window opens in steady state: then the replies received
/// inside it keep pace with the arrivals scheduled inside it unless a
/// backlog grows. Latencies, lags and counts cover requests scheduled in
/// the window; `sent` and `failed_total` cover the warm-up too.
struct WindowResult {
  double offered_per_s = 0.0;
  double window_s = 0.0;
  uint64_t scheduled = 0;            ///< arrivals scheduled in the window
  uint64_t failed = 0;               ///< error replies to those arrivals
  uint64_t completed_in_window = 0;  ///< ok replies received in the window
  /// Arrivals scheduled in, and ok replies received in, each slice of
  /// `slice_s` seconds of the window.
  std::vector<uint64_t> slice_arrivals;
  std::vector<uint64_t> slice_completions;
  uint64_t sent = 0;                 ///< all requests, warm-up included
  uint64_t failed_total = 0;         ///< all error replies
  uint64_t outstanding_max = 0;
  /// Ok replies per kind: (scheduled seconds into the window, latency us).
  std::vector<std::pair<double, double>> latency_us[kOpKinds];
  /// (scheduled seconds into the window, latency us) of every op, failures
  /// as +inf; and the same with the send lag of every request.
  std::vector<std::pair<double, double>> all_us;
  std::vector<std::pair<double, double>> lag_us;
  std::vector<Op> acked_adds;  ///< adds the server acknowledged
  double codec_s = 0.0;        ///< time in wire encode/decode calls
};

/// The generator. Not thread-safe: one thread drives all connections.
class OpenLoopGenerator {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    uint32_t connections = 1;
    std::string cube = "bench";
    /// Time the wire encode/decode calls (traced runs).
    bool trace_codecs = false;
  };

  explicit OpenLoopGenerator(const Options& options);
  ~OpenLoopGenerator();
  OpenLoopGenerator(const OpenLoopGenerator&) = delete;
  OpenLoopGenerator& operator=(const OpenLoopGenerator&) = delete;

  shiftsplit::Status Connect();

  /// Runs `warmup_s` and then one window of `seconds` (in slices of
  /// `slice_s`) at `rate` arrivals per second, drawing requests from `ops`
  /// and exponential gaps from `gaps`; returns once every request has its
  /// reply.
  shiftsplit::Result<WindowResult> Run(double rate, double warmup_s,
                                       double seconds, double slice_s,
                                       OpSource* ops,
                                       shiftsplit::Xoshiro256* gaps);

 private:
  struct Conn {
    int fd = -1;
    std::vector<uint8_t> out;
    size_t out_pos = 0;
    /// Measured requests whose frames are queued but not fully written:
    /// (end offset in `out`, scheduled send time).
    std::vector<std::pair<size_t, int64_t>> unsent;
    FrameAssembler in;
  };

  std::vector<uint8_t> EncodeRequest(const Op& op, uint64_t request_id,
                                     WindowResult* result);
  /// Writes queued frames and records the send lag of each one that left.
  shiftsplit::Status Flush(Conn* conn, int64_t window_start_ns,
                           WindowResult* result);
  /// Reads replies and matches them to their requests.
  shiftsplit::Status Drain(Conn* conn, int64_t window_start_ns,
                           int64_t window_end_ns, int64_t slice_ns,
                           WindowResult* result);

  Options options_;
  std::vector<Conn> conns_;
  ReplyMatcher matcher_;
  uint64_t next_request_id_ = 1;
  size_t next_conn_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
