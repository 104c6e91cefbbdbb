// Spans recorded by the benchmark around its own calls into the library.
// Each span has a name, start and end, and the identifier of the request
// (or phase) that caused it. Threads record into their own Local buffer,
// which merges into the Tracer when it goes out of scope, so the hot path
// takes no lock. Spans stay in memory and are written out, with per-name
// totals, when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  ///< a string literal
  uint64_t cause = 0;     ///< request or phase id shared by related spans
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  /// Raw spans kept for the trace file; totals count every span.
  static constexpr size_t kMaxKeptSpans = 200000;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// A per-thread span buffer; merges into the tracer on destruction.
  class Local {
   public:
    explicit Local(Tracer* tracer) : tracer_(tracer) {}
    ~Local() { tracer_->Merge(this); }
    Local(const Local&) = delete;
    Local& operator=(const Local&) = delete;

    bool enabled() const { return tracer_->enabled(); }
    void Record(const char* name, uint64_t cause, int64_t start_ns,
                int64_t end_ns) {
      Total& total = totals_[name];
      ++total.count;
      total.ns += end_ns - start_ns;
      if (spans_.size() < kMaxKeptSpans) {
        spans_.push_back({name, cause, start_ns, end_ns});
      }
    }

   private:
    friend class Tracer;
    struct Total {
      uint64_t count = 0;
      int64_t ns = 0;
    };
    Tracer* tracer_;
    std::map<const char*, Total> totals_;  // keyed by literal address
    std::vector<SpanRecord> spans_;
  };

  /// Times the enclosing scope as one span when tracing is on.
  class Scope {
   public:
    Scope(Local* local, const char* name, uint64_t cause)
        : local_(local->enabled() ? local : nullptr),
          name_(name),
          cause_(cause),
          start_ns_(local_ != nullptr ? NowNs() : 0) {}
    ~Scope() {
      if (local_ != nullptr) local_->Record(name_, cause_, start_ns_, NowNs());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Local* local_;
    const char* name_;
    uint64_t cause_;
    int64_t start_ns_;
  };

  /// Writes per-name totals and the kept spans as JSON lines.
  bool Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const auto& [name, total] : totals_) {
      std::fprintf(f, "{\"total\": \"%s\", \"count\": %llu, \"s\": %.9f}\n",
                   name.c_str(), static_cast<unsigned long long>(total.count),
                   total.ns * 1e-9);
    }
    for (const SpanRecord& span : spans_) {
      std::fprintf(f,
                   "{\"span\": \"%s\", \"cause\": %llu, \"start_ns\": %lld, "
                   "\"end_ns\": %lld}\n",
                   span.name, static_cast<unsigned long long>(span.cause),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  void Merge(Local* local) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, total] : local->totals_) {
      Local::Total& mine = totals_[name];
      mine.count += total.count;
      mine.ns += total.ns;
    }
    for (const SpanRecord& span : local->spans_) {
      if (spans_.size() >= kMaxKeptSpans) break;
      spans_.push_back(span);
    }
  }

  bool enabled_;
  mutable std::mutex mu_;
  std::map<std::string, Local::Total> totals_;  // keyed by name text
  std::vector<SpanRecord> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
