// Metric collection, process-wide resource counters and JSON output.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

/// Named metrics with units, in insertion order. A metric whose value could
/// not be measured (a percentile without enough samples beyond it) is
/// listed as missing instead of guessed.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Add(const std::string& name, std::optional<double> value,
           const std::string& unit) {
    if (value.has_value() && std::isfinite(*value)) {
      Add(name, *value, unit);
    } else {
      missing_.push_back(name);
    }
  }
  void Append(const Report& other) {
    metrics_.insert(metrics_.end(), other.metrics_.begin(),
                    other.metrics_.end());
    missing_.insert(missing_.end(), other.missing_.begin(),
                    other.missing_.end());
  }
  const std::vector<std::string>& missing() const { return missing_; }

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const {
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      out << (i ? ", " : "") << "\"" << metrics_[i].name
          << "\": {\"value\": " << value << ", \"unit\": \""
          << metrics_[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> missing_;
};

/// Minimal JSON object writer for the environment stamp.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return Raw(key, std::isfinite(v) ? buf : "null");
  }
  JsonObject& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Obj(const std::string& key, const JsonObject& v) {
    return Raw(key, v.str());
  }
  JsonObject& Raw(const std::string& key, const std::string& rendered) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + rendered;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// num / den, or 0 when nothing was counted.
inline double Ratio(double num, double den) {
  return den == 0 ? 0.0 : num / den;
}

/// Process-wide resource counters at one instant.
struct ProcSample {
  int64_t wall_ns = 0;
  double cpu_s = 0.0;           ///< user + system, all threads
  uint64_t ctx_switches = 0;    ///< voluntary + involuntary
  uint64_t write_bytes = 0;     ///< bytes passed to write syscalls (wchar)
};

inline ProcSample SampleProc() {
  ProcSample s;
  s.wall_ns = NowNs();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.cpu_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
            ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  s.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  std::ifstream io("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") s.write_bytes = value;
  }
  return s;
}

/// CPU seconds per wall second between two samples.
inline double CpuUtil(const ProcSample& a, const ProcSample& b) {
  const double wall = (b.wall_ns - a.wall_ns) * 1e-9;
  return wall > 0 ? (b.cpu_s - a.cpu_s) / wall : 0.0;
}

/// Deletes `dir` and waits until the file system has committed the frees.
/// The file system may discard freed blocks on the device as it commits;
/// waiting here keeps that device work out of the next timed window.
inline void RemoveAndSync(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const std::string parent = std::filesystem::path(dir).parent_path();
  const int fd = ::open(parent.empty() ? "." : parent.c_str(),
                        O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
