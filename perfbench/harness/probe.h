// Measurement helpers of the benchmark harness: clocks, process CPU and
// peak-memory probes, the result checksum, percentiles and a minimal JSON
// writer. Nothing here touches the system under test.

#ifndef PERFBENCH_HARNESS_PROBE_H_
#define PERFBENCH_HARNESS_PROBE_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/exec/result.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since an arbitrary process epoch.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// User + system CPU seconds of the whole process (every thread).
inline double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Reads a "Vm...:" line of /proc/self/status in MiB; -1 if unavailable.
inline double ProcStatusMiB(const char* field) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return -1;
  char line[256];
  double out = -1;
  const size_t n = std::strlen(field);
  while (std::fgets(line, sizeof(line), f)) {
    if (std::strncmp(line, field, n) == 0 && line[n] == ':') {
      out = std::atof(line + n + 1) / 1024.0;  // kB
      break;
    }
  }
  std::fclose(f);
  return out;
}

/// Resident memory of the pipeline: the peak resident set while it runs
/// minus the resident set just before its set-up (the generated inputs
/// the harness holds). Start() resets the kernel's high-water mark
/// (/proc/self/clear_refs), so the peak belongs to this run only.
class RssProbe {
 public:
  void Start() {
    FILE* f = std::fopen("/proc/self/clear_refs", "w");
    if (f) {
      reset_ = std::fputs("5", f) >= 0;
      reset_ = (std::fclose(f) == 0) && reset_;
    }
    base_mib_ = ProcStatusMiB("VmRSS");
  }
  /// Peak MiB above the baseline so far.
  double PeakAboveBaseMiB() const {
    const double hwm = ProcStatusMiB("VmHWM");
    return hwm >= 0 && base_mib_ >= 0 ? hwm - base_mib_ : -1;
  }
  /// False when the high-water mark could not be reset: the peak may
  /// then include input generation.
  bool reset() const { return reset_; }

 private:
  double base_mib_ = -1;
  bool reset_ = false;
};

inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline uint64_t Bits(double d) {
  uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

/// Order-independent checksum over finalized result cells: the sum (mod
/// 2^64) of a hash of (query, window, group, bit pattern of every
/// AggState lane). Equal checksums and cell counts mean equal cell sets
/// up to a 64-bit hash collision.
struct CellChecksum {
  uint64_t sum = 0;
  uint64_t cells = 0;

  void Add(const sharon::ResultKey& k, const sharon::AggState& s) {
    uint64_t h = Mix64(k.query);
    h = Mix64(h ^ static_cast<uint64_t>(k.window));
    h = Mix64(h ^ static_cast<uint64_t>(k.group));
    for (double lane : {s.count, s.sum, s.target_count, s.min, s.max}) {
      h = Mix64(h ^ Bits(lane));
    }
    sum += h;
    ++cells;
  }

  bool operator==(const CellChecksum&) const = default;
};

inline std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty set.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Flat JSON object writer (numbers printed with all significant digits).
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n') ? ' ' : c;
    }
    return Raw(key, quoted + "\"");
  }
  JsonObject& Obj(const std::string& key, const JsonObject& o) {
    return Raw(key, o.str());
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  std::string str() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += (i ? ",\"" : "\"") + fields_[i].first + "\":" + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_PROBE_H_
