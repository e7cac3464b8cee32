// In-memory span recorder for the traced run.
//
// A span is one timed call (or chunk of calls) into a layer: name, start,
// end, parent span and run id. The layer is the name's prefix before the
// first '.' ("runtime.ingest" belongs to "runtime"). Spans are recorded
// from the benchmark's own code around public calls of each layer and
// written out once, at exit. A disabled recorder does nothing, so the
// timed runs carry no tracing cost beyond a branch.

#ifndef PERFBENCH_HARNESS_SPANS_H_
#define PERFBENCH_HARNESS_SPANS_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/harness/probe.h"

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  ///< index of the parent span, -1 at top level
  int thread = 0;   ///< 0 = harness thread, p + 1 = producer thread p
};

class SpanRecorder {
 public:
  SpanRecorder(bool enabled, std::string run_id)
      : enabled_(enabled), run_id_(std::move(run_id)) {
    // Recording must not allocate inside the measured drive.
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  /// Starts a span now; returns its id (-1 when disabled).
  int Open(const std::string& name, int parent = -1, int thread = 0) {
    if (!enabled_) return -1;
    return Add(name, NowNs(), 0, parent, thread);
  }

  /// Ends span `id` now.
  void Close(int id) {
    if (id < 0) return;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }

  /// Records a span with known bounds (thread-safe).
  int Add(const std::string& name, int64_t start, int64_t end, int parent,
          int thread = 0) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, end, parent, thread});
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Span duration minus the union of its children's intervals.
  std::vector<int64_t> SelfTimes() const {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        kids[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
      }
    }
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      int64_t covered = 0, cur_s = 0, cur_e = 0;
      bool open = false;
      for (const auto& [s, e] : iv) {
        const int64_t cs = std::max(s, spans_[i].start_ns);
        const int64_t ce = std::min(e, spans_[i].end_ns);
        if (ce <= cs) continue;
        if (open && cs <= cur_e) {
          cur_e = std::max(cur_e, ce);
        } else {
          if (open) covered += cur_e - cur_s;
          cur_s = cs;
          cur_e = ce;
          open = true;
        }
      }
      if (open) covered += cur_e - cur_s;
      self[i] = spans_[i].end_ns - spans_[i].start_ns - covered;
    }
    return self;
  }

  /// Self seconds summed per layer (name prefix before the first '.').
  std::map<std::string, double> LayerSelfSeconds() const {
    std::map<std::string, double> out;
    const std::vector<int64_t> self = SelfTimes();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const std::string& n = spans_[i].name;
      out[n.substr(0, n.find('.'))] += NsToS(self[i]);
    }
    return out;
  }

  /// Checks the nesting invariants against the traced section
  /// [begin, end]: every child lies inside its parent, top-level spans do
  /// not overlap, and their durations cover at least `min_cover` of the
  /// section's wall time. Returns "" or a diagnostic.
  std::string Validate(int64_t begin, int64_t end, double min_cover) const {
    std::vector<std::pair<int64_t, int64_t>> top;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns < s.start_ns) return "span " + s.name + " ends before it starts";
      if (s.parent < 0) {
        top.push_back({s.start_ns, s.end_ns});
        continue;
      }
      if (static_cast<size_t>(s.parent) >= i) return "span " + s.name + " precedes its parent";
      const Span& p = spans_[static_cast<size_t>(s.parent)];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
        return "span " + s.name + " escapes its parent " + p.name;
      }
    }
    std::sort(top.begin(), top.end());
    int64_t covered = 0, prev_end = begin;
    for (const auto& [s, e] : top) {
      if (s < prev_end) return "top-level spans overlap";
      if (e > end) return "top-level span ends after the traced section";
      covered += e - s;
      prev_end = e;
    }
    const double wall = static_cast<double>(end - begin);
    if (wall <= 0 || static_cast<double>(covered) < min_cover * wall) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "top-level spans cover %.4f of wall time",
                    wall > 0 ? static_cast<double>(covered) / wall : 0.0);
      return buf;
    }
    return "";
  }

  /// Writes every span as one JSON line; false on I/O failure.
  bool WriteJsonl(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const std::vector<int64_t> self = SelfTimes();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"run\":\"%s\",\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                   "\"thread\":%d,\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"self_ns\":%lld}\n",
                   run_id_.c_str(), i, s.name.c_str(), s.parent, s.thread,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(self[i]));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::string run_id_;
  std::mutex mu_;  ///< guards spans_ (producer threads add chunk spans)
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SPANS_H_
