// sharon_perfbench: runs ONE measured round of a benchmark workload and
// prints its record as one JSON line. perfbench/run.py runs rounds in
// fresh processes (so peak RSS belongs to one round) and aggregates them.
//
// Usage:
//   sharon_perfbench --workload <tx_dense|lr_fanin|drift_ops> --seed <n>
//       [--traced] [--scale <f>] [--perturb-expected] [--work-dir <dir>]
//       [--reference <hex>:<cells>] [--round <k>]
//       [--stream-seed <n>] [--query-seed <n>] [--disorder-seed <n>]
//       [--churn-seed <n>]
//   sharon_perfbench --list-workloads

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/harness/probe.h"
#include "perfbench/harness/workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr, "sharon_perfbench: %s\n", why);
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

/// JSON array of `v`, in ms with microsecond resolution.
std::string MsArray(const std::vector<double>& v) {
  std::string out = "[";
  char buf[32];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), i ? ",%.3f" : "%.3f", v[i]);
    out += buf;
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::JsonObject;
  perfbench::RoundOptions o;
  bool have_seed = false;
  uint64_t round = 0;
  struct Override {
    const char* flag;
    uint64_t* slot;
    bool set = false;
    uint64_t value = 0;
  };
  Override overrides[] = {{"--stream-seed", &o.seeds.stream},
                          {"--query-seed", &o.seeds.query},
                          {"--disorder-seed", &o.seeds.disorder},
                          {"--churn-seed", &o.seeds.churn}};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--list-workloads") {
      for (const std::string& n : perfbench::WorkloadNames()) std::printf("%s\n", n.c_str());
      return 0;
    } else if (a == "--traced") {
      o.traced = true;
    } else if (a == "--perturb-expected") {
      o.perturb_expected = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      if (!ParseU64(argv[++i], &o.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (a == "--round" && has_value) {
      if (!ParseU64(argv[++i], &round)) return Usage("bad --round");
    } else if (a == "--scale" && has_value) {
      o.scale = std::atof(argv[++i]);
      if (!(o.scale > 0)) return Usage("bad --scale");
    } else if (a == "--reference" && has_value) {
      // <hex checksum>:<cells>, as printed in reference_checksum/_cells.
      unsigned long long sum = 0, cells = 0;
      if (std::sscanf(argv[++i], "%llx:%llu", &sum, &cells) != 2) {
        return Usage("bad --reference");
      }
      o.reference = perfbench::CellChecksum{sum, cells};
    } else if (a == "--work-dir" && has_value) {
      o.work_dir = argv[++i];
    } else {
      bool matched = false;
      for (Override& ov : overrides) {
        if (a == ov.flag && has_value) {
          if (!ParseU64(argv[++i], &ov.value)) return Usage("bad seed override");
          ov.set = true;
          matched = true;
        }
      }
      if (!matched) return Usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty() || !have_seed) return Usage("--workload and --seed are required");
  bool known = false;
  for (const std::string& n : perfbench::WorkloadNames()) known = known || n == o.workload;
  if (!known) return Usage(("unknown workload " + o.workload).c_str());
  o.seeds = perfbench::DefaultSeeds(o.seed, round);
  for (Override& ov : overrides) {
    if (ov.set) *ov.slot = ov.value;
  }

  const perfbench::RoundResult r = perfbench::RunRound(o);

  JsonObject seeds;
  seeds.Int("stream", o.seeds.stream)
      .Int("query", o.seeds.query)
      .Int("disorder", o.seeds.disorder)
      .Int("churn", o.seeds.churn);
  JsonObject rec;
  rec.Str("workload", o.workload)
      .Int("seed", o.seed)
      .Int("round", round)
      .Obj("seeds", seeds)
      .Bool("traced", o.traced)
      .Num("scale", o.scale)
      .Bool("correct", r.correct)
      .Str("error", r.error)
      .Str("checksum", perfbench::Hex(r.got.sum))
      .Int("cells", r.got.cells)
      .Str("expected_checksum", perfbench::Hex(r.expected.sum))
      .Int("expected_cells", r.expected.cells)
      .Str("reference_checksum", perfbench::Hex(r.reference.sum))
      .Int("reference_cells", r.reference.cells)
      .Int("data_events", r.data_events)
      .Int("attempted", r.attempted)
      .Int("failed", r.failed)
      .Num("setup_s", r.setup_s)
      .Num("wall_s", r.wall_s)
      .Num("cpu_s", r.cpu_s)
      .Num("peak_rss_mb", r.peak_rss_mb)
      .Bool("rss_reset", r.rss_reset)
      .Num("lag_p50_ms", perfbench::Percentile(r.lag_ms, 50))
      .Num("lag_p99_ms", perfbench::Percentile(r.lag_ms, 99))
      .Int("lag_samples", r.lag_ms.size())
      .Raw("lag_ms", MsArray(r.lag_ms))
      .Num("late_p50_ms", perfbench::Percentile(r.late_ms, 50))
      .Num("late_p99_ms", perfbench::Percentile(r.late_ms, 99))
      .Int("late_samples", r.late_ms.size())
      .Obj("counts", r.counts)
      .Obj("layers", r.layers)
      .Obj("scoped", r.scoped)
      .Obj("trace", r.trace);
  std::printf("%s\n", rec.str().c_str());
  return 0;
}
