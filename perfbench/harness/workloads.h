// The benchmark's three workloads and the measured round each one runs.
//
// One round = one process (main.cc): generate the seeded inputs, set the
// pipeline up, drive the stream through it, read the process probes,
// then check every finalized result cell against the reference evaluator
// (src/twostep/reference.h) outside the timed region. A traced round
// additionally records spans around every call into a layer and runs the
// ladder rungs (SegmentCounter -> Engine -> A-Seq Engine -> 1x1 runtime)
// on the same inputs. See README.md for the workload shapes and metrics.

#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/harness/probe.h"

namespace perfbench {

/// Every random input of a round. Defaults derive from the run seed
/// (DefaultSeeds); each can be overridden on the command line.
struct Seeds {
  uint64_t stream = 0;    ///< event generator
  uint64_t query = 0;     ///< query workload generator (tx_dense, lr_fanin)
  uint64_t disorder = 0;  ///< arrival jitter / punctuation stamping
  uint64_t churn = 0;     ///< drift_ops register/retire/reactivate schedule
};

/// stream = seed + round * 1000003, disorder = stream + 2000; the query
/// sets and the churn schedule stay fixed (query = 1, churn = 1) so that a
/// run's cost does not swing with the seed. `round` numbers the rounds of
/// a run that draw their own stream (drift_ops; 0 otherwise).
Seeds DefaultSeeds(uint64_t seed, uint64_t round);

struct RoundOptions {
  std::string workload;
  uint64_t seed = 1;
  Seeds seeds;
  bool traced = false;
  /// Multiplies the stream's event-time length (self-check runs use a
  /// small value; the benchmark itself always runs at 1).
  double scale = 1.0;
  /// Reference checksum of this seed's inputs from an earlier round of
  /// the same run (tx_dense, lr_fanin): skips recomputing it. drift_ops
  /// always recomputes, since churn decides which cells are owed.
  std::optional<CellChecksum> reference;
  /// Flips one bit of the expected checksum: the round must then fail
  /// its output gate (self-check of the gate).
  bool perturb_expected = false;
  /// Directory for checkpoint files and the span dump (inside the
  /// checkout; created if missing).
  std::string work_dir = ".bench_build/run";
};

struct RoundResult {
  bool correct = false;
  std::string error;        ///< why the round is not correct
  CellChecksum got;         ///< finalized cells of the measured pipeline
  CellChecksum expected;    ///< what the gate compared against
  CellChecksum reference;   ///< reference cells (before any perturbation)
  uint64_t data_events = 0;
  uint64_t attempted = 0;   ///< data events + control operations
  uint64_t failed = 0;      ///< see README.md "failed operations"
  double setup_s = 0;
  double wall_s = 0;        ///< first Ingest to Finish() return
  double cpu_s = 0;         ///< process user+sys over the same interval
  double peak_rss_mb = 0;   ///< peak resident MiB above the loaded inputs
  bool rss_reset = false;   ///< the high-water mark was reset for the run
  std::vector<double> lag_ms;   ///< finalize lag, one per punctuation
  std::vector<double> late_ms;  ///< generator lateness samples
  JsonObject counts;   ///< layer counters of the measured pipeline
  JsonObject layers;   ///< per-layer metrics (traced rounds)
  JsonObject scoped;   ///< layer metrics only some workloads have
  JsonObject trace;    ///< span summary (traced rounds)
};

/// Names accepted by RunRound, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Runs one round; never throws for a failing system (the failure is
/// reported in the result).
RoundResult RunRound(const RoundOptions& opts);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
