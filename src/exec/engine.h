// The Sharon runtime executor (§2.2, §3).
//
// An Engine evaluates a whole workload against a stream according to a
// sharing plan:
//   - the empty plan yields the Non-Shared method — every query runs its
//     own A-Seq prefix-count machine (one single-segment chain per query);
//   - a non-empty plan compiles each query into a chain of segments; a
//     segment covered by a plan candidate points at a *shared*
//     SegmentCounter evaluated once per (pattern, projected aggregation)
//     for all subscribing queries, the gaps get private counters.
//
// The stream is partitioned by the workload's common equivalence/grouping
// attribute (§2.1 assumption 2, §7.2): every group value lazily gets its
// own counters + chains instantiated from the compiled template.

#ifndef SHARON_EXEC_ENGINE_H_
#define SHARON_EXEC_ENGINE_H_

#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/metrics.h"
#include "src/common/serde.h"
#include "src/common/watermark.h"
#include "src/exec/chain_runner.h"
#include "src/exec/result.h"
#include "src/exec/segment_counter.h"
#include "src/obs/engine_obs.h"
#include "src/sharing/candidate.h"

namespace sharon {

/// Restricts an aggregation spec to a segment pattern: segments that do not
/// contain the aggregation target contribute pure counts, which lets them
/// be shared across queries with different RETURN clauses (see DESIGN.md).
AggSpec ProjectSpec(const AggSpec& spec, const Pattern& segment);

/// The plan compiled into counter/chain templates.
struct CompiledEngine {
  struct CounterSpec {
    Pattern pattern;
    AggSpec spec;
    bool shared = false;
  };
  struct ChainSpec {
    /// All queries evaluated by this chain: queries whose plans compile to
    /// the same segment sequence share the chain outright (the paper's
    /// whole-pattern sharing has zero combination cost, Eq. 5).
    std::vector<QueryId> queries;
    std::vector<uint32_t> counter_idx;  ///< segments in pattern order
  };

  std::vector<CounterSpec> counters;
  std::vector<ChainSpec> chains;
  /// Dispatch lists indexed by event type id.
  std::vector<std::vector<uint32_t>> counters_by_type;
  std::vector<std::vector<uint32_t>> chains_by_type;
  WindowSpec window;
  AttrIndex partition = kNoAttr;
};

/// Compiles `plan` over `workload`. Returns an empty string on success or
/// a diagnostic when the plan is unusable (overlapping candidates in one
/// query, pattern not contained in a member query, non-uniform workload).
std::string CompilePlan(const Workload& workload, const SharingPlan& plan,
                        CompiledEngine* out);

/// Immutable compiled plan shared between executors. The compiled templates
/// are read-only at run time, so any number of engines — in particular the
/// per-shard engines of runtime::ShardedRuntime — can instantiate their
/// group state from one compilation pass.
using CompiledPlanHandle = std::shared_ptr<const CompiledEngine>;

/// Compiles once for reuse across engines/shards. Returns nullptr and sets
/// `*error` (when given) if the plan is unusable.
CompiledPlanHandle CompilePlanShared(const Workload& workload,
                                     const SharingPlan& plan,
                                     std::string* error = nullptr);

/// Workload executor. Single-threaded. By default events must arrive in
/// timestamp order (the seed contract); with a DisorderPolicy enabled the
/// engine accepts bounded out-of-order arrival: events wait in a reorder
/// buffer until a watermark proves their prefix of the stream complete,
/// are released in time order into the order-dependent A-Seq machinery,
/// and every window whose close precedes watermark - max_lateness is
/// finalized into results() exactly once while the state that fed it is
/// evicted. See src/common/watermark.h for the contract.
class Engine {
 public:
  /// An empty `plan` gives the Non-Shared (A-Seq) method.
  Engine(const Workload& workload, const SharingPlan& plan = {});

  /// Instantiates from a pre-compiled plan (one optimizer + compile pass
  /// shared by many engines). `compiled` must not be null and must have
  /// been produced from `workload`.
  Engine(const Workload& workload, CompiledPlanHandle compiled);

  /// True if plan compilation succeeded; otherwise error() explains.
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  /// Processes one event through every counter and chain of its group.
  /// Watermark punctuations (IsWatermark) are routed to AdvanceWatermark;
  /// with a disorder policy enabled, data events are buffered until a
  /// watermark releases them and events below the safe point are dropped
  /// and counted (watermark_stats().late_dropped).
  void OnEvent(const Event& e);

  /// Convenience: processes a whole recorded stream, collecting RunStats.
  /// `duration` (ticks) is used to count windows for latency-per-window.
  RunStats Run(const std::vector<Event>& events, Duration duration);

  // --- bounded-disorder ingestion (src/common/watermark.h) --------------

  /// Enables watermark-driven ingestion. Call before the first event.
  void SetDisorderPolicy(const DisorderPolicy& policy);
  const DisorderPolicy& disorder_policy() const { return policy_; }

  /// Applies watermark `t` (the stream's observed high-mark): releases
  /// buffered events below the safe point t - max_lateness in time order,
  /// finalizes every window whose close does not exceed the safe point
  /// (its staged cells move to results() exactly once), and — when the
  /// safe point crosses a window boundary — evicts counter/snapshot/group
  /// state that can no longer reach an open window. Non-advancing
  /// watermarks are counted and ignored. No-op unless a disorder policy is
  /// enabled.
  void AdvanceWatermark(Timestamp t);

  /// End of stream: advances the watermark far enough to release every
  /// buffered event and finalize every window.
  void CloseStream();

  /// Declares that windows closing at or before `floor` belong to a
  /// PREDECESSOR of this engine (plan hot-swap, src/runtime/plan_swap.h):
  /// an engine instantiated mid-stream has only partial data for them, so
  /// their staged cells are discarded at finalization time instead of
  /// moving into results() — counted in watermark_stats().suppressed_cells,
  /// never emitted. Call before the first event; watermark mode only.
  void SetResultsFloor(Timestamp floor);
  Timestamp results_floor() const { return results_floor_; }

  /// True once `window` has been finalized (its results are complete and
  /// immutable). Always false while no disorder policy is enabled —
  /// without watermarks nothing ever finalizes.
  bool Finalized(WindowId window) const;

  /// Safe point implied by the highest watermark seen (kNoWatermark
  /// before the first watermark).
  Timestamp SafePoint() const { return policy_.SafePoint(wm_stats_.watermark); }

  const WatermarkStats& watermark_stats() const { return wm_stats_; }

  /// Attaches telemetry (src/obs/): cells and the trace ring of `obs` are
  /// written from the engine's thread on the event/watermark path. The
  /// pointed-to handle must outlive the engine (or be detached with
  /// nullptr); null (the default) keeps the seed behaviour. Cells are
  /// preallocated by the registry, so the event path stays
  /// zero-allocation with observability attached.
  void SetObservability(const obs::EngineObs* o) { obs_ = o; }
  const obs::EngineObs* observability() const { return obs_; }

  /// Results of windows that are not yet finalized (watermark mode only;
  /// these cells may still grow).
  const ResultCollector& staged_results() const { return staged_; }

  /// Visits and removes every finalized result cell. Long-running sinks
  /// drain finalized windows so the result store stays bounded; returns
  /// the number of cells drained.
  size_t DrainFinalized(
      const std::function<void(const ResultKey&, const AggState&)>& fn);

  /// Census of live executor state (the bounded-state invariant).
  LiveState LiveStateSnapshot() const;

  /// In watermark mode results() holds FINALIZED cells only; windows
  /// still open are in staged_results() until their watermark passes.
  const ResultCollector& results() const { return results_; }
  ResultCollector& mutable_results() { return results_; }

  const CompiledEngine& compiled() const { return *compiled_; }
  const CompiledPlanHandle& compiled_handle() const { return compiled_; }
  const Workload& workload() const { return *workload_; }

  /// Current logical state bytes across all groups. Walks all state.
  size_t EstimatedBytes() const;
  /// State bytes sampled at the last window-boundary sweep, O(1).
  /// Counter and chain state only grows between sweeps, so each sample is
  /// the peak of the epoch it closes; peak_bytes() is the maximum over
  /// samples.
  size_t current_bytes() const { return memory_.current(); }
  size_t peak_bytes() const { return memory_.peak(); }

  /// Number of shared counter templates in the compiled plan.
  size_t num_shared_counters() const;

  // --- checkpoint/restore (orchestrated by src/checkpoint/) -------------
  // The engine exposes its state in four routable pieces — scalars,
  // per-group state, result cells, reorder-buffered events — so the
  // restore path can re-partition a checkpoint across a DIFFERENT shard
  // count: everything except the scalars is keyed by group. All restore
  // methods must run before the first post-restore event, on an engine
  // built from the SAME compiled plan (src/checkpoint/ verifies a plan
  // fingerprint before calling them).

  /// Non-group-keyed executor state. Frontier fields are identical across
  /// the shards of a consistent cut; counter fields are per-shard sums.
  struct ScalarState {
    Timestamp now = 0;                 ///< last processed event time
    Timestamp frontier = 0;            ///< reorder release point
    Timestamp high_mark = kNoWatermark;
    WindowId next_finalize = 0;
    Timestamp results_floor = kNoWatermark;
    WatermarkStats wm;
  };

  ScalarState SaveScalarState() const;
  void RestoreScalarState(const ScalarState& s);

  /// Serializes every group's counters + chains as length-prefixed
  /// (group, payload) records (serde::SaveFlatMap), the unit the
  /// resharding router moves between shards.
  void SaveGroupStates(serde::BinaryWriter& w) const;

  /// Instantiates group `g` from the compiled template and loads one
  /// payload written by SaveGroupStates (reader positioned after the
  /// group key). Empty string on success.
  std::string LoadGroupState(AttrValue g, serde::BinaryReader& r);

  /// Visits a copy of the reorder-buffered events (order unspecified;
  /// the buffer re-sorts by time on restore anyway).
  void SaveBufferedEvents(const std::function<void(const Event&)>& fn) const;

  /// Reinserts one buffered event saved by SaveBufferedEvents, without
  /// touching arrival counters (the original arrival already counted).
  void RestoreBufferedEvent(const Event& e);

  /// Staged (not-yet-finalized) cells, restore target for
  /// ResultCollector::RestoreCell. Finalized cells restore through
  /// mutable_results().
  ResultCollector& mutable_staged_results() { return staged_; }

 private:
  struct GroupState {
    std::vector<std::unique_ptr<SegmentCounter>> counters;
    std::vector<ChainRunner> chains;
    uint64_t events_seen = 0;
  };

  GroupState& GroupFor(AttrValue g);

  /// The seed event path: in-order processing through counters + chains.
  void ProcessOrdered(const Event& e);

  /// The one state-maintenance walk. Every expiry test (counter starts,
  /// snapshots, panes) compares a time with a window end j*slide + length,
  /// so its answer depends only on the epoch FirstWindowCovering(t) and
  /// cannot change between two boundaries: the walk runs once per epoch,
  /// when event time or the safe point reaches next_boundary_. It samples
  /// memory_ (before expiring: the peak of the closing epoch), expires
  /// counter starts and snapshot panes against `t` and, under an evicting
  /// disorder policy, erases groups left with no state at all.
  void SweepState(Timestamp t);

  /// The collector chain emissions go to: staged under watermarking
  /// (finalization moves cells to results_), results_ otherwise.
  ResultCollector& sink() { return policy_.enabled ? staged_ : results_; }

  const Workload* workload_;
  std::string error_;
  CompiledPlanHandle compiled_;
  /// Per-group executor state, keyed by the partition attribute value.
  /// Open-addressing flat table: the per-event group lookup is a probe
  /// over contiguous slots, and a warmed table allocates nothing
  /// (DESIGN.md "Hot-path memory layout").
  FlatMap<AttrValue, GroupState, Mix64Hash> groups_;
  ResultCollector results_;
  MemoryMeter memory_;  ///< sampled by SweepState and at the end of Run
  Timestamp now_ = 0;
  /// WindowEnd of the epoch of the last SweepState: the first tick at
  /// which any expiry test can change its answer. Starts unset (lowest
  /// tick) on every new, restored or swapped-in engine, so its first
  /// event sweeps; not checkpointed.
  Timestamp next_boundary_ = std::numeric_limits<Timestamp>::min();

  // --- watermark mode state ---------------------------------------------
  struct LaterTime {
    bool operator()(const Event& a, const Event& b) const {
      return a.time > b.time;
    }
  };
  DisorderPolicy policy_;
  std::priority_queue<Event, std::vector<Event>, LaterTime> reorder_;
  ResultCollector staged_;          ///< cells of not-yet-finalized windows
  WatermarkStats wm_stats_;
  Timestamp frontier_ = 0;          ///< ticks below this were released
  Timestamp high_mark_ = kNoWatermark;  ///< highest event time observed
  WindowId next_finalize_ = 0;      ///< windows below this are finalized
  Timestamp results_floor_ = kNoWatermark;  ///< hot-swap handoff boundary
  WindowId floor_limit_ = 0;        ///< windows below this are suppressed
  const obs::EngineObs* obs_ = nullptr;  ///< optional telemetry handle
};

}  // namespace sharon

#endif  // SHARON_EXEC_ENGINE_H_
