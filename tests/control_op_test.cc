// Control operations (plan swap, checkpoint) share one path: one command
// type, one marker, one staged slot per shard (src/runtime/plan_swap.h).
//
// Three suites:
//   ShardControlSlot      the single-slot contract, exercised directly on
//                         a Shard whose channel the test feeds by hand
//   ObsControlTelemetry   every accepted and refused request lands on its
//                         kind's counters and trace events, with the
//                         pinned OpRefusal value as the refusal payload
//   RuntimeControlKnobs   metamorphic: one stream with one plan swap and
//                         one checkpoint/restore at fixed ingest positions,
//                         run under every combination of the transport
//                         knobs (batch size, queue capacity, producers) —
//                         a marker alone in a batch, deep inside one, or
//                         split across producers must never change a
//                         finalized cell, a swap id or a boundary.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/obs/runtime_telemetry.h"
#include "src/planner/optimizer.h"
#include "src/runtime/shard.h"
#include "src/runtime/sharded_runtime.h"
#include "src/streamgen/disorder.h"
#include "src/streamgen/drift.h"
#include "src/streamgen/rates.h"
#include "src/twostep/reference.h"

namespace sharon {
namespace {

using runtime::ControlCommand;
using runtime::ControlKind;
using runtime::OpRefusal;
using runtime::RuntimeOptions;
using runtime::Shard;
using runtime::ShardedRuntime;

using CellMap = std::map<std::tuple<QueryId, WindowId, AttrValue>, AggState>;

template <typename Source>
CellMap CellsOf(const Source& source) {
  CellMap cells;
  source.ForEachCell([&](const ResultKey& key, const AggState& state) {
    cells[{key.query, key.window, key.group}] = state;
  });
  return cells;
}

/// Drift stream whose optimal plan flips at the phase change: the initial
/// plan is optimized for phase 0, the swap target for phase 1.
struct ControlCase {
  Workload workload;
  std::vector<Event> events;    // sorted
  std::vector<Event> arrivals;  // disordered, punctuated
  SharingPlan initial_plan;
  SharingPlan swap_plan;
  Duration lateness = 0;
  CellMap oracle;
};

ControlCase MakeControlCase() {
  ControlCase c;
  DriftConfig config;
  config.num_types = 8;
  config.num_groups = 12;
  config.events_per_second = 400;
  config.phase_length = Seconds(20);
  config.num_phases = 2;
  config.seed = 23;
  Scenario s = GenerateDrift(config);
  const WindowSpec window{Seconds(10), Seconds(4)};  // slide ∤ length
  c.workload = DriftWorkload(config, window, /*anchors_per_side=*/6,
                             /*bridges=*/3);
  c.events = std::move(s.events);
  const Timestamp flip = config.phase_length;
  c.initial_plan =
      OptimizeGreedy(c.workload, CostModel(RatesOfSlice(c.events, 0, flip,
                                                        config.num_types)))
          .plan;
  c.swap_plan = OptimizeGreedy(c.workload,
                               CostModel(RatesOfSlice(c.events, flip, 2 * flip,
                                                      config.num_types)))
                    .plan;
  c.lateness = window.slide;
  DisorderConfig inj;
  inj.max_lateness = c.lateness;
  inj.punctuation_period = Seconds(1);
  inj.seed = 0x5eed;
  c.arrivals = InjectDisorder(c.events, inj);
  c.oracle = CellsOf(ReferenceResults(c.workload, c.events));
  return c;
}

// --- ShardControlSlot ------------------------------------------------------

RuntimeOptions SlotOptions() {
  RuntimeOptions opts;
  opts.queue_capacity = 8;
  opts.disorder.enabled = true;
  opts.disorder.max_lateness = Seconds(4);
  return opts;
}

ControlCommand MakeSwapCommand(CompiledPlanHandle plan) {
  ControlCommand cmd;
  cmd.kind = ControlKind::kSwap;
  cmd.id = 1;
  cmd.boundary = Seconds(10);
  cmd.plan = std::move(plan);
  return cmd;
}

ControlCommand MakeCheckpointCommand(const std::string& dir) {
  ControlCommand cmd;
  cmd.kind = ControlKind::kCheckpoint;
  cmd.id = 1;
  cmd.num_shards = 1;
  cmd.dir = dir;
  return cmd;
}

/// Producer side of the shard's only channel, driven by the test thread.
void Feed(Shard& shard, std::vector<Event> batch) {
  while (!shard.channel(0).full.TryPush(std::move(batch))) {
    std::this_thread::yield();
  }
}

/// Spins until `done()` or a generous deadline; false on timeout.
template <typename Pred>
bool WaitFor(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

struct SlotFixture {
  ControlCase c = MakeControlCase();
  std::string error;
  CompiledPlanHandle initial =
      CompilePlanShared(c.workload, c.initial_plan, &error);
  CompiledPlanHandle next = CompilePlanShared(c.workload, c.swap_plan, &error);
  /// The one-segment plan a shard runs (Shard's only constructor).
  std::shared_ptr<const MultiEnginePlan> plan =
      PlanUniformEngine(c.workload, c.initial_plan);
};

// A staged command of either kind holds the one slot: the other kind and a
// second command of the same kind are refused until it is cancelled.
TEST(ShardControlSlot, StagedCommandRefusesBothKinds) {
  SlotFixture f;
  ASSERT_TRUE(f.initial && f.next) << f.error;
  Shard shard(0, f.plan, SlotOptions());
  ASSERT_TRUE(shard.ok()) << shard.error();
  const std::string dir = ::testing::TempDir();

  ASSERT_TRUE(shard.PushControl(MakeCheckpointCommand(dir)));
  EXPECT_EQ(shard.control_in_flight(), ControlKind::kCheckpoint);
  EXPECT_FALSE(shard.PushControl(MakeSwapCommand(f.next)));
  EXPECT_FALSE(shard.PushControl(MakeCheckpointCommand(dir)));
  EXPECT_TRUE(shard.checkpoint_in_flight());
  shard.CancelControl();
  EXPECT_EQ(shard.control_in_flight(), ControlKind::kNone);

  ASSERT_TRUE(shard.PushControl(MakeSwapCommand(f.next)));
  EXPECT_EQ(shard.control_in_flight(), ControlKind::kSwap);
  EXPECT_FALSE(shard.PushControl(MakeCheckpointCommand(dir)));
  EXPECT_FALSE(shard.PushControl(MakeSwapCommand(f.next)));
  EXPECT_TRUE(shard.swap_in_flight());
  shard.CancelControl();
  EXPECT_EQ(shard.control_in_flight(), ControlKind::kNone);
  // Cancelling an empty slot is a no-op.
  shard.CancelControl();
  EXPECT_EQ(shard.control_in_flight(), ControlKind::kNone);
  // A swap this shard cannot run never takes the slot.
  EXPECT_FALSE(shard.PushControl(MakeSwapCommand(nullptr)));
  EXPECT_EQ(shard.control_in_flight(), ControlKind::kNone);
}

// Once the worker took the command at its marker, CancelControl is a
// no-op: it neither disarms an active swap nor re-arms a finished op, and
// the slot is free again once the op completed.
TEST(ShardControlSlot, CancelAfterPickupIsANoOp) {
  SlotFixture f;
  ASSERT_TRUE(f.initial && f.next) << f.error;
  Shard shard(0, f.plan, SlotOptions());
  ASSERT_TRUE(shard.ok()) << shard.error();
  shard.Start();

  // Checkpoint: the worker runs it synchronously at the marker.
  const std::string dir = ::testing::TempDir() + "sharon_slot_ckpt";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(shard.PushControl(MakeCheckpointCommand(dir)));
  Feed(shard, {runtime::ControlMarkerEvent()});
  ASSERT_TRUE(WaitFor([&] { return !shard.checkpoint_in_flight(); }));
  EXPECT_TRUE(shard.checkpoint_outcome().error.empty())
      << shard.checkpoint_outcome().error;
  EXPECT_TRUE(std::filesystem::exists(dir + "/" +
                                      checkpoint::ShardFileName(0)));
  shard.CancelControl();
  EXPECT_EQ(shard.control_in_flight(), ControlKind::kNone);

  // Swap: in flight from pickup until the old engine retires. The
  // watermark behind the marker proves the worker passed the marker.
  const ControlCommand swap = MakeSwapCommand(f.next);
  const Timestamp cap = swap.boundary + SlotOptions().disorder.max_lateness;
  ASSERT_TRUE(shard.PushControl(swap));
  Feed(shard, {runtime::ControlMarkerEvent(), WatermarkEvent(cap - 1)});
  ASSERT_TRUE(WaitFor([&] { return shard.watermark() == cap - 1; }));
  shard.CancelControl();
  EXPECT_TRUE(shard.swap_in_flight()) << "cancel disarmed an active swap";
  EXPECT_FALSE(shard.PushControl(MakeCheckpointCommand(dir)));
  Feed(shard, {WatermarkEvent(cap)});
  ASSERT_TRUE(WaitFor([&] { return !shard.swap_in_flight(); }));
  shard.CancelControl();
  EXPECT_EQ(shard.control_in_flight(), ControlKind::kNone);

  // The slot is free again.
  ASSERT_TRUE(shard.PushControl(MakeCheckpointCommand(dir)));
  shard.CancelControl();
  shard.SignalDone();
  shard.Join();
  ASSERT_EQ(shard.swap_records().size(), 1u);
  EXPECT_EQ(shard.swap_records()[0].id, swap.id);
  std::filesystem::remove_all(dir);
}

// A control marker with nothing staged runs nothing: the results equal a
// marker-free run of the same stream, and markers never count as data.
TEST(ShardControlSlot, SpuriousMarkerIsIgnored) {
  SlotFixture f;
  ASSERT_TRUE(f.initial) << f.error;
  auto run = [&](size_t marker_every) {
    auto shard =
        std::make_unique<Shard>(0, f.plan, SlotOptions());
    shard->Start();
    std::vector<Event> batch;
    for (size_t i = 0; i < f.c.arrivals.size(); ++i) {
      if (marker_every && i % marker_every == 0) {
        batch.push_back(runtime::ControlMarkerEvent());
      }
      batch.push_back(f.c.arrivals[i]);
      if (batch.size() >= 64) {
        Feed(*shard, std::move(batch));
        batch.clear();
      }
    }
    batch.push_back(WatermarkEvent(kWatermarkMax));
    Feed(*shard, std::move(batch));
    shard->SignalDone();
    shard->Join();
    EXPECT_EQ(shard->control_in_flight(), ControlKind::kNone);
    EXPECT_TRUE(shard->swap_records().empty());
    return shard;
  };
  const std::unique_ptr<Shard> plain = run(0);
  const std::unique_ptr<Shard> marked = run(97);
  EXPECT_EQ(marked->stats().events, plain->stats().events);
  const CellMap expected = CellsOf(*plain);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(CellsOf(*marked), expected);
  EXPECT_EQ(expected, f.c.oracle);
}

// --- RuntimeControlKnobs ---------------------------------------------------

/// What one knob configuration observed besides its cells.
struct ControlTrace {
  uint64_t swap_id = 0;
  Timestamp swap_boundary = 0;
  uint64_t checkpoint_id = 0;
  Timestamp checkpoint_boundary = 0;
  uint64_t restored_swaps = 0;

  bool operator==(const ControlTrace&) const = default;
};

/// Drives `[begin, end)` of `arrivals` through `producers` partitions from
/// this thread: data round-robin, punctuations to every partition.
void IngestRange(ShardedRuntime& rt, const std::vector<Event>& arrivals,
                 size_t begin, size_t end, size_t producers) {
  size_t rr = 0;
  for (size_t i = begin; i < end; ++i) {
    const Event& e = arrivals[i];
    if (IsWatermark(e)) {
      for (size_t p = 0; p < producers; ++p) {
        rt.ingest_partition(p).IngestWatermark(e.time);
      }
    } else {
      rt.ingest_partition(rr++ % producers).Ingest(e);
    }
  }
}

RuntimeOptions KnobOptions(size_t batch, size_t capacity, size_t producers) {
  RuntimeOptions opts;
  opts.num_shards = 2;
  opts.batch_size = batch;
  opts.queue_capacity = capacity;
  opts.ingest_partitions = producers;
  opts.disorder.enabled = true;
  opts.disorder.max_lateness = Seconds(4);
  return opts;
}

/// Swap at 1/5 of the arrivals, checkpoint at 3/4 (once the swap retired —
/// only flushing, never ingesting, in between: the watermarks routed by
/// then pass the swap's cap), restore, finish.
ControlTrace RunWithKnobs(const ControlCase& c, size_t batch,
                          size_t capacity, size_t producers,
                          const std::string& label) {
  ControlTrace trace;
  const size_t swap_at = c.arrivals.size() / 5;
  const size_t checkpoint_at = 3 * c.arrivals.size() / 4;
  const std::string dir = ::testing::TempDir() + "sharon_knobs_" + label;
  std::filesystem::remove_all(dir);
  const RuntimeOptions opts = KnobOptions(batch, capacity, producers);
  {
    ShardedRuntime rt(c.workload, c.initial_plan, opts);
    EXPECT_TRUE(rt.ok()) << label << ": " << rt.error();
    std::string error;
    CompiledPlanHandle next =
        CompilePlanShared(c.workload, c.swap_plan, &error);
    EXPECT_TRUE(next) << error;
    rt.Start();
    IngestRange(rt, c.arrivals, 0, swap_at, producers);
    const ShardedRuntime::SwapRequest swap = rt.RequestPlanSwap(next);
    EXPECT_TRUE(swap.accepted) << label << ": " << swap.reason;
    trace.swap_id = swap.id;
    trace.swap_boundary = swap.boundary;
    IngestRange(rt, c.arrivals, swap_at, checkpoint_at, producers);
    ShardedRuntime::CheckpointResult cp = rt.Checkpoint(dir);
    const bool retired = WaitFor([&] {
      if (cp.code != OpRefusal::kSwapInFlight) return true;
      rt.Flush();
      cp = rt.Checkpoint(dir);
      return false;
    });
    EXPECT_TRUE(retired) << label << ": swap never retired";
    EXPECT_TRUE(cp.ok) << label << ": " << cp.reason;
    trace.checkpoint_id = cp.id;
    trace.checkpoint_boundary = cp.boundary;
  }
  ShardedRuntime::RestoreOptions ropts;
  ropts.runtime = opts;
  ropts.workload = &c.workload;
  ropts.plan = c.swap_plan;  // the incumbent at the cut
  ShardedRuntime::RestoreOutcome restored = ShardedRuntime::Restore(dir, ropts);
  EXPECT_TRUE(restored.runtime) << label << ": " << restored.error;
  if (!restored.runtime) return trace;
  ShardedRuntime& rt = *restored.runtime;
  trace.restored_swaps = rt.swaps_requested();
  rt.Start();
  IngestRange(rt, c.arrivals, checkpoint_at, c.arrivals.size(), producers);
  rt.Finish();
  const CellMap cells = CellsOf(rt.results());
  EXPECT_EQ(cells.size(), c.oracle.size()) << label;
  EXPECT_TRUE(cells == c.oracle) << label << ": cells differ from the oracle";
  std::filesystem::remove_all(dir);
  return trace;
}

TEST(RuntimeControlKnobs, SwapAndCheckpointInvariantUnderTransportKnobs) {
  const ControlCase c = MakeControlCase();
  ASSERT_NE(c.initial_plan, c.swap_plan) << "the swap must change the plan";
  ASSERT_FALSE(c.oracle.empty());
  std::optional<ControlTrace> reference;
  for (size_t batch : {1u, 32u, 4096u}) {
    for (size_t capacity : {2u, 64u}) {
      for (size_t producers : {1u, 3u}) {
        const std::string label = "b" + std::to_string(batch) + "_q" +
                                  std::to_string(capacity) + "_p" +
                                  std::to_string(producers);
        const ControlTrace trace =
            RunWithKnobs(c, batch, capacity, producers, label);
        EXPECT_EQ(trace.swap_id, 1u) << label;
        EXPECT_EQ(trace.restored_swaps, 1u) << label;
        if (!reference) reference = trace;
        EXPECT_TRUE(trace == *reference)
            << label << ": swap/checkpoint ids or boundaries moved with the "
            << "transport knobs";
      }
    }
  }
}

// --- ObsControlTelemetry ---------------------------------------------------

uint64_t CounterOf(const obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::vector<obs::TraceEvent> EventsOf(const std::vector<obs::TraceEvent>& trace,
                                      obs::TraceKind kind) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : trace) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

TEST(ObsControlTelemetry, RequestsAndRefusalsLandOnTheirKind) {
  const ControlCase c = MakeControlCase();
  RuntimeOptions opts = KnobOptions(/*batch=*/32, /*capacity=*/8, 1);
  opts.obs.metrics = true;
  opts.obs.trace = true;
  ShardedRuntime rt(c.workload, c.initial_plan, opts);
  ASSERT_TRUE(rt.ok()) << rt.error();
  std::string error;
  CompiledPlanHandle next = CompilePlanShared(c.workload, c.swap_plan, &error);
  ASSERT_TRUE(next) << error;
  const std::string dir = ::testing::TempDir() + "sharon_control_obs";
  std::filesystem::remove_all(dir);

  rt.Start();
  IngestRange(rt, c.arrivals, 0, c.arrivals.size() / 4, 1);
  const ShardedRuntime::SwapRequest swap = rt.RequestPlanSwap(next);
  ASSERT_TRUE(swap.accepted) << swap.reason;
  // No watermark follows the marker, so the swap stays in flight.
  EXPECT_EQ(rt.RequestCheckpoint(dir).code, OpRefusal::kSwapInFlight);
  EXPECT_EQ(rt.RequestPlanSwap(nullptr).code, OpRefusal::kBadPlan);
  rt.Finish();
  EXPECT_EQ(rt.RequestCheckpoint(dir).code, OpRefusal::kNotRunning);

  const obs::MetricsSnapshot snap = rt.TelemetrySnapshot();
  EXPECT_EQ(CounterOf(snap, "sharon_swap_requests_total"), 1u);
  EXPECT_EQ(CounterOf(snap, "sharon_swaps_rejected_total"), 1u);
  EXPECT_EQ(CounterOf(snap, "sharon_checkpoint_requests_total"), 0u);
  EXPECT_EQ(CounterOf(snap, "sharon_checkpoints_rejected_total"), 2u);

  const std::vector<obs::TraceEvent> trace = rt.DumpTrace();
  const auto requested = EventsOf(trace, obs::TraceKind::kSwapRequested);
  const auto boundary = EventsOf(trace, obs::TraceKind::kSwapBoundary);
  ASSERT_EQ(requested.size(), 1u);
  ASSERT_EQ(boundary.size(), 1u);
  EXPECT_EQ(requested[0].a, static_cast<int64_t>(swap.id));
  EXPECT_EQ(requested[0].stream_time, kNoWatermark);
  EXPECT_EQ(boundary[0].stream_time, swap.boundary);
  EXPECT_TRUE(EventsOf(trace, obs::TraceKind::kCheckpointRequested).empty());
  const auto swap_refused = EventsOf(trace, obs::TraceKind::kSwapRejected);
  ASSERT_EQ(swap_refused.size(), 1u);
  EXPECT_EQ(swap_refused[0].a, 5);  // kBadPlan
  const auto ckpt_refused =
      EventsOf(trace, obs::TraceKind::kCheckpointRejected);
  ASSERT_EQ(ckpt_refused.size(), 2u);
  EXPECT_EQ(ckpt_refused[0].a, 6);  // kSwapInFlight
  EXPECT_EQ(ckpt_refused[1].a, 1);  // kNotRunning
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sharon
