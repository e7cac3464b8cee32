// Failure-injection and edge-case tests for the engine: malformed plans,
// degenerate workloads, unknown event types, empty streams, tumbling
// windows, long-gap expiration, and the once-per-window-boundary state
// sweep (bounded, exact across punctuation periods and checkpoints).

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "src/checkpoint/checkpoint.h"
#include "src/exec/engine.h"
#include "src/exec/multi_engine.h"
#include "src/twostep/reference.h"

namespace sharon {
namespace {

constexpr EventTypeId kA = 0, kB = 1, kC = 2;

Event Ev(EventTypeId type, Timestamp t) {
  Event e;
  e.type = type;
  e.time = t;
  e.attrs = {0};
  return e;
}

Query MakeQuery(std::vector<EventTypeId> pattern, Duration len = 100,
                Duration slide = 10) {
  Query q;
  q.pattern = Pattern(std::move(pattern));
  q.agg = AggSpec::CountStar();
  q.window = {len, slide};
  return q;
}

TEST(EngineEdgeTest, EmptyWorkloadRejected) {
  Workload w;
  Engine e(w);
  EXPECT_FALSE(e.ok());
}

TEST(EngineEdgeTest, NonUniformWorkloadRejected) {
  Workload w;
  w.Add(MakeQuery({kA, kB}, 100, 10));
  w.Add(MakeQuery({kA, kB}, 200, 10));  // different window
  Engine e(w);
  EXPECT_FALSE(e.ok());
  EXPECT_NE(e.error().find("uniform"), std::string::npos);
}

TEST(EngineEdgeTest, PlanPatternNotInQueryRejected) {
  Workload w;
  w.Add(MakeQuery({kA, kB}));
  w.Add(MakeQuery({kA, kB}));
  SharingPlan plan = {{Pattern({kB, kC}), {0, 1}}};
  Engine e(w, plan);
  EXPECT_FALSE(e.ok());
}

TEST(EngineEdgeTest, UnknownEventTypesIgnored) {
  Workload w;
  w.Add(MakeQuery({kA, kB}));
  Engine e(w);
  ASSERT_TRUE(e.ok());
  e.OnEvent(Ev(kA, 1));
  e.OnEvent(Ev(99, 2));  // type no query mentions
  e.OnEvent(Ev(kB, 3));
  EXPECT_EQ(e.results().Value(0, 0, 0, AggFunction::kCountStar), 1);
}

TEST(EngineEdgeTest, EmptyStream) {
  Workload w;
  w.Add(MakeQuery({kA, kB}));
  Engine e(w);
  RunStats stats = e.Run({}, 0);
  EXPECT_EQ(stats.events_processed, 0u);
  EXPECT_EQ(e.results().size(), 0u);
}

TEST(EngineEdgeTest, TumblingWindowsDoNotDoubleCount) {
  Workload w;
  w.Add(MakeQuery({kA, kB}, 10, 10));
  Engine e(w);
  // (a,b) entirely in window 0; (a12,b15) entirely in window 1.
  for (const Event& ev :
       {Ev(kA, 1), Ev(kB, 2), Ev(kA, 12), Ev(kB, 15)}) {
    e.OnEvent(ev);
  }
  EXPECT_EQ(e.results().Value(0, 0, 0, AggFunction::kCountStar), 1);
  EXPECT_EQ(e.results().Value(0, 1, 0, AggFunction::kCountStar), 1);
  // Cross-boundary pair (a1 .. b15) matches no window.
  EXPECT_EQ(e.results().size(), 2u);
}

TEST(EngineEdgeTest, LongGapExpiresEverything) {
  Workload w;
  w.Add(MakeQuery({kA, kB}, 10, 5));
  Engine e(w);
  e.OnEvent(Ev(kA, 1));
  e.OnEvent(Ev(kB, 1000000));  // far beyond any shared window
  EXPECT_EQ(e.results().size(), 0u);
  EXPECT_LT(e.EstimatedBytes(), 4096u);  // stale state was dropped
}

TEST(EngineEdgeTest, SweepKeepsStateBounded) {
  // Feed many events over a long horizon; state must stay proportional
  // to the window, not the stream.
  Workload w;
  w.Add(MakeQuery({kA, kB}, 64, 16));
  Engine e(w);
  size_t peak = 0;
  for (Timestamp t = 1; t <= 100000; ++t) {
    e.OnEvent(Ev(t % 2 == 0 ? kA : kB, t));
    if (t % 10000 == 0) peak = std::max(peak, e.EstimatedBytes());
  }
  // ~32 live starts x ~100B plus snapshots and results; the point is it
  // is nowhere near 100k events' worth of state.
  EXPECT_LT(e.EstimatedBytes(), 1u << 20);
}

TEST(EngineEdgeTest, CandidateWithSubsetOfQueriesSharesOnlyThose) {
  // Plan shares (A,B) between q0 and q1 only; q2 runs privately. All
  // three must produce identical (correct) results.
  Workload w;
  w.Add(MakeQuery({kA, kB}));
  w.Add(MakeQuery({kA, kB}));
  w.Add(MakeQuery({kA, kB}));
  SharingPlan plan = {{Pattern({kA, kB}), {0, 1}}};
  Engine e(w, plan);
  ASSERT_TRUE(e.ok());
  std::vector<Event> stream = {Ev(kA, 1), Ev(kB, 2), Ev(kB, 3)};
  for (const Event& ev : stream) e.OnEvent(ev);
  for (QueryId q : {0u, 1u, 2u}) {
    EXPECT_EQ(e.results().Value(q, 0, 0, AggFunction::kCountStar), 2)
        << "q" << q;
  }
}

TEST(EngineEdgeTest, DuplicateCandidatePatternsDisjointQueries) {
  // Two candidates with the SAME pattern over disjoint query sets (the
  // §7.1 option shape): both compile and share one physical counter.
  Workload w;
  for (int i = 0; i < 4; ++i) w.Add(MakeQuery({kA, kB}));
  SharingPlan plan = {
      {Pattern({kA, kB}), {0, 1}},
      {Pattern({kA, kB}), {2, 3}},
  };
  Engine e(w, plan);
  ASSERT_TRUE(e.ok()) << e.error();
  EXPECT_EQ(e.num_shared_counters(), 1u);
  e.OnEvent(Ev(kA, 1));
  e.OnEvent(Ev(kB, 2));
  for (QueryId q = 0; q < 4; ++q) {
    EXPECT_EQ(e.results().Value(q, 0, 0, AggFunction::kCountStar), 1);
  }
}

// --- the window-boundary state sweep -------------------------------------

constexpr Duration kLength = 400, kSlide = 100;
constexpr AttrValue kGroups = 6;

Event GroupEv(EventTypeId type, Timestamp t, AttrValue group) {
  Event e = Ev(type, t);
  e.attrs = {group, static_cast<AttrValue>(t % 7)};
  return e;
}

/// Three grouped queries, two sharing the (A,B) prefix, one summing B.x.
Workload SweepWorkload() {
  Workload w;
  Query q = MakeQuery({kA, kB}, kLength, kSlide);
  q.partition_attr = 0;
  w.Add(q);
  q.pattern = Pattern({kA, kB, kC});
  w.Add(q);
  q.pattern = Pattern({kB, kC});
  q.agg = AggSpec::Of(AggFunction::kSum, kB, 1);
  w.Add(q);
  return w;
}

SharingPlan SweepPlan() { return {{Pattern({kA, kB}), {0, 1}}}; }

/// One event per tick over `slides` slides, cycling types and groups.
std::vector<Event> SweepStream(int slides) {
  std::vector<Event> events;
  for (Timestamp t = 1; t < slides * kSlide; ++t) {
    events.push_back(GroupEv(static_cast<EventTypeId>((t * 7) % 3), t,
                             (t / 3) % kGroups));
  }
  return events;
}

DisorderPolicy SweepPolicy() {
  DisorderPolicy policy;
  policy.enabled = true;
  policy.max_lateness = 3;
  return policy;
}

/// Feeds events[begin, end) with a watermark every `period` ticks.
void FeedPunctuated(Engine& e, const std::vector<Event>& events, size_t begin,
                    size_t end, Duration period) {
  for (size_t i = begin; i < end; ++i) {
    e.OnEvent(events[i]);
    if (events[i].time % period == 0) e.OnEvent(WatermarkEvent(events[i].time));
  }
}

using CellMap = std::map<std::tuple<QueryId, WindowId, AttrValue>, AggState>;

CellMap CellsOf(const ResultCollector& collector) {
  CellMap cells;
  collector.ForEachCell([&](const ResultKey& key, const AggState& state) {
    cells[{key.query, key.window, key.group}] = state;
  });
  return cells;
}

void ExpectNoStateLeft(const Engine& e) {
  const LiveState live = e.LiveStateSnapshot();
  EXPECT_EQ(live.groups, 0u);
  EXPECT_EQ(live.counter_starts, 0u);
  EXPECT_EQ(live.snapshot_panes, 0u);
  EXPECT_EQ(live.pending_windows, 0u);
  EXPECT_EQ(live.buffered_events, 0u);
}

TEST(EngineSweepTest, OneSweepPerWindowBoundary) {
  const Workload w = SweepWorkload();
  const std::vector<Event> events = SweepStream(40);
  Engine e(w, SweepPlan());
  ASSERT_TRUE(e.ok()) << e.error();
  e.SetDisorderPolicy(SweepPolicy());
  FeedPunctuated(e, events, 0, events.size(), kSlide / 20);

  const WatermarkStats& ws = e.watermark_stats();
  const WindowSpec window{kLength, kSlide};
  // Every sweep point lies in [first event time, last safe point]; the
  // first sweep sets the epoch, each later one needs a new epoch.
  const WindowId crossed = window.FirstWindowCovering(ws.safe_point) -
                           window.FirstWindowCovering(events.front().time);
  ASSERT_GT(crossed, 30);
  EXPECT_GE(ws.state_sweeps, 1u);
  EXPECT_LE(ws.state_sweeps, static_cast<uint64_t>(crossed) + 1);
  EXPECT_GT(ws.evicted_panes, 0u);
}

TEST(EngineSweepTest, ResultsInvariantUnderPunctuationPeriod) {
  const Workload w = SweepWorkload();
  const std::vector<Event> events = SweepStream(30);
  const CellMap expected = CellsOf(ReferenceResults(w, events));
  ASSERT_FALSE(expected.empty());
  for (Duration period : {kSlide / 20, kSlide / 2, kSlide}) {
    Engine e(w, SweepPlan());
    ASSERT_TRUE(e.ok()) << e.error();
    e.SetDisorderPolicy(SweepPolicy());
    FeedPunctuated(e, events, 0, events.size(), period);
    e.CloseStream();
    EXPECT_EQ(CellsOf(e.results()), expected) << "period " << period;
    ExpectNoStateLeft(e);
  }
}

/// Restores the one segment engine of `src` into `dst` through the
/// checkpoint frame encoding.
void RestoreViaCheckpoint(const MultiEngine& src, Engine& dst) {
  checkpoint::ShardCheckpointInput in;
  in.num_shards = 1;
  in.executor = &src;
  checkpoint::ShardCheckpointData data;
  ASSERT_EQ(checkpoint::DecodeShardCheckpoint(
                checkpoint::EncodeShardCheckpoint(in), &data),
            "");
  ASSERT_EQ(data.segments.size(), 1u);
  const auto& seg = data.segments[0];
  dst.SetDisorderPolicy(src.engines()[0]->disorder_policy());
  dst.RestoreScalarState(seg.scalars);
  for (const auto& [g, payload] : seg.groups) {
    serde::BinaryReader r(payload);
    ASSERT_EQ(dst.LoadGroupState(g, r), "");
  }
  for (const checkpoint::CellRecord& c : seg.cells) {
    ResultCollector& store =
        c.store == 0 ? dst.mutable_staged_results() : dst.mutable_results();
    store.RestoreCell(c.query, c.window, c.group, c.state);
  }
  for (const Event& ev : seg.buffered) dst.RestoreBufferedEvent(ev);
}

TEST(EngineSweepTest, MidSlideRestoreContinuesBitIdentical) {
  const Workload w = SweepWorkload();
  const std::vector<Event> events = SweepStream(30);
  constexpr Duration kPeriod = kSlide / 20;

  Engine whole(w, SweepPlan());
  ASSERT_TRUE(whole.ok()) << whole.error();
  whole.SetDisorderPolicy(SweepPolicy());
  FeedPunctuated(whole, events, 0, events.size(), kPeriod);
  whole.CloseStream();

  // Cut right after the watermark at the middle of slide 12, far from any
  // window boundary (boundaries are multiples of kSlide here).
  const Timestamp cut_time = 12 * kSlide + kSlide / 2;
  size_t cut = 0;
  while (events[cut].time <= cut_time) ++cut;
  // Shards checkpoint a MultiEngine; a uniform workload is one segment.
  MultiEngine before(PlanUniformEngine(w, SweepPlan()));
  ASSERT_TRUE(before.ok()) << before.error();
  Engine& before_engine = *before.mutable_segment_engine(0);
  before_engine.SetDisorderPolicy(SweepPolicy());
  FeedPunctuated(before_engine, events, 0, cut, kPeriod);

  Engine after(w, SweepPlan());
  RestoreViaCheckpoint(before, after);
  if (HasFatalFailure()) return;
  const uint64_t restored_sweeps = after.watermark_stats().state_sweeps;
  EXPECT_EQ(restored_sweeps, before_engine.watermark_stats().state_sweeps);

  // The restored engine starts with its epoch unset: the first release
  // sweeps once even though no boundary was crossed.
  size_t next_wm = cut;
  while (events[next_wm].time % kPeriod != 0) ++next_wm;
  FeedPunctuated(after, events, cut, next_wm + 1, kPeriod);
  EXPECT_EQ(after.watermark_stats().state_sweeps, restored_sweeps + 1);

  FeedPunctuated(after, events, next_wm + 1, events.size(), kPeriod);
  after.CloseStream();
  EXPECT_EQ(CellsOf(after.results()), CellsOf(whole.results()));
  EXPECT_EQ(after.watermark_stats().state_sweeps,
            whole.watermark_stats().state_sweeps + 1);
  ExpectNoStateLeft(after);
}

}  // namespace
}  // namespace sharon
