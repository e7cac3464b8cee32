#include "perfbench/harness/workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>
#include <utility>

#include "perfbench/harness/spans.h"
#include "src/sharon.h"

namespace perfbench {
namespace {

using sharon::AggState;
using sharon::AttrValue;
using sharon::Duration;
using sharon::Engine;
using sharon::Event;
using sharon::LiveState;
using sharon::ResultKey;
using sharon::Seconds;
using sharon::SharingPlan;
using sharon::Timestamp;
using sharon::Workload;
using sharon::runtime::RuntimeOptions;
using sharon::runtime::ShardedRuntime;

// --- workload shapes (README.md "Workloads") --------------------------------

// tx_dense: the Fig. 14 taxi shape, closed loop.
constexpr uint32_t kTxStreets = 24;
constexpr uint32_t kTxVehicles = 64;
constexpr double kTxEventsPerSecond = 2000;
constexpr Duration kTxLength = sharon::Minutes(3);
constexpr Duration kTxPunctuation = Seconds(1) / 2;

// lr_fanin: Linear Road at a flat rate, one producer thread into two
// shards, closed loop. Two producer threads (four busy threads on the
// 4-vCPU box) ran slower than one and left lag p99 to the scheduler: it
// moved between 109 and 188 ms from run to run (README.md "Workloads").
constexpr uint32_t kLrSegments = 20;
constexpr uint32_t kLrCars = 2000;
constexpr double kLrEventsPerSecond = 4000;
constexpr Duration kLrLength = sharon::Minutes(10);
constexpr Duration kLrLateness = Seconds(1);
constexpr Duration kLrPunctuation = Seconds(1) / 4;

// drift_ops: rate drift under control operations, open loop.
constexpr uint32_t kDriftTypes = 8;
constexpr uint32_t kDriftGroups = 64;
constexpr double kDriftEventsPerSecond = 4000;
/// Two 30 s phases: one rate flip, so one drift swap per round meets the
/// churn swaps, and a round is short enough (240 k events) for a run to
/// hold ten. Longer streams with more flips gave more drift swaps
/// (and refused ones), but their lag p99 varied by 30-100% from round to
/// round (README.md "Choosing the drift_ops shape").
constexpr uint32_t kDriftPhases = 2;
constexpr Duration kDriftPhaseLength = Seconds(30);
constexpr Duration kDriftLateness = Seconds(1);
/// 1 200 punctuations per round: each round's lag p99 has 11 samples
/// beyond it.
constexpr Duration kDriftPunctuation = Seconds(1) / 20;
/// Offered rate in data events per wall second (4 s per round). Fixed:
/// never derived from a measured capacity, which is about 200 k on the
/// 4-vCPU box it was sized on. At 80-100 k a heavy stream or a busy host
/// pushed the dual run of the drift swap past capacity, and the backlog
/// that built then made lag p99 jump by 2-5x from round to round.
constexpr double kDriftOfferedRate = 60000;
/// Control cadences in data events (multiplied by --scale).
constexpr uint64_t kDriftChurnEvery = 100000;
constexpr uint64_t kDriftCheckpointEvery = 120000;
constexpr uint64_t kDriftScrapeEvery = 12000;
/// Generator tick: the paced loop sleeps this long when ahead of
/// schedule, then sends every event whose due time has passed.
constexpr int64_t kTickNs = 500'000;

/// The query sets stay fixed across run seeds (--query-seed overrides):
/// the generator's query
/// seed changes which patterns overlap, and with it the cost of a run by
/// up to 3.5x, which would drown any change a later version makes.
constexpr uint64_t kQuerySeed = 1;
/// Likewise the churn schedule: which queries register and retire
/// changes the standing set, and with it memory and throughput.
constexpr uint64_t kChurnSeed = 1;

/// Closed-loop producers sample lateness and poll the merged watermark
/// once per this many data events.
constexpr uint64_t kPollEvery = 64;

/// Set-up runs this many times per round; every pipeline but the last is
/// torn down again, and the round reports the median set-up time. One
/// set-up takes a few ms, so a single one is mostly scheduler noise, and
/// the first three or four of a round run slower while caches warm.
constexpr int kSetupReps = 15;

/// Longest the harness waits for the workers to apply the final
/// punctuations before it declares the round failed.
constexpr double kDrainTimeoutS = 60;

/// Optimizer limits for execution-focused runs: the unexpanded graph and
/// sharp plan-finder limits, so set-up stays short. The same values as
/// the figure benches use, copied so that the benchmark's workloads only
/// change when this directory does.
sharon::OptimizerConfig FastOptimizerConfig() {
  sharon::OptimizerConfig config;
  config.expand = false;
  config.finder.time_limit_seconds = 3.0;
  config.finder.max_level_plans = 200'000;
  return config;
}

Duration Scaled(Duration d, double scale) {
  return std::max<Duration>(Seconds(1),
                            static_cast<Duration>(static_cast<double>(d) * scale));
}

/// Generated inputs of one round (not part of the measured system).
struct Inputs {
  sharon::Scenario scenario;
  /// The standing query set; drift_ops churn appends and retires queries.
  Workload workload;
  /// Untouched copy of the initial query set, for the ladder rungs.
  Workload pristine;
  /// Send order: data events with watermark punctuations stamped in.
  std::vector<Event> arrivals;
  /// Per producer: its share of the data events plus every punctuation
  /// (closed loops; empty on drift_ops).
  std::vector<std::vector<Event>> splits;
  /// Punctuation watermark values in send order.
  std::vector<Timestamp> punctuations;
  RuntimeOptions ropts;
  uint64_t data_events = 0;
};

void FinishInputs(Inputs* in) {
  in->pristine = in->workload;
  for (const Event& e : in->arrivals) {
    if (sharon::IsWatermark(e)) {
      in->punctuations.push_back(e.time);
    } else {
      ++in->data_events;
    }
  }
}

/// Round-robin split of the data events over `producers`; every producer
/// sends every punctuation (src/chaos/soak.cc does the same).
void SplitProducers(size_t producers, Inputs* in) {
  in->splits.assign(producers, {});
  size_t rr = 0;
  for (const Event& e : in->arrivals) {
    if (sharon::IsWatermark(e)) {
      for (auto& s : in->splits) s.push_back(e);
    } else {
      in->splits[rr++ % producers].push_back(e);
    }
  }
  in->ropts.ingest_partitions = producers;
}

Inputs MakeTxDense(const RoundOptions& o) {
  Inputs in;
  sharon::TaxiConfig cfg;
  cfg.num_streets = kTxStreets;
  cfg.num_vehicles = kTxVehicles;
  cfg.events_per_second = kTxEventsPerSecond;
  cfg.duration = Scaled(kTxLength, o.scale);
  cfg.seed = o.seeds.stream;
  in.scenario = sharon::GenerateTaxi(cfg);

  sharon::WorkloadGenConfig w;
  w.num_queries = 20;
  w.pattern_length = 10;
  w.cluster_size = 10;
  w.backbone_extra = 2;
  w.window = {sharon::Minutes(2), Seconds(30)};
  w.partition_attr = 0;
  w.seed = o.seeds.query;
  in.workload = sharon::GenerateWorkload(w, cfg.num_streets);

  // Sorted stream. Windows finalize once per 30 s slide; a punctuation
  // every 500 ms of event time gives finalize lag 360 samples per round
  // (run.py pools three rounds per p99). Once a second left a run only
  // two lag groups; every 100 ms halved throughput.
  sharon::DisorderConfig d;
  d.max_lateness = 0;
  d.punctuation_period = kTxPunctuation;
  d.seed = o.seeds.disorder;
  in.arrivals = sharon::InjectDisorder(in.scenario.events, d);

  in.ropts.num_shards = 2;
  SplitProducers(1, &in);
  in.ropts.disorder.enabled = true;
  in.ropts.disorder.max_lateness = 0;
  FinishInputs(&in);
  return in;
}

Inputs MakeLrFanin(const RoundOptions& o) {
  Inputs in;
  sharon::LinearRoadConfig cfg;
  cfg.num_segments = kLrSegments;
  cfg.num_cars = kLrCars;
  cfg.start_rate = kLrEventsPerSecond;
  cfg.end_rate = kLrEventsPerSecond;
  cfg.duration = Scaled(kLrLength, o.scale);
  cfg.seed = o.seeds.stream;
  in.scenario = sharon::GenerateLinearRoad(cfg);

  sharon::WorkloadGenConfig w;
  w.num_queries = 8;
  w.pattern_length = 3;
  w.cluster_size = 4;
  w.backbone_extra = 2;
  w.window = {Seconds(20), Seconds(5)};
  w.partition_attr = 0;
  w.seed = o.seeds.query;
  in.workload = sharon::GenerateWorkload(w, cfg.num_segments);

  sharon::DisorderConfig d;
  d.max_lateness = kLrLateness;
  d.punctuation_period = kLrPunctuation;
  d.seed = o.seeds.disorder;
  in.arrivals = sharon::InjectDisorder(in.scenario.events, d);

  in.ropts.num_shards = 2;
  SplitProducers(1, &in);
  in.ropts.disorder.enabled = true;
  in.ropts.disorder.max_lateness = kLrLateness;
  FinishInputs(&in);
  return in;
}

sharon::DriftConfig DriftShape(const RoundOptions& o) {
  sharon::DriftConfig cfg;
  cfg.num_types = kDriftTypes;
  cfg.num_groups = kDriftGroups;
  cfg.events_per_second = kDriftEventsPerSecond;
  cfg.phase_length = Scaled(kDriftPhaseLength, o.scale);
  cfg.num_phases = kDriftPhases;
  cfg.seed = o.seeds.stream;
  return cfg;
}

Inputs MakeDriftOps(const RoundOptions& o) {
  Inputs in;
  const sharon::DriftConfig cfg = DriftShape(o);
  in.scenario = sharon::GenerateDrift(cfg);
  in.workload = sharon::DriftWorkload(cfg, {Seconds(10), Seconds(5)},
                                      /*anchors_per_side=*/8, /*bridges=*/3);
  sharon::DisorderConfig d;
  d.max_lateness = kDriftLateness;
  d.punctuation_period = kDriftPunctuation;
  d.seed = o.seeds.disorder;
  in.arrivals = sharon::InjectDisorder(in.scenario.events, d);

  in.ropts.num_shards = 2;
  in.ropts.ingest_partitions = 1;
  in.ropts.disorder.enabled = true;
  in.ropts.disorder.max_lateness = kDriftLateness;
  in.ropts.obs.metrics = true;
  in.ropts.obs.trace = true;
  FinishInputs(&in);
  return in;
}

// --- shared measurement pieces ----------------------------------------------

template <typename Results>
CellChecksum ChecksumOf(const Results& results) {
  CellChecksum c;
  results.ForEachCell(
      [&](const ResultKey& k, const AggState& s) { c.Add(k, s); });
  return c;
}

/// Records when the runtime's merged watermark first reaches each
/// punctuation. Polled from a harness thread between Ingest calls.
class WatermarkPoller {
 public:
  explicit WatermarkPoller(const std::vector<Timestamp>& values)
      : values_(values), reach_ns_(values.size(), 0) {}

  void Poll(const sharon::runtime::ResultMerger& m) {
    if (next_ >= values_.size()) return;
    const Timestamp w = m.MinWatermark();
    if (w == sharon::kNoWatermark || w < values_[next_]) return;
    const int64_t now = NowNs();
    while (next_ < values_.size() && values_[next_] <= w) {
      reach_ns_[next_++] = now;
    }
  }

  /// Polls until every punctuation was reached; false on timeout.
  bool Drain(const sharon::runtime::ResultMerger& m) {
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(kDrainTimeoutS * 1e9);
    while (next_ < values_.size()) {
      Poll(m);
      if (NowNs() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  }

  /// Lag of every punctuation against its due time, in ms.
  std::vector<double> LagMs(const std::vector<int64_t>& due_ns) const {
    std::vector<double> out;
    out.reserve(values_.size());
    for (size_t k = 0; k < values_.size() && k < due_ns.size(); ++k) {
      out.push_back(NsToMs(reach_ns_[k] - due_ns[k]));
    }
    return out;
  }

 private:
  const std::vector<Timestamp>& values_;
  std::vector<int64_t> reach_ns_;
  size_t next_ = 0;
};

/// Fills the layer counters every round reports from a finished runtime.
void CountRuntime(const ShardedRuntime& rt, RoundResult* r) {
  const sharon::runtime::RuntimeStats st = rt.stats();
  uint64_t idle = 0;
  double busy_max = 0;
  for (const auto& s : st.shards) {
    idle += s.idle_spins;
    busy_max = std::max(busy_max, s.busy_seconds);
  }
  const double busy = st.TotalBusySeconds();
  const double busy_mean =
      st.shards.empty() ? 0 : busy / static_cast<double>(st.shards.size());
  r->counts.Num("runtime.shard_busy_s", busy)
      .Num("runtime.shard_busy_skew", busy_mean > 0 ? busy_max / busy_mean : 0)
      .Int("runtime.producer_stalls", st.TotalStalls())
      .Int("runtime.worker_idle_spins", idle)
      .Num("runtime.batch_occupancy", st.AvgBatchOccupancy())
      .Int("runtime.late_dropped", st.TotalLateDropped())
      .Int("runtime.evicted_panes", st.TotalEvictedPanes());
}

/// Everything a drive leaves for the ladder and the gate.
struct Drive {
  SharingPlan plan;  ///< initial plan (the rungs run it)
  double optimize_ms = 0;
  size_t plan_candidates = 0;
  double ingest_s = 0;   ///< time inside Ingest calls (summed over producers)
  double finish_ms = 0;
  uint64_t allocs = 0;   ///< allocations from first Ingest to Finish()
  uint64_t late_dropped = 0;
  bool drained = true;
  RssProbe rss;  ///< started right before set-up
};

/// Runs `set_up` kSetupReps times, finishing and dropping every pipeline
/// but the last, and returns the last. The round's setup_s (and the
/// optimizer time) is the median over the reps. `set_up` fills
/// d->optimize_ms; a pipeline has Finish() and Reset().
template <typename SetUp>
auto RepeatSetUp(SpanRecorder& rec, Drive* d, RoundResult* r, SetUp set_up) {
  d->rss.Start();
  std::vector<double> setup_s, optimize_ms;
  decltype(set_up()) pipeline;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) {
      const int span = rec.Open("runtime.teardown");
      pipeline.Finish();
      pipeline.Reset();
      rec.Close(span);
    }
    const int64_t s0 = NowNs();
    pipeline = set_up();
    setup_s.push_back(NsToS(NowNs() - s0));
    optimize_ms.push_back(d->optimize_ms);
  }
  r->setup_s = Percentile(setup_s, 50);
  d->optimize_ms = Percentile(optimize_ms, 50);
  return pipeline;
}

/// The closed loops' pipeline: a started runtime.
struct ClosedLoopPipeline {
  std::unique_ptr<ShardedRuntime> rt;
  void Finish() { rt->Finish(); }
  void Reset() { rt.reset(); }
};

/// Set-up of the closed-loop workloads: rates, optimizer, runtime,
/// Start().
ClosedLoopPipeline SetUpClosedLoop(const Inputs& in, SpanRecorder& rec, Drive* d) {
  const int rates = rec.Open("planner.rates");
  sharon::CostModel cm(sharon::EstimateRates(in.scenario));
  rec.Close(rates);
  const int opt_span = rec.Open("planner.optimize");
  const int64_t o0 = NowNs();
  sharon::OptimizerResult opt =
      sharon::OptimizeSharon(in.workload, cm, FastOptimizerConfig());
  d->optimize_ms = NsToMs(NowNs() - o0);
  rec.Close(opt_span);
  d->plan = opt.plan;
  d->plan_candidates = opt.plan.size();
  const int construct = rec.Open("runtime.construct");
  ClosedLoopPipeline p{std::make_unique<ShardedRuntime>(in.workload, d->plan, in.ropts)};
  rec.Close(construct);
  const int start = rec.Open("runtime.start");
  p.rt->Start();
  rec.Close(start);
  return p;
}

/// Ends the drive: flush, wait for the final punctuations, Finish(), read
/// the probes.
void EndDrive(ShardedRuntime& rt, WatermarkPoller& poller, SpanRecorder& rec,
              int parent, int64_t t0, double cpu0,
              const sharon::alloc_stats::Counters& a0, Drive* d, RoundResult* r) {
  const int drain = rec.Open("runtime.drain", parent);
  rt.Flush();
  d->drained = poller.Drain(rt.results());
  rec.Close(drain);
  const int fin = rec.Open("runtime.finish", parent);
  const int64_t f0 = NowNs();
  rt.Finish();
  const int64_t t1 = NowNs();
  rec.Close(fin);
  d->finish_ms = NsToMs(t1 - f0);
  r->wall_s = NsToS(t1 - t0);
  r->cpu_s = ProcessCpuSeconds() - cpu0;
  d->allocs = (sharon::alloc_stats::Snapshot() - a0).allocations;
  r->peak_rss_mb = d->rss.PeakAboveBaseMiB();
  r->rss_reset = d->rss.reset();
  r->got = ChecksumOf(rt.results());
  CountRuntime(rt, r);
  d->late_dropped = rt.stats().TotalLateDropped();
}

// --- closed loops: one thread per producer, flat out ---------------------------

/// tx_dense (one producer) and lr_fanin (two): each producer thread sends
/// its split as fast as the runtime takes it.
Drive DriveClosedLoop(const Inputs& in, SpanRecorder& rec, RoundResult* r) {
  Drive d;
  ClosedLoopPipeline pipeline = RepeatSetUp(
      rec, &d, r, [&] { return SetUpClosedLoop(in, rec, &d); });
  ShardedRuntime* rt = pipeline.rt.get();
  WatermarkPoller poller(in.punctuations);
  const size_t producers = in.splits.size();
  std::vector<std::vector<int64_t>> sent(producers);
  std::vector<std::vector<double>> late(producers);
  std::vector<int64_t> ingest_ns(producers, 0);

  const int drive = rec.Open("bench.drive");
  const auto a0 = sharon::alloc_stats::Snapshot();
  const double cpu0 = ProcessCpuSeconds();
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  int64_t t0 = 0;
  for (size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      sharon::runtime::IngestPartition& part = rt->ingest_partition(p);
      const int thread = static_cast<int>(p) + 1;
      sent[p].reserve(in.punctuations.size());
      late[p].reserve(in.splits[p].size() / kPollEvery + 1);
      int64_t chunk_start = NowNs();
      uint64_t n = 0;
      for (const Event& e : in.splits[p]) {
        if (sharon::IsWatermark(e)) {
          sent[p].push_back(NowNs());
          part.IngestWatermark(e.time);
          const int64_t end = NowNs();
          ingest_ns[p] += end - chunk_start;
          rec.Add("runtime.ingest", chunk_start, end, drive, thread);
          chunk_start = end;
          continue;
        }
        if (n++ % kPollEvery == 0) {
          late[p].push_back(NsToMs(NowNs() - t0));
          if (p == 0) poller.Poll(rt->results());
        }
        part.Ingest(e);
      }
      const int64_t end = NowNs();
      if (end > chunk_start) {
        rec.Add("runtime.ingest", chunk_start, end, drive, thread);
      }
      ingest_ns[p] += end - chunk_start;
    });
  }
  t0 = NowNs();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  EndDrive(*rt, poller, rec, drive, t0, cpu0, a0, &d, r);
  rec.Close(drive);

  // A punctuation is due once the last producer sent it: the merged
  // frontier cannot pass it earlier.
  std::vector<int64_t> due(in.punctuations.size(), 0);
  for (size_t k = 0; k < due.size(); ++k) {
    for (size_t p = 0; p < producers; ++p) {
      if (k < sent[p].size()) due[k] = std::max(due[k], sent[p][k]);
    }
  }
  r->lag_ms = poller.LagMs(due);
  for (auto& l : late) r->late_ms.insert(r->late_ms.end(), l.begin(), l.end());
  int64_t total = 0;
  for (int64_t ns : ingest_ns) total += ns;
  d.ingest_s = NsToS(total);
  r->attempted = in.data_events;
  return d;
}

// --- drift_ops: open loop with control operations ------------------------------

/// Layer figures only drift_ops has (its control plane).
struct ControlFigures {
  std::vector<double> ingest_call_us;  ///< PlanManager::Ingest calls (traced)
  std::vector<double> churn_call_ms;
  std::vector<double> checkpoint_ms;
  std::vector<double> checkpoint_bytes;
  std::vector<double> snapshot_ms;
  uint64_t churn_calls = 0, churn_refused = 0;
  uint64_t checkpoints = 0, checkpoints_failed = 0;
  std::string checkpoint_refusal;  ///< reason of the last refused attempt
  uint64_t scrapes = 0;
};

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

/// drift_ops' pipeline: runtime, query registry and plan manager.
struct DriftPipeline {
  std::unique_ptr<ShardedRuntime> rt;
  std::unique_ptr<sharon::query::QueryRegistry> registry;
  std::unique_ptr<sharon::adaptive::PlanManager> mgr;
  void Finish() { rt->Finish(); }
  void Reset() {  // the manager and registry point into the others
    mgr.reset();
    registry.reset();
    rt.reset();
  }
};

/// Set-up of drift_ops: phase-0 rates, greedy optimizer, runtime, registry
/// and plan manager, Start().
DriftPipeline SetUpDrift(Inputs& in, const sharon::DriftConfig& cfg,
                         SpanRecorder& rec, Drive* d) {
  DriftPipeline p;
  const int rates = rec.Open("planner.rates");
  sharon::CostModel cm(sharon::RatesOfSlice(in.scenario.events, 0,
                                            cfg.phase_length, cfg.num_types));
  rec.Close(rates);
  const int opt_span = rec.Open("planner.optimize");
  const int64_t o0 = NowNs();
  sharon::OptimizerResult opt = sharon::OptimizeGreedy(in.workload, cm);
  d->optimize_ms = NsToMs(NowNs() - o0);
  rec.Close(opt_span);
  d->plan = opt.plan;
  d->plan_candidates = opt.plan.size();
  const int construct = rec.Open("runtime.construct");
  p.rt = std::make_unique<ShardedRuntime>(in.workload, d->plan, in.ropts);
  rec.Close(construct);
  const int adaptive_construct = rec.Open("adaptive.construct");
  p.registry = std::make_unique<sharon::query::QueryRegistry>(&in.workload);
  sharon::adaptive::PlanManagerOptions popts;
  popts.epoch = Seconds(4);
  popts.window_epochs = 2;
  popts.drift_threshold = 0.3;
  popts.hysteresis = 0.10;
  popts.optimizer = FastOptimizerConfig();
  p.mgr = std::make_unique<sharon::adaptive::PlanManager>(in.workload, p.rt.get(),
                                                          d->plan, popts);
  p.mgr->AttachRegistry(p.registry.get());
  rec.Close(adaptive_construct);
  const int start = rec.Open("runtime.start");
  p.rt->Start();
  rec.Close(start);
  return p;
}

Drive DriveDriftOps(Inputs& in, const RoundOptions& o, SpanRecorder& rec,
                    RoundResult* r) {
  Drive d;
  ControlFigures cf;
  const sharon::DriftConfig cfg = DriftShape(o);
  Workload& workload = in.workload;
  DriftPipeline pipeline =
      RepeatSetUp(rec, &d, r, [&] { return SetUpDrift(in, cfg, rec, &d); });
  ShardedRuntime& rt = *pipeline.rt;
  sharon::query::QueryRegistry& registry = *pipeline.registry;
  sharon::adaptive::PlanManager& mgr = *pipeline.mgr;

  // --- control operations ---------------------------------------------------
  std::mt19937_64 churn_rng(o.seeds.churn);
  const sharon::WindowSpec window = workload.queries().front().window;
  auto churn_step = [&] {
    const uint64_t roll = churn_rng() % 3;
    sharon::query::ChurnResult res;
    const int64_t c0 = NowNs();
    if (roll == 0) {
      std::uniform_int_distribution<size_t> len_dist(2, 3);
      const size_t len = len_dist(churn_rng);
      std::vector<sharon::EventTypeId> types(cfg.num_types);
      for (uint32_t t = 0; t < cfg.num_types; ++t) types[t] = t;
      std::shuffle(types.begin(), types.end(), churn_rng);
      types.resize(len);
      sharon::Query q;
      q.pattern = sharon::Pattern(std::move(types));
      q.agg = sharon::AggSpec::CountStar();
      q.window = window;
      q.partition_attr = workload.partition_attr();
      res = mgr.RegisterQuery(std::move(q));
    } else if (roll == 1) {
      res = mgr.RetireQuery(
          static_cast<sharon::QueryId>(churn_rng() % workload.size()));
    } else {
      std::vector<sharon::QueryId> dead;
      for (const sharon::Query& q : workload.queries()) {
        if (!registry.live(q.id)) dead.push_back(q.id);
      }
      if (dead.empty()) return;  // nothing to reactivate: no call made
      res = mgr.ReactivateQuery(dead[churn_rng() % dead.size()]);
    }
    cf.churn_call_ms.push_back(NsToMs(NowNs() - c0));
    ++cf.churn_calls;
    if (!res.accepted) ++cf.churn_refused;
  };
  const std::string ckpt_root = o.work_dir + "/ckpt-" + std::to_string(getpid());

  // --- paced drive ------------------------------------------------------------
  WatermarkPoller poller(in.punctuations);
  std::vector<int64_t> due_ns;
  due_ns.reserve(in.punctuations.size());
  r->late_ms.reserve(in.data_events);
  if (rec.enabled()) cf.ingest_call_us.reserve(in.arrivals.size());
  const double ns_per_event = 1e9 / kDriftOfferedRate;

  const int drive = rec.Open("bench.drive");
  const auto a0 = sharon::alloc_stats::Snapshot();
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  int64_t chunk_start = t0, chunk_ingest = 0, total_ingest = 0;
  // Ends the current ingest chunk: the span carries the summed Ingest
  // time of the chunk, laid end to end from the chunk's start (the
  // generator's sleeps between calls are the rest of bench.drive).
  auto close_chunk = [&] {
    if (rec.enabled() && chunk_ingest > 0) {
      rec.Add("adaptive.ingest", chunk_start, chunk_start + chunk_ingest, drive);
    }
    total_ingest += chunk_ingest;
    chunk_ingest = 0;
    chunk_start = NowNs();
  };
  auto timed = [&](const char* name, auto&& fn) {
    close_chunk();
    const int span = rec.Open(name, drive);
    const int64_t c0 = NowNs();
    fn();
    const double ms = NsToMs(NowNs() - c0);
    rec.Close(span);
    chunk_start = NowNs();
    return ms;
  };

  // A due checkpoint that the runtime refuses (a swap still draining)
  // is retried at every later punctuation until it seals; each refusal
  // counts as a failed operation.
  const auto every = [&](uint64_t n) {
    return std::max<uint64_t>(1, static_cast<uint64_t>(static_cast<double>(n) * o.scale));
  };
  const uint64_t churn_every = every(kDriftChurnEvery);
  const uint64_t checkpoint_every = every(kDriftCheckpointEvery);
  const uint64_t scrape_every = every(kDriftScrapeEvery);
  bool checkpoint_due = false;
  auto try_checkpoint = [&] {
    sharon::runtime::ShardedRuntime::CheckpointResult res;
    const std::string dir = ckpt_root + "-" + std::to_string(cf.checkpoints);
    const double ms = timed("checkpoint.save", [&] { res = rt.Checkpoint(dir); });
    ++cf.checkpoints;
    if (res.ok) {
      checkpoint_due = false;
      cf.checkpoint_ms.push_back(ms);
      cf.checkpoint_bytes.push_back(static_cast<double>(res.bytes));
    } else {
      ++cf.checkpoints_failed;
      cf.checkpoint_refusal = res.reason;
    }
  };

  uint64_t sent = 0;
  for (const Event& e : in.arrivals) {
    const int64_t due =
        t0 + static_cast<int64_t>(static_cast<double>(sent) * ns_per_event);
    int64_t now = NowNs();
    if (now < due) {
      poller.Poll(rt.results());
      while ((now = NowNs()) < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(kTickNs));
        poller.Poll(rt.results());
      }
    }
    if (sharon::IsWatermark(e)) {
      // Due together with the data event before it.
      due_ns.push_back(sent == 0 ? t0
                                 : t0 + static_cast<int64_t>(
                                            static_cast<double>(sent - 1) *
                                            ns_per_event));
      const int64_t c0 = NowNs();
      mgr.Ingest(e);
      const int64_t c1 = NowNs();
      chunk_ingest += c1 - c0;
      if (rec.enabled()) cf.ingest_call_us.push_back(static_cast<double>(c1 - c0) * 1e-3);
      close_chunk();
      if (checkpoint_due) try_checkpoint();
      continue;
    }
    r->late_ms.push_back(NsToMs(now - due));
    const int64_t c0 = NowNs();
    mgr.Ingest(e);
    const int64_t c1 = NowNs();
    chunk_ingest += c1 - c0;
    if (rec.enabled()) cf.ingest_call_us.push_back(static_cast<double>(c1 - c0) * 1e-3);
    ++sent;
    if (sent % kPollEvery == 0) poller.Poll(rt.results());

    if (sent % churn_every == 0) {
      timed("sharing.churn", churn_step);
    }
    if (sent % checkpoint_every == 0) {
      checkpoint_due = true;
      try_checkpoint();
    }
    if (sent % scrape_every == 0) {
      size_t cells = 0;
      cf.snapshot_ms.push_back(timed("obs.snapshot", [&] {
        cells = rt.TelemetrySnapshot().counters.size();
      }));
      ++cf.scrapes;
      if (cells == 0) r->error = "telemetry snapshot is empty";
    }
  }
  close_chunk();
  d.ingest_s = NsToS(total_ingest);
  EndDrive(rt, poller, rec, drive, t0, cpu0, a0, &d, r);
  rec.Close(drive);
  r->lag_ms = poller.LagMs(due_ns);
  for (uint64_t i = 0; i < cf.checkpoints; ++i) {
    std::filesystem::remove_all(ckpt_root + "-" + std::to_string(i));
  }

  // --- operations and layer figures -------------------------------------------
  const sharon::adaptive::PlanManagerStats& ps = mgr.stats();
  const uint64_t churn_uncommitted = mgr.pending_churn();
  r->attempted = in.data_events + cf.churn_calls + cf.checkpoints + cf.scrapes +
                 ps.swaps_requested;
  r->failed += cf.checkpoints_failed + ps.swaps_rejected + churn_uncommitted;
  const sharon::runtime::RuntimeStats st = rt.stats();
  size_t dual_peak = 0;
  for (const auto& s : st.plan_swaps) dual_peak = std::max(dual_peak, s.peak_dual_bytes);
  r->counts.Int("adaptive.swaps_accepted", ps.swaps_accepted)
      .Int("adaptive.swaps_rejected", ps.swaps_rejected)
      .Int("adaptive.dual_run_peak_bytes", dual_peak)
      .Int("query.churn_swaps", ps.churn_swaps)
      .Int("query.churn_swap_retries", ps.churn_swap_retries)
      .Int("query.churn_calls", cf.churn_calls)
      .Int("query.churn_refused", cf.churn_refused)
      .Int("query.churn_uncommitted", churn_uncommitted)
      .Int("checkpoint.attempted", cf.checkpoints)
      .Int("checkpoint.failed", cf.checkpoints_failed)
      .Num("checkpoint.bytes", Mean(cf.checkpoint_bytes))
      .Int("adaptive.drift_detections", ps.drift_detections)
      .Int("adaptive.evaluations", ps.evaluations);
  r->scoped.Num("adaptive.planning_ms", ps.planning_millis)
      .Num("adaptive.swap_stall_max_ms", st.MaxSwapStallSeconds() * 1e3)
      .Num("sharing.churn_call_ms", Mean(cf.churn_call_ms))
      .Num("sharing.churn_call_max_ms", Max(cf.churn_call_ms))
      .Num("checkpoint.save_ms_p50", Percentile(cf.checkpoint_ms, 50))
      .Num("checkpoint.save_ms_max", Max(cf.checkpoint_ms))
      .Num("obs.snapshot_ms", Mean(cf.snapshot_ms))
      .Str("checkpoint.last_refusal", cf.checkpoint_refusal);
  if (rec.enabled()) {
    r->scoped.Num("adaptive.ingest_call_p99_us", Percentile(cf.ingest_call_us, 99));
  }

  // --- oracle: every id filtered to its committed live intervals ----------------
  const int oracle = rec.Open("oracle.reference");
  sharon::ReferenceResults(workload, in.scenario.events)
      .ForEachCell([&](const ResultKey& k, const AggState& s) {
        if (registry.OwnsWindowClose(k.query, window.WindowEnd(k.window))) {
          r->expected.Add(k, s);
        }
      });
  rec.Close(oracle);
  return d;
}

// --- the ladder (traced rounds) ---------------------------------------------

struct EngineRung {
  double seconds = 0;
  CellChecksum sum;
  LiveState peak;
  size_t bytes_peak = 0;
  uint64_t allocs = 0;
};

/// One-thread Engine over the send order, punctuations included, then
/// CloseStream() (without it a watermarked engine finalizes nothing).
/// With `census`, samples LiveStateSnapshot()/EstimatedBytes() at every
/// punctuation, outside the timed calls.
EngineRung RunEngineRung(const Inputs& in, const SharingPlan& plan,
                         bool census, SpanRecorder& rec, int parent) {
  EngineRung out;
  Engine engine(in.pristine, plan);
  sharon::DisorderPolicy policy;
  policy.enabled = true;
  policy.max_lateness = in.ropts.disorder.max_lateness;
  engine.SetDisorderPolicy(policy);
  const auto a0 = sharon::alloc_stats::Snapshot();
  int64_t busy = 0;
  int64_t c0 = NowNs();
  for (const Event& e : in.arrivals) {
    engine.OnEvent(e);
    if (census && sharon::IsWatermark(e)) {
      const int64_t c1 = NowNs();
      busy += c1 - c0;
      const int span = rec.Open("exec.census", parent);
      const LiveState live = engine.LiveStateSnapshot();
      out.peak.counter_starts = std::max(out.peak.counter_starts, live.counter_starts);
      out.peak.snapshot_panes = std::max(out.peak.snapshot_panes, live.snapshot_panes);
      out.peak.pending_windows = std::max(out.peak.pending_windows, live.pending_windows);
      out.bytes_peak = std::max(out.bytes_peak, engine.EstimatedBytes());
      rec.Close(span);
      c0 = NowNs();
    }
  }
  engine.CloseStream();
  busy += NowNs() - c0;
  out.allocs = (sharon::alloc_stats::Snapshot() - a0).allocations;
  out.seconds = NsToS(busy);
  out.sum = ChecksumOf(engine.results());
  return out;
}

struct CounterRung {
  std::string error;  ///< why the rung did not run
  double seconds = 0;
  uint64_t events = 0;  ///< OnEvent calls
  uint64_t checksum = 0;
};

/// Every counter template of the compiled plan (shared segments and the
/// private gaps) driven directly over the sorted stream, per group, with
/// the Engine's expiry cadence.
CounterRung RunCounterRung(const Inputs& in, const SharingPlan& plan) {
  CounterRung out;
  std::string err;
  sharon::CompiledPlanHandle compiled =
      sharon::CompilePlanShared(in.pristine, plan, &err);
  if (!compiled) {
    out.error = "SegmentCounter rung: plan does not compile: " + err;
    return out;
  }
  const sharon::CompiledEngine& c = *compiled;
  sharon::FlatMap<AttrValue, std::vector<std::unique_ptr<sharon::SegmentCounter>>,
                  sharon::Mix64Hash>
      groups;
  uint64_t since_sweep = 0;
  double acc = 0;
  const int64_t t0 = NowNs();
  for (const Event& e : in.scenario.events) {
    if (e.type >= c.counters_by_type.size()) continue;
    const AttrValue g = c.partition == sharon::kNoAttr ? 0 : e.attr(c.partition);
    auto& counters = groups[g];
    if (counters.empty()) {
      for (const auto& spec : c.counters) {
        counters.push_back(std::make_unique<sharon::SegmentCounter>(
            spec.pattern, spec.spec, c.window));
      }
    }
    for (uint32_t ci : c.counters_by_type[e.type]) {
      counters[ci]->OnEvent(e);
      ++out.events;
      for (const auto& delta : counters[ci]->last_deltas()) acc += delta.delta.count;
    }
    if (++since_sweep >= 4096) {
      since_sweep = 0;
      for (auto& [gv, cs] : groups) {
        for (auto& counter : cs) counter->ExpireBefore(e.time);
      }
    }
  }
  out.seconds = NsToS(NowNs() - t0);
  out.checksum = Bits(acc);
  if (out.events == 0 || acc <= 0) {
    out.error = "SegmentCounter rung counted no matches";
  }
  return out;
}

/// 1 shard x 1 producer over the send order; seconds from first Ingest
/// to Finish().
double RunRuntimeRung(const Inputs& in, const SharingPlan& plan,
                      CellChecksum* sum) {
  RuntimeOptions o = in.ropts;
  o.num_shards = 1;
  o.ingest_partitions = 1;
  o.obs = {};
  ShardedRuntime rt(in.pristine, plan, o);
  rt.Start();
  const int64_t t0 = NowNs();
  for (const Event& e : in.arrivals) rt.Ingest(e);
  rt.Finish();
  const double s = NsToS(NowNs() - t0);
  *sum = ChecksumOf(rt.results());
  return s;
}

/// Runs the ladder and fills the per-layer metrics. `rung_expected` is
/// the reference checksum of the pristine query set; every rung that
/// produces result cells must match it.
void RunLadder(const Inputs& in, const Drive& d, const CellChecksum& rung_expected,
               SpanRecorder& rec, RoundResult* r) {
  const double events = static_cast<double>(std::max<uint64_t>(in.data_events, 1));
  auto fail = [&](const std::string& what) {
    if (r->error.empty()) r->error = what;
  };

  const int sc = rec.Open("exec.segment_counter_rung");
  const CounterRung counter = RunCounterRung(in, d.plan);
  rec.Close(sc);
  // No reference exists for raw segment counts; the rung only has to run
  // and count something.
  if (!counter.error.empty()) fail(counter.error);

  const int er = rec.Open("exec.engine_rung");
  const EngineRung sharon_rung = RunEngineRung(in, d.plan, true, rec, er);
  rec.Close(er);
  if (!(sharon_rung.sum == rung_expected)) {
    fail("Engine rung checksum " + Hex(sharon_rung.sum.sum) + "/" +
         std::to_string(sharon_rung.sum.cells) + " cells differs from the reference");
  }

  const int ar = rec.Open("exec.aseq_rung");
  const EngineRung aseq = RunEngineRung(in, SharingPlan{}, false, rec, ar);
  rec.Close(ar);
  if (!(aseq.sum == rung_expected)) fail("A-Seq rung checksum differs from the reference");

  const int rr = rec.Open("runtime.single_shard_rung");
  CellChecksum rung_sum;
  const double rt1 = RunRuntimeRung(in, d.plan, &rung_sum);
  rec.Close(rr);
  if (!(rung_sum == rung_expected)) fail("1x1 runtime rung checksum differs from the reference");

  r->layers.Num("planner.optimize_ms", d.optimize_ms)
      .Int("planner.plan_candidates", d.plan_candidates)
      .Num("exec.segment_counter_ns_per_event", counter.seconds * 1e9 / events)
      .Num("exec.engine_ns_per_event", sharon_rung.seconds * 1e9 / events)
      .Num("exec.sharing_speedup",
           sharon_rung.seconds > 0 ? aseq.seconds / sharon_rung.seconds : 0)
      .Int("exec.live_counter_starts_peak", sharon_rung.peak.counter_starts)
      .Int("exec.snapshot_panes_peak", sharon_rung.peak.snapshot_panes)
      .Int("exec.pending_windows_peak", sharon_rung.peak.pending_windows)
      .Int("exec.state_bytes_peak", sharon_rung.bytes_peak)
      .Num("exec.allocs_per_event", static_cast<double>(sharon_rung.allocs) / events)
      .Num("runtime.overhead_frac", rt1 > 0 ? 1.0 - sharon_rung.seconds / rt1 : 0)
      .Num("runtime.ingest_ns_per_event", d.ingest_s * 1e9 / events)
      .Num("runtime.finish_ms", d.finish_ms)
      .Num("runtime.allocs_per_event", static_cast<double>(d.allocs) / events);
  r->trace.Str("segment_counter_checksum", Hex(counter.checksum))
      .Num("engine_rung_s", sharon_rung.seconds)
      .Num("aseq_rung_s", aseq.seconds)
      .Num("runtime_1x1_rung_s", rt1)
      .Num("segment_counter_rung_s", counter.seconds);
}

CellChecksum ReferenceChecksum(const Inputs& in, const Workload& w) {
  return ChecksumOf(sharon::ReferenceResults(w, in.scenario.events));
}

}  // namespace

Seeds DefaultSeeds(uint64_t seed, uint64_t round) {
  const uint64_t stream = seed + round * 1000003;
  return {stream, kQuerySeed, stream + 2000, kChurnSeed};
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"tx_dense", "lr_fanin",
                                                   "drift_ops"};
  return kNames;
}

RoundResult RunRound(const RoundOptions& o) {
  RoundResult r;
  const std::string run_id = o.workload + "-" + std::to_string(o.seed) + "-" +
                             std::to_string(getpid());
  SpanRecorder rec(o.traced, run_id);
  std::filesystem::create_directories(o.work_dir);
  const int64_t trace_begin = NowNs();

  const int gen = rec.Open("streamgen.generate");
  Inputs in;
  if (o.workload == "tx_dense") {
    in = MakeTxDense(o);
  } else if (o.workload == "lr_fanin") {
    in = MakeLrFanin(o);
  } else if (o.workload == "drift_ops") {
    in = MakeDriftOps(o);
  } else {
    r.error = "unknown workload " + o.workload;
    return r;
  }
  rec.Close(gen);
  r.data_events = in.data_events;

  Drive d;
  if (o.workload != "drift_ops") {
    d = DriveClosedLoop(in, rec, &r);
  } else {
    d = DriveDriftOps(in, o, rec, &r);
  }
  r.failed += d.late_dropped;
  if (o.workload != "drift_ops") {
    // No control plane in this pipeline: nothing swapped or checkpointed.
    r.counts.Int("adaptive.swaps_accepted", 0)
        .Int("adaptive.swaps_rejected", 0)
        .Int("adaptive.dual_run_peak_bytes", 0)
        .Int("query.churn_swaps", 0)
        .Int("query.churn_swap_retries", 0)
        .Int("checkpoint.bytes", 0);
  }
  if (!d.drained) r.error = "workers never applied the final punctuations";

  // The output gate, outside the timed region.
  CellChecksum pristine_expected;
  if (o.workload != "drift_ops") {
    const int oracle = rec.Open("oracle.reference");
    r.expected = o.reference ? *o.reference : ReferenceChecksum(in, in.workload);
    rec.Close(oracle);
    pristine_expected = r.expected;
  } else if (o.traced) {
    const int oracle = rec.Open("oracle.reference");
    pristine_expected = ReferenceChecksum(in, in.pristine);
    rec.Close(oracle);
  }
  r.reference = r.expected;
  if (o.perturb_expected) r.expected.sum ^= 1;
  if (r.expected.cells == 0 && r.error.empty()) r.error = "reference produced no cells";
  if (!(r.got == r.expected) && r.error.empty()) {
    r.error = "checksum " + Hex(r.got.sum) + "/" + std::to_string(r.got.cells) +
              " cells != reference " + Hex(r.expected.sum) + "/" +
              std::to_string(r.expected.cells);
  }

  if (o.traced) RunLadder(in, d, pristine_expected, rec, &r);

  r.correct = r.error.empty();
  if (!r.correct) r.failed = r.attempted;

  if (o.traced) {
    const int64_t trace_end = NowNs();
    const std::string bad = rec.Validate(trace_begin, trace_end, 0.95);
    if (!bad.empty()) {
      r.correct = false;
      r.error = "trace: " + bad;
    }
    JsonObject self;
    for (const auto& [layer, s] : rec.LayerSelfSeconds()) self.Num(layer, s);
    const std::string path = o.work_dir + "/spans-" + run_id + ".jsonl";
    r.trace.Obj("self_s", self)
        .Num("wall_s", NsToS(trace_end - trace_begin))
        .Int("spans", rec.spans().size())
        .Str("spans_file", rec.WriteJsonl(path) ? path : "");
  }
  return r;
}

}  // namespace perfbench
