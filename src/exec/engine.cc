#include "src/exec/engine.h"

#include <algorithm>
#include <map>

namespace sharon {

AggSpec ProjectSpec(const AggSpec& spec, const Pattern& segment) {
  if (spec.fn == AggFunction::kCountStar) return AggSpec::CountStar();
  if (segment.CountType(spec.target_type) == 0) return AggSpec::CountStar();
  return spec;
}

namespace {

// Segment of one query: [begin, begin+pattern.length) of the query pattern,
// either covered by a shared candidate or a private gap.
struct Segment {
  size_t begin;
  Pattern pattern;
  bool shared;
};

}  // namespace

std::string CompilePlan(const Workload& workload, const SharingPlan& plan,
                        CompiledEngine* out) {
  if (workload.empty()) return "empty workload";
  if (workload.num_active() == 0) return "no active queries";
  if (!workload.Uniform()) {
    return "workload is not uniform (assumption 2): partition the stream "
           "first (section 7.2)";
  }
  out->counters.clear();
  out->chains.clear();
  out->window = workload.window();
  out->partition = workload.partition_attr();

  // Counter de-duplication key: shared counters by (pattern, spec);
  // private counters are never de-duplicated.
  std::map<std::pair<Pattern, std::pair<int, std::pair<EventTypeId, AttrIndex>>>,
           uint32_t>
      shared_index;
  auto counter_for = [&](const Pattern& p, const AggSpec& s,
                         bool shared) -> uint32_t {
    if (shared) {
      auto key = std::make_pair(
          p, std::make_pair(static_cast<int>(s.fn),
                            std::make_pair(s.target_type, s.target_attr)));
      auto it = shared_index.find(key);
      if (it != shared_index.end()) return it->second;
      uint32_t idx = static_cast<uint32_t>(out->counters.size());
      out->counters.push_back({p, s, true});
      shared_index.emplace(std::move(key), idx);
      return idx;
    }
    out->counters.push_back({p, s, false});
    return static_cast<uint32_t>(out->counters.size() - 1);
  };

  for (const Query& q : workload.queries()) {
    // A retired query compiles to nothing: no chains, no counters, so the
    // engine never emits a cell for its id — its already-finalized windows
    // live on in the shard archive (src/query/registration.h).
    if (!workload.active(q.id)) continue;
    // Candidates of the plan that apply to this query.
    struct Placed {
      size_t begin, end;  // [begin, end) in q.pattern
      const Candidate* cand;
    };
    std::vector<Placed> placed;
    for (const Candidate& c : plan) {
      if (!c.Contains(q.id)) continue;
      auto pos = q.pattern.Find(c.pattern);
      if (!pos.has_value()) {
        return "plan candidate " + std::to_string(&c - plan.data()) +
               " pattern not contained in query " + std::to_string(q.id);
      }
      placed.push_back({*pos, *pos + c.pattern.length(), &c});
    }
    std::sort(placed.begin(), placed.end(),
              [](const Placed& a, const Placed& b) { return a.begin < b.begin; });
    for (size_t i = 1; i < placed.size(); ++i) {
      if (placed[i].begin < placed[i - 1].end) {
        return "invalid plan: overlapping candidates in query " +
               std::to_string(q.id);
      }
    }

    // Build segment list: shared candidate ranges plus private gaps.
    std::vector<Segment> segments;
    size_t cursor = 0;
    for (const Placed& pl : placed) {
      if (pl.begin > cursor) {
        segments.push_back(
            {cursor, q.pattern.Sub(cursor, pl.begin - cursor), false});
      }
      segments.push_back(
          {pl.begin, q.pattern.Sub(pl.begin, pl.end - pl.begin), true});
      cursor = pl.end;
    }
    if (cursor < q.pattern.length()) {
      segments.push_back(
          {cursor, q.pattern.Sub(cursor, q.pattern.length() - cursor), false});
    }

    std::vector<uint32_t> counter_idx;
    for (const Segment& seg : segments) {
      AggSpec proj = ProjectSpec(q.agg, seg.pattern);
      counter_idx.push_back(counter_for(seg.pattern, proj, seg.shared));
    }
    // Queries compiling to the same segment sequence share the chain
    // (whole-pattern sharing has no combination cost, Eq. 5).
    bool merged = false;
    for (auto& existing : out->chains) {
      if (existing.counter_idx == counter_idx) {
        existing.queries.push_back(q.id);
        merged = true;
        break;
      }
    }
    if (!merged) {
      out->chains.push_back({{q.id}, std::move(counter_idx)});
    }
  }

  // Dispatch lists by event type.
  EventTypeId max_type = 0;
  for (const auto& c : out->counters) {
    for (EventTypeId t : c.pattern.types()) max_type = std::max(max_type, t);
  }
  out->counters_by_type.assign(max_type + 1, {});
  out->chains_by_type.assign(max_type + 1, {});
  for (uint32_t i = 0; i < out->counters.size(); ++i) {
    std::vector<bool> seen(max_type + 1, false);
    for (EventTypeId t : out->counters[i].pattern.types()) {
      if (!seen[t]) {
        out->counters_by_type[t].push_back(i);
        seen[t] = true;
      }
    }
  }
  for (uint32_t i = 0; i < out->chains.size(); ++i) {
    std::vector<bool> seen(max_type + 1, false);
    auto subscribe = [&](EventTypeId t) {
      if (!seen[t]) {
        out->chains_by_type[t].push_back(i);
        seen[t] = true;
      }
    };
    const auto& chain = out->chains[i];
    for (uint32_t ci : chain.counter_idx) {
      subscribe(out->counters[ci].pattern.front());
    }
    subscribe(out->counters[chain.counter_idx.back()].pattern.back());
  }
  return "";
}

CompiledPlanHandle CompilePlanShared(const Workload& workload,
                                     const SharingPlan& plan,
                                     std::string* error) {
  auto compiled = std::make_shared<CompiledEngine>();
  std::string diag = CompilePlan(workload, plan, compiled.get());
  if (!diag.empty()) {
    if (error) *error = std::move(diag);
    return nullptr;
  }
  if (error) error->clear();
  return compiled;
}

Engine::Engine(const Workload& workload, const SharingPlan& plan)
    : workload_(&workload) {
  compiled_ = CompilePlanShared(workload, plan, &error_);
  if (!compiled_) compiled_ = std::make_shared<CompiledEngine>();
}

Engine::Engine(const Workload& workload, CompiledPlanHandle compiled)
    : workload_(&workload), compiled_(std::move(compiled)) {
  if (!compiled_) {
    error_ = "null compiled plan";
    compiled_ = std::make_shared<CompiledEngine>();
  }
}

Engine::GroupState& Engine::GroupFor(AttrValue g) {
  auto it = groups_.find(g);
  if (it != groups_.end()) return it->second;
  const CompiledEngine& compiled = *compiled_;
  GroupState& state = groups_[g];
  state.counters.reserve(compiled.counters.size());
  for (const auto& cs : compiled.counters) {
    state.counters.push_back(
        std::make_unique<SegmentCounter>(cs.pattern, cs.spec, compiled.window));
  }
  state.chains.reserve(compiled.chains.size());
  for (const auto& ch : compiled.chains) {
    std::vector<SegmentCounter*> refs;
    refs.reserve(ch.counter_idx.size());
    for (uint32_t ci : ch.counter_idx) refs.push_back(state.counters[ci].get());
    state.chains.emplace_back(ch.queries, std::move(refs), compiled.window);
  }
  return state;
}

void Engine::OnEvent(const Event& e) {
  if (IsWatermark(e)) {
    AdvanceWatermark(e.time);
    return;
  }
  if (!policy_.enabled) {
    ProcessOrdered(e);
    return;
  }
  if (e.time > high_mark_) high_mark_ = e.time;
  if (e.time < frontier_) {
    // Below the safe point: the event's prefix of the stream was declared
    // complete (and its windows possibly finalized), so absorbing it
    // would break exactly-once. Drop it, visibly.
    ++wm_stats_.late_dropped;
    if (obs_) {
      if (obs_->late_dropped) obs_->late_dropped->Inc();
      if (obs_->ring) obs_->ring->Emit(obs::TraceKind::kLateDrop, e.time,
                                       frontier_);
    }
    return;
  }
  reorder_.push(e);
  if (reorder_.size() > wm_stats_.buffered_peak) {
    wm_stats_.buffered_peak = reorder_.size();
  }
  if (obs_) {
    if (obs_->event_lateness) {
      obs_->event_lateness->Record(static_cast<uint64_t>(high_mark_ - e.time));
    }
    if (obs_->buffered_events) {
      obs_->buffered_events->Set(static_cast<int64_t>(reorder_.size()));
    }
  }
}

void Engine::ProcessOrdered(const Event& e) {
  now_ = e.time;
  if (now_ >= next_boundary_) SweepState(now_);
  const CompiledEngine& compiled = *compiled_;
  if (e.type >= compiled.counters_by_type.size()) return;
  const AttrValue g =
      compiled.partition == kNoAttr ? 0 : e.attr(compiled.partition);
  GroupState& gs = GroupFor(g);
  for (uint32_t ci : compiled.counters_by_type[e.type]) {
    gs.counters[ci]->OnEvent(e);
  }
  for (uint32_t chi : compiled.chains_by_type[e.type]) {
    gs.chains[chi].OnEvent(e, g, sink());
  }
  ++gs.events_seen;
}

void Engine::SetDisorderPolicy(const DisorderPolicy& policy) {
  policy_ = policy;
}

void Engine::SetResultsFloor(Timestamp floor) {
  results_floor_ = floor;
  floor_limit_ = compiled_->window.Valid() && floor >= 0
                     ? compiled_->window.FirstWindowCovering(floor)
                     : 0;
}

void Engine::AdvanceWatermark(Timestamp t) {
  if (!policy_.enabled) return;
  if (t <= wm_stats_.watermark) {
    // Watermarks must advance; a regression (merged streams, replayed
    // punctuation) is counted and ignored rather than applied.
    ++wm_stats_.regressions;
    return;
  }
  wm_stats_.watermark = t;
  const Timestamp safe = policy_.SafePoint(t);
  wm_stats_.safe_point = safe;

  // 1. Release buffered events strictly below the safe point, in time
  //    order — the A-Seq machinery sees a sorted stream.
  uint64_t released = 0;
  while (!reorder_.empty() && reorder_.top().time < safe) {
    ProcessOrdered(reorder_.top());
    reorder_.pop();
    ++released;
  }
  if (safe > frontier_) frontier_ = safe;
  if (obs_) {
    if (obs_->watermark) obs_->watermark->Set(t);
    if (obs_->safe_point) obs_->safe_point->Set(safe);
    if (obs_->released_events) obs_->released_events->Add(released);
    if (obs_->release_batch) obs_->release_batch->Record(released);
    if (obs_->buffered_events) {
      obs_->buffered_events->Set(static_cast<int64_t>(reorder_.size()));
    }
    if (obs_->ring) {
      obs_->ring->Emit(obs::TraceKind::kWatermarkAdvance, t, safe);
      if (released > 0) {
        obs_->ring->Emit(obs::TraceKind::kReorderRelease, safe,
                         static_cast<int64_t>(released));
      }
    }
  }

  // 2. Finalize windows that close at or before the safe point: all of
  //    their events (times < close <= safe) were released in step 1, so
  //    the staged cells are complete. Extraction empties them, making
  //    finalization exactly-once.
  const WindowSpec& window = compiled_->window;
  if (window.Valid() && safe >= 0) {
    const WindowId limit = window.FirstWindowCovering(safe);
    if (limit > next_finalize_) {
      // Windows below the results floor belong to a predecessor engine
      // (plan hot-swap): this engine only saw part of their events, so
      // their cells are discarded, not finalized.
      const WindowId suppress = std::min(limit, floor_limit_);
      if (suppress > next_finalize_) {
        ResultCollector discard;
        auto [cells, windows] = staged_.ExtractWindowsBefore(suppress, discard);
        wm_stats_.suppressed_cells += cells;
        (void)windows;
        next_finalize_ = suppress;
      }
      if (limit > next_finalize_) {
        auto [cells, windows] = staged_.ExtractWindowsBefore(limit, results_);
        wm_stats_.finalized_cells += cells;
        wm_stats_.finalized_windows += windows;
        next_finalize_ = limit;
        if (obs_) {
          if (obs_->finalized_cells) obs_->finalized_cells->Add(cells);
          if (obs_->finalized_windows) obs_->finalized_windows->Add(windows);
        }
      }
    }
  }

  // 3. Evict state that can no longer reach an open window — only when
  //    the safe point enters a new epoch; inside one nothing can expire.
  if (policy_.evict && safe >= next_boundary_) SweepState(safe);
}

void Engine::SweepState(Timestamp t) {
  const WindowSpec& window = compiled_->window;
  next_boundary_ = window.Valid()
                       ? window.WindowEnd(window.FirstWindowCovering(t))
                       : std::numeric_limits<Timestamp>::max();
  ++wm_stats_.state_sweeps;
  memory_.Set(EstimatedBytes());  // before expiring: the epoch's peak
  for (auto it = groups_.begin(); it != groups_.end();) {
    GroupState& state = it->second;
    bool empty = true;
    for (auto& c : state.counters) {
      wm_stats_.evicted_panes += c->ExpireBefore(t);
      empty = empty && c->num_live_starts() == 0;
    }
    for (auto& ch : state.chains) {
      wm_stats_.evicted_panes += ch.ExpireBefore(t);
      empty = empty && ch.Empty();
    }
    if (empty && policy_.enabled && policy_.evict) {
      ++wm_stats_.evicted_groups;
      it = groups_.erase(it);
    } else {
      ++it;
    }
  }
}

void Engine::CloseStream() {
  if (!policy_.enabled) return;
  // Far enough that the safe point passes every buffered event and the
  // close of every window any event can reach.
  const Duration length =
      compiled_->window.Valid() ? compiled_->window.length : 0;
  const Timestamp base = high_mark_ == kNoWatermark ? 0 : high_mark_;
  AdvanceWatermark(base + length + policy_.max_lateness + 1);
}

bool Engine::Finalized(WindowId window) const {
  if (!policy_.enabled || !compiled_->window.Valid()) return false;
  const Timestamp safe = SafePoint();
  return safe >= 0 && compiled_->window.WindowEnd(window) <= safe;
}

size_t Engine::DrainFinalized(
    const std::function<void(const ResultKey&, const AggState&)>& fn) {
  // Without a disorder policy nothing ever finalizes: results_ holds
  // live, still-growing cells that must not be handed out as sealed.
  if (!policy_.enabled) return 0;
  const size_t n = results_.size();
  results_.ForEachCell(fn);
  results_.Clear();
  return n;
}

LiveState Engine::LiveStateSnapshot() const {
  LiveState live;
  live.groups = groups_.size();
  for (const auto& [g, state] : groups_) {
    for (const auto& c : state.counters) live.counter_starts += c->num_live_starts();
    for (const auto& ch : state.chains) live.snapshot_panes += ch.NumLivePanes();
  }
  live.pending_windows = policy_.enabled ? staged_.NumWindows() : results_.NumWindows();
  live.buffered_events = reorder_.size();
  return live;
}

RunStats Engine::Run(const std::vector<Event>& events, Duration duration) {
  RunStats stats;
  StopWatch watch;
  for (const Event& e : events) OnEvent(e);
  stats.wall_seconds = watch.ElapsedSeconds();
  // Throughput counts each event once per query, matching the paper's
  // "events processed by all queries per second".
  stats.events_processed = events.size() * workload_->size();
  stats.results_emitted = results_.size();
  memory_.Set(EstimatedBytes());
  stats.peak_state_bytes = memory_.peak();
  (void)duration;
  return stats;
}

size_t Engine::EstimatedBytes() const {
  size_t bytes = results_.EstimatedBytes() + staged_.EstimatedBytes() +
                 reorder_.size() * (sizeof(Event) + 2 * sizeof(AttrValue));
  for (const auto& [g, state] : groups_) {
    for (const auto& c : state.counters) bytes += c->EstimatedBytes();
    for (const auto& ch : state.chains) bytes += ch.EstimatedBytes();
  }
  return bytes;
}

size_t Engine::num_shared_counters() const {
  size_t n = 0;
  for (const auto& c : compiled_->counters) n += c.shared;
  return n;
}

Engine::ScalarState Engine::SaveScalarState() const {
  ScalarState s;
  s.now = now_;
  s.frontier = frontier_;
  s.high_mark = high_mark_;
  s.next_finalize = next_finalize_;
  s.results_floor = results_floor_;
  s.wm = wm_stats_;
  return s;
}

void Engine::RestoreScalarState(const ScalarState& s) {
  now_ = s.now;
  frontier_ = s.frontier;
  high_mark_ = s.high_mark;
  next_finalize_ = s.next_finalize;
  wm_stats_ = s.wm;
  // Recomputes floor_limit_ from the restored floor (kNoWatermark keeps
  // the no-floor default).
  SetResultsFloor(s.results_floor);
}

void Engine::SaveGroupStates(serde::BinaryWriter& w) const {
  serde::SaveFlatMap(
      w, groups_,
      [](serde::BinaryWriter& out, AttrValue g, const GroupState& gs) {
        out.I64(g);
        out.U64(gs.events_seen);
        out.U64(gs.counters.size());
        for (const auto& c : gs.counters) c->SaveState(out);
        out.U64(gs.chains.size());
        for (const auto& ch : gs.chains) ch.SaveState(out);
      });
}

std::string Engine::LoadGroupState(AttrValue g, serde::BinaryReader& r) {
  if (groups_.contains(g)) {
    return "duplicate group in checkpoint (group routed twice)";
  }
  GroupState& gs = GroupFor(g);
  gs.events_seen = r.U64();
  if (r.U64() != gs.counters.size()) {
    return "group counter count mismatch (plan does not match the "
           "checkpointed plan)";
  }
  for (auto& c : gs.counters) {
    std::string err = c->LoadState(r);
    if (!err.empty()) return err;
  }
  if (r.U64() != gs.chains.size()) {
    return "group chain count mismatch (plan does not match the "
           "checkpointed plan)";
  }
  for (auto& ch : gs.chains) {
    std::string err = ch.LoadState(r);
    if (!err.empty()) return err;
  }
  if (!r.ok()) return "group state truncated";
  return "";
}

void Engine::SaveBufferedEvents(
    const std::function<void(const Event&)>& fn) const {
  auto copy = reorder_;  // priority_queue exposes no iteration; drain a copy
  while (!copy.empty()) {
    fn(copy.top());
    copy.pop();
  }
}

void Engine::RestoreBufferedEvent(const Event& e) { reorder_.push(e); }

}  // namespace sharon
