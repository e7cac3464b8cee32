// Watermarks and the bounded-disorder contract.
//
// The paper (Def. 1) and the seed executors assume in-order arrival. Real
// feeds are disordered, so the engines support a *bounded-disorder*
// relaxation: an event with occurrence time t may arrive any time before
// the stream's observed high-mark passes t + max_lateness. A watermark
// W(t) is a punctuation asserting "the high-mark has reached t": combined
// with the lateness bound it makes every tick strictly below
// t - max_lateness (the SAFE POINT) complete — no event below the safe
// point will ever arrive again. That is what lets an engine
//   1. release reorder-buffered events below the safe point, in time
//      order, into the order-dependent A-Seq machinery,
//   2. finalize every window whose close does not exceed the safe point
//      (all of its events have been processed) exactly once, and
//   3. evict counter starts, chain snapshot panes and whole groups that
//      can no longer reach any open window,
// turning grow-forever execution into O(active panes) state. Events that
// violate the contract (arrive below the safe point) are dropped and
// counted — never silently absorbed (see WatermarkStats::late_dropped).
//
// Watermarks travel in-band as punctuation events (type kInvalidType) so
// they keep their position relative to data events through batch queues.

#ifndef SHARON_COMMON_WATERMARK_H_
#define SHARON_COMMON_WATERMARK_H_

#include <cstdint>
#include <limits>

#include "src/common/event.h"
#include "src/common/time.h"

namespace sharon {

/// "No watermark observed yet" sentinel (all real watermarks are >= 0).
inline constexpr Timestamp kNoWatermark = -1;

/// Watermark value that closes a stream: large enough to finalize every
/// window, small enough that window arithmetic on it cannot overflow.
inline constexpr Timestamp kWatermarkMax =
    std::numeric_limits<Timestamp>::max() / 4;

/// A watermark punctuation: the stream's observed time high-mark.
struct Watermark {
  Timestamp time = kNoWatermark;

  bool valid() const { return time >= 0; }
  bool operator==(const Watermark&) const = default;
};

/// The bounded-disorder contract an engine runs under. Disabled (the
/// default) preserves the seed behaviour exactly: events are processed on
/// arrival and must be in order; watermarks are ignored.
struct DisorderPolicy {
  /// Enables the reorder buffer, watermark-driven finalization and
  /// eviction. Must be set before the first event.
  bool enabled = false;

  /// Maximum ticks an event may trail the observed high-mark. 0 means
  /// "ordered ingestion with finalization/eviction" — still useful, it is
  /// the long-stream bounded-memory mode.
  Duration max_lateness = 0;

  /// When false, watermarks still release buffered events and finalize
  /// windows but never evict state (for differential tests and benches
  /// proving eviction changes no finalized value).
  bool evict = true;

  /// Runtime-level knob: broadcast a closing watermark on Finish() so
  /// every window finalizes. Disable to observe a stalled watermark.
  bool close_on_finish = true;

  /// The safe point implied by watermark `wm`: every tick strictly below
  /// it is complete. kNoWatermark if no watermark has been seen.
  Timestamp SafePoint(Timestamp wm) const {
    if (wm < 0) return kNoWatermark;
    return wm >= max_lateness ? wm - max_lateness : 0;
  }
};

/// Builds the in-band punctuation event for watermark `t`.
inline Event WatermarkEvent(Timestamp t) {
  Event e;
  e.time = t;
  e.type = kInvalidType;
  return e;
}

/// True if `e` is a watermark punctuation rather than a data event.
inline bool IsWatermark(const Event& e) { return e.type == kInvalidType; }

/// Counters of one watermarked executor. All monotone over a run.
struct WatermarkStats {
  Timestamp watermark = kNoWatermark;   ///< highest watermark applied
  Timestamp safe_point = kNoWatermark;  ///< watermark - max_lateness
  uint64_t late_dropped = 0;      ///< events below the safe point, dropped
  uint64_t evicted_panes = 0;     ///< counter starts + snapshot panes freed
  uint64_t evicted_groups = 0;    ///< group states erased outright
  uint64_t finalized_windows = 0; ///< result-carrying windows sealed
  uint64_t finalized_cells = 0;   ///< result cells emitted by finalization
  uint64_t suppressed_cells = 0;  ///< cells discarded below a results floor
  uint64_t regressions = 0;       ///< non-advancing watermarks (ignored)
  uint64_t buffered_peak = 0;     ///< reorder-buffer high-mark (events)
  uint64_t state_sweeps = 0;      ///< expiry walks, one per window boundary

  /// Folds another executor's COUNTERS in, leaving watermark/safe_point
  /// untouched — for rollups whose frontier comes from elsewhere (e.g. a
  /// retired pre-swap engine, whose watermark was deliberately capped at
  /// its swap boundary and would poison a MIN).
  void MergeCountersFrom(const WatermarkStats& o) {
    late_dropped += o.late_dropped;
    evicted_panes += o.evicted_panes;
    evicted_groups += o.evicted_groups;
    finalized_windows += o.finalized_windows;
    finalized_cells += o.finalized_cells;
    suppressed_cells += o.suppressed_cells;
    regressions += o.regressions;
    buffered_peak += o.buffered_peak;
    state_sweeps += o.state_sweeps;
  }

  /// Folds another executor's counters in (MultiEngine / runtime rollups).
  /// Watermarks combine by MIN: the merged safe point is only as far as
  /// the slowest participant.
  void MergeFrom(const WatermarkStats& o) {
    if (watermark == kNoWatermark || o.watermark < watermark) {
      watermark = o.watermark;
    }
    if (safe_point == kNoWatermark || o.safe_point < safe_point) {
      safe_point = o.safe_point;
    }
    MergeCountersFrom(o);
  }
};

/// Live-state census of one executor, the quantity the long-stream bench
/// proves bounded: with eviction every component is O(active panes), not
/// O(stream length).
struct LiveState {
  size_t groups = 0;           ///< instantiated group states
  size_t counter_starts = 0;   ///< live A-Seq start entries
  size_t snapshot_panes = 0;   ///< pane buckets across chain snapshots
  size_t pending_windows = 0;  ///< result-carrying windows not yet final
  size_t buffered_events = 0;  ///< events waiting in the reorder buffer

  size_t LivePanes() const {
    return counter_starts + snapshot_panes + pending_windows;
  }

  void MergeFrom(const LiveState& o) {
    groups += o.groups;
    counter_starts += o.counter_starts;
    snapshot_panes += o.snapshot_panes;
    pending_windows += o.pending_windows;
    buffered_events += o.buffered_events;
  }
};

}  // namespace sharon

#endif  // SHARON_COMMON_WATERMARK_H_
