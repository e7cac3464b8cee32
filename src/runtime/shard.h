// One shard of the sharded runtime: a worker thread that owns a private
// executor and drains event batches from bounded SPSC channels — one per
// ingest partition, so any number of producer threads feed the shard
// without sharing a queue.
//
// The executor is always a MultiEngine built from the runtime's one shared
// MultiEnginePlan; a uniform workload is its one-segment plan
// (src/exec/multi_engine.h), whose routing is the identity. A plan swap
// (one segment only) dual-runs segment 0's engine against the incoming
// one and then installs it in the executor; cells of windows the retired
// engine finalized move to the shard's archive.
//
// Each channel is a PAIR of rings: `full` carries filled batches from
// the producer, `free` carries the emptied buffers back for reuse, so a
// warmed-up channel moves events with zero steady-state allocations
// (DESIGN.md "Hot-path memory layout").
//
// With several producers the shard is where their watermarks merge: the
// worker tracks one frontier per channel and advances its executor to
// the MINIMUM across producer frontiers — only ticks every producer has
// vouched for are treated as complete.
//
// Control operations (plan swap or checkpoint, src/runtime/plan_swap.h)
// use one command slot and one marker: the runtime stages a ControlCommand
// in the shard's slot, then broadcasts one control marker per channel, and
// the worker quiesces at the cut only once the marker of EVERY channel
// arrived, then runs the staged command by its kind. After a channel
// delivers its marker, events behind it are held in a worker-owned buffer;
// when the last channel aligns, the control operation executes at a
// position ordered after everything every producer routed before the
// request, and the held events replay in order. With one channel the first
// marker completes the alignment immediately — identical to the
// single-producer path.
//
// The shard never shares mutable state with other shards — the executor,
// its group state and its ResultCollector are all private — so no locks
// are taken on the event path. Results are read only after Join().

#ifndef SHARON_RUNTIME_SHARD_H_
#define SHARON_RUNTIME_SHARD_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/exec/engine.h"
#include "src/exec/multi_engine.h"
#include "src/runtime/plan_swap.h"
#include "src/runtime/runtime_stats.h"
#include "src/runtime/spsc_queue.h"

namespace sharon::runtime {

/// A batch of events owned by the queue while in flight.
using EventBatch = std::vector<Event>;

/// One (producer, shard) link: filled batches travel producer -> worker
/// through `full`; emptied buffers travel worker -> producer through
/// `free` for reuse. Exactly one producer thread touches full.TryPush /
/// free.TryPop; the worker touches the opposite ends.
struct BatchChannel {
  explicit BatchChannel(size_t capacity)
      // free holds every buffer the channel can have in circulation:
      // everything `full` can hold + 1 pending at the producer + 1 in
      // the worker, so a recycle push never drops (recycle_drops counts
      // the impossible case). Sized from full.capacity(), the ROUNDED-UP
      // power of two, not the requested capacity.
      : full(capacity), free(full.capacity() + 2) {}

  SpscQueue<EventBatch> full;
  SpscQueue<EventBatch> free;
};

/// Worker shard. Construct, Start(), feed each channel from its ONE
/// producer thread, then SignalDone() + Join() before reading results.
class Shard {
 public:
  /// Instantiates the shard's MultiEngine from the shared plan (one
  /// planning pass for all shards). `plan` must not be null.
  Shard(size_t index, std::shared_ptr<const MultiEnginePlan> plan,
        const RuntimeOptions& options);

  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  size_t index() const { return index_; }

  /// Spawns the worker thread. Idempotent.
  void Start();

  /// Attaches telemetry (src/obs/) BEFORE Start: `eo` feeds the executor
  /// (and any engine a later hot-swap instantiates), `cells` the shard's
  /// own counters, `ring` the lifecycle trace. All nullable, all owned by
  /// the caller (RuntimeTelemetry) and written only from the worker
  /// thread afterwards.
  void SetObservability(const obs::EngineObs* eo, obs::ShardCells* cells,
                        obs::TraceRing* ring) {
    obs_engine_ = eo;
    obs_cells_ = cells;
    obs_ring_ = ring;
    executor_.SetObservability(eo);
  }

  /// The channel of ingest partition `p` (stable address; the partition
  /// keeps pushing to it for the lifetime of the runtime).
  BatchChannel& channel(size_t p) { return *channels_[p]; }
  size_t num_channels() const { return channels_.size(); }

  /// Producer side: no more batches will be enqueued on any channel.
  void SignalDone() { done_.store(true, std::memory_order_release); }

  /// Producer side: stages a control command in the shard's one slot for
  /// pickup by the next in-band control marker (src/runtime/plan_swap.h).
  /// Must be followed by a marker broadcast ordered after it. False while
  /// any control op is in flight on this shard (one slot: swaps and
  /// checkpoints exclude each other), or for a swap this shard cannot run
  /// (more than one plan segment, no disorder policy, null plan).
  bool PushControl(const ControlCommand& cmd);

  /// Producer side: un-stages the command pushed by PushControl whose
  /// marker has NOT been broadcast (partial-broadcast rollback). A no-op
  /// once the worker took the command.
  void CancelControl();

  /// The kind of the control op in flight: set by PushControl, cleared by
  /// the worker when a swap retires its old engine or a checkpoint wrote
  /// (or failed to write) its shard file.
  ControlKind control_in_flight() const {
    return in_flight_.load(std::memory_order_acquire);
  }
  bool swap_in_flight() const {
    return control_in_flight() == ControlKind::kSwap;
  }
  bool checkpoint_in_flight() const {
    return control_in_flight() == ControlKind::kCheckpoint;
  }

  /// Outcome of the most recent completed checkpoint on this shard.
  /// Meaningful once checkpoint_in_flight() dropped back to false.
  struct CheckpointOutcome {
    std::string error;  ///< empty on success
    size_t bytes = 0;   ///< shard file size
    Timestamp watermark = kNoWatermark;  ///< merged frontier at the cut
    /// checkpoint::PlanFingerprint of the executor at the cut.
    uint64_t fingerprint = 0;
  };
  CheckpointOutcome checkpoint_outcome() const;

  /// Blocks until the worker drained every channel and exited. Idempotent.
  void Join();

  /// Folds producer-side stall counts into this shard's stats. Called by
  /// the runtime at Finish, after the producers stopped (post-join).
  void AddProducerStalls(uint64_t n) { stats_.queue_full_stalls += n; }

  /// Highest watermark this shard's worker has applied. Safe to read
  /// while the worker runs (atomic); kNoWatermark before the first
  /// punctuation or when the runtime has no disorder policy.
  Timestamp watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }

  // --- post-Join reads -------------------------------------------------

  const ShardStats& stats() const { return stats_; }

  /// Watermark/eviction counters of this shard's executor (post-join).
  WatermarkStats watermark_stats() const;

  /// True once the executor finalized `window` of `query` (post-join).
  bool Finalized(QueryId query, WindowId window) const;

  /// Live-state census of this shard's executor (post-join).
  LiveState LiveStateSnapshot() const;

  /// Result cell for an ORIGINAL-workload query id.
  AggState Get(QueryId query, WindowId window, AttrValue group) const;

  /// Visits every result cell, with cell keys in ORIGINAL query ids.
  /// Iteration order is unspecified.
  void ForEachCell(
      const std::function<void(const ResultKey&, const AggState&)>& fn) const;

  size_t NumCells() const;
  size_t EstimatedBytes() const;
  /// Peak logical state bytes (Engine::peak_bytes convention). Includes
  /// retired pre-swap engines and the dual-run overlap.
  size_t PeakBytes() const;
  size_t num_shared_counters() const;

  /// Completed plan swaps this shard executed, in order (post-join).
  const std::vector<ShardSwapRecord>& swap_records() const {
    return swap_records_;
  }

  /// The executor; segment engines are the CURRENT ones after any swaps.
  const MultiEngine& executor() const { return executor_; }

  // --- checkpoint restore hooks (pre-Start only) ------------------------
  // Used exclusively by ShardedRuntime::Restore before the worker thread
  // exists, so none of them synchronize.

  MultiEngine& restore_executor() { return executor_; }
  ResultCollector& restore_archive() { return archived_; }
  void RestoreRetiredCounters(const WatermarkStats& wm) {
    retired_wm_.MergeCountersFrom(wm);
  }

  /// Seeds every producer frontier and the published shard watermark with
  /// the checkpointed merged frontier, so a stale post-restore
  /// punctuation is treated exactly as the uninterrupted run would have
  /// treated it (regression accounting instead of a frontier rewind).
  void RestoreFrontier(Timestamp merged);

 private:
  void WorkerLoop();
  void Process(const EventBatch& batch, size_t channel_idx);
  /// Dispatches one event from channel `p`: control-marker alignment,
  /// watermark merging, or executor delivery (data). Also the replay path
  /// for events held behind an aligned channel's marker.
  void HandleEvent(const Event& e, size_t p);
  /// Folds a control marker from channel `p` into the alignment state;
  /// once every channel's marker arrived, runs the staged command by kind
  /// (BeginSwap / WriteCheckpoint; a marker with nothing staged runs
  /// nothing), then replays the held events.
  void OnControlMarker(const Event& e, size_t p);
  /// Returns the emptied buffer to channel `p`'s free ring.
  void Recycle(size_t p, EventBatch&& batch);
  /// Applies producer `p`'s watermark `t` and advances the executor to
  /// the new minimum over producer frontiers (if it moved).
  void MergeWatermark(size_t p, Timestamp t);

  // --- control ops (worker thread only; see plan_swap.h) ---------------
  void BeginSwap(ControlCommand cmd);
  /// Serializes the executor state at the marker and writes the shard
  /// file into `cmd.dir` (src/checkpoint/).
  void WriteCheckpoint(const ControlCommand& cmd);
  void ApplyWatermark(Timestamp t);
  void RetireOldEngine();
  Timestamp SwapWatermarkCap() const {
    return swap_.boundary + disorder_.max_lateness;
  }

  size_t index_;
  std::string error_;
  /// One channel per ingest partition (created at construction; the
  /// vector itself is immutable afterwards).
  std::vector<std::unique_ptr<BatchChannel>> channels_;
  /// Worker-owned: highest watermark seen per channel (kNoWatermark
  /// until the producer punctuates) and the merged minimum applied.
  std::vector<Timestamp> channel_frontier_;
  Timestamp merged_watermark_ = kNoWatermark;
  // Control-marker alignment (worker-owned). marker_seen_[p] is set when
  // channel p delivered its marker for the pending control op;
  // markers_seen_ counts the set flags. Events arriving on an aligned
  // channel are parked in held_[p] and replayed once the operation ran.
  std::vector<uint8_t> marker_seen_;
  size_t markers_seen_ = 0;
  std::vector<EventBatch> held_;
  uint64_t batch_data_events_ = 0;  ///< data events of the batch in Process
  /// Worker-owned after Start. Its plan (and so the segment count the
  /// producer thread reads in PushControl) is immutable; a swap
  /// retirement replaces only segment 0's engine.
  MultiEngine executor_;
  std::thread thread_;
  std::atomic<bool> done_{false};
  std::atomic<Timestamp> watermark_{kNoWatermark};
  bool started_ = false;
  ShardStats stats_;
  DisorderPolicy disorder_;

  // Telemetry handles (src/obs/); null when observability is off. The
  // worker thread is the only writer after Start.
  const obs::EngineObs* obs_engine_ = nullptr;
  obs::ShardCells* obs_cells_ = nullptr;
  obs::TraceRing* obs_ring_ = nullptr;

  // Control state. The producer stages the command under control_mu_;
  // the worker takes it at the aligned marker. in_flight_ is the
  // cross-thread handshake: set by the producer on push, cleared by the
  // worker when the op completes. The checkpoint outcome is written by the
  // worker under control_mu_ before in_flight_ clears.
  mutable std::mutex control_mu_;
  std::optional<ControlCommand> staged_;
  std::atomic<ControlKind> in_flight_{ControlKind::kNone};
  CheckpointOutcome checkpoint_outcome_;
  bool swap_active_ = false;       ///< worker picked the command up
  ControlCommand swap_;            ///< the active swap
  Timestamp tee_from_ = 0;         ///< overlap start B + slide - length
  /// The incoming engine of the active swap (dual-run against segment 0).
  std::unique_ptr<Engine> next_engine_;
  StopWatch swap_watch_;
  ShardSwapRecord swap_record_;    ///< being accumulated for the active swap
  std::vector<ShardSwapRecord> swap_records_;

  // Results of retired engines (windows closing <= their boundary) plus
  // their folded-in counters; owned by the worker, read post-join.
  ResultCollector archived_;
  WatermarkStats retired_wm_;      ///< counter fields only (sums)
  size_t retired_peak_bytes_ = 0;  ///< max peak among retired engines
};

}  // namespace sharon::runtime

#endif  // SHARON_RUNTIME_SHARD_H_
