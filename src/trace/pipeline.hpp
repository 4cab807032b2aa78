// Off-critical-path race analysis. Inline sinks run on the *draining*
// thread, which replays the whole drained stream through every detector,
// so analysis cost lands on the parallel hot path. An AnalysisPipeline
// moves that work off the path: a drain publishes its dispatched prefix
// as one EventBatch and returns. Behind the publish:
//
//   route  — the publisher numbers the batch's events (each event's
//            global index is the position it would have had in the
//            inline dispatch sequence) and pushes ONE shared, immutable
//            batch onto every shard's bounded queue: O(shards) pointer
//            pushes, no copy, no per-event work on the draining thread,
//            and no router thread in between.
//   shard  — N shards, each owning a private race::Detector — a
//            disjoint slice of FastTrack shadow state — read through a
//            trace::Feed (feed.hpp, the same reader an inline drain
//            uses), and a thread that applies its batches in queue
//            order (helpers borrow the same per-shard lock, see below).
//            A shard applies every sync event and exactly the access
//            events whose interned variable id it owns (var % shards).
//            Per-variable VarState makes the split exact;
//            thread/lock/channel vector clocks evolve only on the sync
//            events every shard sees, so every shard holds the same
//            happens-before state an inline detector would, and the
//            shards never share a mutable byte.
//   merge  — per-shard reports carry the global event numbers
//            (Detector::set_event_clock), so race::merge_shard_reports
//            reconstructs inline detection order exactly: reports,
//            race_count, events, and summary() are byte-identical to
//            inline mode for ANY shard count and ANY queue capacity.
//
// Where the work runs relative to a traced barrier (see context.hpp and
// parallel::Barrier::attach_tracer):
//   before the waiters' release — nothing of the pipeline;
//   after the release — the last arriver's drain_staged merges and
//            publishes. A publish is at most one handoff per shard, and
//            usually none: shard queues are fed with
//            BoundedQueue::push_batched, so a sleeping shard thread is
//            woken only when its queue reaches half its capacity (or at
//            wait_idle / close);
//   while a later cycle is open — its early arrivers, which would only
//            sleep, analyze queued batches themselves (help()), so the
//            analysis fills the barrier's slack.
// On a host whose cores all run traced workers, every wake-up of an
// analysis thread takes a core from a worker, and the barrier then waits
// for that worker; batching the wake-ups and helping from the barrier
// keep the analysis off the workers' cycles without lifting the memory
// bound. The shard threads still take whatever the helpers leave.
//
// Backpressure: the per-shard queues are bounded; a publisher that
// finds one full BLOCKS until that shard catches up, so at most
// queue_capacity batches (plus one per shard in analysis) are alive no
// matter how far analysis falls behind (publish_waits() counts how often
// that bit).
//
// Determinism contract: batches are published in drain order (the
// publisher holds the context's stream mutex — publishes must be
// serialized), and each shard consumes its queue FIFO — so every shard
// sees its slice of the one globally ordered stream in order, and the
// merge is a pure function of that stream. Queue capacities and thread
// scheduling can change *when* analysis happens, never its result.
//
// Lifetime: construct the pipeline BEFORE the TraceContext that feeds
// it (destruction then stops the workers after the context's last
// drain). Batches are self-contained (feed.hpp), so pipeline threads
// never call back into the context.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.hpp"
#include "race/detector.hpp"
#include "trace/feed.hpp"
#include "trace/metrics.hpp"

namespace cs31::trace {

/// Per-shard throughput accounting, for the shard-scaling measurement
/// in bench_race_overhead: `busy_seconds` is time spent analyzing (not
/// blocked on the queue), so total events / max busy_seconds is the
/// pipeline's analysis capacity with this shard count.
struct ShardStats {
  std::size_t shard = 0;
  std::uint64_t access_events = 0;  ///< owned by this shard exclusively
  std::uint64_t sync_events = 0;    ///< applied by every shard
  std::uint64_t chunks = 0;
  double busy_seconds = 0.0;
};

class AnalysisPipeline {
 public:
  struct Options {
    std::size_t shards = 2;         ///< analysis workers (>= 1)
    std::size_t queue_capacity = 8; ///< max pending batches per shard queue (>= 1)
  };

  AnalysisPipeline() : AnalysisPipeline(Options{}) {}
  explicit AnalysisPipeline(Options options);
  ~AnalysisPipeline();

  AnalysisPipeline(const AnalysisPipeline&) = delete;
  AnalysisPipeline& operator=(const AnalysisPipeline&) = delete;

  /// Also count the event mix: each shard's Feed counts the events it
  /// owns into the shard's private MetricsDelta (shard 0 also counts the
  /// sync events every shard sees), merged into `sink` each time the
  /// pipeline goes idle. Attach before the first publish; the sink must
  /// outlive the pipeline.
  void attach_metrics(MetricsSink& sink);

  // --- producer side (called by TraceContext) --------------------------

  /// Number one drained batch and enqueue it on every shard. Blocks
  /// while a shard queue is full — the backpressure that caps memory.
  /// Calls must be serialized by the caller (TraceContext publishes
  /// under its stream mutex).
  void publish(EventBatch batch);

  /// Analyze one queued batch per shard on the calling thread, for each
  /// shard no other thread is analyzing right now; false when there was
  /// nothing to take. A thread that would otherwise sleep — a barrier's
  /// early arrivers, a flush waiting for idle — lends its core this way.
  /// Order per shard is kept: the shard thread and helpers take batches
  /// under one per-shard lock.
  bool help();

  /// Block until every published event has been analyzed (and metrics
  /// deltas merged). The caller helps while it waits. TraceContext::flush calls this, so
  /// the read-the-verdict rule is unchanged: flush, then read.
  void wait_idle();

  // --- results (valid while idle) --------------------------------------

  /// Merged reports in inline detection order (see file comment).
  [[nodiscard]] std::vector<race::RaceReport> races() const;
  [[nodiscard]] bool race_free() const;
  [[nodiscard]] std::uint64_t race_count() const;
  /// Total events published — equals the inline detector's events().
  [[nodiscard]] std::uint64_t events() const;
  /// Byte-identical to the inline Detector::summary() for the same run.
  [[nodiscard]] std::string summary() const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::vector<ShardStats> shard_stats() const;
  /// How often a publisher blocked on a full shard queue.
  [[nodiscard]] std::uint64_t publish_waits() const;
  /// Deepest any shard queue has been, in batches.
  [[nodiscard]] std::uint64_t batch_high_water() const;

 private:
  /// What a shard queue holds: a batch shared by every shard, and the
  /// global number of its first event.
  struct ShardChunk {
    std::shared_ptr<const EventBatch> batch;
    std::uint64_t first_index = 0;  ///< 1-based
  };

  struct Shard {
    explicit Shard(std::size_t cap) { queue.capacity = cap; }
    common::BoundedQueue<ShardChunk> queue;
    /// Held while taking and applying a batch (by the shard thread or a
    /// helper): batches apply in queue order, and it guards the state
    /// below.
    std::mutex consumer;
    std::thread worker;
    race::Detector detector;
    Feed feed{&detector};
    MetricsDelta metrics;  ///< counted only while a sink is attached
    ShardStats stats;
  };

  void shard_main(Shard& shard);
  /// Take and apply the shard's next batch; false when its queue is
  /// empty. Caller holds shard.consumer.
  bool consume_one(Shard& shard);
  void merge_metrics_locked();

  const Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Publisher-owned (publishes are serialized by the caller; readers
  /// wait for idle first): events numbered so far.
  std::uint64_t next_index_ = 0;

  /// Serializes only the idle-point delta merge (two concurrent
  /// wait_idle callers must not fold the same delta twice) and sink
  /// attachment. No per-event or per-batch path takes it: shards count
  /// into their private deltas.
  std::mutex merge_mutex_;
  MetricsSink* metrics_sink_ = nullptr;  ///< set once, before first publish
};

}  // namespace cs31::trace
