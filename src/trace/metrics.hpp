// Event-mix metrics for a traced run: per-thread counts of reads,
// writes and sync operations, plus per-lock acquire counts as a
// contention proxy. A MetricsSink attached to a TraceContext or an
// AnalysisPipeline (attach_metrics) yields a contention profile next to
// the race certificate of the same run.
//
// One counting path, perfbook's statistical counters (ch. 5): whoever
// reads the drained stream — the context's drain or a pipeline shard —
// counts each event it owns into a private MetricsDelta (plain
// integers, no shared state per event), and the deltas are merged into
// the MetricsSink at quiescent points: after each inline drain, and
// when the pipeline goes idle. The sink's one mutex is taken once per
// merge and once per read, never per event. Both sides count only while
// a sink is attached.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "race/interner.hpp"
#include "trace/event.hpp"

namespace cs31::trace {

/// Event mix of one traced thread.
struct ThreadMetrics {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t acquires = 0;
  std::uint64_t releases = 0;
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t barriers = 0;  ///< barrier cycles this thread waited in

  [[nodiscard]] std::uint64_t total() const {
    return reads + writes + acquires + releases + sends + recvs + barriers;
  }
};

/// One reader's private counts since its last merge. Thread ids and
/// lock ids are the *context's* ids; lock names are resolved at merge
/// time through the name table the merger passes in.
struct MetricsDelta {
  std::vector<ThreadMetrics> threads;        ///< by context thread id
  std::vector<std::uint64_t> lock_acquires;  ///< by context lock id
  std::vector<NameId> locks_in_first_acquire_order;
  std::uint64_t barrier_cycles = 0;
  std::uint64_t events = 0;

  [[nodiscard]] ThreadMetrics& of(ThreadId t) {
    if (t >= threads.size()) threads.resize(t + 1);
    return threads[t];
  }
  /// Count one drained event. `waiter_sets` resolves a BarrierCycle's
  /// payload (the context's waiter-set table, or a copy of it).
  void count(const Event& event, const std::vector<std::vector<ThreadId>>& waiter_sets);
};

class MetricsSink {
 public:
  MetricsSink() = default;
  MetricsSink(const MetricsSink&) = delete;
  MetricsSink& operator=(const MetricsSink&) = delete;

  /// Fold one reader's delta into the totals. `lock_names[id]` names
  /// the delta's lock ids.
  void merge(const MetricsDelta& delta, const std::vector<std::string>& lock_names);

  // Readers are exact once the feeding context is flushed.
  /// One row per traced thread (thread 0 always has one).
  [[nodiscard]] std::vector<ThreadMetrics> per_thread() const;
  /// (lock name, acquire count), by first-acquire order — the hotter a
  /// lock, the more serialization it imposes.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> lock_acquires() const;
  [[nodiscard]] std::uint64_t barrier_cycles() const;
  [[nodiscard]] std::uint64_t events() const;

 private:
  mutable std::mutex mutex_;
  std::vector<ThreadMetrics> threads_{1};
  race::Interner lock_names_;
  std::vector<std::uint64_t> lock_acquires_;  ///< by lock_names_ id
  std::uint64_t barrier_cycles_ = 0;
  std::uint64_t events_ = 0;
};

}  // namespace cs31::trace
