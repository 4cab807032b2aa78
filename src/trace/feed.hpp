// The one reader of a context's drained stream. Every drain packs its
// dispatched prefix into one EventBatch — the events in drain order,
// plus the tails of the context's name and waiter-set tables grown
// since the previous drain — so a batch is self-contained: whoever
// holds it never calls back into the context. A Feed turns batches into
// calls on one race::EventSink. It holds everything that sink needs to
// read the stream:
//
//   maps    context var/lock/channel/site id -> a race::Detector's
//           own id (its interned-id fast path), each name interned as
//           it arrives, so the Feed keeps no copy of it; context
//           thread id -> sink thread id, filled at each fork;
//   tables  the names a string-API sink reads (kept only for such a
//           sink), the lock names the metrics rows carry, and the
//           barrier waiter sets.
//
// Maps and tables grow only from batch tails, so a Feed must see every
// batch from the context's first drain on.
//
// The same Feed serves both execution styles of the trace layer: a
// TraceContext hands each drain's batch to its attached sinks' Feeds
// on the draining thread, and each AnalysisPipeline shard holds a Feed
// over its private Detector and applies the shared batches it owns.
// It also counts the event mix (MetricsDelta) in the same pass when
// asked to.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "race/detector.hpp"
#include "trace/event.hpp"

namespace cs31::trace {

struct MetricsDelta;

/// One drain's dispatched prefix, in drain order, plus everything the
/// events reference that the reader has not seen yet (names and
/// barrier waiter sets are append-only tables; the delta is the tail
/// grown since the last drain).
struct EventBatch {
  std::vector<Event> events;
  std::vector<std::string> new_vars, new_locks, new_channels, new_sites;
  std::vector<std::vector<ThreadId>> new_waiter_sets;

  [[nodiscard]] bool empty() const {
    return events.empty() && new_vars.empty() && new_locks.empty() && new_channels.empty() &&
           new_sites.empty() && new_waiter_sets.empty();
  }
};

class Feed {
 public:
  /// Feed `sink` (which must outlive the Feed), or nothing: a Feed with
  /// no sink keeps its tables and only counts.
  explicit Feed(race::EventSink* sink);

  /// What one apply() handed to the sink.
  struct Applied {
    std::uint64_t accesses = 0;
    std::uint64_t syncs = 0;
  };

  /// Apply `batch` as shard `shard` of `shards`: every sync event, and
  /// the access events whose variable id is `shard` modulo `shards` (a
  /// single reader is shard 0 of 1 and takes everything). Event i of
  /// the batch is global event `first_index + i` (1-based); with more
  /// than one shard the sink must be a race::Detector, whose event
  /// clock is pinned to that numbering. When `metrics` is given, the
  /// applied accesses — and, on shard 0, the sync events — are counted
  /// into it, so shards never count an event twice.
  Applied apply(const EventBatch& batch, std::uint64_t first_index, std::size_t shard,
                std::size_t shards, MetricsDelta* metrics = nullptr);

  /// The context's lock names by context id, as learned so far.
  [[nodiscard]] const std::vector<std::string>& lock_names() const { return locks_; }

 private:
  void learn(const EventBatch& batch, std::size_t shard, std::size_t shards);
  void deliver(const Event& event);

  race::EventSink* sink_;
  race::Detector* fast_;   ///< == sink_ when it is a Detector
  std::uint64_t clock_ = 0;  ///< the detector's event clock when sharded
  std::vector<ThreadId> tid_map_{0};  ///< context tid -> sink tid
  std::vector<NameId> var_map_, lock_map_, channel_map_, site_map_;  ///< Detector sink only
  std::vector<std::string> vars_, locks_, channels_, sites_;  ///< by context id
  std::vector<std::vector<ThreadId>> waiter_sets_;
};

}  // namespace cs31::trace
