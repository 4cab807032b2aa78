#include "trace/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"

namespace cs31::trace {

// The backpressure primitive lives in common/bounded_queue.hpp (the
// grader's worker queues share it); the pipeline only wires the
// topology: one chunk queue per shard, fed by the publisher.

AnalysisPipeline::AnalysisPipeline(Options options) : options_(options) {
  require(options_.shards >= 1, "analysis pipeline needs at least one shard");
  require(options_.queue_capacity >= 1, "analysis pipeline queue capacity must be >= 1");
  shards_.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(options_.queue_capacity));
    shards_.back()->stats.shard = s;
  }
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    shard->worker = std::thread([this, s] { shard_main(*s); });
  }
}

AnalysisPipeline::~AnalysisPipeline() {
  // Graceful drain: closed queues still deliver what they hold, so
  // everything published before destruction is analyzed.
  for (auto& shard : shards_) shard->queue.close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void AnalysisPipeline::attach_metrics(MetricsSink& sink) {
  std::scoped_lock lock(merge_mutex_);
  require(metrics_sink_ == nullptr, "analysis pipeline already has a metrics sink");
  metrics_sink_ = &sink;
}

void AnalysisPipeline::publish(EventBatch batch) {
  if (batch.events.empty() && batch.new_vars.empty() && batch.new_locks.empty() &&
      batch.new_channels.empty() && batch.new_sites.empty() &&
      batch.new_waiter_sets.empty()) {
    return;
  }
  // One immutable batch, shared by every shard: the publisher numbers
  // the events (event i is global event first + i) and hands each shard
  // queue a pointer — O(shards), no copy, no per-event work.
  ShardChunk chunk{std::make_shared<const EventBatch>(std::move(batch)), next_index_ + 1};
  next_index_ += chunk.batch->events.size();
  // Batched wake-ups (see the file comment): a sleeping shard thread is
  // woken at its queue's half-full mark, not per batch.
  for (auto& shard : shards_) shard->queue.push_batched(chunk);
}

namespace {

/// Sink-side id for a context id, translating through `map` and
/// interning into the shard's detector on first sight (the same scheme
/// the inline SinkBinding uses).
template <typename Intern>
NameId translate(std::vector<NameId>& map, NameId id, Intern&& intern) {
  constexpr NameId kUnset = static_cast<NameId>(-1);
  if (id >= map.size()) map.resize(id + 1, kUnset);
  if (map[id] == kUnset) map[id] = intern();
  return map[id];
}

}  // namespace

void AnalysisPipeline::shard_main(Shard& shard) {
  while (shard.queue.wait_nonempty()) {
    // A helper may hold the consumer lock mid-batch; taking batches only
    // under it keeps each shard's batches applied in queue order.
    std::scoped_lock consumer(shard.consumer);
    while (consume_one(shard)) {
    }
  }
}

bool AnalysisPipeline::help() {
  bool helped = false;
  for (auto& shard : shards_) {
    std::unique_lock consumer(shard->consumer, std::try_to_lock);
    if (consumer.owns_lock() && consume_one(*shard)) helped = true;
  }
  return helped;
}

bool AnalysisPipeline::consume_one(Shard& shard) {
  ShardChunk chunk;
  if (!shard.queue.try_pop(chunk)) return false;
  const auto begin = std::chrono::steady_clock::now();
  const EventBatch& batch = *chunk.batch;
  shard.vars.insert(shard.vars.end(), batch.new_vars.begin(), batch.new_vars.end());
  shard.locks.insert(shard.locks.end(), batch.new_locks.begin(), batch.new_locks.end());
  shard.channels.insert(shard.channels.end(), batch.new_channels.begin(),
                        batch.new_channels.end());
  shard.sites.insert(shard.sites.end(), batch.new_sites.begin(), batch.new_sites.end());
  shard.waiter_sets.insert(shard.waiter_sets.end(), batch.new_waiter_sets.begin(),
                           batch.new_waiter_sets.end());
  const auto shard_count = static_cast<NameId>(shards_.size());
  const auto own = static_cast<NameId>(shard.stats.shard);
  std::uint64_t index = chunk.first_index;
  for (const Event& event : batch.events) {
    // Sync events reach every shard, so each advances the same
    // happens-before state an inline detector would hold; an access
    // event belongs to exactly one shard, by interned variable id.
    if (is_sync(event.kind) || shard_count == 1 || event.id % shard_count == own) {
      apply(shard, event, index);
    }
    ++index;
  }
  ++shard.stats.chunks;
  shard.stats.busy_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  chunk = ShardChunk{};  // drop this shard's hold on the batch before done()
  shard.queue.done();
  return true;
}

void AnalysisPipeline::apply(Shard& shard, const Event& event, std::uint64_t index) {
  race::Detector& detector = shard.detector;
  // Pin the detector's event clock to the publisher's global numbering,
  // so this shard's AccessSite.event values — and therefore its reports
  // — match what an inline detector seeing the whole stream would record.
  // Every detector call below advances the clock by one, so only a jump
  // (events owned by other shards) needs the extra locked call.
  if (shard.clock != index - 1) detector.set_event_clock(index - 1);
  shard.clock = index;
  const ThreadId t = shard.tid_map[event.thread];
  switch (event.kind) {
    case EventKind::Read:
    case EventKind::Write: {
      const NameId var = translate(shard.var_map, event.id,
                                   [&] { return detector.intern_var(shard.vars[event.id]); });
      const NameId site = translate(shard.site_map, event.site, [&] {
        return detector.intern_site(shard.sites[event.site]);
      });
      if (event.kind == EventKind::Read) {
        detector.read(t, var, site);
        ++shard.metrics.of(event.thread).reads;
      } else {
        detector.write(t, var, site);
        ++shard.metrics.of(event.thread).writes;
      }
      ++shard.metrics.events;
      ++shard.stats.access_events;
      return;
    }
    case EventKind::Acquire:
    case EventKind::Release: {
      const NameId lock = translate(shard.lock_map, event.id, [&] {
        return detector.intern_lock(shard.locks[event.id]);
      });
      if (event.kind == EventKind::Acquire) {
        detector.acquire(t, lock);
      } else {
        detector.release(t, lock);
      }
      break;
    }
    case EventKind::ChannelSend:
    case EventKind::ChannelRecv: {
      const NameId channel = translate(shard.channel_map, event.id, [&] {
        return detector.intern_channel(shard.channels[event.id]);
      });
      if (event.kind == EventKind::ChannelSend) {
        detector.channel_send(t, channel);
      } else {
        detector.channel_recv(t, channel);
      }
      break;
    }
    case EventKind::Fork: {
      const ThreadId child = detector.fork(t);
      if (event.id >= shard.tid_map.size()) shard.tid_map.resize(event.id + 1, 0);
      shard.tid_map[event.id] = child;
      break;
    }
    case EventKind::Join:
      detector.join(t, shard.tid_map[event.id]);
      break;
    case EventKind::BarrierCycle: {
      const std::vector<ThreadId>& waiters = shard.waiter_sets[event.id];
      std::vector<ThreadId> mapped;
      mapped.reserve(waiters.size());
      for (const ThreadId w : waiters) mapped.push_back(shard.tid_map[w]);
      detector.barrier(mapped);
      break;
    }
  }
  ++shard.stats.sync_events;
  if (shard.stats.shard == 0) count_sync(shard, event);
}

void AnalysisPipeline::count_sync(Shard& shard, const Event& event) {
  // Every shard sees every sync event; shard 0 alone counts them, so
  // nothing is counted twice.
  MetricsDelta& metrics = shard.metrics;
  switch (event.kind) {
    case EventKind::Acquire:
      metrics.count_acquire(event.thread, event.id);  // bumps events itself
      return;
    case EventKind::Release:
      ++metrics.of(event.thread).releases;
      break;
    case EventKind::ChannelSend:
      ++metrics.of(event.thread).sends;
      break;
    case EventKind::ChannelRecv:
      ++metrics.of(event.thread).recvs;
      break;
    case EventKind::Fork:
      (void)metrics.of(event.id);  // the child gets a row
      break;
    case EventKind::BarrierCycle:
      for (const ThreadId w : shard.waiter_sets[event.id]) ++metrics.of(w).barriers;
      ++metrics.barrier_cycles;
      break;
    default:
      break;
  }
  ++metrics.events;
}

void AnalysisPipeline::wait_idle() {
  // The caller would only sleep here, so it analyzes what is queued
  // itself; wait_drained then covers a batch a shard thread or another
  // helper is still applying (and wakes a shard sitting on batches
  // below its queue's half-full mark).
  while (help()) {
  }
  for (auto& shard : shards_) shard->queue.wait_drained();
  std::scoped_lock lock(merge_mutex_);
  merge_metrics_locked();
}

void AnalysisPipeline::merge_metrics_locked() {
  if (metrics_sink_ == nullptr) return;
  // The workers are idle (wait_idle just proved it), so their deltas
  // are stable; merging clears them so the next idle point only adds
  // what is new. Each shard resolves lock ids through its own copy of
  // the lock table (only shard 0 counts acquires).
  for (auto& shard : shards_) {
    if (shard->metrics.empty()) continue;
    metrics_sink_->merge(shard->metrics, shard->locks);
    shard->metrics = MetricsDelta{};
  }
}

std::vector<race::RaceReport> AnalysisPipeline::races() const {
  std::vector<std::vector<race::RaceReport>> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) per_shard.push_back(shard->detector.races());
  return race::merge_shard_reports(std::move(per_shard));
}

bool AnalysisPipeline::race_free() const {
  for (const auto& shard : shards_) {
    if (!shard->detector.race_free()) return false;
  }
  return true;
}

std::uint64_t AnalysisPipeline::race_count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->detector.race_count();
  return total;
}

std::uint64_t AnalysisPipeline::events() const { return next_index_; }

std::string AnalysisPipeline::summary() const {
  return race::summarize_races(races(), race_count(), events(),
                               shards_.front()->detector.threads());
}

std::vector<ShardStats> AnalysisPipeline::shard_stats() const {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) stats.push_back(shard->stats);
  return stats;
}

std::uint64_t AnalysisPipeline::publish_waits() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->queue.mutex);
    total += shard->queue.waits;
  }
  return total;
}

std::uint64_t AnalysisPipeline::batch_high_water() const {
  std::uint64_t high = 0;
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->queue.mutex);
    high = std::max(high, shard->queue.high_water);
  }
  return high;
}

}  // namespace cs31::trace
