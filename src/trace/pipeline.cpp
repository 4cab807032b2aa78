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
  require(next_index_ == 0, "attach the metrics sink before the first publish");
  metrics_sink_ = &sink;
}

void AnalysisPipeline::publish(EventBatch batch) {
  if (batch.empty()) return;
  // One immutable batch, shared by every shard: the publisher numbers
  // the events (event i is global event first + i) and hands each shard
  // queue a pointer — O(shards), no copy, no per-event work.
  ShardChunk chunk{std::make_shared<const EventBatch>(std::move(batch)), next_index_ + 1};
  next_index_ += chunk.batch->events.size();
  // Batched wake-ups (see the file comment): a sleeping shard thread is
  // woken at its queue's half-full mark, not per batch.
  for (auto& shard : shards_) shard->queue.push_batched(chunk);
}

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
  // metrics_sink_ is set before the first publish, and this batch was
  // popped after it, so reading it here needs no lock.
  const Feed::Applied applied =
      shard.feed.apply(*chunk.batch, chunk.first_index, shard.stats.shard, shards_.size(),
                       metrics_sink_ != nullptr ? &shard.metrics : nullptr);
  shard.stats.access_events += applied.accesses;
  shard.stats.sync_events += applied.syncs;
  ++shard.stats.chunks;
  shard.stats.busy_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  chunk = ShardChunk{};  // drop this shard's hold on the batch before done()
  shard.queue.done();
  return true;
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
  // what is new. Each shard resolves lock ids through its own Feed's
  // copy of the lock table (only shard 0 counts acquires).
  for (auto& shard : shards_) {
    metrics_sink_->merge(shard->metrics, shard->feed.lock_names());
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
