#include "trace/feed.hpp"

#include "common/error.hpp"
#include "trace/metrics.hpp"

namespace cs31::trace {

namespace {

template <typename T>
void append(std::vector<T>& table, const std::vector<T>& tail) {
  table.insert(table.end(), tail.begin(), tail.end());
}

}  // namespace

Feed::Feed(race::EventSink* sink)
    : sink_(sink), fast_(dynamic_cast<race::Detector*>(sink)) {}

Feed::Applied Feed::apply(const EventBatch& batch, std::uint64_t first_index,
                          std::size_t shard, std::size_t shards, MetricsDelta* metrics) {
  require(shards == 1 || fast_ != nullptr, "a sharded feed needs a race::Detector sink");
  learn(batch, shard, shards);
  Applied applied;
  std::uint64_t index = first_index;
  for (const Event& event : batch.events) {
    // Sync events reach every shard, so each advances the same
    // happens-before state a single reader would hold; an access event
    // belongs to exactly one shard, by interned variable id.
    const bool sync = is_sync(event.kind);
    if (sync || shards == 1 || event.id % shards == shard) {
      if (shards > 1) {
        // Pin the detector's event clock to the publisher's global
        // numbering, so this shard's reports carry the event numbers a
        // single reader of the whole stream would record. Every call
        // advances the clock by one, so only a jump (events owned by
        // other shards) needs the extra locked call.
        if (clock_ != index - 1) fast_->set_event_clock(index - 1);
        clock_ = index;
      }
      if (sink_ != nullptr) deliver(event);
      ++(sync ? applied.syncs : applied.accesses);
      if (metrics != nullptr && (!sync || shard == 0)) metrics->count(event, waiter_sets_);
    }
    ++index;
  }
  return applied;
}

void Feed::learn(const EventBatch& batch, std::size_t shard, std::size_t shards) {
  append(locks_, batch.new_locks);  // the metrics rows name locks on every path
  append(waiter_sets_, batch.new_waiter_sets);
  if (fast_ == nullptr) {
    if (sink_ == nullptr) return;  // a counting-only Feed reads no other name
    append(vars_, batch.new_vars);
    append(channels_, batch.new_channels);
    append(sites_, batch.new_sites);
    return;
  }
  // A Detector interns each name as it arrives, so the Feed keeps no
  // copy of it. A variable is interned only by the shard that owns its
  // accesses; the others never look its id up.
  constexpr NameId kUnowned = static_cast<NameId>(-1);
  for (const std::string& name : batch.new_vars) {
    var_map_.push_back(var_map_.size() % shards == shard ? fast_->intern_var(name) : kUnowned);
  }
  for (const std::string& name : batch.new_locks) lock_map_.push_back(fast_->intern_lock(name));
  for (const std::string& name : batch.new_channels) {
    channel_map_.push_back(fast_->intern_channel(name));
  }
  for (const std::string& name : batch.new_sites) site_map_.push_back(fast_->intern_site(name));
}

void Feed::deliver(const Event& event) {
  race::EventSink& sink = *sink_;
  const ThreadId t = tid_map_[event.thread];
  switch (event.kind) {
    case EventKind::Read:
    case EventKind::Write: {
      const bool read = event.kind == EventKind::Read;
      if (fast_ == nullptr) {
        read ? sink.read(t, vars_[event.id], sites_[event.site])
             : sink.write(t, vars_[event.id], sites_[event.site]);
        return;
      }
      const NameId var = var_map_[event.id];
      const NameId site = site_map_[event.site];
      read ? fast_->read(t, var, site) : fast_->write(t, var, site);
      return;
    }
    case EventKind::Acquire:
    case EventKind::Release: {
      const bool acquire = event.kind == EventKind::Acquire;
      if (fast_ == nullptr) {
        acquire ? sink.acquire(t, locks_[event.id]) : sink.release(t, locks_[event.id]);
        return;
      }
      const NameId lock = lock_map_[event.id];
      acquire ? fast_->acquire(t, lock) : fast_->release(t, lock);
      return;
    }
    case EventKind::ChannelSend:
    case EventKind::ChannelRecv: {
      const bool send = event.kind == EventKind::ChannelSend;
      if (fast_ == nullptr) {
        send ? sink.channel_send(t, channels_[event.id])
             : sink.channel_recv(t, channels_[event.id]);
        return;
      }
      const NameId channel = channel_map_[event.id];
      send ? fast_->channel_send(t, channel) : fast_->channel_recv(t, channel);
      return;
    }
    case EventKind::Fork: {
      const ThreadId child = sink.fork(t);
      if (event.id >= tid_map_.size()) tid_map_.resize(event.id + 1, 0);
      tid_map_[event.id] = child;
      return;
    }
    case EventKind::Join:
      sink.join(t, tid_map_[event.id]);
      return;
    case EventKind::BarrierCycle: {
      std::vector<ThreadId> mapped;
      mapped.reserve(waiter_sets_[event.id].size());
      for (const ThreadId w : waiter_sets_[event.id]) mapped.push_back(tid_map_[w]);
      sink.barrier(mapped);
      return;
    }
  }
}

}  // namespace cs31::trace
