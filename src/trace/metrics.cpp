#include "trace/metrics.hpp"

#include "common/error.hpp"

namespace cs31::trace {

void MetricsDelta::count(const Event& event,
                         const std::vector<std::vector<ThreadId>>& waiter_sets) {
  ThreadMetrics& row = of(event.thread);
  switch (event.kind) {
    case EventKind::Read:
      ++row.reads;
      break;
    case EventKind::Write:
      ++row.writes;
      break;
    case EventKind::Acquire:
      ++row.acquires;
      if (event.id >= lock_acquires.size()) lock_acquires.resize(event.id + 1, 0);
      if (lock_acquires[event.id]++ == 0) locks_in_first_acquire_order.push_back(event.id);
      break;
    case EventKind::Release:
      ++row.releases;
      break;
    case EventKind::ChannelSend:
      ++row.sends;
      break;
    case EventKind::ChannelRecv:
      ++row.recvs;
      break;
    case EventKind::Fork:
      (void)of(event.id);  // the child gets a row
      break;
    case EventKind::Join:
      break;
    case EventKind::BarrierCycle:
      for (const ThreadId w : waiter_sets[event.id]) ++of(w).barriers;
      ++barrier_cycles;
      break;
  }
  ++events;
}

void MetricsSink::merge(const MetricsDelta& delta,
                        const std::vector<std::string>& lock_names) {
  std::scoped_lock lock(mutex_);
  if (delta.threads.size() > threads_.size()) threads_.resize(delta.threads.size());
  for (std::size_t t = 0; t < delta.threads.size(); ++t) {
    const ThreadMetrics& d = delta.threads[t];
    ThreadMetrics& m = threads_[t];
    m.reads += d.reads;
    m.writes += d.writes;
    m.acquires += d.acquires;
    m.releases += d.releases;
    m.sends += d.sends;
    m.recvs += d.recvs;
    m.barriers += d.barriers;
  }
  for (const NameId id : delta.locks_in_first_acquire_order) {
    require(id < lock_names.size(), "metrics merge: delta lock id has no name");
    const NameId own = lock_names_.id(lock_names[id]);
    if (own >= lock_acquires_.size()) lock_acquires_.resize(own + 1, 0);
    lock_acquires_[own] += delta.lock_acquires[id];
  }
  barrier_cycles_ += delta.barrier_cycles;
  events_ += delta.events;
}

std::vector<ThreadMetrics> MetricsSink::per_thread() const {
  std::scoped_lock lock(mutex_);
  return threads_;
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsSink::lock_acquires() const {
  std::scoped_lock lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(lock_acquires_.size());
  for (std::size_t id = 0; id < lock_acquires_.size(); ++id) {
    out.emplace_back(lock_names_.name(static_cast<NameId>(id)), lock_acquires_[id]);
  }
  return out;
}

std::uint64_t MetricsSink::barrier_cycles() const {
  std::scoped_lock lock(mutex_);
  return barrier_cycles_;
}

std::uint64_t MetricsSink::events() const {
  std::scoped_lock lock(mutex_);
  return events_;
}

}  // namespace cs31::trace
