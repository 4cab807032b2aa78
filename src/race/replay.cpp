#include "race/replay.hpp"

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "os/interleave.hpp"

namespace cs31::race {

std::vector<std::vector<std::string>> tag_threads(
    const std::vector<std::vector<std::string>>& scripts) {
  std::vector<std::vector<std::string>> tagged;
  tagged.reserve(scripts.size());
  for (std::size_t k = 0; k < scripts.size(); ++k) {
    std::string prefix = "t";
    prefix += std::to_string(k);
    prefix += ' ';
    std::vector<std::string> ops;
    ops.reserve(scripts[k].size());
    for (const std::string& op : scripts[k]) {
      ops.push_back(prefix + op);
    }
    tagged.push_back(std::move(ops));
  }
  return tagged;
}

ReplayResult replay(const std::vector<std::string>& interleaving, ReplayOptions options) {
  Detector detector;
  return replay(interleaving, detector, options);
}

ReplayResult replay(const std::vector<std::string>& interleaving, EventSink& sink,
                    ReplayOptions options) {
  const std::vector<ParsedOp> ops = parse_tagged(interleaving);
  std::vector<const ParsedOp*> schedule;
  schedule.reserve(ops.size());
  for (const ParsedOp& op : ops) schedule.push_back(&op);
  ReplayResult result = replay(schedule, sink, options);
  result.schedule = interleaving;
  return result;
}

ReplayResult replay(const std::vector<const ParsedOp*>& schedule, EventSink& sink,
                    ReplayOptions options) {
  // The threads present, in script order: a barrier waits for all of
  // them, and the first reuses the sink's pre-registered thread 0.
  std::vector<std::uint32_t> present;
  for (const ParsedOp* op : schedule) present.push_back(op->thread);
  std::sort(present.begin(), present.end());
  present.erase(std::unique(present.begin(), present.end()), present.end());
  std::vector<ThreadId> tids(present.size(), 0);
  for (std::size_t i = 1; i < tids.size(); ++i) tids[i] = sink.register_thread();

  // Blocking bookkeeping (model_blocking only), by object id: which
  // mutexes are held, how many sends each channel has pending. A thread
  // in `at_barrier` is parked until the cycle completes — under
  // blocking, any op it tries to run before that makes the schedule
  // infeasible.
  std::vector<std::uint8_t> held;
  std::vector<std::size_t> filled;
  const auto slot = [](auto& table, std::uint32_t id) -> auto& {
    if (id >= table.size()) table.resize(id + 1);
    return table[id];
  };

  ReplayResult result;
  std::set<ThreadId> at_barrier;
  for (const ParsedOp* op : schedule) {
    const ThreadId t =
        tids[std::lower_bound(present.begin(), present.end(), op->thread) - present.begin()];
    if (options.model_blocking) {
      bool blocked = at_barrier.count(t) != 0;
      if (!blocked && op->verb == ScriptVerb::Lock) blocked = slot(held, op->object) != 0;
      if (!blocked && op->verb == ScriptVerb::Recv) blocked = slot(filled, op->object) == 0;
      if (blocked) {
        result.feasible = false;
        break;
      }
    }
    switch (op->verb) {
      case ScriptVerb::Read: sink.read(t, op->operand, op->text); break;
      case ScriptVerb::Write: sink.write(t, op->operand, op->text); break;
      case ScriptVerb::Lock:
        sink.acquire(t, op->operand);
        if (options.model_blocking) slot(held, op->object) = 1;
        break;
      case ScriptVerb::Unlock:
        sink.release(t, op->operand);
        if (options.model_blocking) slot(held, op->object) = 0;
        break;
      case ScriptVerb::Send:
        sink.channel_send(t, op->operand);
        if (options.model_blocking) ++slot(filled, op->object);
        break;
      case ScriptVerb::Recv:
        sink.channel_recv(t, op->operand);
        if (options.model_blocking) --slot(filled, op->object);
        break;
      case ScriptVerb::Barrier:
        at_barrier.insert(t);
        if (at_barrier.size() == tids.size()) {
          sink.barrier(std::vector<ThreadId>(at_barrier.begin(), at_barrier.end()));
          at_barrier.clear();
        }
        break;
    }
    ++result.executed;
  }

  result.races = sink.races();
  result.events = sink.events();
  return result;
}

std::vector<ReplayResult> replay_all_interleavings(
    const std::vector<std::vector<std::string>>& scripts, std::size_t limit) {
  // Stream schedules straight into the detector instead of
  // materializing the full os::all_interleavings set first — the only
  // retained state is the results the caller asked for. Thread tags
  // make every position-choice path a distinct schedule, so the path
  // count the enumerator caps equals the old distinct count.
  std::vector<ReplayResult> results;
  (void)os::for_each_interleaving(
      tag_threads(scripts), [&](const std::vector<std::string>& schedule) {
        require(results.size() < limit, "interleaving enumeration exceeds the limit");
        results.push_back(replay(schedule));
        return true;
      });
  // The materializing path returned schedules in sorted order; keep
  // that contract so summaries and first-racy-schedule demos are
  // byte-stable across the refactor.
  std::sort(results.begin(), results.end(),
            [](const ReplayResult& a, const ReplayResult& b) {
              return a.schedule < b.schedule;
            });
  return results;
}

ReplayStats summarize(const std::vector<ReplayResult>& results) {
  ReplayStats stats;
  stats.schedules = results.size();
  for (const ReplayResult& r : results) {
    if (!r.race_free()) ++stats.racy;
  }
  stats.distinct = distinct_races(results).size();
  return stats;
}

std::vector<RaceReport> distinct_races(const std::vector<ReplayResult>& results) {
  std::vector<RaceReport> out;
  std::set<std::string> seen;
  for (const ReplayResult& result : results) {
    for (const RaceReport& r : result.races) {
      if (seen.insert(race_pair_key(r.variable, r.first, r.second)).second) {
        out.push_back(r);
      }
    }
  }
  return out;
}

DeadlockSearchResult find_deadlocks(const std::vector<std::vector<std::string>>& scripts,
                                    std::size_t max_states) {
  // Parse + validate up front, Explorer-style: malformed ops and
  // unlock-without-lock throw here, never mid-search.
  const ScriptIr ir = parse_scripts(scripts);
  check_lock_discipline(ir);

  // Memoized DFS over position vectors, which determine the rest of the
  // blocking state because scripts are straight-line.
  BlockingState state(ir);
  std::set<std::vector<std::size_t>> visited;
  DeadlockSearchResult out;
  const auto visit = [&](const auto& self) -> void {
    if (visited.count(state.positions()) != 0) return;
    if (out.states_visited >= max_states) {
      out.complete = false;
      return;
    }
    visited.insert(state.positions());
    ++out.states_visited;
    bool any_enabled = false;
    for (std::uint32_t t = 0; t < ir.threads().size(); ++t) {
      if (!state.enabled(t)) continue;
      any_enabled = true;
      state.execute(t);
      self(self);
      state.undo(t);
    }
    if (!any_enabled && !state.all_done()) out.deadlocks.push_back(state.stuck());
  };
  visit(visit);
  return out;
}

}  // namespace cs31::race
