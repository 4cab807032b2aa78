#include "race/explore.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "os/interleave.hpp"

namespace cs31::race {
namespace {

/// Emissions a replay result trails the walk before it folds into the
/// result and the guidance: schedule j's result is folded just before
/// schedule j + kFoldDelay + 1 is emitted, so the hint set at emission
/// k is exactly f(results 0..k-kFoldDelay-1). Replay itself runs inline,
/// so nothing forces a delay: 32 is the settle window of the worker pool
/// replay used to run on, and keeping it keeps every ExploreResult
/// byte-identical to that pool's output (the golden fingerprints in
/// race_explore_test pin this).
constexpr std::size_t kFoldDelay = 32;

/// One replayed schedule, waiting to be folded into the result.
struct ScheduleResult {
  std::vector<RaceReport> races;
  std::uint64_t events = 0;
};

// ---------------------------------------------------------------------
// The engine: one run() owns the walk, the replays, and the fold.
// ---------------------------------------------------------------------

class Engine {
 public:
  Engine(const ScriptIr& ir, const ExploreOptions& options)
      : ops_(ir.threads()), options_(options), threads_(ops_.size()), state_(ir) {
    // Only the script lengths matter to the multinomial.
    std::vector<std::vector<std::string>> shape;
    for (const auto& script : ops_) shape.emplace_back(script.size());
    result_.interleavings_total = os::interleaving_count(shape, result_.total_saturated);
    const auto ids = [&ir](ObjectKind kind, const std::vector<std::string>& names) {
      std::set<std::uint32_t> out;
      for (const std::string& name : names) {
        const auto it = ir.objects(kind).find(name);
        if (it != ir.objects(kind).end()) out.insert(it->second);
      }
      return out;
    };
    independent_vars_ = ids(ObjectKind::Var, options_.independent_vars);
    independent_mutexes_ = ids(ObjectKind::Mutex, options_.independent_mutexes);
    last_event_of_.assign(threads_, -1);
    for (const RaceReport& hint : options_.hints) {
      add_hint(hint.first.where, hint.second.where);
    }
  }

  ExploreResult run() {
    explore(std::set<std::uint32_t>{});
    // The walk is done; fold the tail strictly in emission order.
    while (!pending_.empty()) merge_next();

    result_.schedules_replayed = emitted_;
    result_.complete = !truncated_;
    return std::move(result_);
  }

 private:
  // --- the DPOR walk (sequential, deterministic) ---

  struct Event {
    const ParsedOp* op = nullptr;
    int prev_last = -1;               ///< last_event_of_[op->thread] before this event
    std::vector<std::uint32_t> clock; ///< trace happens-before clock
  };

  struct Frame {
    std::set<std::uint32_t> backtrack;
    std::set<std::uint32_t> sleep;
    std::set<std::uint32_t> explored;
    /// Threads enabled in this state — the DPOR race analysis falls
    /// back to "add everything enabled here" when the thread it wants
    /// to add was disabled (only possible under blocking semantics).
    std::set<std::uint32_t> enabled;
  };

  /// Two ops of different threads are dependent iff reordering them
  /// could change the detector's verdict (see the soundness sketch in
  /// DESIGN.md §11): read/write or write/write on one variable, any two
  /// ops on one mutex or one channel, and a barrier arrival with
  /// everything (the completing arrival joins every waiter's clock, and
  /// which arrival completes is schedule-dependent).
  ///
  /// Minus caller-proven-independent variable pairs
  /// (options.independent_vars: thread-local or consistently locked). A
  /// pruned access mutates no blocking state and its pairs are never
  /// co-enabled under blocking, so dropping the edge keeps both the
  /// clock joins and the sleep sets sound.
  ///
  /// Pure-guard mutexes (options.independent_mutexes) drop their
  /// cross-thread lock/unlock edges too: their critical sections hold
  /// only accesses to variables the mutex consistently protects, so
  /// two such sections commute as atomic blocks — neither the detector
  /// verdict nor any reachable stuck state depends on which thread won
  /// the lock. The walk still models the mutex's enabledness (a waiter
  /// parks until the section ends); only the ORDER stops mattering.
  bool dep(const ParsedOp& a, const ParsedOp& b) const {
    if (a.verb == ScriptVerb::Barrier || b.verb == ScriptVerb::Barrier) return true;
    const ObjectKind kind = object_kind(a.verb);
    if (kind != object_kind(b.verb) || a.object != b.object) return false;
    if (kind == ObjectKind::Var) {
      return (a.verb == ScriptVerb::Write || b.verb == ScriptVerb::Write) &&
             independent_vars_.count(a.object) == 0;  // read/read commutes
    }
    return kind == ObjectKind::Channel || independent_mutexes_.count(a.object) == 0;
  }

  /// Did executed event i happen-before (program order + dependence,
  /// transitively) some already-executed event of thread p?
  bool happens_before_thread(std::size_t i, std::uint32_t p) const {
    const int lp = last_event_of_[p];
    if (lp < 0) return false;
    const Event& ei = executed_[i];
    const std::uint32_t t = ei.op->thread;
    return executed_[static_cast<std::size_t>(lp)].clock[t] >= ei.clock[t];
  }

  void execute(std::uint32_t p) {
    Event ev;
    ev.op = &state_.next(p);
    ev.prev_last = last_event_of_[p];
    if (ev.prev_last >= 0) {
      ev.clock = executed_[static_cast<std::size_t>(ev.prev_last)].clock;
    } else {
      ev.clock.assign(threads_, 0);
    }
    for (const Event& prior : executed_) {
      if (prior.op->thread == p || !dep(*prior.op, *ev.op)) continue;
      for (std::size_t k = 0; k < threads_; ++k) {
        ev.clock[k] = std::max(ev.clock[k], prior.clock[k]);
      }
    }
    ev.clock[p] += 1;
    last_event_of_[p] = static_cast<int>(executed_.size());
    executed_.push_back(std::move(ev));
    state_.execute(p);
  }

  void undo(std::uint32_t p) {
    state_.undo(p);
    last_event_of_[p] = executed_.back().prev_last;
    executed_.pop_back();
  }

  /// Guidance score for choosing thread p next. 2: p's next op labels a
  /// hinted site pair whose partner is still pending elsewhere (this
  /// choice orders the pair right now); 1: a hinted op is pending later
  /// in p's script (run p toward it); 0: no hint says anything.
  int score(std::uint32_t p) const {
    if (hint_labels_.empty()) return 0;
    const ParsedOp& np = state_.next(p);
    if (hint_labels_.count(np.text) != 0) {
      for (const auto& [a, b] : hint_pairs_) {
        const std::string* partner = nullptr;
        if (a == np.text) partner = &b;
        else if (b == np.text) partner = &a;
        if (partner != nullptr && label_pending(*partner, p)) return 2;
      }
      return 1;
    }
    for (std::size_t j = state_.positions()[p] + 1; j < ops_[p].size(); ++j) {
      if (hint_labels_.count(ops_[p][j].text) != 0) return 1;
    }
    return 0;
  }

  /// Is an op labelled `label` still unexecuted in a thread other than
  /// `self`?
  bool label_pending(const std::string& label, std::uint32_t self) const {
    for (std::uint32_t q = 0; q < threads_; ++q) {
      if (q == self) continue;
      for (std::size_t j = state_.positions()[q]; j < ops_[q].size(); ++j) {
        if (ops_[q][j].text == label) return true;
      }
    }
    return false;
  }

  /// Highest-score (then lowest-tid) member of `candidates`.
  std::uint32_t pick(const std::vector<std::uint32_t>& candidates) const {
    std::uint32_t best = candidates.front();
    int best_score = score(best);
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      const int s = score(candidates[i]);
      if (s > best_score) {
        best = candidates[i];
        best_score = s;
      }
    }
    return best;
  }

  void explore(std::set<std::uint32_t> sleep) {
    if (stop_) return;
    ++result_.nodes_visited;
    const std::size_t depth = executed_.size();

    std::vector<std::uint32_t> en;
    for (std::uint32_t p = 0; p < threads_; ++p) {
      if (options_.model_blocking ? state_.enabled(p) : !state_.finished(p)) en.push_back(p);
    }

    // Race analysis (Flanagan–Godefroid): for every thread p with a
    // pending op, find the most recent executed event that is dependent
    // with next(p) and not already ordered before p, and add p to the
    // backtrack set of the state that event executed from — or, when p
    // was disabled there (blocking mode), every thread that WAS enabled
    // (the conservative fallback; without blocking p is always enabled
    // at ancestors, so the fallback never fires).
    //
    // This must run BEFORE the stuck-leaf return below: a blocked
    // pending op (say a lock on a mutex the other thread won) is
    // exactly the reversal that reaches a DIFFERENT stuck state, and
    // skipping the analysis at stuck leaves loses those states. At a
    // complete leaf no thread has a pending op, so the loop is a no-op
    // there and the non-blocking walk is unchanged.
    for (std::uint32_t p = 0; p < threads_; ++p) {
      if (state_.finished(p)) continue;
      const ParsedOp& np = state_.next(p);
      for (std::size_t i = depth; i-- > 0;) {
        const Event& ev = executed_[i];
        if (ev.op->thread == p || !dep(*ev.op, np)) continue;
        // An ordered dependent event is not a reversible race — keep
        // scanning for an earlier unordered one (the max of the
        // qualifying set, per the algorithm).
        if (happens_before_thread(i, p)) continue;
        if (frames_[i].enabled.count(p) != 0) {
          if (frames_[i].backtrack.insert(p).second) ++result_.backtrack_points;
        } else {
          for (const std::uint32_t q : frames_[i].enabled) {
            if (frames_[i].backtrack.insert(q).second) ++result_.backtrack_points;
          }
        }
        break;
      }
    }

    if (en.empty()) {
      // Complete schedule, or (blocking mode) a maximal stuck prefix:
      // someone still has ops, or waits at a barrier that can never
      // complete, and nobody can move. Both are emitted — the prefix
      // carries real race evidence too — and the stuck state is
      // recorded once per position vector.
      emit();
      if (options_.model_blocking && !state_.all_done() && !stop_) record_deadlock();
      return;
    }

    frames_.emplace_back();
    frames_.back().sleep = std::move(sleep);
    frames_.back().enabled.insert(en.begin(), en.end());

    // Seed: the best-priority enabled thread not slept here. All
    // enabled threads asleep = this whole subtree re-derives schedules
    // a sibling already covers — prune.
    {
      std::vector<std::uint32_t> awake;
      for (const std::uint32_t p : en) {
        if (frames_[depth].sleep.count(p) == 0) awake.push_back(p);
      }
      if (awake.empty()) {
        ++result_.sleep_pruned;
        frames_.pop_back();
        return;
      }
      frames_[depth].backtrack.insert(pick(awake));
    }

    while (!stop_) {
      // Re-read every iteration: descendants add backtrack points here.
      std::vector<std::uint32_t> todo;
      for (const std::uint32_t p : frames_[depth].backtrack) {
        if (frames_[depth].sleep.count(p) == 0 && frames_[depth].explored.count(p) == 0) {
          todo.push_back(p);
        }
      }
      if (todo.empty()) break;
      const std::uint32_t p = pick(todo);
      const ParsedOp& op = state_.next(p);

      std::set<std::uint32_t> child_sleep;
      for (const std::uint32_t q : frames_[depth].sleep) {
        if (!dep(state_.next(q), op)) child_sleep.insert(q);
      }

      execute(p);
      explore(std::move(child_sleep));
      undo(p);

      frames_[depth].explored.insert(p);
      frames_[depth].sleep.insert(p);
    }
    frames_.pop_back();
  }

  // --- emission, replay, and the delayed fold ---

  /// Record the current (maximal, stuck) state once per position
  /// vector, in walk discovery order.
  void record_deadlock() {
    ++result_.deadlocked_schedules;
    if (deadlock_seen_.insert(state_.positions()).second) {
      result_.deadlocks.push_back(state_.stuck());
    }
  }

  void emit() {
    if (options_.max_schedules != 0 && emitted_ >= options_.max_schedules) {
      truncated_ = true;
      stop_ = true;
      return;
    }
    if (options_.max_events != 0 &&
        events_emitted_ + executed_.size() > options_.max_events) {
      truncated_ = true;
      stop_ = true;
      return;
    }

    // Determinism contract: before emitting schedule k, exactly the
    // results of schedules 0..k-kFoldDelay-1 are merged (never more,
    // never fewer), so the hint set steering every later decision is a
    // pure function of the emission order.
    while (pending_.size() > kFoldDelay) merge_next();

    Detector detector;
    ReplayResult replayed =
        replay(state_.trail(), detector, ReplayOptions{options_.model_blocking});
    pending_.push_back({std::move(replayed.races), replayed.events});
    ++emitted_;
    events_emitted_ += executed_.size();
  }

  /// Fold the oldest pending result into the result and the guidance.
  void merge_next() {
    ScheduleResult res = std::move(pending_.front());
    pending_.pop_front();

    result_.events_replayed += res.events;
    if (!res.races.empty()) {
      ++result_.racy_schedules;
      if (result_.first_race_at == ExploreResult::kNoRace) {
        result_.first_race_at = merged_;
      }
    }
    for (RaceReport& r : res.races) {
      if (seen_.insert(race_pair_key(r.variable, r.first, r.second)).second) {
        add_hint(r.first.where, r.second.where);
        result_.races.push_back(std::move(r));
      }
    }
    ++merged_;
  }

  void add_hint(const std::string& a, const std::string& b) {
    if (a.empty() || b.empty()) return;
    hint_labels_.insert(a);
    hint_labels_.insert(b);
    hint_pairs_.emplace_back(a, b);
  }

  const std::vector<std::vector<ParsedOp>>& ops_;
  const ExploreOptions& options_;
  std::set<std::uint32_t> independent_vars_;     ///< pruned var ids (dep())
  std::set<std::uint32_t> independent_mutexes_;  ///< pure-guard mutex ids (dep())
  std::size_t threads_;

  // Walk state. The blocking state moves with every execute/undo; only
  // model_blocking reads its enabledness.
  BlockingState state_;
  std::vector<int> last_event_of_;
  std::vector<Event> executed_;
  std::vector<Frame> frames_;
  bool stop_ = false;
  bool truncated_ = false;
  std::set<std::vector<std::size_t>> deadlock_seen_;  ///< position vectors

  // Guidance state (mutated only at deterministic fold points).
  std::set<std::string> hint_labels_;
  std::vector<std::pair<std::string, std::string>> hint_pairs_;

  // Emission / fold state.
  std::uint64_t emitted_ = 0;
  std::uint64_t events_emitted_ = 0;
  std::uint64_t merged_ = 0;
  std::deque<ScheduleResult> pending_;  ///< replayed, not yet folded (<= kFoldDelay + 1)
  std::set<std::string> seen_;

  ExploreResult result_;
};

}  // namespace

// ---------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------

Explorer::Explorer(ScriptIr ir, ExploreOptions options)
    : ir_(std::move(ir)), options_(std::move(options)) {
  // Dependence pruning is only sound when critical sections actually
  // exclude each other — without blocking, the enumerator happily
  // interleaves two "consistently locked" accesses inside one critical
  // section and the detector (correctly) reports the race the pruned
  // walk would have skipped.
  require((options_.independent_vars.empty() && options_.independent_mutexes.empty()) ||
              options_.model_blocking,
          "explore: independent_vars/independent_mutexes require model_blocking "
          "(lockset-based independence is unsound without real mutual exclusion)");
  // An unlock with no program-order lock would make the detector throw
  // mid-exploration: reject it here.
  check_lock_discipline(ir_);
}

Explorer::Explorer(const std::vector<std::vector<std::string>>& scripts,
                   ExploreOptions options)
    : Explorer(parse_scripts(scripts), std::move(options)) {}

ExploreResult Explorer::run() { return Engine(ir_, options_).run(); }

ExploreResult explore_races(ScriptIr ir, ExploreOptions options) {
  return Explorer(std::move(ir), std::move(options)).run();
}

ExploreResult explore_races(const std::vector<std::vector<std::string>>& scripts,
                            ExploreOptions options) {
  return explore_races(parse_scripts(scripts), std::move(options));
}

std::string ExploreResult::summary() const {
  std::ostringstream out;
  out << "explored " << schedules_replayed << " of ";
  if (total_saturated) {
    out << ">1.8e19 (count saturated)";
  } else {
    out << interleavings_total;
  }
  out << " interleavings (" << (complete ? "complete" : "budget hit") << "): "
      << racy_schedules << " racy, " << races.size() << " distinct race(s), "
      << events_replayed << " events replayed";
  if (first_race_at != kNoRace) out << "; first race at schedule " << first_race_at;
  if (deadlocked_schedules > 0) {
    out << "; " << deadlocked_schedules << " schedule(s) deadlocked in "
        << deadlocks.size() << " distinct stuck state(s)";
  }
  return out.str();
}

}  // namespace cs31::race
