// The thread-script grammar, parsed once: the IR that replay, the DPOR
// explorer, the deadlock search and analyze::concur all work on.
//
// A script is one op list per thread; op i of thread k is tagged
// "t<k> " so an interleaving keeps its origin. Grammar (one op per
// string, whitespace-separated tokens, anything after the operand is
// ignored):
//   read <var> | write <var>   access of a shared variable
//   lock <m> | unlock <m>      mutex acquire / release
//   send <ch> | recv <ch>      producer publish / consumer take
//   barrier                    arrival at the single, implicit barrier
// Its one op parser's error text ("concur op 'spin c': unknown verb
// 'spin'") is what a grader `invalid` verdict carries.
//
// BlockingState is the one blocking model: lock waits for the holder,
// recv for a send, and a barrier arrival parks its thread until every
// thread with ops has arrived. The Explorer's blocking walk and
// find_deadlocks both run on it.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cs31::race {

enum class ScriptVerb : std::uint8_t { Read, Write, Lock, Unlock, Send, Recv, Barrier };

[[nodiscard]] std::string to_string(ScriptVerb verb);

/// What an op's operand names; each kind numbers its own objects.
enum class ObjectKind : std::uint8_t { Var, Mutex, Channel, None };

/// ScriptVerb lists two verbs per ObjectKind, in ObjectKind order.
[[nodiscard]] constexpr ObjectKind object_kind(ScriptVerb verb) {
  return static_cast<ObjectKind>(static_cast<std::uint8_t>(verb) / 2);
}

struct ParsedOp {
  ScriptVerb verb = ScriptVerb::Read;
  std::uint32_t thread = 0;  ///< k of the op's "t<k>" tag
  std::uint32_t object = 0;  ///< operand id within its ObjectKind (0 for a barrier)
  std::string operand;       ///< operand name (a barrier keeps whatever followed it)
  std::string text;          ///< tagged text "t<k> <op>": site label and report spelling
};

/// Parsed per-thread scripts. Only parse_scripts builds one, so every
/// op is well formed, thread k's ops carry thread == k, and object ids
/// are dense per kind (first-seen order over (thread, op)).
class ScriptIr {
 public:
  [[nodiscard]] const std::vector<std::vector<ParsedOp>>& threads() const {
    return threads_;
  }

  /// Name -> id of every object of `kind` (Var, Mutex or Channel).
  [[nodiscard]] const std::map<std::string, std::uint32_t>& objects(ObjectKind kind) const {
    return ids_.at(static_cast<std::size_t>(kind));
  }

  friend ScriptIr parse_scripts(const std::vector<std::vector<std::string>>& scripts);

 private:
  explicit ScriptIr(std::size_t threads) : threads_(threads) {}

  std::vector<std::vector<ParsedOp>> threads_;
  std::array<std::map<std::string, std::uint32_t>, 3> ids_;
};

/// Parse untagged per-thread scripts ("write z", "barrier"). Throws
/// cs31::Error on an unknown verb or a missing operand; lock discipline
/// is left to check_lock_discipline and to analyze.
[[nodiscard]] ScriptIr parse_scripts(const std::vector<std::vector<std::string>>& scripts);

/// Parse one tagged interleaving ("t<k> <op>" per element, k decimal
/// without leading zeros) into ops in schedule order, each op's text
/// its element. Throws cs31::Error on a bad tag or a malformed op.
[[nodiscard]] std::vector<ParsedOp> parse_tagged(
    const std::vector<std::string>& interleaving);

/// The dynamic tiers' lock discipline: every unlock releases a mutex its
/// thread locked and has not released since (a multiset, so "lock m;
/// lock m; unlock m; unlock m" passes). Throws cs31::Error
/// "explore op '<tagged op>' releases a mutex its thread never locked".
void check_lock_discipline(const ScriptIr& ir);

/// One reachable stuck state under blocking semantics: some thread
/// still has ops, nobody can move. `waiting`/`resources` are parallel
/// — the blocked op of each unfinished thread and what it waits on in
/// the analyze::concur resource spelling ("mutex a", "channel q0",
/// "barrier"); a thread parked inside the barrier reports its barrier
/// op. `witness` is a feasible tagged schedule prefix reaching the
/// state (replayable with model_blocking to confirm).
struct DeadlockState {
  std::vector<std::string> waiting;
  std::vector<std::string> resources;
  std::vector<std::string> witness;

  [[nodiscard]] std::string to_string() const;
};

/// A partial execution of a ScriptIr (which must outlive it): thread
/// positions plus the mutex holders, channel fills and barrier arrivals
/// they imply, kept in step with a depth-first walk by execute/undo.
class BlockingState {
 public:
  explicit BlockingState(const ScriptIr& ir);

  [[nodiscard]] bool finished(std::uint32_t t) const { return pos_[t] == ops_[t].size(); }
  [[nodiscard]] const ParsedOp& next(std::uint32_t t) const { return ops_[t][pos_[t]]; }

  /// Thread t arrived at the barrier more often than the slowest thread
  /// with ops, so it waits for the cycle to complete.
  [[nodiscard]] bool parked(std::uint32_t t) const;

  /// Thread t has an op and may run it: not parked, not a lock on a
  /// held mutex, not a recv on an empty channel.
  [[nodiscard]] bool enabled(std::uint32_t t) const;

  /// Thread t ran every op and is not parked at its last barrier, which
  /// would still wait for a cycle to complete.
  [[nodiscard]] bool done(std::uint32_t t) const { return finished(t) && !parked(t); }

  /// Every thread is done: a complete schedule, not a stuck one.
  [[nodiscard]] bool all_done() const;

  /// Run thread t's next op, enabled or not (a walk that ignores
  /// blocking shares this state); undo takes it back, LIFO.
  void execute(std::uint32_t t) { step(t, true); }
  void undo(std::uint32_t t) { step(t, false); }

  [[nodiscard]] const std::vector<std::size_t>& positions() const { return pos_; }
  [[nodiscard]] const std::vector<const ParsedOp*>& trail() const { return trail_; }

  /// The stuck state here (no thread enabled, some not done).
  [[nodiscard]] DeadlockState stuck() const;

 private:
  void step(std::uint32_t t, bool forward);

  const std::vector<std::vector<ParsedOp>>& ops_;
  std::vector<std::size_t> pos_;
  std::vector<int> holder_;            ///< per mutex: holding thread, -1 = free
  std::vector<std::size_t> fill_;      ///< per channel: pending sends
  std::vector<std::size_t> arrivals_;  ///< per thread: barrier arrivals
  std::vector<const ParsedOp*> trail_; ///< executed ops, in order
};

}  // namespace cs31::race
