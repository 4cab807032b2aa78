#include "race/script.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <optional>
#include <set>
#include <string_view>

#include "common/error.hpp"

namespace cs31::race {

namespace {

constexpr std::array<std::string_view, 7> kVerbNames = {"read", "write", "lock",   "unlock",
                                                        "send", "recv",  "barrier"};

bool space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

std::size_t skip_space(std::string_view text, std::size_t at) {
  while (at < text.size() && space(text[at])) ++at;
  return at;
}

/// The token at or after `at` (the `istream >> std::string` rule);
/// advances `at` past it.
std::string_view next_token(std::string_view text, std::size_t& at) {
  const std::size_t begin = skip_space(text, at);
  at = begin;
  while (at < text.size() && !space(text[at])) ++at;
  return text.substr(begin, at - begin);
}

/// k of a "t<k>" tag: decimal, no leading zeros, 32 bits.
std::optional<std::uint32_t> tag_number(std::string_view tag) {
  if (tag.size() < 2 || tag[0] != 't' || (tag[1] == '0' && tag.size() > 2)) return {};
  std::uint32_t k = 0;
  const char* end = tag.data() + tag.size();
  const auto [stop, status] = std::from_chars(tag.data() + 1, end, k);
  if (stop != end || status != std::errc{}) return std::nullopt;
  return k;
}

/// The one op parser: `op` is the untagged op, `text` its tagged form.
ParsedOp parse_op(std::string_view op, std::uint32_t thread, std::string text,
                  std::array<std::map<std::string, std::uint32_t>, 3>& ids) {
  const auto fail = [op](const std::string& what) {
    throw Error("concur op '" + std::string(op) + "'" + what);
  };
  std::size_t at = 0;
  const std::string_view verb = next_token(op, at);
  const std::string_view operand = next_token(op, at);
  if (verb.empty()) fail(" is missing a verb");
  const auto known = std::find(kVerbNames.begin(), kVerbNames.end(), verb);
  if (known == kVerbNames.end()) fail(": unknown verb '" + std::string(verb) + "'");

  ParsedOp parsed{static_cast<ScriptVerb>(known - kVerbNames.begin()), thread, 0,
                  std::string(operand), std::move(text)};
  const auto kind = static_cast<std::size_t>(object_kind(parsed.verb));
  if (kind < ids.size()) {
    static constexpr const char* kNouns[] = {"variable", "mutex", "channel"};
    if (operand.empty()) fail(std::string(" needs a ") + kNouns[kind]);
    const auto id = static_cast<std::uint32_t>(ids[kind].size());
    parsed.object = ids[kind].emplace(parsed.operand, id).first->second;
  }
  return parsed;
}

}  // namespace

std::string to_string(ScriptVerb verb) {
  return std::string(kVerbNames.at(static_cast<std::size_t>(verb)));
}

ScriptIr parse_scripts(const std::vector<std::vector<std::string>>& scripts) {
  ScriptIr ir(scripts.size());
  for (std::size_t t = 0; t < scripts.size(); ++t) {
    const auto thread = static_cast<std::uint32_t>(t);
    const std::string tag = "t" + std::to_string(t) + ' ';
    ir.threads_[t].reserve(scripts[t].size());
    for (const std::string& op : scripts[t]) {
      ir.threads_[t].push_back(parse_op(op, thread, tag + op, ir.ids_));
    }
  }
  return ir;
}

std::vector<ParsedOp> parse_tagged(const std::vector<std::string>& interleaving) {
  std::array<std::map<std::string, std::uint32_t>, 3> ids;
  std::vector<ParsedOp> ops;
  ops.reserve(interleaving.size());
  for (const std::string& text : interleaving) {
    std::size_t at = 0;
    const std::optional<std::uint32_t> thread = tag_number(next_token(text, at));
    if (!thread) throw Error("replay op '" + text + "' is missing its thread tag (t<k>)");
    const std::string_view op = std::string_view(text).substr(skip_space(text, at));
    ops.push_back(parse_op(op, *thread, text, ids));
  }
  return ops;
}

void check_lock_discipline(const ScriptIr& ir) {
  for (const auto& ops : ir.threads()) {
    std::multiset<std::uint32_t> held;
    for (const ParsedOp& op : ops) {
      if (op.verb == ScriptVerb::Lock) held.insert(op.object);
      if (op.verb != ScriptVerb::Unlock) continue;
      const auto it = held.find(op.object);
      if (it == held.end()) {
        throw Error("explore op '" + op.text + "' releases a mutex its thread never locked");
      }
      held.erase(it);
    }
  }
}

std::string DeadlockState::to_string() const {
  std::string out = "deadlock after " + std::to_string(witness.size()) + " step(s):";
  for (std::size_t i = 0; i < waiting.size(); ++i) {
    out += i == 0 ? " " : "; ";
    out += "'" + waiting[i] + "' waits on " + resources[i];
  }
  return out;
}

BlockingState::BlockingState(const ScriptIr& ir)
    : ops_(ir.threads()),
      pos_(ops_.size(), 0),
      holder_(ir.objects(ObjectKind::Mutex).size(), -1),
      fill_(ir.objects(ObjectKind::Channel).size(), 0),
      arrivals_(ops_.size(), 0) {}

bool BlockingState::parked(std::uint32_t t) const {
  // Cycles completed so far: the slowest thread's arrival count. Threads
  // with empty scripts never arrive and are not waited for.
  std::size_t completed = ~std::size_t{0};
  for (std::size_t u = 0; u < ops_.size(); ++u) {
    if (!ops_[u].empty()) completed = std::min(completed, arrivals_[u]);
  }
  return !ops_[t].empty() && arrivals_[t] > completed;
}

bool BlockingState::enabled(std::uint32_t t) const {
  if (finished(t) || parked(t)) return false;
  const ParsedOp& op = next(t);
  if (op.verb == ScriptVerb::Lock) return holder_[op.object] < 0;
  if (op.verb == ScriptVerb::Recv) return fill_[op.object] > 0;
  return true;
}

bool BlockingState::all_done() const {
  for (std::uint32_t t = 0; t < ops_.size(); ++t) {
    if (!done(t)) return false;
  }
  return true;
}

void BlockingState::step(std::uint32_t t, bool forward) {
  if (!forward) {
    --pos_[t];
    trail_.pop_back();
  }
  const ParsedOp& op = next(t);
  const bool acquires = forward == (op.verb == ScriptVerb::Lock);
  switch (op.verb) {
    case ScriptVerb::Lock:
    case ScriptVerb::Unlock: holder_[op.object] = acquires ? static_cast<int>(t) : -1; break;
    case ScriptVerb::Send: forward ? ++fill_[op.object] : --fill_[op.object]; break;
    case ScriptVerb::Recv: forward ? --fill_[op.object] : ++fill_[op.object]; break;
    case ScriptVerb::Barrier: forward ? ++arrivals_[t] : --arrivals_[t]; break;
    case ScriptVerb::Read:
    case ScriptVerb::Write: break;
  }
  if (forward) {
    trail_.push_back(&op);
    ++pos_[t];
  }
}

DeadlockState BlockingState::stuck() const {
  DeadlockState state;
  for (std::uint32_t t = 0; t < ops_.size(); ++t) {
    if (done(t)) continue;
    const bool at_barrier = parked(t);
    const ParsedOp& op = at_barrier ? ops_[t][pos_[t] - 1] : next(t);
    state.waiting.push_back(op.text);
    state.resources.push_back(at_barrier ? "barrier"
                              : op.verb == ScriptVerb::Lock ? "mutex " + op.operand
                                                            : "channel " + op.operand);
  }
  for (const ParsedOp* op : trail_) state.witness.push_back(op->text);
  return state;
}

}  // namespace cs31::race
