// race::generate_script: seeded per-thread op scripts in the
// race/script.hpp grammar, the corpus of the Explorer and concur
// differential tiers and of bench_analyze / bench_replay_explore.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cs31::race {

/// Seeded random-script generator for the differential tier and the
/// bench corpus (the trace_gen pattern, script-shaped): structurally
/// valid per-thread scripts — unlocks always follow a program-order
/// lock, equal barrier counts per thread — over small shared/private
/// variable, mutex, and channel pools.
struct ScriptGenConfig {
  std::size_t threads = 3;
  std::size_t ops_per_thread = 4;
  std::size_t shared_vars = 2;   ///< "z0".."z{n-1}", racy surface
  std::size_t private_vars = 1;  ///< "p<t>_0".., per-thread (independent ops)
  std::size_t locks = 1;         ///< "m0"..
  std::size_t channels = 1;      ///< "q0"..
  bool barriers = false;         ///< one barrier arrival per thread

  // Shape injectors for the static deadlock checks and the pruning
  // differential (all default off: the PR 9 corpus stays bit-identical).

  /// Roughly half the threads open with a two-lock nest in a
  /// thread-rotated order ("lock m<t%L>", "lock m<(t+1)%L>") — with
  /// >= 2 locks the classic ABBA lock-order-cycle shapes appear.
  bool lock_cycles = false;

  /// Roughly half the threads append an extra trailing recv, so
  /// send/recv totals go unbalanced and recv-no-send (plus reachable
  /// communication deadlocks) appear in the corpus.
  bool channel_misuse = false;

  /// Lock-disciplined mode: every shared-variable access is wrapped in
  /// "lock m<v%L>" .. "unlock m<v%L>" (one consistent guard per
  /// variable) and standalone lock/unlock ops are not generated — the
  /// corpus the static analyzer proves consistently-guarded, for the
  /// pruned-vs-unpruned exploration differential.
  bool lock_discipline = false;
};

[[nodiscard]] std::vector<std::vector<std::string>> generate_script(
    std::uint64_t seed, ScriptGenConfig config = {});

}  // namespace cs31::race
