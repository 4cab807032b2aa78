#include "oracles/script_gen.hpp"

#include <algorithm>

#include "oracles/splitmix64.hpp"

namespace cs31::race {

std::vector<std::vector<std::string>> generate_script(std::uint64_t seed,
                                                      ScriptGenConfig config) {
  oracles::SplitMix64 rng{seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull};
  std::vector<std::vector<std::string>> scripts(config.threads);
  for (std::size_t t = 0; t < config.threads; ++t) {
    std::vector<std::uint32_t> held;  // lock ids, acquisition order
    auto& script = scripts[t];

    // Lock-order-cycle shape: a thread-rotated two-lock nest, so any
    // two adjacent-rotation threads that both draw the shape acquire
    // the pair in conflicting orders (the ABBA deadlock).
    if (config.lock_cycles && config.locks >= 2 && rng.below(2) == 0) {
      const auto a = static_cast<std::uint32_t>(t % config.locks);
      const auto b = static_cast<std::uint32_t>((t + 1) % config.locks);
      script.push_back("lock m" + std::to_string(a));
      script.push_back("lock m" + std::to_string(b));
      held.push_back(a);
      held.push_back(b);
    }

    // Emit one shared access, wrapped in its variable's consistent
    // guard in lock-discipline mode (or bare when the guard is already
    // held — the access is still under it either way).
    const auto shared_access = [&](std::uint64_t v, std::string access) {
      if (config.lock_discipline && config.locks > 0) {
        const auto g = static_cast<std::uint32_t>(v % config.locks);
        if (std::find(held.begin(), held.end(), g) == held.end()) {
          script.push_back("lock m" + std::to_string(g));
          script.push_back(std::move(access));
          script.push_back("unlock m" + std::to_string(g));
          return;
        }
      }
      script.push_back(std::move(access));
    };

    while (script.size() < config.ops_per_thread) {
      switch (rng.below(8)) {
        case 0:
        case 1: {  // shared-variable access, the racy surface
          const std::uint64_t v = rng.below(config.shared_vars);
          const std::string var = "z" + std::to_string(v);
          shared_access(v, (rng.below(2) == 0 ? "read " : "write ") + var);
          break;
        }
        case 2: {  // private-variable access (independent with everything)
          if (config.private_vars == 0) break;
          const std::string var = "p" + std::to_string(t) + "_" +
                                  std::to_string(rng.below(config.private_vars));
          script.push_back((rng.below(2) == 0 ? "read " : "write ") + var);
          break;
        }
        case 3:
        case 4: {  // lock or unlock, respecting per-thread discipline
          if (config.locks == 0 || config.lock_discipline) break;
          if (!held.empty() && rng.below(2) == 0) {
            script.push_back("unlock m" + std::to_string(held.back()));
            held.pop_back();
          } else {
            const auto m = static_cast<std::uint32_t>(rng.below(config.locks));
            if (std::find(held.begin(), held.end(), m) != held.end()) break;
            script.push_back("lock m" + std::to_string(m));
            held.push_back(m);
          }
          break;
        }
        case 5:
        case 6: {  // channel send/recv
          if (config.channels == 0) break;
          const std::string ch = "q" + std::to_string(rng.below(config.channels));
          script.push_back((rng.below(2) == 0 ? "send " : "recv ") + ch);
          break;
        }
        default: {  // another shared access; keeps verdicts mixed
          const std::uint64_t v = rng.below(config.shared_vars);
          shared_access(v, "write z" + std::to_string(v));
          break;
        }
      }
    }
    // Channel-misuse shape: an extra recv with no matching send budget,
    // emitted while any nest is still held so recv-under-lock
    // communication deadlocks appear too.
    if (config.channel_misuse && config.channels > 0 && rng.below(2) == 0) {
      script.push_back("recv q" + std::to_string(rng.below(config.channels)));
    }
    while (!held.empty()) {  // balance: release everything still held
      script.push_back("unlock m" + std::to_string(held.back()));
      held.pop_back();
    }
    if (config.barriers) script.push_back("barrier");
  }
  return scripts;
}

}  // namespace cs31::race
