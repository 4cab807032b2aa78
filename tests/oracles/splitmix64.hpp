// splitmix64 (Steele, Lea & Flood): the one PRNG behind every seeded
// oracle corpus — program_gen, trace_gen, script_gen and the tests'
// own schedules. Tiny, well-mixed, and identical on every platform,
// which std's distributions are not, so a printed seed is a complete
// repro.
//
// below() reduces modulo the bound. For every bound below 2^32 it
// returns exactly what the 32-bit `next() % bound` copies it replaced
// returned, so the seeded corpora the differential tiers pin stay
// bit-identical.
#pragma once

#include <cstdint>

namespace cs31::oracles {

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, bound); 0 when bound == 0.
  std::uint64_t below(std::uint64_t bound) { return bound == 0 ? 0 : next() % bound; }

 private:
  std::uint64_t state_;
};

}  // namespace cs31::oracles
