// Differential trace fuzzing: the proof-by-bombardment that the
// FastTrack-compressed Detector and the PR 1 ReferenceDetector are the
// same detector. Thousands of seeded random traces (fork/join trees,
// lock sections, barrier cycles, channel handoffs) are replayed into
// both implementations through the shared EventSink interface, and the
// verdicts must be bit-identical: same race_free bit, same race_count,
// same event count, and report-for-report identical text.
//
// Reproducing a divergence: every failure message carries the seed and
// the full trace listing. `generate_trace(seed, config_for(seed))`
// regenerates the exact trace; shrink it by hand from the printed op
// list (the ops are one line each, in replay order).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "life/traced.hpp"
#include "oracles/reference.hpp"
#include "oracles/trace_gen.hpp"
#include "os/interleave.hpp"
#include "race/detector.hpp"
#include "race/replay.hpp"

namespace cs31::race {
namespace {

/// Everything observable about a detector run, as comparable values.
struct Verdict {
  bool race_free = true;
  std::uint64_t race_count = 0;
  std::uint64_t events = 0;
  std::size_t threads = 0;
  std::vector<std::string> reports;  // full to_string of each report, in order

  friend bool operator==(const Verdict&, const Verdict&) = default;
};

Verdict harvest(const EventSink& sink) {
  Verdict v;
  v.race_free = sink.race_free();
  v.race_count = sink.race_count();
  v.events = sink.events();
  v.threads = sink.threads();
  for (const RaceReport& r : sink.races()) v.reports.push_back(r.to_string());
  return v;
}

Verdict drive(const Trace& trace, EventSink& sink) {
  run_trace(trace, sink);
  return harvest(sink);
}

/// Vary the generator knobs with the seed so the fuzz sweep covers
/// thread counts 1..6 (1 = the degenerate single-thread trace, which
/// must come out race-free), variable pools 1..4, and trace lengths
/// 32..96 — not just one shape of trace. Deterministic: the config is
/// part of the repro recipe.
TraceGenConfig config_for(std::uint64_t seed) {
  TraceGenConfig cfg;
  cfg.ops = 32 + seed % 65;                // 32..96
  cfg.max_threads = 1 + (seed / 7) % 6;    // 1..6
  cfg.vars = 1 + (seed / 11) % 4;          // 1..4
  cfg.locks = 1 + (seed / 13) % 2;         // 1..2
  cfg.channels = 1 + (seed / 17) % 2;      // 1..2
  return cfg;
}

// The acceptance-criterion sweep: >= 1000 seeded traces, zero verdict
// divergence. This is also the tier-1 `race_diff_fuzz_smoke` ctest
// entry (fixed seeds, so it is exactly as deterministic as any unit
// test). ~1200 traces x ~70 ops is well under a second per detector.
TEST(DiffFuzz, ThousandSeededTraces) {
  constexpr std::uint64_t kTraces = 1200;
  std::size_t racy = 0, clean = 0;
  for (std::uint64_t seed = 1; seed <= kTraces; ++seed) {
    const Trace trace = generate_trace(seed, config_for(seed));
    Detector fast;
    ReferenceDetector reference;
    const Verdict fast_verdict = drive(trace, fast);
    const Verdict ref_verdict = drive(trace, reference);

    ASSERT_EQ(fast_verdict.race_free, ref_verdict.race_free)
        << "seed=" << seed << "\n" << trace.to_string();
    ASSERT_EQ(fast_verdict.race_count, ref_verdict.race_count)
        << "seed=" << seed << "\n" << trace.to_string();
    ASSERT_EQ(fast_verdict.events, ref_verdict.events)
        << "seed=" << seed << "\n" << trace.to_string();
    ASSERT_EQ(fast_verdict.threads, ref_verdict.threads)
        << "seed=" << seed << "\n" << trace.to_string();
    ASSERT_EQ(fast_verdict.reports, ref_verdict.reports)
        << "seed=" << seed << "\n" << trace.to_string();

    (fast_verdict.race_free ? clean : racy) += 1;
  }
  // The sweep only proves equivalence where it exercises both outcomes.
  EXPECT_GT(racy, kTraces / 10) << "generator must produce racy traces";
  EXPECT_GT(clean, kTraces / 10) << "and race-free ones";
}

TEST(DiffFuzz, GeneratorIsDeterministicFromItsSeed) {
  for (const std::uint64_t seed : {1ull, 42ull, 31337ull}) {
    const Trace a = generate_trace(seed, config_for(seed));
    const Trace b = generate_trace(seed, config_for(seed));
    EXPECT_EQ(a.to_string(), b.to_string()) << "same seed, same trace";
    EXPECT_EQ(a.threads, b.threads);

    // And the replay of a trace is itself deterministic: two fresh
    // detectors fed the same trace agree with themselves.
    Detector d1, d2;
    EXPECT_EQ(drive(a, d1), drive(b, d2));
  }
  EXPECT_NE(generate_trace(1, config_for(1)).to_string(),
            generate_trace(2, config_for(2)).to_string())
      << "different seeds explore different traces";
}

TEST(DiffFuzz, ReplayPathAgrees) {
  // The replay(schedule, sink) entry point — the homework tool — through
  // both detectors, over every interleaving of a racy script pair and a
  // locked one. C(4,2) + C(6,3) = 26 schedules.
  const std::vector<std::vector<std::string>> racy = {
      {"read x", "write x"},
      {"read x", "write x"},
  };
  const std::vector<std::vector<std::string>> locked = {
      {"lock m", "write x", "unlock m"},
      {"lock m", "write x", "unlock m"},
  };
  for (const auto& scripts : {racy, locked}) {
    for (const auto& schedule : os::all_interleavings(tag_threads(scripts))) {
      Detector fast;
      ReferenceDetector reference;
      const ReplayResult fast_result = replay(schedule, fast);
      const ReplayResult ref_result = replay(schedule, reference);
      ASSERT_EQ(harvest(fast), harvest(reference))
          << "schedule: " << testing::PrintToString(schedule);
      ASSERT_EQ(fast_result.events, ref_result.events);
      ASSERT_EQ(fast_result.races.size(), ref_result.races.size());
    }
  }
}

TEST(DiffFuzz, InflateDeflateDirected) {
  // Directed walk through the adaptive read representation: one reader
  // (epoch), a second reader (inflate to read-shared), a racy write
  // against both readers, then an ordered write (deflate back to
  // epochs). The reference must agree at every step, and the inflated
  // state must actually be bigger than the deflated one.
  Detector fast;
  ReferenceDetector reference;
  const auto step = [&](auto&& op) {
    op(static_cast<EventSink&>(fast));
    op(static_cast<EventSink&>(reference));
    ASSERT_EQ(harvest(fast), harvest(reference));
  };

  ThreadId f1 = 0, f2 = 0, r1 = 0, r2 = 0;
  step([&](EventSink& s) {
    ThreadId id = s.register_thread();
    (&s == &fast ? f1 : r1) = id;
  });
  step([&](EventSink& s) {
    ThreadId id = s.register_thread();
    (&s == &fast ? f2 : r2) = id;
  });
  ASSERT_EQ(f1, r1);
  ASSERT_EQ(f2, r2);

  step([&](EventSink& s) { s.read(0, "v", "reader A"); });
  step([&](EventSink& s) { s.read(0, "v", "reader A again"); });  // epoch overwrite
  // Pre-intern the writer's site label so the inflate/deflate byte
  // comparison below only sees the read-state change, not interner
  // growth. (Interning is not an event; the verdicts are unaffected.)
  (void)fast.intern_site("racy writer");
  const std::size_t exclusive_bytes = fast.shadow_bytes();
  step([&](EventSink& s) { s.read(f1, "v", "reader B"); });  // inflate
  step([&](EventSink& s) { s.read(f2, "v", "reader C"); });
  const std::size_t inflated_bytes = fast.shadow_bytes();
  EXPECT_GT(inflated_bytes, exclusive_bytes) << "read-shared state costs real bytes";

  step([&](EventSink& s) { s.write(f2, "v", "racy writer"); });  // races readers A and B
  ASSERT_EQ(fast.races().size(), 2u) << "one report per surviving reader";
  EXPECT_EQ(fast.races()[0].second.where, "racy writer");

  // The write deflated the read state; the next reads start a fresh
  // exclusive epoch.
  const std::size_t deflated_bytes = fast.shadow_bytes();
  EXPECT_LT(deflated_bytes, inflated_bytes) << "write deflates read-shared back to epochs";
  step([&](EventSink& s) { s.read(f2, "v", "reader C after write"); });
  ASSERT_EQ(harvest(fast), harvest(reference));
}

TEST(DiffFuzz, LifeWorkloadAgreesAndCompresses) {
  // The real workload, not a synthetic trace: the Lab 10 Life access
  // pattern through both detectors via the generic sink entry point.
  // Verdicts agree in both the correct and the buggy variant, and the
  // compressed detector never holds more shadow state than the
  // reference on the same event stream. (The headline >= 2x number is
  // tracing *overhead*, recorded by bench_race_overhead; end-of-run
  // bytes understate the compression because the final swap writes
  // deflate both detectors' read state.)
  const life::Grid initial = life::Grid::random(16, 16, 0.35, 9);
  for (const bool use_barrier : {true, false}) {
    Detector fast;
    ReferenceDetector reference;
    const auto fast_run = life::traced_life_check_with(fast, initial, 4, 2, use_barrier);
    const auto ref_run = life::traced_life_check_with(reference, initial, 4, 2, use_barrier);
    EXPECT_EQ(fast_run.race_free, use_barrier);
    ASSERT_EQ(harvest(fast), harvest(reference)) << "use_barrier=" << use_barrier;
    EXPECT_EQ(fast_run.grid, ref_run.grid) << "the simulation itself is detector-independent";
    EXPECT_LT(fast.shadow_bytes(), reference.shadow_bytes())
        << "compressed shadow state must not regress past the reference";
  }
}

}  // namespace
}  // namespace cs31::race
