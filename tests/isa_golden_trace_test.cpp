// Golden-trace regression tests for the execution cores: a fixed set
// of workloads (seeded generated programs, a Lab 4 harness, a compiled
// mini-C program) has its per-step architectural state digested on the
// reference switch interpreter and checked into
// tests/data/isa_golden_traces.inc. The suite replays each workload
// step by step and fails at the *first* step whose digest diverges
// from the golden sequence — a pinpoint answer to "which instruction
// changed behavior", where the differential fuzzer only says "these
// two cores disagree somewhere".
//
// The first kRecordedSteps steps are pinned digest-for-digest; the
// remainder of a long run is pinned through a rolling chain value, and
// the final memory image through its own digest. The fast core is then
// spot-checked against the same goldens: run_limited budgets landing
// inside the recorded prefix must reproduce the exact recorded digest
// for that step, and a full run must land on the final digests.
//
// Regenerating after an *intentional* semantics change:
//   CS31_REGEN_GOLDEN=1 ./isa_golden_trace_test && rebuild
// The regen run rewrites the .inc from the switch interpreter and
// skips the assertions; the rebuild bakes the new goldens in.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "ccomp/codegen.hpp"
#include "isa/assembler.hpp"
#include "isa/machine.hpp"
#include "isa/samples.hpp"
#include "oracles/program_gen.hpp"

namespace cs31::isa {
namespace {

constexpr std::size_t kRecordedSteps = 512;   // digest-per-step prefix length
constexpr std::size_t kStepCap = 40000;       // runaway guard for golden runs
constexpr std::uint32_t kMemBytes = 1u << 16;

struct GoldenTrace {
  std::string name;
  std::size_t steps = 0;              // steps to halt on the reference core
  std::uint64_t chain = 0;            // all step digests folded in order
  std::uint64_t final_memory = 0;     // memory digest at halt
  std::vector<std::uint64_t> digests;  // per-step digests, first kRecordedSteps
};

// The golden data. Lives in tests/data/ so a diff of the .inc shows up
// in review whenever the ISA's semantics change on purpose.
#include "data/isa_golden_traces.inc"

std::uint64_t fnv64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628762211ULL;
  }
  return h;
}

/// One value summarizing every piece of per-step architectural state.
std::uint64_t state_digest(const Machine& m) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < 8; ++i) h = fnv64(h, m.reg(static_cast<Reg>(i)));
  h = fnv64(h, m.reg(Reg::Eip));
  const Eflags f = m.flags();
  h = fnv64(h, static_cast<std::uint64_t>(f.cf) | static_cast<std::uint64_t>(f.zf) << 1 |
                   static_cast<std::uint64_t>(f.sf) << 2 | static_cast<std::uint64_t>(f.of) << 3);
  h = fnv64(h, m.instructions_executed());
  h = fnv64(h, m.halted() ? 1 : 0);
  return h;
}

std::uint64_t memory_digest(const Machine& m) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint32_t addr = 0; addr + 4 <= m.memory_size(); addr += 4) {
    h = fnv64(h, m.load32(addr));
  }
  return h;
}

struct Workload {
  std::string name;
  Image image;
};

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  for (const std::uint64_t seed : {11ull, 222ull, 3333ull}) {
    out.push_back({"gen-" + std::to_string(seed), assemble(generate_program(seed).source)});
  }
  const AsmSample& sum = sample("array_sum");
  out.push_back({"lab4-array_sum",
                 assemble("_start:\n"
                          "    movl $4096, %esi\n"
                          "    movl $5, (%esi)\n"
                          "    movl $12, 4(%esi)\n"
                          "    movl $25, 8(%esi)\n"
                          "    pushl $3\n"
                          "    pushl $4096\n"
                          "    call array_sum\n"
                          "    hlt\n" +
                          sum.source)});
  out.push_back({"minic-fact5", cc::compile_with_entry("int fact(int n) {\n"
                                                       "  if (n < 2) { return 1; }\n"
                                                       "  return n * fact(n - 1);\n"
                                                       "}\n"
                                                       "int main() { return fact(5); }\n",
                                                       {})});
  return out;
}

/// Run the workload on the switch interpreter and record its golden
/// trajectory.
GoldenTrace record(const Workload& w) {
  GoldenTrace g;
  g.name = w.name;
  g.chain = 1469598103934665603ULL;
  Machine m(kMemBytes);
  m.set_core(Machine::Core::Switch);
  m.load(w.image);
  while (!m.halted() && g.steps < kStepCap) {
    m.step();
    ++g.steps;
    const std::uint64_t d = state_digest(m);
    if (g.digests.size() < kRecordedSteps) g.digests.push_back(d);
    g.chain = fnv64(g.chain, d);
  }
  EXPECT_TRUE(m.halted()) << w.name << " must halt within " << kStepCap << " steps";
  g.final_memory = memory_digest(m);
  return g;
}

std::string data_path() {
  std::string path = __FILE__;
  return path.substr(0, path.find_last_of('/')) + "/data/isa_golden_traces.inc";
}

void write_goldens(const std::vector<GoldenTrace>& traces) {
  std::ofstream out(data_path());
  ASSERT_TRUE(out.good()) << "cannot write " << data_path();
  out << "// Golden per-step state digests for the reference switch\n"
         "// interpreter. Generated by isa_golden_trace_test with\n"
         "// CS31_REGEN_GOLDEN=1 — do not edit by hand; regenerate after\n"
         "// any intentional ISA semantics change and review the diff.\n"
         "// clang-format off\n"
         "static const std::vector<GoldenTrace> kGoldenTraces = {\n";
  for (const GoldenTrace& g : traces) {
    out << "    {\"" << g.name << "\", " << g.steps << "u, " << g.chain << "ULL, "
        << g.final_memory << "ULL,\n     {";
    for (std::size_t i = 0; i < g.digests.size(); ++i) {
      if (i != 0 && i % 4 == 0) out << "\n      ";
      out << g.digests[i] << "ULL,";
    }
    out << "}},\n";
  }
  out << "};\n// clang-format on\n";
}

bool regen_requested() { return std::getenv("CS31_REGEN_GOLDEN") != nullptr; }

TEST(GoldenTrace, RegenerateWhenRequested) {
  if (!regen_requested()) GTEST_SKIP() << "set CS31_REGEN_GOLDEN=1 to rewrite the goldens";
  std::vector<GoldenTrace> traces;
  for (const Workload& w : workloads()) traces.push_back(record(w));
  write_goldens(traces);
}

// The reference interpreter must reproduce every recorded step digest,
// in order — the failure message names the workload and the exact step
// where today's machine first diverges from the recorded machine.
TEST(GoldenTrace, SwitchCoreMatchesEveryRecordedStep) {
  if (regen_requested()) GTEST_SKIP() << "regen run";
  const std::vector<Workload> work = workloads();
  ASSERT_EQ(work.size(), kGoldenTraces.size()) << "workload set changed: regenerate goldens";
  for (std::size_t i = 0; i < work.size(); ++i) {
    const GoldenTrace& golden = kGoldenTraces[i];
    ASSERT_EQ(work[i].name, golden.name) << "workload set changed: regenerate goldens";
    Machine m(kMemBytes);
    m.set_core(Machine::Core::Switch);
    m.load(work[i].image);
    std::uint64_t chain = 1469598103934665603ULL;
    std::size_t steps = 0;
    while (!m.halted() && steps < kStepCap) {
      m.step();
      ++steps;
      const std::uint64_t d = state_digest(m);
      if (steps <= golden.digests.size()) {
        ASSERT_EQ(d, golden.digests[steps - 1])
            << golden.name << ": first divergent step is " << steps;
      }
      chain = fnv64(chain, d);
    }
    EXPECT_EQ(steps, golden.steps) << golden.name;
    EXPECT_EQ(chain, golden.chain) << golden.name << ": diverged after the recorded prefix";
    EXPECT_EQ(memory_digest(m), golden.final_memory) << golden.name;
  }
}

// The fast core, stopped by an instruction budget anywhere inside the
// recorded prefix, must land on the exact digest the reference core
// recorded for that step — run_limited's budget-exhaustion points are
// part of the identity contract.
TEST(GoldenTrace, FastCoreHitsRecordedDigestsAtBudgetStops) {
  if (regen_requested()) GTEST_SKIP() << "regen run";
  const std::vector<Workload> work = workloads();
  ASSERT_EQ(work.size(), kGoldenTraces.size()) << "workload set changed: regenerate goldens";
  for (std::size_t i = 0; i < work.size(); ++i) {
    const GoldenTrace& golden = kGoldenTraces[i];
    const std::size_t prefix = golden.digests.size();
    for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{7}, prefix / 3,
                                prefix / 2, prefix - 1, prefix}) {
      if (k < 1 || k > prefix) continue;
      Machine m(kMemBytes);
      m.load(work[i].image);
      ASSERT_EQ(m.core(), Machine::Core::Predecoded);
      const Machine::RunOutcome outcome = m.run_limited({k, 0.0});
      ASSERT_EQ(outcome.instructions, k) << golden.name << " budget=" << k;
      ASSERT_EQ(state_digest(m), golden.digests[k - 1])
          << golden.name << ": fast core diverges at budget stop " << k;
    }
  }
}

// A full fast-core run must land on the reference's final state.
TEST(GoldenTrace, FastCoreLandsOnFinalGoldenState) {
  if (regen_requested()) GTEST_SKIP() << "regen run";
  const std::vector<Workload> work = workloads();
  ASSERT_EQ(work.size(), kGoldenTraces.size()) << "workload set changed: regenerate goldens";
  for (std::size_t i = 0; i < work.size(); ++i) {
    const GoldenTrace& golden = kGoldenTraces[i];
    Machine m(kMemBytes);
    m.load(work[i].image);
    const std::size_t steps = m.run(kStepCap);
    EXPECT_EQ(steps, golden.steps) << golden.name;
    EXPECT_TRUE(m.halted()) << golden.name;
    EXPECT_EQ(memory_digest(m), golden.final_memory) << golden.name;
    if (!golden.digests.empty() && golden.steps <= golden.digests.size()) {
      EXPECT_EQ(state_digest(m), golden.digests[golden.steps - 1]) << golden.name;
    }
  }
}

}  // namespace
}  // namespace cs31::isa
