// cs31::grader tests: the toolchain verdicts, the content-hash cache
// (determinism, accounting, in-flight collapse), the service's
// determinism contract — byte-identical report streams across worker
// counts and queue capacities — poison resilience, and the toolchain
// re-entrancy audit (concurrent compiles byte-identical to serial).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "ccomp/codegen.hpp"
#include "ccomp/parser.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "grader/cache.hpp"
#include "grader/loadgen.hpp"
#include "grader/service.hpp"
#include "grader/submission.hpp"
#include "grader/toolchain.hpp"

namespace cs31::grader {
namespace {

/// Fast deterministic budget for tests: poison spins cost ~20k emulated
/// instructions instead of the service default 2M.
ToolchainLimits test_limits() { return ToolchainLimits{20'000, 10.0}; }

/// FNV-1a 64 of `text`: a compact golden for long report streams.
std::uint64_t digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// --- content hash ------------------------------------------------------

TEST(Hash, DeterministicAndContentSensitive) {
  const std::string body = mini_c_body(7);
  EXPECT_EQ(content_hash(SubmissionKind::MiniC, body),
            content_hash(SubmissionKind::MiniC, body));
  EXPECT_NE(content_hash(SubmissionKind::MiniC, body),
            content_hash(SubmissionKind::MiniC, body + " "));
  // Same bytes under a different toolchain must not share a verdict.
  EXPECT_NE(content_hash(SubmissionKind::MiniC, body),
            content_hash(SubmissionKind::Assembly, body));
  EXPECT_EQ(hash_hex(content_hash(SubmissionKind::MiniC, body)).size(), 18u);
}

TEST(Hash, IgnoresTheSubmissionId) {
  Submission a{"alice/try1", SubmissionKind::Assembly, assembly_body(3)};
  Submission b{"bob/try9", SubmissionKind::Assembly, assembly_body(3)};
  EXPECT_EQ(content_hash(a), content_hash(b));
}

// --- toolchain verdicts ------------------------------------------------

TEST(Toolchain, MiniCCleanRunMatchesDirectExecution) {
  const std::string body = mini_c_body(1);
  const Verdict v = run_toolchain({"s", SubmissionKind::MiniC, body}, test_limits());
  EXPECT_EQ(v.status, "ok") << v.to_json();
  EXPECT_EQ(v.score, 100);
  EXPECT_GT(v.instructions, 0u);
  EXPECT_EQ(v.result, cc::run_mini_c(body));
}

TEST(Toolchain, MiniCArgsDirectiveFeedsMain) {
  const std::string body = "// args: 30 12\nint main(int a, int b) { return a + b; }\n";
  const Verdict v = run_toolchain({"s", SubmissionKind::MiniC, body}, test_limits());
  EXPECT_EQ(v.status, "ok") << v.to_json();
  EXPECT_EQ(v.result, 42);
}

TEST(Toolchain, MiniCSyntaxErrorIsAVerdict) {
  const Verdict v =
      run_toolchain({"s", SubmissionKind::MiniC, poison_bad_mini_c()}, test_limits());
  EXPECT_EQ(v.status, "compile_error");
  EXPECT_EQ(v.score, 0);
  ASSERT_FALSE(v.notes.empty());
}

TEST(Toolchain, MiniCLintFindingsDeductButRun) {
  const std::string body =
      "int main() {\n  int x = 5;\n  x = 6;\n  return x;\n}\n";  // dead store on line 2
  const Verdict v = run_toolchain({"s", SubmissionKind::MiniC, body}, test_limits());
  EXPECT_EQ(v.status, "ok_with_findings") << v.to_json();
  EXPECT_LT(v.score, 100);
  EXPECT_GE(v.score, 60);
  EXPECT_EQ(v.result, 6);
  ASSERT_FALSE(v.notes.empty());
  EXPECT_NE(v.notes[0].find("dead-store"), std::string::npos) << v.notes[0];
}

TEST(Toolchain, MiniCPoisonSpinTimesOutDeterministically) {
  const Verdict v =
      run_toolchain({"s", SubmissionKind::MiniC, poison_spin_mini_c()}, test_limits());
  EXPECT_EQ(v.status, "timeout") << v.to_json();
  EXPECT_EQ(v.instructions, test_limits().max_instructions);
  ASSERT_FALSE(v.notes.empty());
  EXPECT_NE(v.notes[0].find("instruction budget"), std::string::npos);
}

std::string repeated(const std::string& text, int times) {
  std::string out;
  out.reserve(text.size() * static_cast<std::size_t>(times));
  for (int i = 0; i < times; ++i) out += text;
  return out;
}

TEST(Toolchain, MiniCDeepNestingIsACompileError) {
  // Each of these overflowed the stack (SIGSEGV) before the parser had
  // a depth budget: the first three nest, the sum nests to the left.
  const std::vector<std::pair<std::string, std::string>> bodies = {
      {"200k '('", "int main() { return " + std::string(200'000, '(') + "1" +
                       std::string(200'000, ')') + "; }"},
      {"200k unary '-'", "int main() { return " + std::string(200'000, '-') + "1; }"},
      {"50k nested if", "int main() { " + repeated("if (1) { ", 50'000) + "return 0; " +
                            repeated("} ", 50'000) + "return 1; }"},
      {"60k-term sum", "int main() { return 1" + repeated("+1", 59'999) + "; }"},
  };
  for (const auto& [name, body] : bodies) {
    const Verdict v = run_toolchain({"s", SubmissionKind::MiniC, body}, test_limits());
    EXPECT_EQ(v.status, "compile_error") << name;
    EXPECT_EQ(v.score, 0) << name;
    ASSERT_EQ(v.notes.size(), 1u) << name;
    EXPECT_NE(v.notes[0].find("nesting too deep"), std::string::npos) << v.notes[0];
  }
  // Well inside the budget, a long sum still compiles and runs.
  const Verdict sum = run_toolchain(
      {"s", SubmissionKind::MiniC, "int main() { return 1" + repeated("+1", 399) + "; }"},
      test_limits());
  EXPECT_EQ(sum.status, "ok") << sum.to_json();
  EXPECT_EQ(sum.result, 400);
}

/// One byte over kMaxBodyBytes: refused before any front-end reads it.
Verdict oversized(SubmissionKind kind) {
  return run_toolchain({"s", kind, std::string(kMaxBodyBytes + 1, ' ')}, test_limits());
}

void expect_refused_as(const Verdict& v, const std::string& status) {
  EXPECT_EQ(v.status, status) << v.to_json();
  EXPECT_EQ(v.score, 0);
  ASSERT_EQ(v.notes.size(), 1u);
  EXPECT_EQ(v.notes[0], "body is 1048577 bytes, over the 1048576-byte limit");
}

TEST(Toolchain, OversizedMiniCBodyIsACompileError) {
  expect_refused_as(oversized(SubmissionKind::MiniC), "compile_error");
}

TEST(Toolchain, OversizedAssemblyBodyIsACompileError) {
  expect_refused_as(oversized(SubmissionKind::Assembly), "compile_error");
}

TEST(Toolchain, OversizedLifeBodyIsInvalid) {
  expect_refused_as(oversized(SubmissionKind::LifeTrace), "invalid");
}

TEST(Toolchain, OversizedScriptBodyIsInvalid) {
  expect_refused_as(oversized(SubmissionKind::Script), "invalid");
}

TEST(Toolchain, MiniCCompileVerdictsAreGolden) {
  // Exact verdicts for the bodies whose outcome depends on the order of
  // the compile stages: a codegen error wins over a missing main and
  // over an arity mismatch (and then carries no lint notes), while a
  // body that lowers but cannot start keeps its lint notes ahead of
  // the error.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"int f() { return y; }",
       R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["line 1: use of undeclared variable 'y'"]})j"},
      {"// args: 1\nint main() { return q; }",
       R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["line 2: use of undeclared variable 'q'"]})j"},
      {"int _start() { return 1; }\nint main() { return 2; }",
       R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["line 17: duplicate label '_start'"]})j"},
      {"int f() { return 1; }\n",
       R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["program has no main()"]})j"},
      {"int main(int a) { return a; }\n",
       R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["main() expects 1 argument(s), got 0"]})j"},
      {"// args: 30 12\nint main(int a, int b) { return a + b; }\n",
       R"j({"status":"ok","score":100,"result":42,"instructions":15,"events":0,"races":0,"notes":[]})j"},
      {"int main() {\n  int x = 5;\n  x = 6;\n  return x;\n}\n",
       R"j({"status":"ok_with_findings","score":95,"result":6,"instructions":13,"events":0,"races":0,"notes":["warning[dead-store] line 2 in 'main': the initial value of 'x' is never read"]})j"},
      {"int main() {\n  int x = 5;\n  x = 6;\n  return q;\n}\n",
       R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["line 4: use of undeclared variable 'q'"]})j"},
      {"int f() {\n  int x = 5;\n  x = 6;\n  return x;\n}\n",
       R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["warning[dead-store] line 2 in 'f': the initial value of 'x' is never read","program has no main()"]})j"},
      {"int _start() {\n  int x = 5;\n  x = 6;\n  return x;\n}\nint main() { return 2; }\n",
       R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["warning[dead-store] line 2 in '_start': the initial value of 'x' is never read","line 22: duplicate label '_start'"]})j"},
  };
  for (const auto& [body, golden] : cases) {
    EXPECT_EQ(run_toolchain({"s", SubmissionKind::MiniC, body}, test_limits()).to_json(),
              golden)
        << body;
  }
}

TEST(Toolchain, AssemblyCleanRun) {
  // assembly_body sums base + iters + iters-1 + ... + 1.
  const Verdict v =
      run_toolchain({"s", SubmissionKind::Assembly, assembly_body(0)}, test_limits());
  EXPECT_EQ(v.status, "ok") << v.to_json();
  EXPECT_EQ(v.score, 100);
  EXPECT_EQ(v.result, 0 + 3 + 2 + 1);
}

TEST(Toolchain, AssemblySpinTimesOut) {
  const Verdict v =
      run_toolchain({"s", SubmissionKind::Assembly, poison_spin_assembly()}, test_limits());
  EXPECT_EQ(v.status, "timeout");
  EXPECT_EQ(v.score, 5);
}

TEST(Toolchain, AssemblySegfaultIsRuntimeError) {
  const std::string body =
      "_start:\n    movl $0, %eax\n    movl 2000000000(%eax), %ebx\n    hlt\n";
  const Verdict v = run_toolchain({"s", SubmissionKind::Assembly, body}, test_limits());
  EXPECT_EQ(v.status, "runtime_error") << v.to_json();
  EXPECT_EQ(v.score, 10);
  ASSERT_FALSE(v.notes.empty());
  EXPECT_NE(v.notes.back().find("segmentation"), std::string::npos) << v.notes.back();
}

TEST(Toolchain, LifeBarrieredScenarioIsRaceFree) {
  const Verdict v = run_toolchain(
      {"s", SubmissionKind::LifeTrace, life_body(4, /*with_barrier=*/true)}, test_limits());
  EXPECT_EQ(v.status, "race_free") << v.to_json();
  EXPECT_EQ(v.score, 100);
  EXPECT_EQ(v.races, 0u);
  EXPECT_GT(v.events, 0u);
}

TEST(Toolchain, LifeForgottenBarrierIsCaught) {
  const Verdict v = run_toolchain(
      {"s", SubmissionKind::LifeTrace, life_body(4, /*with_barrier=*/false)}, test_limits());
  EXPECT_EQ(v.status, "race_found") << v.to_json();
  EXPECT_GT(v.races, 0u);
  ASSERT_FALSE(v.notes.empty());
  EXPECT_NE(v.notes[0].find("race on"), std::string::npos);
}

TEST(Toolchain, LifeMalformedConfigIsInvalid) {
  const Verdict v =
      run_toolchain({"s", SubmissionKind::LifeTrace, poison_bad_life()}, test_limits());
  EXPECT_EQ(v.status, "invalid");
  EXPECT_EQ(v.score, 0);
}

TEST(Toolchain, LifeOverBudgetScenarioTimesOutBeforeTracing) {
  // 4e9 rounds of an 8x8 grid would trace for about a day; the budget
  // check refuses it before the first event.
  const std::string body = "threads=1\nrounds=4000000000\n8 8\n1\n3 3\n";
  const auto start = std::chrono::steady_clock::now();
  const Verdict v = run_toolchain({"s", SubmissionKind::LifeTrace, body}, test_limits());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
  EXPECT_EQ(v.status, "timeout") << v.to_json();
  EXPECT_EQ(v.score, 5);
  EXPECT_EQ(v.events, 0u);
  ASSERT_EQ(v.notes.size(), 1u);
  EXPECT_NE(v.notes[0].find("budget"), std::string::npos) << v.notes[0];
  // The boundary: 312 x 8 x 8 = 19968 is traced, 313 x 8 x 8 is not.
  const auto rounds = [](int n) {
    return "threads=1\nrounds=" + std::to_string(n) + "\n8 8\n1\n3 3\n";
  };
  EXPECT_EQ(run_toolchain({"s", SubmissionKind::LifeTrace, rounds(312)}, test_limits()).status,
            "race_free");
  EXPECT_EQ(run_toolchain({"s", SubmissionKind::LifeTrace, rounds(313)}, test_limits()).status,
            "timeout");
  // rounds=0 still traces the grid once, and the check reads the
  // header: a 3000 x 3000 grid is refused before its cells exist.
  const auto big_start = std::chrono::steady_clock::now();
  const std::string big_body = "threads=1\nrounds=0\n3000 3000\n0\n";
  const Verdict big =
      run_toolchain({"s", SubmissionKind::LifeTrace, big_body}, test_limits());
  EXPECT_LT(std::chrono::steady_clock::now() - big_start, std::chrono::seconds(5));
  EXPECT_EQ(big.status, "timeout") << big.to_json();
  EXPECT_EQ(big.events, 0u);
}

TEST(Toolchain, LifeOverflowingGridIsInvalid) {
  // 2^32 x 2^32 wraps to zero cells on a 64-bit size_t; the grid must
  // refuse it rather than let the live cell land outside its buffer.
  const Verdict v = run_toolchain(
      {"s", SubmissionKind::LifeTrace, "rounds=1\n4294967296 4294967296\n1\n5 5\n"},
      test_limits());
  EXPECT_EQ(v.status, "invalid") << v.to_json();
  EXPECT_EQ(v.score, 0);
}

TEST(Toolchain, AssemblyImageTooLargeToLoadIsACompileError) {
  // 16-byte instructions from 0x1000: 65280 fill the 1 MiB machine
  // exactly, one more does not fit. Nothing ran, so it is a compile
  // error with the load failure as its only note.
  std::string body;
  for (int i = 0; i < 65281; ++i) body += "hlt\n";
  EXPECT_EQ(run_toolchain({"s", SubmissionKind::Assembly, body}, test_limits()).to_json(),
            R"j({"status":"compile_error","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["image does not fit in memory"]})j");
  body.resize(body.size() - 4);
  EXPECT_EQ(run_toolchain({"s", SubmissionKind::Assembly, body}, test_limits()).status,
            "ok_with_findings");
}

TEST(Toolchain, ScriptVerdictsAreGolden) {
  // Exact verdicts for the script strings a grader note can carry: the
  // parse errors, the Explorer's lock discipline (a multiset, so a
  // re-lock pair is accepted and deadlocks) beside concur's lenient
  // walk, ignored trailing tokens with the op's own spacing in the race
  // note, and a barrier-count mismatch (t0 ends parked at a barrier
  // that never completes: a stuck state, so deadlock_found).
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"spin c",
       R"j({"status":"invalid","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["concur op 'spin c': unknown verb 'spin'"]})j"},
      {"lock",
       R"j({"status":"invalid","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["concur op 'lock' needs a mutex"]})j"},
      {"unlock m",
       R"j({"status":"invalid","score":0,"result":0,"instructions":0,"events":0,"races":0,"notes":["error[unlock-without-lock] line 1 in 't0': unlock of 'm' without a matching program-order lock (the dynamic tier rejects this script)","explore op 't0 unlock m' releases a mutex its thread never locked"]})j"},
      {"lock m; lock m; unlock m; unlock m",
       R"j({"status":"deadlock_found","score":20,"result":1,"instructions":0,"events":1,"races":0,"notes":["error[self-deadlock] line 2 in 't0': re-lock of held mutex 'm': this thread blocks on itself in every schedule that reaches this op","error[unlock-without-lock] line 4 in 't0': unlock of 'm' without a matching program-order lock (the dynamic tier rejects this script)","deadlock after 1 step(s): 't0 lock m' waits on mutex m"]})j"},
      {"write  x  junk\nread x",
       R"j({"status":"race_found","score":30,"result":2,"instructions":0,"events":4,"races":1,"notes":["warning[static-race] line 1 in 't0': 'x' may race: 't0 write  x  junk' and 't1 read x' can run unordered; locksets {} vs {} share no lock and no barrier orders the pair\n    note: second access: 't1 read x' (t1 op 1)","race on x: t0 write  x  junk vs t1 read x"]})j"},
      {"barrier; barrier\nbarrier",
       R"j({"status":"deadlock_found","score":20,"result":2,"instructions":0,"events":2,"races":0,"notes":["error[barrier-starvation] line 2 in 't0': barrier arrival 2 can never complete: t1 arrive(s) only 1 time(s)","deadlock after 3 step(s): 't0 barrier' waits on barrier"]})j"},
  };
  for (const auto& [body, golden] : cases) {
    EXPECT_EQ(run_toolchain({"s", SubmissionKind::Script, body}, test_limits()).to_json(),
              golden)
        << body;
  }
}

TEST(Toolchain, ScriptCleanIsCertifiedRaceFree) {
  const Verdict v = run_toolchain(
      {"s", SubmissionKind::Script, script_body_clean(4)}, test_limits());
  EXPECT_EQ(v.status, "race_free") << v.to_json();
  EXPECT_EQ(v.score, 100);
  EXPECT_EQ(v.races, 0u);
  EXPECT_GT(v.result, 0) << "schedules replayed";
  EXPECT_GT(v.events, 0u);
}

TEST(Toolchain, ScriptForgottenLockIsCaughtAndExplained) {
  const Verdict v = run_toolchain(
      {"s", SubmissionKind::Script, script_body_racy(4)}, test_limits());
  EXPECT_EQ(v.status, "race_found") << v.to_json();
  EXPECT_EQ(v.score, 30);
  EXPECT_GT(v.races, 0u);
  // Both the static prediction and the dynamic confirmation ride along
  // as notes: the analyzer's candidate first, the explorer's site pair
  // last.
  bool static_note = false, dynamic_note = false;
  for (const std::string& note : v.notes) {
    if (note.find("static-race") != std::string::npos) static_note = true;
    if (note.find("race on c") != std::string::npos) dynamic_note = true;
  }
  EXPECT_TRUE(static_note) << v.to_json();
  EXPECT_TRUE(dynamic_note) << v.to_json();
}

TEST(Toolchain, ScriptAbbaNestIsADeadlockVerdict) {
  const Verdict v = run_toolchain(
      {"s", SubmissionKind::Script, script_body_deadlock(4)}, test_limits());
  EXPECT_EQ(v.status, "deadlock_found") << v.to_json();
  EXPECT_EQ(v.score, 20);
  bool cycle_note = false;
  for (const std::string& note : v.notes) {
    if (note.find("lock-order-cycle") != std::string::npos) cycle_note = true;
  }
  EXPECT_TRUE(cycle_note) << "static prediction missing: " << v.to_json();
}

TEST(Toolchain, ScriptMalformedOpIsInvalid) {
  const Verdict v = run_toolchain(
      {"s", SubmissionKind::Script, poison_bad_script()}, test_limits());
  EXPECT_EQ(v.status, "invalid") << v.to_json();
  EXPECT_EQ(v.score, 0);
  ASSERT_FALSE(v.notes.empty());
}

TEST(Toolchain, ScriptVerdictIsDeterministic) {
  for (const std::string& body :
       {script_body_clean(11), script_body_racy(11), script_body_deadlock(11)}) {
    const Verdict a = run_toolchain({"a", SubmissionKind::Script, body}, test_limits());
    const Verdict b = run_toolchain({"b", SubmissionKind::Script, body}, test_limits());
    EXPECT_EQ(a.to_json(), b.to_json());
  }
}

TEST(Toolchain, VerdictJsonIsStable) {
  const Verdict v =
      run_toolchain({"s", SubmissionKind::Assembly, assembly_body(9)}, test_limits());
  EXPECT_EQ(v.to_json(), run_toolchain({"other-id", SubmissionKind::Assembly,
                                        assembly_body(9)}, test_limits())
                             .to_json());
  EXPECT_EQ(v.to_json().find("{\"status\":"), 0u);
}

// --- verdict cache -----------------------------------------------------

TEST(Cache, HitMissAccounting) {
  VerdictCache cache;
  const ContentHash h1 = 11, h2 = 22;
  const auto make = [](int score) {
    return [score] {
      Verdict v;
      v.status = "ok";
      v.score = score;
      return v;
    };
  };
  EXPECT_EQ(cache.get_or_compute(h1, make(100)).score, 100);
  EXPECT_EQ(cache.get_or_compute(h1, make(50)).score, 100) << "hit must not recompute";
  EXPECT_EQ(cache.get_or_compute(h2, make(70)).score, 70);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.collapsed, 0u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(Cache, ConcurrentIdenticalLookupsComputeOnce) {
  // The duplicate-storm kernel: N threads race on one hash; exactly one
  // runs the (slow) compute, the rest either collapse onto it or hit
  // the finished entry.
  VerdictCache cache;
  std::atomic<int> computes{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<Verdict> seen(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[t] = cache.get_or_compute(777, [&] {
        computes.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        Verdict v;
        v.status = "ok";
        v.score = 88;
        return v;
      });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(computes.load(), 1);
  for (const Verdict& v : seen) EXPECT_EQ(v.score, 88);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.collapsed, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(stats.entries, 1u);
}

TEST(Cache, ComputeExceptionBecomesCachedGraderError) {
  VerdictCache cache;
  const Verdict v = cache.get_or_compute(5, []() -> Verdict {
    throw std::runtime_error("toolchain bug");
  });
  EXPECT_EQ(v.status, "grader_error");
  ASSERT_FALSE(v.notes.empty());
  EXPECT_EQ(v.notes[0], "toolchain bug");
  // Waiters and later lookups get the same verdict — no deadlock, no
  // retry storm.
  EXPECT_EQ(cache.get_or_compute(5, [] { return Verdict{}; }).status, "grader_error");
  EXPECT_EQ(cache.stats().hits, 1u);
}

// --- the service: determinism, storms, poison --------------------------

std::string grade_stream(const LoadPlan& plan, GraderService::Options options) {
  GraderService service(options);
  service.submit_all(plan.submissions);
  service.wait_idle();
  return service.report_stream();
}

GraderService::Options test_options(std::size_t workers, std::size_t capacity = 64,
                                    bool use_cache = true) {
  GraderService::Options options;
  options.workers = workers;
  options.queue_capacity = capacity;
  options.use_cache = use_cache;
  options.limits = test_limits();
  return options;
}

TEST(Service, ReportStreamByteIdenticalAcrossWorkerCounts) {
  // The acceptance bar: same batch -> byte-identical stream for any
  // worker count, any queue capacity, cache on or off.
  const LoadPlan plan = make_scenario("steady", 48, /*seed=*/3);
  const std::string reference = grade_stream(plan, test_options(1));
  ASSERT_FALSE(reference.empty());
  for (const std::size_t workers : {2u, 4u, 8u}) {
    EXPECT_EQ(grade_stream(plan, test_options(workers)), reference)
        << workers << " workers diverged";
  }
  EXPECT_EQ(grade_stream(plan, test_options(4, /*capacity=*/2)), reference)
      << "capacity-2 backpressured queue diverged";
  EXPECT_EQ(grade_stream(plan, test_options(4, 64, /*use_cache=*/false)), reference)
      << "cache off diverged";
}

TEST(Service, StreamCoversEverySubmissionInArrivalOrder) {
  const LoadPlan plan = make_scenario("steady", 30, 1);
  GraderService service(test_options(4));
  service.submit_all(plan.submissions);
  service.wait_idle();
  const auto lines = service.report_lines();
  ASSERT_EQ(lines.size(), plan.submissions.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].find("{\"id\":" + common::json_quote(plan.submissions[i].id)), 0u)
        << "line " << i << " out of arrival order: " << lines[i];
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, plan.submissions.size());
  EXPECT_EQ(stats.graded, plan.submissions.size());
  std::uint64_t per_worker_total = 0;
  for (const std::uint64_t graded : stats.graded_per_worker) per_worker_total += graded;
  EXPECT_EQ(per_worker_total, stats.graded);
}

TEST(Service, DuplicateStormCollapsesToOneToolchainRun) {
  // N identical bodies -> 1 toolchain run, N reports identical except
  // for the envelope id.
  constexpr std::size_t kCount = 64;
  std::vector<Submission> storm;
  const std::string body = mini_c_body(12);
  for (std::size_t i = 0; i < kCount; ++i) {
    storm.push_back({"storm/" + std::to_string(i), SubmissionKind::MiniC, body});
  }
  GraderService service(test_options(4));
  service.submit_all(std::move(storm));
  service.wait_idle();
  const auto stats = service.stats();
  EXPECT_EQ(stats.graded, kCount);
  EXPECT_EQ(stats.toolchain_runs, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.hits + stats.cache.collapsed, kCount - 1);
  // Identical verdicts: strip the id field (everything from "kind" on
  // must match byte-for-byte).
  const auto lines = service.report_lines();
  const auto tail = [](const std::string& line) {
    return line.substr(line.find("\"kind\""));
  };
  for (const std::string& line : lines) EXPECT_EQ(tail(line), tail(lines[0]));
}

TEST(Service, MixedStormStillCollapsesPerBody) {
  const LoadPlan plan = make_scenario("duplicate_storm", 96, 2);
  std::set<ContentHash> distinct;
  for (const Submission& s : plan.submissions) distinct.insert(content_hash(s));
  GraderService service(test_options(4));
  service.submit_all(plan.submissions);
  service.wait_idle();
  const auto stats = service.stats();
  EXPECT_EQ(stats.graded, plan.submissions.size());
  EXPECT_EQ(stats.toolchain_runs, distinct.size());
  EXPECT_EQ(stats.cache.misses, distinct.size());
}

TEST(Service, PoisonSubmissionsNeverTakeDownThePool) {
  // Spins, syntax errors, and malformed configs ride along with good
  // submissions; every single one must come back with a report and the
  // service must stay usable afterwards.
  const LoadPlan plan = make_scenario("poison", 48, 5);
  GraderService service(test_options(4, /*capacity=*/8));
  service.submit_all(plan.submissions);
  service.wait_idle();
  const auto lines = service.report_lines();
  ASSERT_EQ(lines.size(), plan.submissions.size());
  std::size_t timeouts = 0, invalids = 0, compile_errors = 0, good = 0;
  for (const std::string& line : lines) {
    ASSERT_FALSE(line.empty());
    if (line.find("\"status\":\"timeout\"") != std::string::npos) ++timeouts;
    if (line.find("\"status\":\"invalid\"") != std::string::npos) ++invalids;
    if (line.find("\"status\":\"compile_error\"") != std::string::npos) ++compile_errors;
    if (line.find("\"status\":\"ok\"") != std::string::npos ||
        line.find("\"status\":\"ok_with_findings\"") != std::string::npos ||
        line.find("\"status\":\"race_free\"") != std::string::npos ||
        line.find("\"status\":\"race_found\"") != std::string::npos) {
      ++good;
    }
  }
  EXPECT_GT(timeouts, 0u);
  EXPECT_GT(invalids, 0u);
  EXPECT_GT(compile_errors, 0u);
  EXPECT_EQ(good, plan.submissions.size() - timeouts - invalids - compile_errors);
  // The pool survived: a fresh submission still grades.
  service.submit({"after/0", SubmissionKind::Assembly, assembly_body(1)});
  service.wait_idle();
  EXPECT_EQ(service.stats().graded, plan.submissions.size() + 1);
  EXPECT_NE(service.report_lines().back().find("\"status\":\"ok\""), std::string::npos);
}

TEST(Service, ScriptReviewBatchGradesEveryVerdictKind) {
  // The concurrency homework batch end to end: clean, racy, deadlocking,
  // and malformed scripts all come back with the right verdicts, and
  // the stream stays byte-identical across worker counts like every
  // other scenario — and to the golden digest recorded when the
  // Explorer still replayed on its own worker pool.
  const LoadPlan plan = make_scenario("script_review", 24, 6);
  const std::string reference = grade_stream(plan, test_options(1));
  EXPECT_EQ(reference.size(), 11228u);
  EXPECT_EQ(digest(reference), 0xed46901b24966932ull);
  EXPECT_EQ(grade_stream(plan, test_options(4)), reference) << "4 workers diverged";
  GraderService service(test_options(4));
  service.submit_all(plan.submissions);
  service.wait_idle();
  const auto lines = service.report_lines();
  ASSERT_EQ(lines.size(), plan.submissions.size());
  std::size_t race_free = 0, race_found = 0, deadlock_found = 0, invalid = 0;
  for (const std::string& line : lines) {
    if (line.find("\"status\":\"race_free\"") != std::string::npos) ++race_free;
    if (line.find("\"status\":\"race_found\"") != std::string::npos) ++race_found;
    if (line.find("\"status\":\"deadlock_found\"") != std::string::npos) ++deadlock_found;
    if (line.find("\"status\":\"invalid\"") != std::string::npos) ++invalid;
  }
  EXPECT_GT(race_free, 0u);
  EXPECT_GT(race_found, 0u);
  EXPECT_GT(deadlock_found, 0u);
  EXPECT_GT(invalid, 0u);
  EXPECT_EQ(race_free + race_found + deadlock_found + invalid, lines.size());
}

TEST(Service, SingleWorkerCapacityOneBackpressures) {
  GraderService service(test_options(1, /*capacity=*/1));
  std::vector<Submission> batch;
  for (std::size_t i = 0; i < 16; ++i) {
    batch.push_back({"bp/" + std::to_string(i), SubmissionKind::MiniC, mini_c_body(i)});
  }
  service.submit_all(std::move(batch));
  service.wait_idle();
  EXPECT_EQ(service.stats().graded, 16u);
}

TEST(Service, ConcurrentSubmittersEachGetOneReport) {
  // submit() routes on the calling thread, so four submitters push
  // straight into the (capacity-2, so often full) worker queues at once.
  const LoadPlan plan = make_scenario("steady", 32, 11);
  constexpr std::size_t kSubmitters = 4;
  GraderService service(test_options(2, /*capacity=*/2));
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&service, &plan, t] {
      for (std::size_t i = t; i < plan.submissions.size(); i += kSubmitters) {
        service.submit(plan.submissions[i]);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  service.wait_idle();

  const auto lines = service.report_lines();
  ASSERT_EQ(lines.size(), plan.submissions.size());
  std::multiset<std::string> ids;
  for (const std::string& line : lines) {
    const std::size_t end = line.find("\",\"kind\"");
    ASSERT_NE(end, std::string::npos) << line;
    ids.insert(line.substr(0, end + 1));
  }
  for (const Submission& s : plan.submissions) {
    EXPECT_EQ(ids.count("{\"id\":" + common::json_quote(s.id)), 1u) << s.id;
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, plan.submissions.size());
  EXPECT_EQ(stats.graded, stats.submitted);
  std::uint64_t per_worker_total = 0;
  for (const std::uint64_t graded : stats.graded_per_worker) per_worker_total += graded;
  EXPECT_EQ(per_worker_total, stats.graded);
}

TEST(Service, BurstyPlanGradesEveryBurst) {
  const LoadPlan plan = make_scenario("bursty", 40, 4);
  std::size_t total = 0;
  for (const std::size_t burst : plan.bursts) total += burst;
  ASSERT_EQ(total, plan.submissions.size());
  GraderService service(test_options(2, /*capacity=*/4));
  std::size_t next = 0;
  for (const std::size_t burst : plan.bursts) {
    for (std::size_t i = 0; i < burst; ++i) {
      service.submit(plan.submissions[next++]);
    }
    service.wait_idle();  // the lull between deadline spikes
  }
  EXPECT_EQ(service.stats().graded, plan.submissions.size());
}

// --- toolchain re-entrancy audit (satellite: shared-state check) -------

TEST(Reentrancy, EightConcurrentCompileRunsMatchSerialByteForByte) {
  // The audit's executable form: 8 distinct submissions compiled and
  // executed from 8 threads at once must produce the same assembly text
  // and the same results as the serial pass. Any hidden shared state in
  // the lexer/parser/codegen/assembler/machine would show up here (and
  // under TSan in the sanitizer tier).
  constexpr std::size_t kThreads = 8;
  std::vector<std::string> sources;
  for (std::size_t i = 0; i < kThreads; ++i) sources.push_back(mini_c_body(100 + i));

  std::vector<std::string> serial_asm(kThreads);
  std::vector<std::int32_t> serial_result(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    serial_asm[i] = cc::generate(cc::parse(sources[i]));
    serial_result[i] = cc::run_mini_c(sources[i]);
  }

  std::vector<std::string> threaded_asm(kThreads);
  std::vector<std::int32_t> threaded_result(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      threaded_asm[i] = cc::generate(cc::parse(sources[i]));
      threaded_result[i] = cc::run_mini_c(sources[i]);
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < kThreads; ++i) {
    EXPECT_EQ(threaded_asm[i], serial_asm[i]) << "source " << i;
    EXPECT_EQ(threaded_result[i], serial_result[i]) << "source " << i;
  }
}

TEST(Reentrancy, ConcurrentFullToolchainVerdictsMatchSerial) {
  // Same audit one level up: the whole grading toolchain (including
  // lint, the assembler, and traced Life) from 8 threads at once.
  const LoadPlan plan = make_scenario("steady", 8, 9);
  std::vector<Verdict> serial;
  serial.reserve(plan.submissions.size());
  for (const Submission& s : plan.submissions) {
    serial.push_back(run_toolchain(s, test_limits()));
  }
  std::vector<Verdict> threaded(plan.submissions.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < plan.submissions.size(); ++i) {
    threads.emplace_back(
        [&, i] { threaded[i] = run_toolchain(plan.submissions[i], test_limits()); });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < plan.submissions.size(); ++i) {
    EXPECT_EQ(threaded[i].to_json(), serial[i].to_json()) << "submission " << i;
  }
}

// --- load generator ----------------------------------------------------

TEST(LoadGen, ScenariosAreDeterministicInSeed) {
  for (const std::string& name : scenario_names()) {
    const LoadPlan a = make_scenario(name, 24, 7);
    const LoadPlan b = make_scenario(name, 24, 7);
    ASSERT_EQ(a.submissions.size(), 24u) << name;
    EXPECT_EQ(a.bursts, b.bursts) << name;
    for (std::size_t i = 0; i < a.submissions.size(); ++i) {
      EXPECT_EQ(a.submissions[i].id, b.submissions[i].id) << name;
      EXPECT_EQ(a.submissions[i].body, b.submissions[i].body) << name;
    }
  }
  EXPECT_THROW((void)make_scenario("no-such-scenario", 4, 1), Error);
}

TEST(LoadGen, SteadyBodiesAreDistinct) {
  const LoadPlan plan = make_scenario("steady", 30, 1);
  std::set<ContentHash> hashes;
  for (const Submission& s : plan.submissions) hashes.insert(content_hash(s));
  EXPECT_EQ(hashes.size(), plan.submissions.size());
}

TEST(LoadGen, DuplicateStormIsMostlyDuplicates) {
  const LoadPlan plan = make_scenario("duplicate_storm", 128, 1);
  std::set<ContentHash> hashes;
  for (const Submission& s : plan.submissions) hashes.insert(content_hash(s));
  EXPECT_LT(hashes.size(), plan.submissions.size() / 8);
}

}  // namespace
}  // namespace cs31::grader
