// Simulated-kernel tests: fork/exec/wait/exit, zombies and orphans,
// signals and handlers, round-robin scheduling, and the concurrent-
// output interleaving enumerator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "common/error.hpp"
#include "oracles/splitmix64.hpp"
#include "os/interleave.hpp"
#include "os/kernel.hpp"

namespace cs31::os {
namespace {

TEST(Kernel, RunsASimpleProgramToCompletion) {
  Kernel k;
  const std::uint32_t pid = k.spawn(ProgramBuilder().print("hello").exit(0).build());
  k.run();
  EXPECT_EQ(k.output(), (std::vector<std::string>{"hello"}));
  EXPECT_EQ(k.info(pid).state, ProcState::Reaped);  // init reaps top-level
  EXPECT_EQ(k.info(pid).exit_status, 0);
}

TEST(Kernel, FallingOffTheEndExitsZero) {
  Kernel k;
  const std::uint32_t pid = k.spawn(ProgramBuilder().print("x").build());
  k.run();
  EXPECT_EQ(k.info(pid).exit_status, 0);
}

TEST(Kernel, ForkCreatesChildWithParentLink) {
  Kernel k;
  const std::uint32_t pid = k.spawn(
      ProgramBuilder()
          .fork(ProgramBuilder().print("child").build())
          .print("parent")
          .wait()
          .build());
  k.run();
  // Both lines appear, in some order.
  auto out = k.output();
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::string>{"child", "parent"}));
  // The fork event recorded the child pid, parented to `pid`.
  bool found_fork = false;
  for (const Event& e : k.events()) {
    if (e.pid == pid && e.what.rfind("fork:", 0) == 0) found_fork = true;
  }
  EXPECT_TRUE(found_fork);
}

TEST(Kernel, WaitReapsZombie) {
  Kernel k;
  // Parent computes before waiting, so the child exits first and sits
  // as a zombie until the wait.
  const std::uint32_t parent = k.spawn(
      ProgramBuilder()
          .fork(ProgramBuilder().exit(7).build())
          .compute(10)
          .wait()
          .print("reaped")
          .build());
  k.run();
  EXPECT_EQ(k.output().back(), "reaped");
  // The child must have passed through zombie state: find the reap event.
  bool reaped_by_parent = false;
  for (const Event& e : k.events()) {
    if (e.pid == parent && e.what.rfind("reap:", 0) == 0) reaped_by_parent = true;
  }
  EXPECT_TRUE(reaped_by_parent);
}

TEST(Kernel, WaitBlocksUntilChildExits) {
  Kernel k;
  k.spawn(ProgramBuilder()
              .fork(ProgramBuilder().compute(20).print("slow child").build())
              .wait()
              .print("after wait")
              .build());
  k.run();
  const auto& out = k.output();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "slow child");
  EXPECT_EQ(out[1], "after wait");
}

TEST(Kernel, WaitWithNoChildrenReturnsImmediately) {
  Kernel k;
  k.spawn(ProgramBuilder().wait().print("done").build());
  k.run();
  EXPECT_EQ(k.output(), (std::vector<std::string>{"done"}));
}

TEST(Kernel, OrphansReparentToInit) {
  Kernel k;
  // Parent exits immediately; the slow child becomes an orphan and is
  // eventually reaped by init.
  k.spawn(ProgramBuilder()
              .fork(ProgramBuilder().compute(30).print("orphan done").build())
              .exit(0)
              .build());
  k.run();
  EXPECT_EQ(k.output(), (std::vector<std::string>{"orphan done"}));
  // Every non-init process ends Reaped (no zombie leaks).
  for (const ProcessInfo& p : k.all_processes()) {
    if (p.pid == Kernel::kInitPid) continue;
    EXPECT_EQ(p.state, ProcState::Reaped) << "pid " << p.pid;
  }
}

TEST(Kernel, ForkBothRunsRestOfProgramTwice) {
  Kernel k;
  k.spawn(ProgramBuilder().fork_both().print("twice").build());
  k.run();
  EXPECT_EQ(k.output(), (std::vector<std::string>{"twice", "twice"}));
}

TEST(Kernel, ExecReplacesProgram) {
  Kernel k;
  k.spawn(ProgramBuilder()
              .print("before exec")
              .exec(ProgramBuilder().print("new image").build())
              .print("never printed")
              .build());
  k.run();
  EXPECT_EQ(k.output(), (std::vector<std::string>{"before exec", "new image"}));
}

TEST(Kernel, SigchldHandlerRunsOnChildExit) {
  Kernel k;
  k.spawn(ProgramBuilder()
              .handler(Signal::Chld, ProgramBuilder().print("SIGCHLD!").build())
              .fork(ProgramBuilder().exit(0).build())
              .compute(10)
              .print("parent done")
              .build());
  k.run();
  const auto& out = k.output();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "SIGCHLD!") << "handler interrupts before the next instruction";
  EXPECT_EQ(out[1], "parent done");
}

TEST(Kernel, SigintDefaultTerminates) {
  Kernel k;
  const std::uint32_t pid =
      k.spawn(ProgramBuilder().compute(50).print("never").build());
  k.tick();  // let it start
  k.deliver(pid, Signal::Int);
  k.run();
  EXPECT_TRUE(k.output().empty());
  EXPECT_EQ(k.info(pid).state, ProcState::Reaped);
  EXPECT_EQ(k.info(pid).exit_status, -2);
}

TEST(Kernel, SigintHandlerOverridesDefault) {
  Kernel k;
  const std::uint32_t pid = k.spawn(
      ProgramBuilder()
          .handler(Signal::Int, ProgramBuilder().print("caught").build())
          .compute(5)
          .print("survived")
          .build());
  k.tick();  // runs the handler-install instruction
  k.deliver(pid, Signal::Int);
  k.run();
  EXPECT_EQ(k.output(), (std::vector<std::string>{"caught", "survived"}));
}

TEST(Kernel, SigkillCannotBeCaught) {
  Kernel k;
  const std::uint32_t pid = k.spawn(
      ProgramBuilder()
          .handler(Signal::Kill, ProgramBuilder().print("nope").build())
          .compute(50)
          .build());
  k.tick();
  k.deliver(pid, Signal::Kill);
  k.run();
  EXPECT_TRUE(k.output().empty());
}

TEST(Kernel, KillInstructionTargetsChild) {
  Kernel k;
  k.spawn(ProgramBuilder()
              .fork(ProgramBuilder().compute(100).print("never").build())
              .kill(Target::LastChild, Signal::Kill)
              .wait()
              .print("killed it")
              .build());
  k.run();
  EXPECT_EQ(k.output(), (std::vector<std::string>{"killed it"}));
}

TEST(Kernel, ForkThenExecInChild) {
  // The shell pattern: fork, child execs a fresh image, parent waits.
  Kernel k;
  k.spawn(ProgramBuilder()
              .fork(ProgramBuilder()
                        .print("child before exec")
                        .exec(ProgramBuilder().print("execed image").exit(3).build())
                        .print("unreachable")
                        .build())
              .wait()
              .print("parent saw exit")
              .build());
  k.run();
  EXPECT_EQ(k.output(), (std::vector<std::string>{"child before exec", "execed image",
                                                  "parent saw exit"}));
}

TEST(Kernel, HandlerRunsOncePerDelivery) {
  Kernel k;
  const std::uint32_t pid = k.spawn(
      ProgramBuilder()
          .handler(Signal::Usr1, ProgramBuilder().print("usr1").build())
          .compute(20)
          .print("done")
          .build());
  k.tick();  // install the handler
  k.deliver(pid, Signal::Usr1);
  k.deliver(pid, Signal::Usr1);
  k.run();
  ASSERT_EQ(k.output().size(), 3u);
  EXPECT_EQ(k.output()[0], "usr1");
  EXPECT_EQ(k.output()[1], "usr1");
  EXPECT_EQ(k.output()[2], "done");
}

TEST(Kernel, KillSelfTerminatesImmediately) {
  Kernel k;
  const std::uint32_t pid = k.spawn(ProgramBuilder()
                                        .kill(Target::Self, Signal::Kill)
                                        .print("never")
                                        .build());
  k.run();
  EXPECT_TRUE(k.output().empty());
  EXPECT_EQ(k.info(pid).state, ProcState::Reaped);
}

TEST(Kernel, SignalToZombieIsDropped) {
  Kernel k;
  const std::uint32_t parent = k.spawn(ProgramBuilder()
                                           .fork(ProgramBuilder().exit(0).build())
                                           .compute(30)
                                           .wait()
                                           .build());
  // Run until the child is a zombie (parent still computing).
  std::uint32_t child = 0;
  for (int i = 0; i < 50 && child == 0; ++i) {
    k.tick();
    for (const ProcessInfo& p : k.all_processes()) {
      if (p.ppid == parent && p.state == ProcState::Zombie) child = p.pid;
    }
  }
  ASSERT_NE(child, 0u);
  k.deliver(child, Signal::Int);  // must be a no-op, not a crash
  k.run();
  EXPECT_EQ(k.info(child).state, ProcState::Reaped);
}

TEST(Kernel, RoundRobinInterleavesComputeBoundProcesses) {
  KernelConfig cfg;
  cfg.time_slice = 1;
  Kernel k(cfg);
  k.spawn(ProgramBuilder().print("a1").print("a2").build());
  k.spawn(ProgramBuilder().print("b1").print("b2").build());
  k.run();
  // Slice of 1 alternates strictly: a1 b1 a2 b2.
  EXPECT_EQ(k.output(), (std::vector<std::string>{"a1", "b1", "a2", "b2"}));
  EXPECT_GT(k.context_switches(), 2u);
}

TEST(Kernel, LargerSliceRunsChunks) {
  KernelConfig cfg;
  cfg.time_slice = 2;
  Kernel k(cfg);
  k.spawn(ProgramBuilder().print("a1").print("a2").build());
  k.spawn(ProgramBuilder().print("b1").print("b2").build());
  k.run();
  EXPECT_EQ(k.output(), (std::vector<std::string>{"a1", "a2", "b1", "b2"}));
}

TEST(Kernel, HierarchyRendersTree) {
  Kernel k;
  k.spawn(ProgramBuilder()
              .fork(ProgramBuilder().compute(100).build())
              .compute(2)
              .build());
  k.tick();
  k.tick();
  const std::string tree = k.hierarchy();
  EXPECT_NE(tree.find("pid 1"), std::string::npos);
  EXPECT_NE(tree.find("  pid 2"), std::string::npos);
  EXPECT_NE(tree.find("    pid 3"), std::string::npos);
}

TEST(Kernel, RunawayGuard) {
  Kernel k;
  // A process that forks children forever would never go idle;
  // approximate with a long compute and a tiny budget.
  k.spawn(ProgramBuilder().compute(1000000).build());
  EXPECT_THROW(k.run(100), Error);
}

TEST(Kernel, InfoOnUnknownPidThrows) {
  Kernel k;
  EXPECT_THROW((void)k.info(42), Error);
  EXPECT_THROW(k.deliver(42, Signal::Int), Error);
}

// ---------- interleaving enumeration ----------

TEST(Interleave, TwoByTwoProducesSixOrderings) {
  const std::vector<std::vector<std::string>> seqs = {{"a1", "a2"}, {"b1", "b2"}};
  const auto all = all_interleavings(seqs);
  EXPECT_EQ(all.size(), 6u);
  EXPECT_EQ(interleaving_count(seqs), 6u);
  for (const auto& order : all) {
    // Program order within each process must hold.
    const auto a1 = std::find(order.begin(), order.end(), "a1");
    const auto a2 = std::find(order.begin(), order.end(), "a2");
    EXPECT_LT(a1, a2);
  }
}

TEST(Interleave, PossibilityCheckMatchesEnumeration) {
  const std::vector<std::vector<std::string>> seqs = {{"p", "q"}, {"x"}};
  EXPECT_TRUE(is_possible_output(seqs, {"p", "x", "q"}));
  EXPECT_TRUE(is_possible_output(seqs, {"x", "p", "q"}));
  EXPECT_FALSE(is_possible_output(seqs, {"q", "p", "x"}));
  EXPECT_FALSE(is_possible_output(seqs, {"p", "q"}));  // wrong length
}

TEST(Interleave, MemoizedCheckHandlesSizesEnumerationCannot) {
  // 3 sequences of 8 identical items: multinomial is huge, but the
  // check is polynomial.
  std::vector<std::vector<std::string>> seqs(3, std::vector<std::string>(8, "x"));
  std::vector<std::string> claimed(24, "x");
  EXPECT_TRUE(is_possible_output(seqs, claimed));
  EXPECT_EQ(interleaving_count(seqs), 9465511770u);  // 24!/(8!8!8!)
}

TEST(Interleave, EnumerationLimitGuard) {
  std::vector<std::vector<std::string>> seqs;
  for (int s = 0; s < 4; ++s) {
    std::vector<std::string> seq;
    for (int i = 0; i < 6; ++i) seq.push_back(std::to_string(s) + ":" + std::to_string(i));
    seqs.push_back(seq);
  }
  EXPECT_THROW((void)all_interleavings(seqs, 1000), Error);
}

TEST(Interleave, StreamingVisitsEveryPathAndMatchesMaterialized) {
  // Sequences sharing an item: position-choice paths outnumber distinct
  // orderings (the documented streaming caveat), but the path count is
  // exactly the multinomial and the visited SET is all_interleavings.
  const std::vector<std::vector<std::string>> seqs = {{"a", "b"}, {"a", "c"}};
  std::set<std::vector<std::string>> seen;
  std::uint64_t paths = 0;
  EXPECT_TRUE(for_each_interleaving(seqs, [&](const std::vector<std::string>& order) {
    seen.insert(order);
    ++paths;
    return true;
  }));
  EXPECT_EQ(paths, interleaving_count(seqs));
  const auto all = all_interleavings(seqs);
  EXPECT_EQ(seen, std::set<std::vector<std::string>>(all.begin(), all.end()));
  EXPECT_LT(all.size(), paths);  // "aabc" reachable two ways
}

TEST(Interleave, StreamingStopsOnFalseAndHonorsTheLimit) {
  const std::vector<std::vector<std::string>> seqs = {{"a1", "a2"}, {"b1", "b2"}};
  std::uint64_t visited = 0;
  EXPECT_FALSE(for_each_interleaving(seqs, [&](const std::vector<std::string>&) {
    return ++visited < 3;  // callback vetoes the walk after 3
  }));
  EXPECT_EQ(visited, 3u);

  visited = 0;
  EXPECT_FALSE(for_each_interleaving(
      seqs, [&](const std::vector<std::string>&) { ++visited; return true; }, 4));
  EXPECT_EQ(visited, 4u);  // limit cut the walk short

  // A limit the space fits inside (or exactly fills) is not a stop.
  visited = 0;
  EXPECT_TRUE(for_each_interleaving(
      seqs, [&](const std::vector<std::string>&) { ++visited; return true; }, 6));
  EXPECT_EQ(visited, 6u);
}

TEST(Interleave, CountSaturatesWithAFlagInsteadOfWrappingAround) {
  // C(80,40) ~ 1.08e23 overflows uint64: the count must latch at the
  // ceiling and say so, not silently wrap to a small number.
  const std::vector<std::vector<std::string>> big(2, std::vector<std::string>(40, "x"));
  bool saturated = false;
  EXPECT_EQ(interleaving_count(big, saturated), UINT64_MAX);
  EXPECT_TRUE(saturated);

  const std::vector<std::vector<std::string>> small = {{"a", "b"}, {"c"}, {"d"}};
  saturated = true;
  EXPECT_EQ(interleaving_count(small, saturated), 12u);  // 4!/(2!1!1!)
  EXPECT_FALSE(saturated);
  EXPECT_EQ(interleaving_count(small), 12u);  // convenience overload agrees
}

TEST(Interleave, PossibilityCheckAgreesWithEnumerationOnRandomScripts) {
  // Property: is_possible_output(claimed) is exactly membership in
  // all_interleavings — for every true member, and for shuffled
  // same-multiset candidates that may or may not respect program order.
  oracles::SplitMix64 rng(0x9e3779b97f4a7c15ull);
  const std::vector<std::string> alphabet = {"a", "b", "c"};

  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::vector<std::string>> seqs(2 + rng.below(2));
    std::vector<std::string> pool;
    for (auto& seq : seqs) {
      const std::size_t len = 2 + rng.below(3);
      for (std::size_t i = 0; i < len; ++i) {
        seq.push_back(alphabet[rng.below(alphabet.size())]);  // duplicates welcome
        pool.push_back(seq.back());
      }
    }
    const auto all = all_interleavings(seqs);
    const std::set<std::vector<std::string>> members(all.begin(), all.end());
    for (const auto& order : all) {
      EXPECT_TRUE(is_possible_output(seqs, order)) << "trial " << trial;
    }
    for (int candidate = 0; candidate < 20; ++candidate) {
      std::vector<std::string> claimed = pool;  // right multiset, random order
      for (std::size_t i = claimed.size(); i > 1; --i) {
        std::swap(claimed[i - 1], claimed[rng.below(i)]);
      }
      EXPECT_EQ(is_possible_output(seqs, claimed), members.count(claimed) != 0)
          << "trial " << trial;
    }
  }
}

TEST(Interleave, KernelOutputIsAlwaysAPossibleInterleaving) {
  // Property: whatever the scheduler does, the observed output is one of
  // the legal interleavings of the two processes' print sequences.
  for (const std::uint32_t slice : {1u, 2u, 3u, 5u}) {
    KernelConfig cfg;
    cfg.time_slice = slice;
    Kernel k(cfg);
    k.spawn(ProgramBuilder().print("a1").print("a2").print("a3").build());
    k.spawn(ProgramBuilder().print("b1").print("b2").build());
    k.run();
    EXPECT_TRUE(is_possible_output({{"a1", "a2", "a3"}, {"b1", "b2"}}, k.output()))
        << "slice=" << slice;
  }
}

}  // namespace
}  // namespace cs31::os
