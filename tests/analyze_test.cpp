// cs31::analyze tests: CFG partition structure over both program
// representations, each dataflow check positive + negative, a
// seeded-bug corpus with annotated expectations, self-lint over every
// bundled sample/maze/compiled fixture, and the driver/debugger wiring.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analyze/cfg.hpp"
#include "analyze/checks_c.hpp"
#include "analyze/checks_isa.hpp"
#include "analyze/dataflow.hpp"
#include "analyze/diagnostic.hpp"
#include "ccomp/codegen.hpp"
#include "ccomp/driver.hpp"
#include "ccomp/parser.hpp"
#include "common/error.hpp"
#include "isa/assembler.hpp"
#include "isa/debugger.hpp"
#include "isa/machine.hpp"
#include "isa/maze.hpp"
#include "isa/samples.hpp"

namespace cs31::analyze {
namespace {

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

/// Analyze a mini-C source and match the findings against its own
/// "expect:" annotations (none = must be clean).
void check_c_fixture(const std::string& source) {
  const auto diags = analyze_program(cc::parse(source));
  const auto complaints = verify_expected(diags, parse_expectations(source));
  EXPECT_TRUE(complaints.empty()) << joined(complaints) << "\nsource:\n" << source;
}

/// Lint an assembly source and match against its annotations.
void check_isa_fixture(const std::string& source) {
  const auto diags = lint_image(isa::assemble(source));
  const auto complaints = verify_expected(diags, parse_expectations(source));
  EXPECT_TRUE(complaints.empty()) << joined(complaints) << "\nsource:\n" << source;
}

bool has_pass(const std::vector<Diagnostic>& diags, const std::string& pass) {
  for (const Diagnostic& d : diags) {
    if (d.pass == pass) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// CFG structure: mini-C
// ---------------------------------------------------------------------------

TEST(CfgC, PartitionsEveryStatementExactlyOnce) {
  const cc::ProgramAst p = cc::parse(
      "int main(int a, int b) {\n"
      "  int s = 0;\n"
      "  int i = 0;\n"
      "  while (i < a) {\n"
      "    if (i > b || !(i & 1)) { s = s + i; } else { s = s - 1; }\n"
      "    i = i + 1;\n"
      "  }\n"
      "  return s;\n"
      "}\n");
  const cc::Function& fn = p.functions[0];
  const CFuncCfg cfg = build_cfg(fn);
  const std::vector<const cc::Stmt*> universe = all_statements(fn);
  ASSERT_FALSE(universe.empty());

  // Every statement has exactly one home block.
  for (const cc::Stmt* stmt : universe) {
    ASSERT_TRUE(cfg.home.contains(stmt));
    const int b = cfg.home.at(stmt);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, static_cast<int>(cfg.blocks.size()));
  }
  EXPECT_EQ(cfg.home.size(), universe.size());

  // Straight-line statements appear in exactly one block's stmt list,
  // and that block is their home; control statements own terminators.
  for (const cc::Stmt* stmt : universe) {
    std::size_t appearances = 0;
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
      for (const cc::Stmt* s : cfg.blocks[b].stmts) {
        if (s == stmt) {
          ++appearances;
          EXPECT_EQ(cfg.home.at(stmt), static_cast<int>(b));
        }
      }
    }
    if (stmt->kind == cc::Stmt::Kind::Decl || stmt->kind == cc::Stmt::Kind::ExprStmt) {
      EXPECT_EQ(appearances, 1u);
    } else {
      EXPECT_EQ(appearances, 0u);
      const CBlock& home = cfg.blocks[static_cast<std::size_t>(cfg.home.at(stmt))];
      EXPECT_EQ(home.owner, stmt);
    }
  }

  // Entry/exit invariants and pred/succ symmetry.
  EXPECT_EQ(cfg.blocks[1].term, CBlock::Term::Exit);
  EXPECT_TRUE(cfg.blocks[1].succs().empty());
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    for (const int s : cfg.blocks[b].succs()) {
      const auto& preds = cfg.blocks[static_cast<std::size_t>(s)].preds;
      EXPECT_NE(std::find(preds.begin(), preds.end(), static_cast<int>(b)), preds.end());
    }
  }
}

TEST(CfgC, ShortCircuitLowersToBranchChains) {
  const cc::ProgramAst p = cc::parse(
      "int f(int a, int b) {\n"
      "  if (a && !b) { return 1; }\n"
      "  return 0;\n"
      "}\n");
  const CFuncCfg cfg = build_cfg(p.functions[0]);
  // Two condition leaves (a; b), each its own block, same owner.
  std::vector<const CBlock*> conds;
  for (const CBlock& b : cfg.blocks) {
    if (b.term == CBlock::Term::Cond) conds.push_back(&b);
  }
  ASSERT_EQ(conds.size(), 2u);
  EXPECT_EQ(conds[0]->owner, conds[1]->owner);
  // `a` true goes to the `b` leaf; `!b` swaps the leaf's targets, so
  // its *true* edge (b is true, i.e. !b false) skips the then-branch —
  // the same place `a` false goes.
  const int b_leaf = conds[0]->on_true;
  EXPECT_EQ(&cfg.blocks[static_cast<std::size_t>(b_leaf)], conds[1]);
  EXPECT_NE(conds[1]->on_true, conds[1]->on_false);
  EXPECT_EQ(conds[0]->on_false, conds[1]->on_true)
      << "a-false and b-true (i.e. !b false) both skip the then-branch";
}

TEST(CfgC, ReturnAndFallOffEdgesAreDistinguishable) {
  const cc::ProgramAst p = cc::parse(
      "int f(int a) {\n"
      "  if (a) { return 1; }\n"
      "}\n");
  const CFuncCfg cfg = build_cfg(p.functions[0]);
  bool saw_return_edge = false, saw_falloff_edge = false;
  for (const CBlock& b : cfg.blocks) {
    if (b.term == CBlock::Term::Return && b.next == 1) saw_return_edge = true;
    if (b.term == CBlock::Term::Jump && b.next == 1) saw_falloff_edge = true;
  }
  EXPECT_TRUE(saw_return_edge);
  EXPECT_TRUE(saw_falloff_edge);
}

// ---------------------------------------------------------------------------
// CFG structure: teaching ISA
// ---------------------------------------------------------------------------

TEST(CfgIsa, PartitionsEveryInstructionExactlyOnce) {
  const isa::Image image = isa::assemble(isa::sample("find_index").source);
  const IsaCfg cfg = build_cfg(image);

  std::set<std::uint32_t> seen;
  for (const IsaBlock& b : cfg.blocks) {
    ASSERT_FALSE(b.instrs.empty());
    EXPECT_EQ(b.instrs.front().addr, b.start);
    std::uint32_t expect_addr = b.start;
    for (const IsaInstr& ii : b.instrs) {
      EXPECT_EQ(ii.addr, expect_addr) << "blocks hold contiguous instructions";
      EXPECT_TRUE(seen.insert(ii.addr).second) << "instruction in two blocks";
      expect_addr += isa::kInstrBytes;
    }
  }
  EXPECT_EQ(seen.size(), image.instruction_count());

  // block_at and block_containing agree.
  for (int i = 0; i < static_cast<int>(cfg.blocks.size()); ++i) {
    const IsaBlock& b = cfg.blocks[static_cast<std::size_t>(i)];
    EXPECT_EQ(cfg.block_at.at(b.start), i);
    for (const IsaInstr& ii : b.instrs) {
      EXPECT_EQ(cfg.block_containing(ii.addr), i);
    }
  }

  // Edge symmetry.
  for (int i = 0; i < static_cast<int>(cfg.blocks.size()); ++i) {
    for (const int s : cfg.blocks[static_cast<std::size_t>(i)].succs) {
      const auto& preds = cfg.blocks[static_cast<std::size_t>(s)].preds;
      EXPECT_NE(std::find(preds.begin(), preds.end(), i), preds.end());
    }
  }
}

TEST(CfgIsa, RootsCallGraphAndReturns) {
  const std::string src =
      "_start:\n"
      "    pushl $3\n"
      "    call helper\n"
      "    hlt\n"
      "helper:\n"
      "    pushl %ebp\n"
      "    movl %esp, %ebp\n"
      "    movl 8(%ebp), %eax\n"
      "    leave\n"
      "    ret\n"
      "loner:\n"
      "    movl $1, %eax\n"
      "    hlt\n";
  const isa::Image image = isa::assemble(src);
  const IsaCfg cfg = build_cfg(image);

  EXPECT_EQ(cfg.entry, image.symbol("_start"));
  ASSERT_EQ(cfg.call_targets.size(), 1u);
  EXPECT_EQ(cfg.call_targets[0], image.symbol("helper"));

  std::set<std::string> root_names;
  for (const IsaRoot& r : cfg.roots) root_names.insert(r.name);
  EXPECT_EQ(root_names, (std::set<std::string>{"_start", "helper", "loner"}));
  for (const IsaRoot& r : cfg.roots) {
    EXPECT_EQ(r.is_call_target, r.name == "helper") << r.name;
  }

  // function_blocks stays intraprocedural: _start's slice must not
  // absorb helper's body through the call edge.
  const std::vector<int> start_fn = function_blocks(cfg, cfg.entry);
  for (const int b : start_fn) {
    EXPECT_NE(cfg.blocks[static_cast<std::size_t>(b)].start, image.symbol("helper"));
  }
  EXPECT_TRUE(function_returns(cfg, image.symbol("helper")));
  EXPECT_FALSE(function_returns(cfg, cfg.entry));
}

TEST(CfgIsa, CompilerLocalLabelsAreNotRoots) {
  const std::string assembly =
      cc::generate(cc::parse("int main() { int i = 0; while (i < 3) { i = i + 1; } return i; }"));
  const IsaCfg cfg = build_cfg(isa::assemble(assembly));
  for (const IsaRoot& r : cfg.roots) {
    EXPECT_NE(r.name.front(), '.') << r.name;
  }
}

// ---------------------------------------------------------------------------
// Dataflow engine
// ---------------------------------------------------------------------------

TEST(Dataflow, ReverseFlipsEdgesAndReachabilityRespectsEntries) {
  FlowGraph g;
  g.succs = {{1}, {2}, {}, {2}};  // 3 is disconnected from entry 0
  g.preds = {{}, {0}, {1, 3}, {}};
  g.entries = {0};
  const std::vector<bool> fwd = reachable(g);
  EXPECT_TRUE(fwd[0] && fwd[1] && fwd[2]);
  EXPECT_FALSE(fwd[3]);

  const FlowGraph r = reverse(g, {2});
  EXPECT_EQ(r.succs[2], (std::vector<int>{1, 3}));
  const std::vector<bool> bwd = reachable(r);
  EXPECT_TRUE(bwd[0] && bwd[1] && bwd[2] && bwd[3]);
}

// ---------------------------------------------------------------------------
// Mini-C checks: positive and negative per pass
// ---------------------------------------------------------------------------

TEST(UseBeforeInit, FlagsAReadOfAnUnassignedLocal) {
  check_c_fixture(
      "int main() {\n"
      "  int x;\n"
      "  return x;  // expect: use-before-init@3\n"
      "}\n");
}

TEST(UseBeforeInit, FlagsAMaybePathAndSaysMaybe) {
  const std::string src =
      "int f(int a) {\n"
      "  int x;\n"
      "  if (a) { x = 1; }\n"
      "  return x;  // expect: use-before-init@4\n"
      "}\n";
  check_c_fixture(src);
  const auto diags = analyze_program(cc::parse(src));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("may"), std::string::npos) << diags[0].message;
  EXPECT_EQ(diags[0].function, "f");
  EXPECT_EQ(diags[0].line, 4);
}

TEST(UseBeforeInit, ShortCircuitAssignmentIsPrecise) {
  // x is assigned exactly on the paths that reach the then-branch.
  check_c_fixture(
      "int f(int c) {\n"
      "  int x;\n"
      "  if (c && (x = 5)) { return x; }\n"
      "  return 0;\n"
      "}\n");
}

TEST(UseBeforeInit, ParamsAndInitializedLocalsAreClean) {
  check_c_fixture(
      "int f(int a) {\n"
      "  int x = a + 1;\n"
      "  return x;\n"
      "}\n");
}

TEST(DeadStore, FlagsAnOverwrittenInitializer) {
  const std::string src =
      "int main() {\n"
      "  int x = 1;  // expect: dead-store@2\n"
      "  x = 2;\n"
      "  return x;\n"
      "}\n";
  check_c_fixture(src);
  const auto diags = analyze_program(cc::parse(src));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("initial value"), std::string::npos);
}

TEST(DeadStore, FlagsAStoreNoReadObserves) {
  check_c_fixture(
      "int main(int a) {\n"
      "  int x = a;\n"
      "  if (a > 0) { x = 7; return 1; }  // expect: dead-store@3\n"
      "  return x;\n"
      "}\n");
}

TEST(DeadStore, LoopCarriedStoresAreLive) {
  check_c_fixture(
      "int main() {\n"
      "  int s = 0;\n"
      "  int i = 0;\n"
      "  while (i < 3) { s = s + i; i = i + 1; }\n"
      "  return s;\n"
      "}\n");
}

TEST(Unreachable, FlagsCodeAfterReturnOnce) {
  const std::string src =
      "int main() {\n"
      "  return 1;\n"
      "  return 2;  // expect: unreachable@3\n"
      "}\n";
  check_c_fixture(src);
}

TEST(Unreachable, ReachableBranchesAreClean) {
  check_c_fixture(
      "int f(int a) {\n"
      "  if (a) { return 1; } else { return 2; }\n"
      "}\n");
}

TEST(ConstantCondition, FlagsAFoldableCondition) {
  const std::string src =
      "int main(int a) {\n"
      "  if (2 > 1) { return a; }  // expect: constant-condition@2\n"
      "  return 0;\n"
      "}\n";
  check_c_fixture(src);
  const auto diags = analyze_program(cc::parse(src));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("always true"), std::string::npos);
}

TEST(ConstantCondition, VariableConditionsAreClean) {
  check_c_fixture(
      "int main(int a) {\n"
      "  while (a > 0) { a = a - 1; }\n"
      "  return a;\n"
      "}\n");
}

TEST(MissingReturn, FlagsAFallOffPathInAnIntFunction) {
  const std::string src =
      "int f(int a) {  // expect: missing-return@1\n"
      "  if (a) { return 1; }\n"
      "}\n";
  check_c_fixture(src);
  const auto diags = analyze_program(cc::parse(src));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 1);
}

TEST(MissingReturn, VoidFunctionsAndFullCoverageAreClean) {
  check_c_fixture(
      "void ping() { return; }\n"
      "int f(int a) {\n"
      "  if (a) { return 1; } else { return 2; }\n"
      "}\n");
}

// ---------------------------------------------------------------------------
// ISA checks: positive and negative per pass
// ---------------------------------------------------------------------------

TEST(StackBalance, FlagsARetWithALeftoverPushAtTheRightAddress) {
  const std::string src =
      "_start:\n"
      "    call leaky\n"
      "    hlt\n"
      "leaky:\n"
      "    pushl $1\n"
      "    ret\n"
      "# expect: stack-balance\n";
  check_isa_fixture(src);
  const isa::Image image = isa::assemble(src);
  const auto diags = lint_image(image);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].pass, "stack-balance");
  EXPECT_TRUE(diags[0].has_addr);
  EXPECT_EQ(diags[0].addr, image.symbol("leaky") + isa::kInstrBytes)
      << "the finding points at the ret instruction";
  EXPECT_EQ(diags[0].function, "leaky");
}

TEST(StackBalance, FlagsAMergeWhereBranchesDisagree) {
  check_isa_fixture(
      "branchy:\n"
      "    cmpl $0, %eax\n"
      "    je branchy_skip\n"
      "    pushl %eax\n"
      "branchy_skip:\n"
      "    popl %eax\n"
      "    ret\n"
      "# expect: stack-balance\n");
}

TEST(StackBalance, FramedRoutinesAndCleanLoopsPass) {
  check_isa_fixture(
      "_start:\n"
      "    pushl $9\n"
      "    call framed\n"
      "    hlt\n"
      "framed:\n"
      "    pushl %ebp\n"
      "    movl %esp, %ebp\n"
      "    pushl %ebx\n"
      "    movl 8(%ebp), %ebx\n"
      "    movl %ebx, %eax\n"
      "    popl %ebx\n"
      "    leave\n"
      "    ret\n");
}

TEST(UninitRegister, FlagsACalleeReadingAnUnwrittenRegister) {
  const std::string src =
      "_start:\n"
      "    call victim\n"
      "    hlt\n"
      "victim:\n"
      "    movl %ebx, %eax\n"
      "    ret\n"
      "# expect: uninit-register\n";
  check_isa_fixture(src);
  const isa::Image image = isa::assemble(src);
  const auto diags = lint_image(image);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].addr, image.symbol("victim"));
  EXPECT_NE(diags[0].message.find("%ebx"), std::string::npos);
}

TEST(UninitRegister, FlagsAMissingPrologue) {
  // 8(%ebp) without `movl %esp, %ebp` first: %ebp is the caller's.
  check_isa_fixture(
      "_start:\n"
      "    pushl $7\n"
      "    call no_prologue\n"
      "    hlt\n"
      "no_prologue:\n"
      "    movl 8(%ebp), %eax\n"
      "    ret\n"
      "# expect: uninit-register\n");
}

TEST(UninitRegister, EntryFragmentsAndZeroIdiomsAreClean) {
  // Un-jumped labels are entered with staged registers (maze floors);
  // xorl %r,%r defines without reading.
  check_isa_fixture(
      "fragment:\n"
      "    movl %eax, %ebx\n"
      "    xorl %ecx, %ecx\n"
      "    addl %ebx, %ecx\n"
      "    hlt\n");
}

TEST(CalleeSave, FlagsACallerRelyingOnAClobberedRegister) {
  const std::string src =
      "_start:\n"
      "    movl $5, %ebx\n"
      "    call clobber\n"
      "    movl %ebx, %eax\n"
      "    hlt\n"
      "clobber:\n"
      "    movl $9, %ebx\n"
      "    ret\n"
      "# expect: callee-save\n";
  check_isa_fixture(src);
  const isa::Image image = isa::assemble(src);
  const auto diags = lint_image(image);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].addr, image.symbol("_start") + 2 * isa::kInstrBytes);
}

TEST(CalleeSave, FlagsCallerSavedRegistersAcrossAnyCall) {
  check_isa_fixture(
      "_start:\n"
      "    movl $5, %ecx\n"
      "    call quiet\n"
      "    movl %ecx, %eax\n"
      "    hlt\n"
      "quiet:\n"
      "    ret\n"
      "# expect: callee-save\n");
}

TEST(CalleeSave, SaveIdiomAndTransitiveSavesAreClean) {
  // inner clobbers %ebx; middle saves it around its own call, so
  // calling middle is safe.
  check_isa_fixture(
      "_start:\n"
      "    movl $5, %ebx\n"
      "    call middle\n"
      "    movl %ebx, %eax\n"
      "    hlt\n"
      "middle:\n"
      "    pushl %ebx\n"
      "    call inner\n"
      "    popl %ebx\n"
      "    ret\n"
      "inner:\n"
      "    movl $9, %ebx\n"
      "    ret\n");
}

TEST(CalleeSave, TransitiveClobberPropagatesThroughWrappers) {
  // wrapper itself never writes %ebx but calls inner, which does.
  check_isa_fixture(
      "_start:\n"
      "    movl $5, %ebx\n"
      "    call wrapper\n"
      "    movl %ebx, %eax\n"
      "    hlt\n"
      "wrapper:\n"
      "    call inner\n"
      "    ret\n"
      "inner:\n"
      "    movl $9, %ebx\n"
      "    ret\n"
      "# expect: callee-save\n");
}

TEST(UnreachableBlock, FlagsCodeNoRootReaches) {
  const std::string src =
      "orphan_entry:\n"
      "    jmp orphan_end\n"
      "    movl $1, %eax\n"
      "    movl $2, %eax\n"
      "orphan_end:\n"
      "    hlt\n"
      "# expect: unreachable-block\n";
  check_isa_fixture(src);
  const isa::Image image = isa::assemble(src);
  const auto diags = lint_image(image);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].addr, image.symbol("orphan_entry") + isa::kInstrBytes);
  EXPECT_NE(diags[0].message.find("2 instruction(s)"), std::string::npos)
      << diags[0].message;
}

// ---------------------------------------------------------------------------
// Seeded-bug corpus: ten distinct bugs, every one caught where seeded.
// ---------------------------------------------------------------------------

TEST(SeededCorpus, EveryMiniCBugIsCaughtWithLineAttribution) {
  const std::vector<std::string> corpus = {
      // 1: straight use-before-init
      "int main() {\n"
      "  int x;\n"
      "  int y = x + 1;  // expect: use-before-init@3\n"
      "  return y;\n"
      "}\n",
      // 2: maybe-uninit through one arm of an if
      "int f(int a) {\n"
      "  int x;\n"
      "  if (a > 0) { x = a; }\n"
      "  return x;  // expect: use-before-init@4\n"
      "}\n",
      // 3: dead initializer
      "int main() {\n"
      "  int x = 41;  // expect: dead-store@2\n"
      "  x = 42;\n"
      "  return x;\n"
      "}\n",
      // 4: dead store on an early-return path
      "int f(int a) {\n"
      "  int x = a;\n"
      "  if (a) { x = 9; return a; }  // expect: dead-store@3\n"
      "  return x;\n"
      "}\n",
      // 5: unreachable tail
      "int main() {\n"
      "  return 0;\n"
      "  int x = 1;  // expect: unreachable@3\n"
      "  return x;\n"
      "}\n",
      // 6: constant condition (always false)\n
      "int main(int a) {\n"
      "  if (1 > 2) { return a; }  // expect: constant-condition@2\n"
      "  return 0;\n"
      "}\n",
      // 7: missing return
      "int f(int a) {  // expect: missing-return@1\n"
      "  if (a > 0) { return a; }\n"
      "}\n",
  };
  for (const std::string& src : corpus) check_c_fixture(src);
}

TEST(SeededCorpus, EveryIsaBugIsCaught) {
  const std::vector<std::string> corpus = {
      // 8: leftover push before ret
      "_start:\n"
      "    call leaky\n"
      "    hlt\n"
      "leaky:\n"
      "    pushl %ebp\n"
      "    movl %esp, %ebp\n"
      "    pushl $5\n"
      "    movl %ebp, %esp\n"  // manual teardown forgets the saved ebp
      "    ret\n"
      "# expect: stack-balance\n",
      // 9: pop on only one branch
      "branchy:\n"
      "    cmpl $1, %eax\n"
      "    pushl %eax\n"
      "    je branchy_done\n"
      "    popl %ebx\n"
      "branchy_done:\n"
      "    ret\n"
      "# expect: stack-balance\n",
      // 10: read of a never-written register in a called routine
      "_start:\n"
      "    call summer\n"
      "    hlt\n"
      "summer:\n"
      "    addl %edx, %eax\n"
      "    ret\n"
      "# expect: uninit-register\n"
      "# expect: uninit-register\n",  // both %edx and %eax are unwritten
      // 11: forgotten prologue
      "_start:\n"
      "    pushl $1\n"
      "    call f\n"
      "    hlt\n"
      "f:\n"
      "    movl 8(%ebp), %eax\n"
      "    ret\n"
      "# expect: uninit-register\n",
      // 12: caller relies on a clobbered callee-save register
      "_start:\n"
      "    movl $3, %esi\n"
      "    call smash\n"
      "    movl %esi, %eax\n"
      "    hlt\n"
      "smash:\n"
      "    movl $0, %esi\n"
      "    ret\n"
      "# expect: callee-save\n",
      // 13: dead code after an unconditional jump
      "top:\n"
      "    jmp bottom\n"
      "    movl $7, %eax\n"
      "bottom:\n"
      "    hlt\n"
      "# expect: unreachable-block\n",
  };
  for (const std::string& src : corpus) check_isa_fixture(src);
}

// ---------------------------------------------------------------------------
// Self-lint: every bundled artifact must come back clean.
// ---------------------------------------------------------------------------

TEST(SelfLint, AllLab4SamplesAreClean) {
  for (const isa::AsmSample& s : isa::lab4_samples()) {
    // Standalone routine...
    const auto alone = lint_image(isa::assemble(s.source));
    EXPECT_TRUE(alone.empty()) << s.name << ":\n" << render(alone);
    // ...and under a call harness, where the routine is a call target
    // and the strict cdecl boundary applies.
    const std::string harness =
        "_start:\n    pushl $2\n    pushl $4096\n    pushl $4096\n    call " + s.name +
        "\n    hlt\n" + s.source;
    const auto called = lint_image(isa::assemble(harness));
    EXPECT_TRUE(called.empty()) << s.name << " (called):\n" << render(called);
  }
}

TEST(SelfLint, MazeImagesAreClean) {
  for (const unsigned floors : {1u, 5u, 10u}) {
    const isa::Maze maze(floors);
    const auto diags = lint_image(maze.image());
    EXPECT_TRUE(diags.empty()) << floors << " floors:\n" << render(diags);
  }
}

const std::vector<std::string>& clean_mini_c_corpus() {
  static const std::vector<std::string> kCorpus = {
      "int main() { return 42; }\n",
      "int main() { int x = 1; return x; }\n",
      "int add(int a, int b) { return a + b; }\n"
      "int main() { return add(40, 2); }\n",
      "int fact(int n) {\n"
      "  if (n < 2) { return 1; }\n"
      "  return n * fact(n - 1);\n"
      "}\n"
      "int main() { return fact(5); }\n",
      "int main(int a) {\n"
      "  int s = 0;\n"
      "  int i = 0;\n"
      "  while (i < a) { s = s + i; i = i + 1; }\n"
      "  return s;\n"
      "}\n",
      "int sign(int x) {\n"
      "  if (x > 0) { return 1; } else { if (x < 0) { return 0 - 1; } else { return 0; } }\n"
      "}\n"
      "int main(int a) { return sign(a); }\n",
      "int popcount(int v) {\n"
      "  int n = 0;\n"
      "  while (v != 0) { n = n + (v & 1); v = v >> 1; }\n"
      "  return n;\n"
      "}\n"
      "int main(int a) { return popcount(a); }\n",
      "int both(int a, int b) { return a && b || !a; }\n"
      "int main(int a, int b) { return both(a, b); }\n",
  };
  return kCorpus;
}

TEST(SelfLint, CompiledMiniCFixturesAreCleanAtBothLevels) {
  for (const std::string& src : clean_mini_c_corpus()) {
    for (const bool optimize : {false, true}) {
      cc::PipelineOptions opts;
      opts.optimize = optimize;
      opts.werror = true;  // C-level findings would throw here
      const cc::PipelineResult result = cc::compile_pipeline(src, opts);
      EXPECT_TRUE(result.diagnostics.empty()) << src << render(result.diagnostics);
      const auto isa_diags = lint_image(result.image);
      EXPECT_TRUE(isa_diags.empty())
          << "(optimize=" << optimize << ")\n" << src << render(isa_diags) << result.assembly;
    }
  }
}

TEST(SelfLint, CompiledImagesWithEntryStubsAreClean) {
  const auto image = cc::compile_with_entry(
      "int main(int a, int b) {\n"
      "  int best = a;\n"
      "  if (b > a) { best = b; }\n"
      "  return best;\n"
      "}\n",
      {3, 9});
  const auto diags = lint_image(image);
  EXPECT_TRUE(diags.empty()) << render(diags);
}

// ---------------------------------------------------------------------------
// Diagnostic model
// ---------------------------------------------------------------------------

TEST(DiagnosticModel, StableOrderDedupAndRenderers) {
  Diagnostic a;
  a.pass = "dead-store";
  a.line = 4;
  a.function = "main";
  a.message = "m";
  Diagnostic b = a;
  b.line = 2;
  Diagnostic c;  // ISA-side
  c.pass = "stack-balance";
  c.addr = 0x1040;
  c.has_addr = true;
  c.function = "leaky";
  c.message = "off";
  std::vector<Diagnostic> diags = {a, c, b, a};  // duplicate `a`
  normalize(diags);
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_TRUE(diags[0].has_addr) << "address findings carry line 0, so they sort first";
  EXPECT_EQ(diags[1].line, 2);
  EXPECT_EQ(diags[2].line, 4);

  EXPECT_NE(diags[0].to_string().find("0x1040"), std::string::npos);
  const std::string json = render_json(diags);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"pass\":\"dead-store\""), std::string::npos);
  EXPECT_NE(json.find("\"addr\":\"0x1040\""), std::string::npos);
}

TEST(DiagnosticModel, ExpectationsParseAndVerify) {
  const auto exps = parse_expectations(
      "// expect: use-before-init@7\n# expect: callee-save\nint x; // no tag\n");
  ASSERT_EQ(exps.size(), 2u);
  EXPECT_EQ(exps[0].pass, "use-before-init");
  EXPECT_EQ(exps[0].line, 7);
  EXPECT_EQ(exps[1].pass, "callee-save");
  EXPECT_EQ(exps[1].line, 0);

  Diagnostic d;
  d.pass = "use-before-init";
  d.line = 7;
  d.message = "m";
  EXPECT_TRUE(verify_expected({d}, exps).size() == 1u)
      << "the wildcard callee-save expectation goes unclaimed";
  d.line = 8;
  EXPECT_EQ(verify_expected({d}, exps).size(), 3u)
      << "wrong line: unexpected diagnostic + two unclaimed expectations";
}

// ---------------------------------------------------------------------------
// Driver + debugger wiring
// ---------------------------------------------------------------------------

TEST(Driver, AnalyzeStageIsOnByDefaultAndWerrorThrows) {
  const std::string buggy = "int main() {\n  int x;\n  return x;\n}\n";
  const cc::PipelineResult result = cc::compile_pipeline(buggy);
  ASSERT_TRUE(has_pass(result.diagnostics, "use-before-init"));
  EXPECT_GT(result.image.instruction_count(), 0u) << "warnings do not block codegen";

  cc::PipelineOptions strict;
  strict.werror = true;
  try {
    (void)cc::compile_pipeline(buggy, strict);
    FAIL() << "werror must turn findings into errors";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("use-before-init"), std::string::npos) << e.what();
  }

  cc::PipelineOptions off;
  off.analyze = false;
  EXPECT_TRUE(cc::compile_pipeline(buggy, off).diagnostics.empty());
}

TEST(Debugger, LintCommandReportsAndCleanImageSaysSo) {
  const isa::Image buggy = isa::assemble(
      "_start:\n"
      "    call leaky\n"
      "    hlt\n"
      "leaky:\n"
      "    pushl %eax\n"
      "    ret\n");
  isa::Machine machine;
  machine.load(buggy);
  isa::Debugger dbg(machine);
  attach_lint(dbg, buggy);
  const std::string out = dbg.execute("lint");
  EXPECT_NE(out.find("stack-balance"), std::string::npos) << out;

  const isa::Image clean = isa::assemble(isa::sample("abs_value").source);
  isa::Machine machine2;
  machine2.load(clean);
  isa::Debugger dbg2(machine2);
  attach_lint(dbg2, clean);
  EXPECT_NE(dbg2.execute("lint").find("no findings"), std::string::npos);
  EXPECT_THROW((void)dbg2.execute("lint extra-arg"), Error);
}

}  // namespace
}  // namespace cs31::analyze
