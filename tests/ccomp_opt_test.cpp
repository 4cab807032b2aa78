// Optimizer tests: specific rewrites, side-effect safety, dead-branch
// elimination, instruction-count wins, and — the decisive check — the
// differential property that optimized and unoptimized binaries agree
// on random programs.
#include <gtest/gtest.h>

#include "ccomp/codegen.hpp"
#include "ccomp/optimizer.hpp"
#include "ccomp/parser.hpp"
#include "isa/machine.hpp"

namespace cs31::cc {
namespace {

std::size_t optimize_source(const std::string& source, ProgramAst* out = nullptr) {
  ProgramAst program = parse(source);
  const std::size_t n = optimize(program);
  if (out != nullptr) *out = std::move(program);
  return n;
}

const Expr& return_expr(const ProgramAst& p) {
  for (const Function& fn : p.functions) {
    if (fn.name == "main") {
      const Stmt& last = *fn.body.back();
      EXPECT_EQ(last.kind, Stmt::Kind::Return);
      return *last.expr;
    }
  }
  ADD_FAILURE() << "no main";
  return *p.functions[0].body.back()->expr;
}

TEST(Optimizer, FoldsConstantArithmetic) {
  ProgramAst p;
  EXPECT_GT(optimize_source("int main() { return 2 + 3 * 4; }", &p), 0u);
  EXPECT_EQ(return_expr(p).kind, Expr::Kind::IntLit);
  EXPECT_EQ(return_expr(p).value, 14);
}

TEST(Optimizer, FoldsNestedAndUnary) {
  ProgramAst p;
  optimize_source("int main() { return -(1 + 2) * (3 - 5) + !0; }", &p);
  EXPECT_EQ(return_expr(p).kind, Expr::Kind::IntLit);
  EXPECT_EQ(return_expr(p).value, 7);
}

TEST(Optimizer, AlgebraicIdentities) {
  ProgramAst p;
  optimize_source("int main(int x) { return (x + 0) * 1 - 0; }", &p);
  EXPECT_EQ(return_expr(p).kind, Expr::Kind::Var) << "whole chain collapsed to x";
}

TEST(Optimizer, StrengthReducesPowerOfTwoMultiply) {
  ProgramAst p;
  optimize_source("int main(int x) { return x * 8; }", &p);
  EXPECT_EQ(return_expr(p).kind, Expr::Kind::Binary);
  EXPECT_EQ(return_expr(p).bin_op, BinOp::Shl);
  EXPECT_EQ(return_expr(p).rhs->value, 3);
  // Commuted form too.
  ProgramAst q;
  optimize_source("int main(int x) { return 16 * x; }", &q);
  EXPECT_EQ(return_expr(q).bin_op, BinOp::Shl);
  EXPECT_EQ(return_expr(q).rhs->value, 4);
  // Non-powers stay multiplications.
  ProgramAst r;
  optimize_source("int main(int x) { return x * 6; }", &r);
  EXPECT_EQ(return_expr(r).bin_op, BinOp::Mul);
}

TEST(Optimizer, MulByZeroRespectsSideEffects) {
  // x = f() must still run even though the product is 0.
  ProgramAst p;
  optimize_source(
      "int f() { return 1; } int main(int x) { return f() * 0; }", &p);
  EXPECT_EQ(return_expr(p).kind, Expr::Kind::Binary) << "call kept";
  // Pure operand: folds away.
  ProgramAst q;
  optimize_source("int main(int x) { return (x + 1) * 0; }", &q);
  EXPECT_EQ(return_expr(q).kind, Expr::Kind::IntLit);
  EXPECT_EQ(return_expr(q).value, 0);
  // And the behaviour matches at runtime either way.
  EXPECT_EQ(run_mini_c("int f() { return 1; } int main() { return f() * 0; }", {}, true),
            0);
}

TEST(Optimizer, DeadBranchesEliminated) {
  ProgramAst p;
  EXPECT_GT(optimize_source(
                "int main() { if (1) return 4; else return 5; }", &p),
            0u);
  EXPECT_EQ(p.functions[0].body[0]->kind, Stmt::Kind::Return);
  ProgramAst q;
  optimize_source("int main() { while (0) { return 9; } return 3; }", &q);
  EXPECT_EQ(q.functions[0].body[0]->kind, Stmt::Kind::Block);
  EXPECT_TRUE(q.functions[0].body[0]->body.empty());
}

TEST(Optimizer, IdempotentAfterFixedPoint) {
  ProgramAst p = parse("int main(int x) { return (2 + 3) * x * 4 + (0 && x); }");
  EXPECT_GT(optimize(p), 0u);
  EXPECT_EQ(optimize(p), 0u) << "second run finds nothing";
}

TEST(Optimizer, ShrinksGeneratedCode) {
  const std::string source =
      "int main(int x) { return (10 * 10 + 5) * 1 + x * 32 + (3 < 4); }";
  const std::string plain = generate(parse(source));
  ProgramAst folded = parse(source);
  optimize(folded);
  const std::string optimized = generate(folded);
  const auto count_lines = [](const std::string& s) {
    return std::count(s.begin(), s.end(), '\n');
  };
  EXPECT_LT(count_lines(optimized), count_lines(plain));
  EXPECT_NE(optimized.find("shll"), std::string::npos) << "x * 32 became a shift";
}

TEST(Optimizer, OptimizedProgramsStillRunCorrectly) {
  const struct {
    const char* source;
    std::vector<std::int32_t> args;
    std::int32_t expected;
  } cases[] = {
      {"int main(int x) { return x * 8 + 2 * 3; }", {5}, 46},
      {"int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); } "
       "int main() { return fact(5 + 1); }",
       {}, 720},
      {"int main(int n) { int s = 0; for (int i = 0; i < n * 4; i = i + 1) "
       "s = s + 1; return s; }",
       {4}, 16},
      {"int main() { if (2 > 3) { return 1; } return 0 || 7; }", {}, 1},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(run_mini_c(c.source, c.args, true), c.expected) << c.source;
    EXPECT_EQ(run_mini_c(c.source, c.args, false), c.expected) << c.source;
  }
}

TEST(Optimizer, DifferentialAgainstUnoptimizedOnRandomPrograms) {
  // Reuse the fuzz generator idea in miniature: random arithmetic over
  // x with all operators, both pipelines must agree.
  std::uint32_t state = 99;
  auto rnd = [&](std::uint32_t mod) {
    state = state * 1664525u + 1013904223u;
    return (state >> 8) % mod;
  };
  static const char* kOps[] = {"+", "-", "*", "&", "|", "^", "<", ">=", "==", "&&", "||"};
  for (int trial = 0; trial < 60; ++trial) {
    std::string expr = "x";
    for (int i = 0; i < 5; ++i) {
      expr = "(" + expr + " " + kOps[rnd(11)] + " " +
             std::to_string(static_cast<std::int32_t>(rnd(64))) + ")";
    }
    const std::string source = "int main(int x) { return " + expr + "; }";
    const std::int32_t x = static_cast<std::int32_t>(rnd(200)) - 100;
    ASSERT_EQ(run_mini_c(source, {x}, false), run_mini_c(source, {x}, true))
        << source << " x=" << x;
  }
}

}  // namespace
}  // namespace cs31::cc
