// Ablation — the mini-C optimizer: static instruction counts and
// dynamic instructions executed, with and without optimization, over
// representative programs (the course's "different equivalent assembly
// sequences" efficiency discussion, made measurable).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "ccomp/codegen.hpp"
#include "ccomp/optimizer.hpp"
#include "ccomp/parser.hpp"
#include "isa/machine.hpp"

namespace {

using namespace cs31;

struct Case {
  const char* name;
  const char* source;
  std::vector<std::int32_t> args;
};

cc::ProgramAst parsed(const std::string& source, bool optimize) {
  cc::ProgramAst program = cc::parse(source);
  if (optimize) cc::optimize(program);
  return program;
}

std::size_t static_count(const std::string& source, bool optimize) {
  return isa::assemble(cc::generate(parsed(source, optimize))).instruction_count();
}

std::size_t dynamic_count(const std::string& source, const std::vector<std::int32_t>& args,
                          bool optimize) {
  isa::Machine machine;
  machine.load(cc::compile_with_entry(parsed(source, optimize), args));
  machine.run(5'000'000);
  return machine.instructions_executed();
}

}  // namespace

int main(int argc, char** argv) {
  cs31::bench::JsonReport json("ablation_ccopt", argc, argv);
  json.workload("mini-C optimizer on/off: static and executed instruction counts");
  json.config("programs", 4);
  std::printf("==============================================================\n");
  std::printf("Ablation: mini-C optimizer (fold + strength-reduce + dead code)\n");
  std::printf("==============================================================\n\n");
  const Case cases[] = {
      {"constant-heavy",
       "int main(int x) { return (2 + 3 * 4) * (10 - 6) + x * (1 + 1) * 0 + x; }",
       {9}},
      {"scaled loop",
       "int main(int n) { int s = 0; for (int i = 0; i < n * 16; i = i + 1) "
       "{ s = s + i * 4; } return s; }",
       {8}},
      {"dead branches",
       "int main(int x) { if (1 < 2) { x = x + 1; } else { x = x * 99; } "
       "while (0) { x = 0; } return x * 8; }",
       {5}},
      {"recursion (little to fold)",
       "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); } "
       "int main() { return fib(12); }",
       {}},
  };
  std::printf("%-28s %12s %12s %14s %14s %8s\n", "program", "static -O0", "static -O1",
              "executed -O0", "executed -O1", "win");
  for (const Case& c : cases) {
    const std::size_t s0 = static_count(c.source, false);
    const std::size_t s1 = static_count(c.source, true);
    const std::size_t d0 = dynamic_count(c.source, c.args, false);
    const std::size_t d1 = dynamic_count(c.source, c.args, true);
    // Both versions must agree on the answer, or the "win" is a bug.
    const std::int32_t r0 = cc::run_mini_c(c.source, c.args, false);
    const std::int32_t r1 = cc::run_mini_c(c.source, c.args, true);
    std::printf("%-28s %12zu %12zu %14zu %14zu %7.2fx%s\n", c.name, s0, s1, d0, d1,
                static_cast<double>(d0) / static_cast<double>(d1),
                r0 == r1 ? "" : "  MISMATCH!");
    std::string key = c.name;
    for (char& ch : key) {
      if (ch == ' ' || ch == '(' || ch == ')') ch = '_';
    }
    json.metric(key + "_dynamic_win", static_cast<double>(d0) / static_cast<double>(d1));
    json.metric(key + "_results_agree", r0 == r1);
  }
  std::printf("\nshape: constant-heavy code shrinks the most; recursion barely\n"
              "changes (nothing to fold) — optimizations pay where the course\n"
              "says they do, in straight-line arithmetic.\n");
  return 0;
}
