// Code generation from mini-C to the kit's IA-32 subset (AT&T text that
// isa::assemble accepts) — the full vertical slice of CS 31: students
// write C, the compiler lowers it to the stack-frame discipline they
// traced by hand (pushl %ebp / movl %esp, %ebp / locals at negative
// %ebp offsets / cdecl argument passing), and the Machine executes it.
// Callers that also lint or optimize do so on the same AST first, so
// each body is parsed once (ccomp/driver.hpp, grader/toolchain.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ccomp/ast.hpp"
#include "common/error.hpp"
#include "isa/assembler.hpp"

namespace cs31::cc {

/// What generate() throws for semantic errors: undeclared/duplicate
/// variables, unknown functions, arity mismatches.
struct CodegenError : Error {
  using Error::Error;
};

/// Lower a parsed program to assembly text. Throws CodegenError.
[[nodiscard]] std::string generate(const ProgramAst& program);

/// Generate `program`, check that main takes `args.size()` parameters,
/// and assemble the text plus a `_start` stub that pushes `args` and
/// calls main — load it into any Machine to run the program under a
/// debugger or with memory tracing. The only code that writes the stub.
/// Throws cs31::Error, a codegen error winning over a missing main.
[[nodiscard]] isa::Image compile_with_entry(const ProgramAst& program,
                                            const std::vector<std::int32_t>& args);

/// compile_with_entry(parse(source), args).
[[nodiscard]] isa::Image compile_with_entry(const std::string& source,
                                            const std::vector<std::int32_t>& args);

/// Parse, optionally optimize, compile with the entry stub, run, and
/// return main's result — the "compile and run" loop of Lab 4.
[[nodiscard]] std::int32_t run_mini_c(const std::string& source,
                                      const std::vector<std::int32_t>& args = {},
                                      bool optimize_first = false);

}  // namespace cs31::cc
