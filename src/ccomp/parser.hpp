// Recursive-descent parser for mini-C with standard C precedence.
#pragma once

#include <string>

#include "ccomp/ast.hpp"
#include "ccomp/lexer.hpp"

namespace cs31::cc {

/// The parser's one depth budget. It charges one level per nested
/// statement (three for a `for`, which desugars into a block, a while
/// and its body block), per unary operator, parenthesis, call and
/// right-nested assignment, and one per operator on the left spine of
/// a binary chain (`1+1+…+1` nests to the left). What it charges bounds
/// the height of the AST, so no recursive AST pass — lint, optimizer,
/// codegen, or the destructors — recurses deeper than this.
inline constexpr int kMaxNestingDepth = 1000;

/// Parse a translation unit. Throws cs31::Error with line numbers on
/// syntax errors, duplicate function names, use of the unsupported
/// '/' and '%' operators (no idiv in the teaching ISA), or nesting past
/// kMaxNestingDepth.
[[nodiscard]] ProgramAst parse(const std::string& source);

}  // namespace cs31::cc
