// Parser for the DSL surface syntax (the paper's Fig. 2 style):
//
//   data some_data : i64
//   data v : i64 writable
//   mut i
//   i := 0
//   loop
//     let input = read i some_data in
//     let a = map (\x -> 2*x) input in
//     write v i a
//     i := i + len(a)
//     if i >= len(some_data) then
//       break
//
// Blocks are indentation-delimited (spaces; a tab counts as 8). `in` after a
// let binding is optional. Comments start with '#'.
#pragma once

#include <string>

#include "dsl/ast.h"
#include "util/status.h"

namespace avm::dsl {

/// Parse a full program. Errors carry line/column context.
Result<Program> ParseProgram(const std::string& source);

/// Parse a single expression (testing convenience).
Result<ExprPtr> ParseExpr(const std::string& source);

}  // namespace avm::dsl
