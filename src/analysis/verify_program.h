// Level-1 static verifier: whole-program well-formedness (docs/VERIFIER.md).
//
// VerifyProgram checks every lowered DSL program before the VM runs it:
// def-before-use over the statement scopes, single-assignment discipline
// (Assign only to MutDef names, Let never shadows), per-prim normalization
// and result-type agreement, and — when the caller supplies its binding
// table — bind-role consistency (no writes into read-only arrays, no reads
// of privatized accumulators, row-window scaling under join fan-out, no
// positional mixing of pre-/post-expand iteration domains). It is wired
// into QueryBuilder::Build (always on: a diagnostic fails the build) and
// the below-facade bench fixtures, so no built query reaches the
// interpreter unchecked.
//
// The program must be type-checked (dsl::TypeCheck) first: the prim rules
// normalize lambdas against the annotated argument types.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "dsl/ast.h"

namespace avm::analysis {

/// How the engine binds a program-level data array — the analysis-layer
/// mirror of engine::BindRole (analysis depends only on dsl/ir, so the
/// engine translates its roles into these when calling the verifier).
enum class BindingRole : uint8_t {
  kInput,          ///< read-only morsel-sliced column
  kShared,         ///< read-only whole array (dims, join tables, payloads)
  kOutput,         ///< writable whole array
  kAccumulator,    ///< privatized per-worker zeroed copy, merged after
  kPartialOutput,  ///< writable morsel-sliced row window
};

/// One engine binding the program's data arrays resolve against.
struct BindingInfo {
  std::string name;        ///< program data-array name
  BindingRole role = BindingRole::kShared;
  /// Rows of output window per input row (join fan-out; kPartialOutput).
  uint64_t row_scale = 1;
};

/// Verify a lowered program's intrinsic invariants (no binding table:
/// def-before-use, assignment discipline, prim normalization).
VerifyResult VerifyProgram(const dsl::Program& program);

/// Verify intrinsic invariants plus bind-role consistency against the
/// engine's binding table.
VerifyResult VerifyProgram(const dsl::Program& program,
                           const std::vector<BindingInfo>& bindings);

}  // namespace avm::analysis
