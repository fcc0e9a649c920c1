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
// the below-Session bench fixtures, so no built query reaches the
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

/// How the engine binds a program-level data array for a morsel-parallel
/// run (engine::BindRole is this enum).
enum class BindingRole : uint8_t {
  kInput,        ///< read-only, row-partitioned: worker w sees its slice
  kShared,       ///< read-only, replicated: every worker sees the whole array
  kOutput,       ///< writable, row-partitioned: worker w writes its slice
  kAccumulator,  ///< writable, privatized: zeroed per-task copy, summed after
  /// Writable, row-partitioned *window*: each morsel owns its slice but may
  /// write any data-dependent PREFIX of it (condensing writes). The engine
  /// does not stitch the prefixes together; the query's task hook records
  /// each morsel's written count and its finalize hook merges the runs at
  /// the barrier — this is how condensing/materializing pipelines (ORDER BY,
  /// row output) run morsel-parallel instead of falling back to serial.
  kPartialOutput,
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
