// Turns generated traces into runnable injections for the interpreter —
// the "Generate code" → "Inject functions" edges of the Fig. 1 state machine.
#pragma once

#include <memory>

#include "interp/interpreter.h"
#include "jit/code_cache.h"
#include "jit/codegen.h"

namespace avm::jit {

/// A fully compiled trace: generation metadata plus the machine-code entry.
/// Immutable once compiled; a query's vm::TracePlan hands it to every
/// morsel VM of the trace's program as shared_ptr<const CompiledTrace>.
/// Its metadata (statement ids, binding names) belongs to that one
/// program; only the entry point is shared across programs, through
/// CodeCache.
struct CompiledTrace {
  GeneratedTrace meta;
  TraceFn fn = nullptr;
};

/// Result of one compile-or-load: the trace plus where its machine code
/// came from and what it cost (the VM's per-query observability counters).
struct CompileOutcome {
  CompiledTrace trace;
  CodeOrigin origin;
};

/// Generate a verified trace (GenerateTrace: `verified` must be the clean
/// analysis::VerifyTrace result for `trace`), then take its machine code
/// from CodeCache::Global() by source: a source loaded before costs a
/// lookup; otherwise `disk` (when non-null) is probed before the compiler
/// runs, and receives the compiled artifact.
Result<CompileOutcome> CompileTrace(const dsl::Program& program,
                                    const ir::DepGraph& graph,
                                    const ir::Trace& trace,
                                    const analysis::TraceVerification& verified,
                                    const CodegenOptions& options,
                                    DiskTraceCache* disk);

/// Build the interpreter injection over a compiled trace. The injection:
///  - gathers input pointers + lengths (chunk variables, data-read windows,
///    FOR-compressed delta windows, whole-array gather bases),
///  - resolves captured scalars from the environment,
///  - passes the shared selection of the trace's selection-carrying inputs
///    as TraceCallArgs::sel (selection-specialized variants only),
///  - allocates output buffers (data writes land in scratch and publish
///    after a bounds check) and calls the compiled function,
///  - translates a returned TraceFault into the exact OutOfRange status
///    the interpreter's own gather/scatter/write bounds checks raise,
///  - publishes escaping values, fold scalars, and the scalar state of
///    let-bound writes/scatters (cursor advances) into the environment.
/// Its `applicable` check verifies positions are in range, compression
/// scheme requirements hold, and the runtime selection pattern matches the
/// variant's specialization; when it fails the interpreter transparently
/// falls back to vectorized interpretation (paper §III-C). See
/// docs/TRACE_ABI.md for the full contract.
interp::InjectedTrace MakeInjection(
    std::shared_ptr<const CompiledTrace> trace, uint32_t chunk_size);

}  // namespace avm::jit
