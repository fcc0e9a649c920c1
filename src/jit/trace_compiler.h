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
/// While the compile is queued, `trace.fn` is null and `pending` is the
/// source's CodeSlot, which holds the entry point once it lands.
struct CompileOutcome {
  CompiledTrace trace;
  std::shared_ptr<CodeSlot> pending;
  CodeOrigin origin;
};

/// Generate a verified trace (GenerateTrace: `verified` must be the clean
/// analysis::VerifyTrace result for `trace`), then request its machine
/// code from CodeCache::Global() by source: a source loaded before costs a
/// lookup; otherwise `disk` (when non-null) is probed before the compiler
/// runs, and receives the compiled artifact. The compile runs inline when
/// `compiler` is null and is queued on it otherwise (CodeCache::Request).
Result<CompileOutcome> CompileTrace(
    const dsl::Program& program, const ir::DepGraph& graph,
    const ir::Trace& trace, const analysis::TraceVerification& verified,
    const CodegenOptions& options, const std::shared_ptr<DiskTraceCache>& disk,
    CompilerThread* compiler = nullptr);

/// Build the interpreter injection over a compiled trace. Its `run` is the
/// one check of whether the trace runs on the current chunk. Each call:
///  - resolves every input and destination once and checks, before any
///    side effect, that the trace applies: every chunk input is an array
///    no longer than the chunk window that carries a selection exactly
///    when it is one of the variant's `sel_inputs`, and the carriers share
///    one selection; every data array is bound, every read position lies
///    in [0, end) and no write position is negative; every FOR input's
///    block is FOR with at most 32 bits; every gather base is a raw array
///    and every write or scatter destination a writable one; every
///    selected row lies inside the clamped window. A failed check returns
///    Unavailable, and the interpreter interprets the chunk instead
///    (paper §III-C);
///  - fills the call frame from what the check resolved: chunk variables,
///    data-read windows, FOR-compressed delta windows with their reference
///    values, whole-array gather bases, captured scalars, and the shared
///    selection as TraceCallArgs::sel (selection-specialized variants);
///  - allocates output buffers (data writes land in scratch and publish
///    after a bounds check) and calls the compiled function,
///  - translates a returned TraceFault into the exact OutOfRange status
///    the interpreter's own gather/scatter/write bounds checks raise,
///  - publishes escaping values, fold scalars, and the scalar state of
///    let-bound writes/scatters (cursor advances) into the environment.
/// See docs/TRACE_ABI.md for the full contract.
interp::InjectedTrace MakeInjection(
    std::shared_ptr<const CompiledTrace> trace, uint32_t chunk_size);

}  // namespace avm::jit
