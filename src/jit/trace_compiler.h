// Turns generated traces into runnable injections for the interpreter —
// the "Generate code" → "Inject functions" edges of the Fig. 1 state machine.
#pragma once

#include <memory>

#include "interp/interpreter.h"
#include "jit/codegen.h"
#include "jit/disk_cache.h"
#include "jit/jit_backend.h"

namespace avm::jit {

/// A fully compiled trace: generation metadata plus the machine-code entry.
/// Immutable once compiled; TraceCache hands it out as
/// shared_ptr<const CompiledTrace>.
struct CompiledTrace {
  GeneratedTrace meta;
  TraceFn fn = nullptr;
};

/// Result of one compile-or-load: the trace plus where it came from and
/// what it cost (the VM's per-query observability counters).
struct CompileOutcome {
  CompiledTrace trace;
  bool from_disk = false;      ///< loaded from the persistent cache
  bool disk_probed = false;    ///< a persistent cache was consulted
  uint64_t disk_corrupt = 0;   ///< corrupt entries dropped while probing
  double compile_seconds = 0;  ///< backend wall time (0 on disk hit)
};

/// Generate a verified trace (GenerateTrace: `verified` must be the clean
/// analysis::VerifyTrace result for `trace`), then obtain its machine code
/// the cheapest honest way: consult `disk` (when non-null) for an artifact
/// of CcBackend::Global()'s version before invoking it; on a miss compile
/// and publish the artifact back to `disk`. `situation_key` keys the
/// persistent entry.
Result<CompileOutcome> CompileTrace(
    const dsl::Program& program, const ir::DepGraph& graph,
    const ir::Trace& trace, const analysis::TraceVerification& verified,
    const CodegenOptions& options,
    const std::shared_ptr<DiskTraceCache>& disk, uint64_t situation_key);

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
