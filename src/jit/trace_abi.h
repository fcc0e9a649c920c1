// The compiled-trace ABI: the C-layout contract between the VM's code
// generator and every JIT-compiled trace function.
//
// This header is the canonical definition. The code generator embeds a
// textually identical copy of these structs into every generated
// translation unit (kPreamble in codegen.cc) — the generated code cannot
// #include this header because it is compiled standalone by the source JIT.
// Both sides are standard-layout structs built from fixed-width types, so
// identical definitions guarantee identical layout. KEEP THEM IN SYNC.
//
// The full semantic contract (selection-in semantics, scalar-state out,
// bounds/validity reporting, decline taxonomy) is documented in
// docs/TRACE_ABI.md.
#pragma once

#include <cstdint>

namespace avm::jit {

/// Version of the trace ABI. Part of the on-disk artifact version key
/// (jit::DiskTraceCache): bump it whenever the TraceCallArgs layout, the
/// TraceStatus contract, or the generated preamble changes shape, and every
/// persisted artifact compiled against the old contract silently invalidates
/// (is recompiled) instead of being called through a stale frame layout.
inline constexpr uint32_t kTraceAbiVersion = 2;

/// Status codes a compiled trace can return. Anything non-zero aborts the
/// call; the injection harness translates the fault into the exact Status
/// the vectorized interpreter would have produced for the same input.
enum TraceStatus : int32_t {
  /// Success: every output buffer and `out_counts`/`scalars` slot is valid.
  kTraceOk = 0,
  /// A gather index left `[0, in_lens[slot])`; details in TraceFault.
  kTraceGatherOutOfBounds = 1,
  /// A scatter index left `[0, out_lens[slot])`; details in TraceFault.
  kTraceScatterOutOfBounds = 2,
};

/// Bounds/validity report of a failed trace call: the offending index value
/// and the bound it violated. Written by the generated code immediately
/// before returning a non-zero TraceStatus, so the harness can reproduce
/// the interpreter's error message bit-for-bit.
struct TraceFault {
  int64_t index = 0;   ///< the out-of-range gather/scatter index
  uint64_t bound = 0;  ///< the exclusive upper bound it violated
};

/// Argument frame of one compiled-trace invocation (one chunk iteration).
///
/// Inputs (read-only for the trace):
///  - `in[k]` / `in_lens[k]`: one pointer per TraceInputSpec, plus its
///    element count. Chunk variables point at the chunk's vector data;
///    data reads point at the window starting at the read position; whole
///    arrays (gather bases) point at element 0 with `in_lens[k]` carrying
///    the full array length for the generated bounds check.
///  - `ci` / `cf`: captured environment scalars (ints widened to int64,
///    floats to double), in GeneratedTrace::captures_i/_f order.
///  - `n`: physical rows of this chunk window (after clamping every input
///    window); positional loops run `i` over `[0, n)`.
///  - `sel` / `sel_n`: the incoming selection vector, present exactly when
///    the trace was specialized with non-empty sel_inputs (the harness
///    guarantees every entry is < `n`). Selection-dependent work iterates
///    `i = sel[j]` for `j` in `[0, sel_n)`; purely positional work still
///    covers all of `[0, n)`.
///
/// Outputs (written by the trace):
///  - `out[k]` / `out_lens[k]`: one pointer per TraceOutputSpec. Escaping
///    chunk values and data writes are scratch buffers owned by the
///    harness (data writes are published only after a bounds check, so a
///    failed call never leaves a partial destination write); scatter
///    destinations point directly at the bound array with `out_lens[k]`
///    carrying its length for the generated bounds check — a call that
///    faults mid-chunk can leave the rows before the stray index already
///    combined into the destination (the interpreter pre-validates all
///    indices instead), observable only on a query that fails anyway.
///  - `out_counts[k]`: tuples produced into `out[k]` (condensed outputs
///    report the append count, positional outputs report `n`).
///  - `scalars[k]`: updated scalar state, parallel to the outputs: the
///    tuple count a let-bound write/scatter returns (the condensing-output
///    cursor advance reads this). Slots of outputs without scalar results
///    stay untouched.
///  - `fault`: bounds/validity report, written before a non-zero return.
struct TraceCallArgs {
  const void* const* in = nullptr;
  const uint64_t* in_lens = nullptr;
  void* const* out = nullptr;
  const uint64_t* out_lens = nullptr;
  const int64_t* ci = nullptr;
  const double* cf = nullptr;
  uint32_t n = 0;
  const uint32_t* sel = nullptr;
  uint32_t sel_n = 0;
  uint32_t* out_counts = nullptr;
  int64_t* scalars = nullptr;
  TraceFault* fault = nullptr;
};

/// Entry point of every generated trace function: takes one call frame,
/// returns a TraceStatus.
using TraceFn = int32_t (*)(const TraceCallArgs*);

}  // namespace avm::jit
