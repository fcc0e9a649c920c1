#include "jit/trace_compiler.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "util/string_util.h"

namespace avm::jit {

namespace {

using interp::ArrayPtr;
using interp::ArrayValue;
using interp::DataBinding;
using interp::InjectedTrace;
using interp::Interpreter;
using interp::ScalarValue;
using interp::Value;

// The position a read or write starts at: a scalar variable or a
// constant (the code generator allows nothing else). A position that
// cannot be evaluated, or is negative, makes the call decline, and
// interpretation reports the program's error.
Result<uint64_t> EvalPos(Interpreter& in, const PosRef& pos) {
  int64_t p = pos.const_i;
  if (pos.kind == PosRef::Kind::kVar) {
    Result<ScalarValue> s = in.GetScalar(pos.var);
    if (!s.ok()) return Status::Unavailable("position " + pos.var + " unset");
    p = s.value().AsI64();
  } else if (pos.kind != PosRef::Kind::kConst) {
    return Status::Unavailable("missing position reference");
  }
  if (p < 0) return Status::Unavailable("negative position");
  return static_cast<uint64_t>(p);
}

// Whether two selection carriers share one selection: the same buffer or
// equal contents (the interpreter's CommonSelection rule).
bool SameSelection(const ArrayValue& a, const ArrayValue& b) {
  return a.sel.Data() == b.sel.Data() ||
         (a.sel.count() == b.sel.count() &&
          std::memcmp(a.sel.Data(), b.sel.Data(),
                      sizeof(sel_t) * a.sel.count()) == 0);
}

// One input of the call frame: what a call's check pass resolved, reused
// by its pointer pass.
struct InputSlot {
  // Fixed by MakeInjection:
  bool sel_input = false;  ///< kChunkVar: one of the variant's sel_inputs
  int for_ref = -1;        ///< kForDeltas: its reference's slot in `ci`
  // Resolved per call:
  ArrayPtr array;                        ///< kChunkVar
  const DataBinding* binding = nullptr;  ///< data inputs
  uint64_t pos = 0;                      ///< kDataRead, kForDeltas
  const Block* block = nullptr;  ///< kForDeltas: the FOR block at `pos`
  uint32_t block_offset = 0;
  /// Decoded window (column reads) or FOR deltas.
  std::vector<uint8_t> scratch;
};

// One output of the call frame.
struct OutputSlot {
  const DataBinding* binding = nullptr;  ///< kDataWrite, kDataScatter
  uint64_t pos = 0;                      ///< kDataWrite
  /// kDataWrite: the trace writes here; the window is published after a
  /// bounds check, so a failed call leaves no partial destination write.
  std::vector<uint8_t> write_buf;
  ArrayPtr array;                 ///< kArrayVar, bound after the call
  std::array<uint8_t, 8> fold{};  ///< kFoldScalar
};

// Per-injection state. MakeInjection sizes every vector and points the
// call frame at them; a call only refills them.
struct RunState {
  std::vector<InputSlot> ins;
  std::vector<OutputSlot> outs;
  std::vector<const void*> in_ptrs;
  std::vector<uint64_t> in_lens;
  std::vector<void*> out_ptrs;
  std::vector<uint64_t> out_lens;
  std::vector<int64_t> caps_i;
  std::vector<double> caps_f;
  std::vector<uint32_t> out_counts;
  std::vector<int64_t> out_scalars;
  /// Slots of `caps_i` read from the environment (the others hold FOR
  /// references).
  std::vector<size_t> env_caps_i;
  TraceFault fault;
  TraceCallArgs args;
};

}  // namespace

Result<CompileOutcome> CompileTrace(
    const dsl::Program& program, const ir::DepGraph& graph,
    const ir::Trace& trace, const analysis::TraceVerification& verified,
    const CodegenOptions& options, const std::shared_ptr<DiskTraceCache>& disk,
    CompilerThread* compiler) {
  CompileOutcome out;
  AVM_ASSIGN_OR_RETURN(
      out.trace.meta, GenerateTrace(program, graph, trace, verified, options));
  AVM_ASSIGN_OR_RETURN(CodeRequest req,
                       CodeCache::Global().Request(out.trace.meta.source,
                                                   out.trace.meta.symbol,
                                                   disk, compiler));
  out.trace.fn = reinterpret_cast<TraceFn>(req.fn);
  out.pending = std::move(req.pending);
  out.origin = req.origin;
  return out;
}

interp::InjectedTrace MakeInjection(
    std::shared_ptr<const CompiledTrace> trace, uint32_t chunk_size) {
  const GeneratedTrace& meta = trace->meta;
  auto state = std::make_shared<RunState>();
  RunState& st = *state;
  st.ins.resize(meta.inputs.size());
  st.outs.resize(meta.outputs.size());
  st.in_ptrs.resize(meta.inputs.size());
  st.in_lens.resize(meta.inputs.size());
  st.out_ptrs.resize(meta.outputs.size());
  st.out_lens.resize(meta.outputs.size());
  st.out_counts.resize(meta.outputs.size());
  st.out_scalars.resize(meta.outputs.size());
  st.caps_i.resize(meta.captures_i.size());
  st.caps_f.resize(meta.captures_f.size());
  std::vector<bool> is_for_ref(meta.captures_i.size(), false);
  for (size_t k = 0; k < meta.inputs.size(); ++k) {
    const TraceInputSpec& spec = meta.inputs[k];
    InputSlot& slot = st.ins[k];
    if (spec.kind == TraceInputSpec::Kind::kChunkVar) {
      slot.sel_input = std::find(meta.sel_inputs.begin(),
                                 meta.sel_inputs.end(),
                                 spec.name) != meta.sel_inputs.end();
    } else if (spec.kind == TraceInputSpec::Kind::kForDeltas) {
      // The block's reference value reaches the trace as the integer
      // capture __for_ref_<name> (codegen.cc).
      const std::string ref = "__for_ref_" + spec.name;
      for (size_t j = 0; j < meta.captures_i.size(); ++j) {
        if (meta.captures_i[j].first != ref) continue;
        slot.for_ref = static_cast<int>(j);
        is_for_ref[j] = true;
      }
    }
  }
  for (size_t j = 0; j < meta.captures_i.size(); ++j) {
    if (!is_for_ref[j]) st.env_caps_i.push_back(j);
  }
  st.args.in = st.in_ptrs.data();
  st.args.in_lens = st.in_lens.data();
  st.args.out = st.out_ptrs.data();
  st.args.out_lens = st.out_lens.data();
  st.args.ci = st.caps_i.data();
  st.args.cf = st.caps_f.data();
  st.args.out_counts = st.out_counts.data();
  st.args.scalars = st.out_scalars.data();
  st.args.fault = &st.fault;

  InjectedTrace inj;
  inj.name = meta.name;
  inj.anchor_stmt_id = meta.anchor_stmt_id;
  inj.covered_stmt_ids.insert(meta.covered_stmt_ids.begin(),
                              meta.covered_stmt_ids.end());
  inj.run = [trace, state, chunk_size](Interpreter& in) -> Status {
    const GeneratedTrace& meta = trace->meta;
    RunState& st = *state;

    // Check pass: resolve every input and destination once, clamp the
    // window `n`, and decide whether the trace applies to this chunk.
    // Nothing here has a side effect: an Unavailable return makes the
    // interpreter run the covered statements instead (paper §III-C).
    uint32_t n = chunk_size;
    const ArrayValue* sel_carrier = nullptr;
    for (size_t k = 0; k < meta.inputs.size(); ++k) {
      const TraceInputSpec& spec = meta.inputs[k];
      InputSlot& slot = st.ins[k];
      if (spec.kind == TraceInputSpec::Kind::kChunkVar) {
        Result<Value> v = in.GetVar(spec.name);
        if (!v.ok() || !v.value().is_array()) {
          return Status::Unavailable(spec.name + " is not a chunk array");
        }
        slot.array = v.value().array;
        const ArrayValue& a = *slot.array;
        // The variant's selection situation: exactly its sel_inputs carry
        // a selection, and they all carry one shared selection.
        if (a.has_sel() != slot.sel_input) {
          return Status::Unavailable("selection situation differs");
        }
        if (slot.sel_input) {
          if (sel_carrier == nullptr) {
            sel_carrier = &a;
          } else if (!SameSelection(*sel_carrier, a)) {
            return Status::Unavailable("selections are not shared");
          }
        }
        // A chunk input longer than the chunk window (e.g. a fan-out
        // vector from an expand in another domain) would be silently
        // truncated by clamping `n`. Shorter inputs clamp it (last
        // partial chunk).
        if (a.len > chunk_size) {
          return Status::Unavailable("chunk input exceeds the chunk window");
        }
        n = std::min(n, a.len);
        continue;
      }
      slot.binding = in.FindBinding(spec.name);
      const DataBinding* b = slot.binding;
      if (spec.kind == TraceInputSpec::Kind::kDataWhole) {
        if (b == nullptr || b->raw == nullptr) {
          return Status::Unavailable(spec.name + " is not a raw array");
        }
        continue;
      }
      if (b == nullptr || (b->raw == nullptr && b->column == nullptr)) {
        return Status::Unavailable(spec.name + " is unbound");
      }
      AVM_ASSIGN_OR_RETURN(slot.pos, EvalPos(in, spec.pos));
      if (slot.pos >= b->len) {
        return Status::Unavailable("read of " + spec.name + " past its end");
      }
      uint64_t avail = b->len - slot.pos;
      if (spec.kind == TraceInputSpec::Kind::kForDeltas) {
        // The scheme the trace was specialized for, clamped to one block
        // so that it covers the whole window.
        if (b->column == nullptr) {
          return Status::Unavailable(spec.name + " is not a column");
        }
        Result<std::pair<const Block*, uint32_t>> blk =
            b->column->BlockAt(b->col_offset + slot.pos);
        if (!blk.ok() || blk.value().first->scheme != Scheme::kFor ||
            blk.value().first->bit_width > 32) {
          return Status::Unavailable(spec.name +
                                     " block is not FOR of <= 32 bits");
        }
        slot.block = blk.value().first;
        slot.block_offset = blk.value().second;
        avail = std::min<uint64_t>(avail,
                                   slot.block->count - slot.block_offset);
        if (slot.for_ref >= 0) st.caps_i[slot.for_ref] = slot.block->for_ref;
      }
      n = static_cast<uint32_t>(std::min<uint64_t>(n, avail));
    }
    for (size_t k = 0; k < meta.outputs.size(); ++k) {
      const TraceOutputSpec& spec = meta.outputs[k];
      if (spec.kind != TraceOutputSpec::Kind::kDataWrite &&
          spec.kind != TraceOutputSpec::Kind::kDataScatter) {
        continue;
      }
      OutputSlot& slot = st.outs[k];
      slot.binding = in.FindBinding(spec.name);
      const DataBinding* b = slot.binding;
      if (b == nullptr || b->raw == nullptr || !b->writable) {
        return Status::Unavailable(spec.name + " is not a writable array");
      }
      if (spec.kind == TraceOutputSpec::Kind::kDataWrite) {
        AVM_ASSIGN_OR_RETURN(slot.pos, EvalPos(in, spec.pos));
      }
    }
    const sel_t* sel = nullptr;
    uint32_t sel_n = 0;
    if (!meta.sel_inputs.empty()) {
      if (sel_carrier == nullptr) {
        return Status::Unavailable("expected selection is missing");
      }
      sel = sel_carrier->sel.Data();
      sel_n = sel_carrier->sel.count();
      // Every selected position must fall inside the clamped window, or
      // the compiled loops would read and write past it. Interpretation
      // then surfaces whatever length mismatch the program has.
      for (uint32_t j = 0; j < sel_n; ++j) {
        if (sel[j] >= n) {
          return Status::Unavailable("selection exceeds the chunk window");
        }
      }
    }

    // Captures.
    for (size_t j : st.env_caps_i) {
      AVM_ASSIGN_OR_RETURN(ScalarValue s,
                           in.GetScalar(meta.captures_i[j].first));
      st.caps_i[j] = s.AsI64();
    }
    for (size_t j = 0; j < meta.captures_f.size(); ++j) {
      AVM_ASSIGN_OR_RETURN(ScalarValue s,
                           in.GetScalar(meta.captures_f[j].first));
      st.caps_f[j] = s.AsF64();
    }

    // Pointer pass: input windows and output buffers.
    for (size_t k = 0; k < meta.inputs.size(); ++k) {
      InputSlot& slot = st.ins[k];
      switch (meta.inputs[k].kind) {
        case TraceInputSpec::Kind::kChunkVar:
          st.in_ptrs[k] = slot.array->vec.RawData();
          st.in_lens[k] = slot.array->len;
          break;
        case TraceInputSpec::Kind::kDataRead: {
          const DataBinding& b = *slot.binding;
          const size_t w = TypeWidth(b.type);
          if (b.raw != nullptr) {
            st.in_ptrs[k] = static_cast<const uint8_t*>(b.raw) + slot.pos * w;
          } else {
            slot.scratch.resize(static_cast<size_t>(n) * w);
            AVM_RETURN_NOT_OK(b.column->Read(b.col_offset + slot.pos, n,
                                             slot.scratch.data()));
            st.in_ptrs[k] = slot.scratch.data();
          }
          st.in_lens[k] = n;
          break;
        }
        case TraceInputSpec::Kind::kForDeltas:
          slot.scratch.resize(static_cast<size_t>(n) * sizeof(uint32_t));
          AVM_RETURN_NOT_OK(DecodeForDeltasRange32(
              *slot.block, slot.block_offset, n,
              reinterpret_cast<uint32_t*>(slot.scratch.data())));
          st.in_ptrs[k] = slot.scratch.data();
          st.in_lens[k] = n;
          break;
        case TraceInputSpec::Kind::kDataWhole:
          st.in_ptrs[k] = slot.binding->raw;
          st.in_lens[k] = slot.binding->len;  // gather bounds checks
          break;
      }
    }
    for (size_t k = 0; k < meta.outputs.size(); ++k) {
      const TraceOutputSpec& spec = meta.outputs[k];
      OutputSlot& slot = st.outs[k];
      switch (spec.kind) {
        case TraceOutputSpec::Kind::kArrayVar:
          slot.array = in.NewArray(spec.type, chunk_size);
          st.out_ptrs[k] = slot.array->vec.RawData();
          st.out_lens[k] = chunk_size;
          break;
        case TraceOutputSpec::Kind::kDataWrite:
          slot.write_buf.resize(static_cast<size_t>(n) *
                                TypeWidth(slot.binding->type));
          st.out_ptrs[k] = slot.write_buf.data();
          st.out_lens[k] = slot.binding->len;
          break;
        case TraceOutputSpec::Kind::kDataScatter:
          st.out_ptrs[k] = slot.binding->raw;
          st.out_lens[k] = slot.binding->len;  // scatter bounds checks
          break;
        case TraceOutputSpec::Kind::kFoldScalar:
          slot.fold.fill(0);
          st.out_ptrs[k] = slot.fold.data();
          st.out_lens[k] = 1;
          break;
      }
    }

    st.args.n = n;
    st.args.sel = sel;
    st.args.sel_n = sel_n;
    const int32_t rc = trace->fn(&st.args);
    switch (rc) {
      case kTraceOk:
        break;
      case kTraceGatherOutOfBounds:
        // Identical message to Interpreter::EvalGather's bounds check.
        return Status::OutOfRange(
            StrFormat("gather index %lld out of [0, %llu)",
                      (long long)st.fault.index,
                      (unsigned long long)st.fault.bound));
      case kTraceScatterOutOfBounds:
        // Identical message to Interpreter::EvalScatter's bounds check.
        return Status::OutOfRange(
            StrFormat("scatter index %lld out of [0, %llu)",
                      (long long)st.fault.index,
                      (unsigned long long)st.fault.bound));
      default:
        return Status::RuntimeError(
            StrFormat("compiled trace returned %d", rc));
    }

    // Publish results.
    for (size_t k = 0; k < meta.outputs.size(); ++k) {
      const TraceOutputSpec& spec = meta.outputs[k];
      OutputSlot& slot = st.outs[k];
      switch (spec.kind) {
        case TraceOutputSpec::Kind::kArrayVar: {
          ArrayValue& arr = *slot.array;
          if (spec.condensed) {
            arr.len = st.out_counts[k];
          } else {
            arr.len = n;
            if (spec.sel_dependent && sel != nullptr) {
              // Selection-dependent values republish the incoming
              // selection; positional values stay selection-free, exactly
              // as interpretation leaves them.
              arr.sel.Reset(std::max(sel_n, uint32_t{1}));
              std::memcpy(arr.sel.Data(), sel, sizeof(sel_t) * sel_n);
              arr.sel.set_count(sel_n);
              arr.sel.set_enabled(true);
            }
          }
          in.SetVar(spec.name, Value::A(slot.array));
          break;
        }
        case TraceOutputSpec::Kind::kDataWrite: {
          const DataBinding& b = *slot.binding;
          const uint64_t count = st.out_counts[k];
          if (slot.pos + count > b.len) {
            // Identical message to Interpreter::EvalWrite's bounds check.
            return Status::OutOfRange(StrFormat(
                "write [%llu, %llu) past end of %s (%llu)",
                (unsigned long long)slot.pos,
                (unsigned long long)(slot.pos + count), spec.name.c_str(),
                (unsigned long long)b.len));
          }
          const size_t w = TypeWidth(b.type);
          std::memcpy(static_cast<uint8_t*>(b.raw) + slot.pos * w,
                      slot.write_buf.data(), static_cast<size_t>(count) * w);
          if (!spec.result_var.empty()) {
            in.SetVar(spec.result_var,
                      Value::S(ScalarValue::I(st.out_scalars[k])));
          }
          break;
        }
        case TraceOutputSpec::Kind::kDataScatter:
          if (!spec.result_var.empty()) {
            in.SetVar(spec.result_var,
                      Value::S(ScalarValue::I(st.out_scalars[k])));
          }
          break;
        case TraceOutputSpec::Kind::kFoldScalar:
          in.SetVar(spec.name,
                    Value::S(ScalarValue::Load(spec.type, slot.fold.data())));
          break;
      }
    }
    return Status::OK();
  };
  return inj;
}

}  // namespace avm::jit
