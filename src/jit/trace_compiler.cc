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

// Evaluate a read/write position reference (restricted to variables and
// constants by the code generator).
Result<int64_t> EvalPos(Interpreter& in, const PosRef& pos) {
  switch (pos.kind) {
    case PosRef::Kind::kConst:
      return pos.const_i;
    case PosRef::Kind::kVar: {
      AVM_ASSIGN_OR_RETURN(ScalarValue s, in.GetScalar(pos.var));
      return s.AsI64();
    }
    case PosRef::Kind::kNone:
      break;
  }
  return Status::Internal("missing position reference");
}

// Mutable per-injection state shared by `run`/`applicable` closures.
struct RunState {
  std::vector<const void*> in_ptrs;
  std::vector<uint64_t> in_lens;
  std::vector<void*> out_ptrs;
  std::vector<uint64_t> out_lens;
  std::vector<int64_t> caps_i;
  std::vector<double> caps_f;
  std::vector<uint32_t> out_counts;
  std::vector<int64_t> out_scalars;
  // Scratch buffers for decompressed read windows / delta windows.
  std::vector<std::vector<uint8_t>> scratch;
  // Scratch buffers data writes land in before the bounds-checked publish
  // (so a failed call never leaves a partial destination write).
  std::vector<std::vector<uint8_t>> write_bufs;
  // Destination position per kDataWrite output (evaluated before the call).
  std::vector<int64_t> write_pos;
  // FOR references discovered while preparing inputs (by data name).
  std::unordered_map<std::string, int64_t> for_refs;
  // Output arrays pending publication.
  std::vector<ArrayPtr> out_arrays;
  std::vector<std::array<uint8_t, 8>> fold_bufs;
};

bool IsSelInput(const GeneratedTrace& meta, const std::string& name) {
  return std::find(meta.sel_inputs.begin(), meta.sel_inputs.end(), name) !=
         meta.sel_inputs.end();
}

}  // namespace

Result<CompileOutcome> CompileTrace(const dsl::Program& program,
                                    const ir::DepGraph& graph,
                                    const ir::Trace& trace,
                                    const analysis::TraceVerification& verified,
                                    const CodegenOptions& options,
                                    DiskTraceCache* disk) {
  CompileOutcome out;
  AVM_ASSIGN_OR_RETURN(
      out.trace.meta, GenerateTrace(program, graph, trace, verified, options));
  AVM_ASSIGN_OR_RETURN(void* fn,
                       CodeCache::Global().Get(out.trace.meta.source,
                                               out.trace.meta.symbol, disk,
                                               &out.origin));
  out.trace.fn = reinterpret_cast<TraceFn>(fn);
  return out;
}

interp::InjectedTrace MakeInjection(
    std::shared_ptr<const CompiledTrace> trace, uint32_t chunk_size) {
  auto state = std::make_shared<RunState>();
  const GeneratedTrace& meta = trace->meta;

  InjectedTrace inj;
  inj.name = meta.name;
  inj.anchor_stmt_id = meta.anchor_stmt_id;
  inj.covered_stmt_ids.insert(meta.covered_stmt_ids.begin(),
                              meta.covered_stmt_ids.end());

  inj.applicable = [trace](Interpreter& in) -> bool {
    const GeneratedTrace& meta = trace->meta;
    // Selection situation check: the trace was specialized for a specific
    // set of selection-carrying chunk inputs, and every carrier must share
    // ONE selection (the interpreter's CommonSelection rule).
    const ArrayValue* sel_carrier = nullptr;
    for (const auto& spec : meta.inputs) {
      switch (spec.kind) {
        case TraceInputSpec::Kind::kChunkVar: {
          // Produced by an earlier statement in the same iteration; if it is
          // missing the trace cannot run.
          Result<Value> v = in.GetVar(spec.name);
          if (!v.ok() || !v.value().is_array()) return false;
          const ArrayValue& a = *v.value().array;
          const bool expect_sel = IsSelInput(meta, spec.name);
          if (a.has_sel() != expect_sel) return false;
          if (expect_sel) {
            if (sel_carrier == nullptr) {
              sel_carrier = &a;
            } else if (sel_carrier->sel.Data() != a.sel.Data()) {
              if (sel_carrier->sel.count() != a.sel.count() ||
                  std::memcmp(sel_carrier->sel.Data(), a.sel.Data(),
                              sizeof(sel_t) * a.sel.count()) != 0) {
                return false;
              }
            }
          }
          break;
        }
        case TraceInputSpec::Kind::kDataRead:
        case TraceInputSpec::Kind::kForDeltas: {
          DataBinding* b = in.FindBinding(spec.name);
          if (b == nullptr) return false;
          auto pos = EvalPos(in, spec.pos);
          if (!pos.ok() || pos.value() < 0) return false;
          const uint64_t p = static_cast<uint64_t>(pos.value());
          if (p >= b->len) return false;
          if (spec.kind == TraceInputSpec::Kind::kForDeltas) {
            if (b->column == nullptr) return false;
            auto blk = b->column->BlockAt(b->col_offset + p);
            if (!blk.ok()) return false;
            if (blk.value().first->scheme != Scheme::kFor) return false;
            if (blk.value().first->bit_width > 32) return false;
          } else if (b->raw == nullptr && b->column == nullptr) {
            return false;
          }
          break;
        }
        case TraceInputSpec::Kind::kDataWhole: {
          DataBinding* b = in.FindBinding(spec.name);
          if (b == nullptr || b->raw == nullptr) return false;
          break;
        }
      }
    }
    for (const auto& spec : meta.outputs) {
      if (spec.kind == TraceOutputSpec::Kind::kDataWrite) {
        DataBinding* b = in.FindBinding(spec.name);
        if (b == nullptr || b->raw == nullptr || !b->writable) return false;
        auto pos = EvalPos(in, spec.pos);
        if (!pos.ok() || pos.value() < 0) return false;
      } else if (spec.kind == TraceOutputSpec::Kind::kDataScatter) {
        DataBinding* b = in.FindBinding(spec.name);
        if (b == nullptr || b->raw == nullptr || !b->writable) return false;
      }
    }
    return true;
  };

  inj.run = [trace, state, chunk_size](Interpreter& in) -> Status {
    const GeneratedTrace& meta = trace->meta;
    RunState& st = *state;
    st.in_ptrs.assign(meta.inputs.size(), nullptr);
    st.in_lens.assign(meta.inputs.size(), 0);
    st.out_ptrs.assign(meta.outputs.size(), nullptr);
    st.out_lens.assign(meta.outputs.size(), 0);
    st.out_counts.assign(meta.outputs.size(), 0);
    st.out_scalars.assign(meta.outputs.size(), 0);
    st.scratch.resize(meta.inputs.size());
    st.write_bufs.resize(meta.outputs.size());
    st.write_pos.assign(meta.outputs.size(), 0);
    st.for_refs.clear();
    st.out_arrays.assign(meta.outputs.size(), nullptr);
    st.fold_bufs.resize(meta.outputs.size());

    // Pass 1: determine n and the incoming selection. Everything up to the
    // compiled call must stay free of side effects: a kUnavailable return
    // here makes the interpreter fall back to vectorized interpretation of
    // this iteration (paper §III-C) instead of failing the query.
    uint32_t n = chunk_size;
    const sel_t* sel = nullptr;
    uint32_t sel_n = 0;
    ArrayPtr sel_owner;
    for (const auto& spec : meta.inputs) {
      switch (spec.kind) {
        case TraceInputSpec::Kind::kChunkVar: {
          AVM_ASSIGN_OR_RETURN(Value v, in.GetVar(spec.name));
          if (!v.is_array()) {
            return Status::TypeError(spec.name + " is not an array");
          }
          // A chunk input longer than the chunk window (e.g. a fan-out
          // vector from an expand in another domain) would be silently
          // truncated by the min below — fall back to interpretation
          // instead. Shorter inputs still clamp n (last partial chunk).
          if (v.array->len > chunk_size) {
            return Status::Unavailable(
                "chunk input exceeds the chunk window");
          }
          n = std::min(n, v.array->len);
          if (v.array->has_sel() && IsSelInput(meta, spec.name)) {
            sel = v.array->sel.Data();
            sel_n = v.array->sel.count();
            sel_owner = v.array;
          }
          break;
        }
        case TraceInputSpec::Kind::kDataRead: {
          DataBinding* b = in.FindBinding(spec.name);
          AVM_ASSIGN_OR_RETURN(int64_t pos, EvalPos(in, spec.pos));
          const uint64_t avail =
              b->len - std::min<uint64_t>(b->len, static_cast<uint64_t>(pos));
          n = std::min<uint32_t>(n, static_cast<uint32_t>(std::min<uint64_t>(
                                        avail, chunk_size)));
          break;
        }
        case TraceInputSpec::Kind::kForDeltas: {
          DataBinding* b = in.FindBinding(spec.name);
          AVM_ASSIGN_OR_RETURN(int64_t pos, EvalPos(in, spec.pos));
          AVM_ASSIGN_OR_RETURN(
              auto blk,
              b->column->BlockAt(b->col_offset + static_cast<uint64_t>(pos)));
          // Clamp to the block so one scheme covers the whole window.
          const uint32_t block_remaining = blk.first->count - blk.second;
          const uint64_t avail =
              std::min<uint64_t>(block_remaining,
                                 b->len - static_cast<uint64_t>(pos));
          n = std::min<uint32_t>(n, static_cast<uint32_t>(std::min<uint64_t>(
                                        avail, chunk_size)));
          break;
        }
        case TraceInputSpec::Kind::kDataWhole:
          break;
      }
    }
    if (!meta.sel_inputs.empty() && sel == nullptr) {
      return Status::Unavailable("expected selection is missing");
    }
    // Selection validity: every selected position must fall inside the
    // clamped window, or the compiled loops would read/write past it. An
    // out-of-window selection is not a miscompile — the iteration simply
    // falls back to interpretation (which then surfaces whatever length
    // mismatch the program has).
    for (uint32_t j = 0; j < sel_n; ++j) {
      if (sel[j] >= n) {
        return Status::Unavailable("selection exceeds the chunk window");
      }
    }

    // Pass 2: input pointers + element counts.
    for (size_t k = 0; k < meta.inputs.size(); ++k) {
      const auto& spec = meta.inputs[k];
      switch (spec.kind) {
        case TraceInputSpec::Kind::kChunkVar: {
          AVM_ASSIGN_OR_RETURN(Value v, in.GetVar(spec.name));
          st.in_ptrs[k] = v.array->vec.RawData();
          st.in_lens[k] = v.array->len;
          break;
        }
        case TraceInputSpec::Kind::kDataRead: {
          DataBinding* b = in.FindBinding(spec.name);
          AVM_ASSIGN_OR_RETURN(int64_t pos, EvalPos(in, spec.pos));
          const size_t w = TypeWidth(b->type);
          if (b->raw != nullptr) {
            st.in_ptrs[k] = static_cast<const uint8_t*>(b->raw) +
                            static_cast<uint64_t>(pos) * w;
          } else {
            st.scratch[k].resize(static_cast<size_t>(n) * w);
            AVM_RETURN_NOT_OK(b->column->Read(
                b->col_offset + static_cast<uint64_t>(pos), n,
                st.scratch[k].data()));
            st.in_ptrs[k] = st.scratch[k].data();
          }
          st.in_lens[k] = n;
          break;
        }
        case TraceInputSpec::Kind::kForDeltas: {
          DataBinding* b = in.FindBinding(spec.name);
          AVM_ASSIGN_OR_RETURN(int64_t pos, EvalPos(in, spec.pos));
          AVM_ASSIGN_OR_RETURN(
              auto blk,
              b->column->BlockAt(b->col_offset + static_cast<uint64_t>(pos)));
          st.scratch[k].resize(static_cast<size_t>(n) * sizeof(uint32_t));
          AVM_RETURN_NOT_OK(DecodeForDeltasRange32(
              *blk.first, blk.second, n,
              reinterpret_cast<uint32_t*>(st.scratch[k].data())));
          st.for_refs["__for_ref_" + spec.name] = blk.first->for_ref;
          st.in_ptrs[k] = st.scratch[k].data();
          st.in_lens[k] = n;
          break;
        }
        case TraceInputSpec::Kind::kDataWhole: {
          DataBinding* b = in.FindBinding(spec.name);
          st.in_ptrs[k] = b->raw;
          st.in_lens[k] = b->len;  // gather bounds checks test against this
          break;
        }
      }
    }

    // Captures.
    st.caps_i.clear();
    for (const auto& [name, type] : meta.captures_i) {
      auto ref = st.for_refs.find(name);
      if (ref != st.for_refs.end()) {
        st.caps_i.push_back(ref->second);
        continue;
      }
      AVM_ASSIGN_OR_RETURN(ScalarValue s, in.GetScalar(name));
      st.caps_i.push_back(s.AsI64());
    }
    st.caps_f.clear();
    for (const auto& [name, type] : meta.captures_f) {
      AVM_ASSIGN_OR_RETURN(ScalarValue s, in.GetScalar(name));
      st.caps_f.push_back(s.AsF64());
    }

    // Outputs.
    for (size_t k = 0; k < meta.outputs.size(); ++k) {
      const auto& spec = meta.outputs[k];
      switch (spec.kind) {
        case TraceOutputSpec::Kind::kArrayVar: {
          ArrayPtr arr = in.NewArray(spec.type, std::max(n, chunk_size));
          st.out_arrays[k] = arr;
          st.out_ptrs[k] = arr->vec.RawData();
          st.out_lens[k] = std::max(n, chunk_size);
          break;
        }
        case TraceOutputSpec::Kind::kDataWrite: {
          // Land in scratch; published after the call once the produced
          // count is known and bounds-checked (the count of a condensed
          // write only exists after the loop ran).
          DataBinding* b = in.FindBinding(spec.name);
          AVM_ASSIGN_OR_RETURN(int64_t pos, EvalPos(in, spec.pos));
          st.write_pos[k] = pos;
          st.write_bufs[k].resize(static_cast<size_t>(n) *
                                  TypeWidth(b->type));
          st.out_ptrs[k] = st.write_bufs[k].data();
          st.out_lens[k] = b->len;
          break;
        }
        case TraceOutputSpec::Kind::kDataScatter: {
          DataBinding* b = in.FindBinding(spec.name);
          st.out_ptrs[k] = b->raw;
          st.out_lens[k] = b->len;  // scatter bounds checks test this
          break;
        }
        case TraceOutputSpec::Kind::kFoldScalar:
          std::memset(st.fold_bufs[k].data(), 0, 8);
          st.out_ptrs[k] = st.fold_bufs[k].data();
          st.out_lens[k] = 1;
          break;
      }
    }

    TraceFault fault;
    TraceCallArgs args;
    args.in = st.in_ptrs.data();
    args.in_lens = st.in_lens.data();
    args.out = st.out_ptrs.data();
    args.out_lens = st.out_lens.data();
    args.ci = st.caps_i.data();
    args.cf = st.caps_f.data();
    args.n = n;
    args.sel = sel;
    args.sel_n = sel_n;
    args.out_counts = st.out_counts.data();
    args.scalars = st.out_scalars.data();
    args.fault = &fault;
    const int32_t rc = trace->fn(&args);
    switch (rc) {
      case kTraceOk:
        break;
      case kTraceGatherOutOfBounds:
        // Identical message to Interpreter::EvalGather's bounds check.
        return Status::OutOfRange(
            StrFormat("gather index %lld out of [0, %llu)",
                      (long long)fault.index,
                      (unsigned long long)fault.bound));
      case kTraceScatterOutOfBounds:
        // Identical message to Interpreter::EvalScatter's bounds check.
        return Status::OutOfRange(
            StrFormat("scatter index %lld out of [0, %llu)",
                      (long long)fault.index,
                      (unsigned long long)fault.bound));
      default:
        return Status::RuntimeError(
            StrFormat("compiled trace returned %d", rc));
    }

    // Publish results.
    for (size_t k = 0; k < meta.outputs.size(); ++k) {
      const auto& spec = meta.outputs[k];
      switch (spec.kind) {
        case TraceOutputSpec::Kind::kArrayVar: {
          ArrayPtr arr = st.out_arrays[k];
          if (spec.condensed) {
            arr->len = st.out_counts[k];
          } else {
            arr->len = n;
            if (spec.sel_dependent && sel != nullptr) {
              // Selection-dependent values republish the incoming
              // selection; positional values stay selection-free, exactly
              // as interpretation leaves them.
              arr->sel.Reset(std::max(sel_n, uint32_t{1}));
              std::memcpy(arr->sel.Data(), sel, sizeof(sel_t) * sel_n);
              arr->sel.set_count(sel_n);
              arr->sel.set_enabled(true);
            }
          }
          in.SetVar(spec.name, Value::A(arr));
          break;
        }
        case TraceOutputSpec::Kind::kDataWrite: {
          DataBinding* b = in.FindBinding(spec.name);
          const uint64_t pos = static_cast<uint64_t>(st.write_pos[k]);
          const uint64_t count = st.out_counts[k];
          if (pos + count > b->len) {
            // Identical message to Interpreter::EvalWrite's bounds check.
            return Status::OutOfRange(StrFormat(
                "write [%llu, %llu) past end of %s (%llu)",
                (unsigned long long)pos, (unsigned long long)(pos + count),
                spec.name.c_str(), (unsigned long long)b->len));
          }
          const size_t w = TypeWidth(b->type);
          std::memcpy(static_cast<uint8_t*>(b->raw) + pos * w,
                      st.write_bufs[k].data(), static_cast<size_t>(count) * w);
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
                    Value::S(ScalarValue::Load(spec.type,
                                               st.fold_bufs[k].data())));
          break;
      }
    }
    return Status::OK();
  };
  return inj;
}

}  // namespace avm::jit
