#!/usr/bin/env bash
# Greps the named public headers for undocumented public symbols: every
# namespace-scope type, alias, enum, and free-function declaration (a
# column-0 declaration line) must be immediately preceded by a comment
# line ("///" contract comments by convention). Run from the repo root:
#
#   scripts/check_doc_comments.sh [header...]
#
# With no arguments it checks the headers whose contracts the docs
# (docs/TRACE_ABI.md, docs/TRACE_CACHE.md, docs/VERIFIER.md, docs/SPILL.md)
# rely on: exec_engine.h, adaptive_vm.h, trace_abi.h, codegen.h (code
# generation from verified traces only), trace_compiler.h, jit_backend.h,
# backend_cc.h, disk_cache.h, the analysis headers, memory_tracker.h and
# spill_file.h. CI fails the build on any finding.
set -u

headers=("$@")
if [ ${#headers[@]} -eq 0 ]; then
  headers=(
    src/engine/exec_engine.h
    src/vm/adaptive_vm.h
    src/jit/trace_abi.h
    src/jit/codegen.h
    src/jit/trace_compiler.h
    src/jit/jit_backend.h
    src/jit/backend_cc.h
    src/jit/disk_cache.h
    src/analysis/diagnostic.h
    src/analysis/verify_program.h
    src/analysis/verify_trace.h
    src/engine/memory_tracker.h
    src/storage/spill_file.h
  )
fi

fail=0
for h in "${headers[@]}"; do
  if [ ! -f "$h" ]; then
    echo "check_doc_comments: missing header $h" >&2
    fail=1
    continue
  fi
  findings=$(awk '
    # A column-0 declaration start: type/alias/enum definitions (not
    # forward declarations) and free-function declarations/definitions.
    function is_decl(line) {
      if (line ~ /^(struct|class|enum( class)?|union) [A-Za-z_][A-Za-z0-9_]*( (final|:)[^;]*)? \{/) return 1
      if (line ~ /^using [A-Za-z_][A-Za-z0-9_]* =/) return 1
      if (line ~ /^[A-Za-z_][A-Za-z0-9_:<>,*& ]*[ *&][A-Za-z_][A-Za-z0-9_]*\(/) return 1
      return 0
    }
    {
      if (is_decl($0) && prev !~ /^[[:space:]]*\/\// && prev !~ /^#/) {
        printf "%s:%d: undocumented public symbol: %s\n", FILENAME, FNR, $0
      }
      # Strict adjacency: a blank line breaks the comment-decl association,
      # so a stray earlier comment cannot vouch for a later symbol.
      prev = $0
    }
  ' "$h")
  if [ -n "$findings" ]; then
    echo "$findings"
    fail=1
  fi
done

if [ $fail -ne 0 ]; then
  echo "check_doc_comments: add /// contract comments to the symbols above" >&2
  exit 1
fi
echo "check_doc_comments: OK (${headers[*]})"
