#!/bin/sh
# Compiler wrapper for tests: sleeps, then runs the compiler $SLOW_CXX
# (default c++) with its arguments. The sleep is $SLOW_CXX_MS milliseconds
# when that is set, else 0-300 ms derived from $SLOW_CXX_SEED (default 0)
# and the names of the files the compile reads and writes, so a seed
# delays the compiles of a run alike each time it is repeated.
ms=${SLOW_CXX_MS:-}
if [ -z "$ms" ]; then
  names=$(printf '%s\n' "$@" | sed 's|.*/||' | tr '\n' ' ')
  sum=$(printf '%s %s' "${SLOW_CXX_SEED:-0}" "$names" | cksum | cut -d ' ' -f 1)
  ms=$((sum % 301))
fi
sleep "$((ms / 1000)).$(printf '%03d' $((ms % 1000)))"
exec "${SLOW_CXX:-c++}" "$@"
