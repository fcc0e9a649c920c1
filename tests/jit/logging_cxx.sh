#!/bin/sh
# Compiler wrapper for tests: appends its arguments, as one line, to the
# file $LOGGING_CXX_LOG names, then runs the compiler $LOGGING_CXX (default
# c++) with them.
printf '%s\n' "$*" >> "${LOGGING_CXX_LOG:-/dev/null}"
exec "${LOGGING_CXX:-c++}" "$@"
