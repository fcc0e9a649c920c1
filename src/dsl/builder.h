// Convenience builders for common DSL program shapes, including the paper's
// Fig. 2 example. Front-ends (the relational layer, tests, examples) use
// these instead of hand-assembling ASTs. Every loop ends at `if i >=
// len(<first input>) then break`, the rows bound to that input, so one
// program runs unchanged over any input or morsel slice.
#pragma once

#include <string>
#include <vector>

#include "dsl/ast.h"

namespace avm::dsl {

/// The program of the paper's Figure 2:
///
///   mut i; mut k; i := 0; k := 0
///   loop
///     let input = read i some_data in
///     let a = map (\x -> 2*x) input in
///     let t = filter (\x -> x > 0) a in
///     let b = condense t
///     write v i a
///     write w k b
///     i := i + len(a)
///     k := k + len(b)
///     if i >= len(some_data) then break
///
/// Reads `some_data : i64`, writes doubled values to `v` and the positive
/// doubled values (condensed) to `w`.
Program MakeFigure2Program();

/// A scan→map→write pipeline: out[i] = f(src[i]) where f is the given
/// lambda over one variable.
Program MakeMapPipeline(TypeId type, ExprPtr lambda);

/// A scan→filter→condense→write pipeline with predicate `pred` (lambda).
Program MakeFilterPipeline(TypeId type, ExprPtr pred);

/// A scan→fold (sum) reduction of `src` into mutable `total`, written to
/// out[0].
Program MakeSumPipeline(TypeId type);

/// The paper's Section III-A normalization example as a pipeline:
/// out[i] = sqrt(a[i]^2 + b[i]^2).
Program MakeHypotPipeline();

}  // namespace avm::dsl
