// A Session compiles on its own compiler thread while its queries keep
// interpreting, so a query that misses the code cache may finish before
// its traces land. A test that pins compiled execution on a Session first
// runs the query shape once, then waits here for the Session's compiles:
// the next query of the shape finds its machine code in the process's
// code cache and installs it at its first optimize pass, and a
// re-submission of the same query installs it before its first chunk.
#pragma once

#include <chrono>
#include <thread>

#include "engine/session.h"

namespace avm {

/// Blocks until `session`'s compiler thread has no compile queued or
/// running.
inline void WaitForCompiles(const engine::Session& session) {
  while (session.stats().compiles_pending > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace avm
