// SPDX-License-Identifier: MIT
//
// Build provenance: git hash, compiler, and flags baked in at configure
// time (CMake passes them as compile definitions on build_info.cpp).
// Surfaced by `scenario_runner --version`, embedded in the distributed
// handshake, and stamped into journal header notes so a cross-machine
// campaign records exactly which binaries produced which frames.
#pragma once

#include <string>

namespace cobra {

/// Short git hash (plus "-dirty" when the tree had local edits at
/// configure time); "unknown" outside a git checkout.
std::string build_git_hash();

/// "<compiler-id> <version>", e.g. "GNU 13.2.0".
std::string build_compiler();

/// Build type plus the effective CXX flags, e.g. "Release -O3 -DNDEBUG".
std::string build_flags();

/// One-line summary "git=<hash> compiler=<id ver> flags=<...>" — the form
/// used by --version, the handshake, and journal notes.
std::string build_info_string();

/// The host block every committed BENCH_*.json opens with, as one JSON
/// object: {"nproc": N, "cpu_model": "...", "build_info": "..."}.
std::string host_json();

}  // namespace cobra
