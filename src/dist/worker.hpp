// SPDX-License-Identifier: MIT
//
// Campaign worker agent: connects to a coordinator, re-plans the campaign
// from the spec text shipped in the WELCOME frame, cross-checks the plan
// fingerprint (a stale binary whose planner diverged fails loudly instead
// of merging wrong results), then loops lease -> execute -> stream until
// the coordinator says SHUTDOWN. Jobs run through the exact code path
// run_campaign uses (build_campaign_graph + execute_campaign_job), so a
// result computed here serializes byte-identically to a local one.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace cobra::dist {

struct WorkerOptions {
  std::string host = "127.0.0.1";  ///< numeric IPv4 of the coordinator
  std::uint16_t port = 0;
  /// Size of the worker's one pool, on which a shard's jobs and the trials
  /// inside each job run in parallel (0 = serial). Result frames stream as
  /// jobs finish either way — every frame renews the lease.
  std::size_t threads = 0;
  /// Per-event log lines (welcome, leases, shard completions).
  std::ostream* log = nullptr;
};

struct WorkerResult {
  std::uint64_t worker_id = 0;       ///< assigned by the coordinator
  std::size_t shards_completed = 0;
  std::size_t jobs_executed = 0;
  std::string coordinator_build;     ///< from the WELCOME frame
};

/// Runs the worker loop until clean SHUTDOWN. Throws ProtocolError on
/// transport failure or handshake rejection, SpecError on a fingerprint
/// mismatch or a job error (after notifying the coordinator).
WorkerResult run_worker(const WorkerOptions& options);

}  // namespace cobra::dist
