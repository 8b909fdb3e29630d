// SPDX-License-Identifier: MIT
//
// Per-round process telemetry: a RoundObserver that samples the existing
// core/process.hpp hook stream (frontier size, reached count, round and
// cumulative transmissions, fault-layer delivered/dropped/blocked and
// energy) into a reusable in-memory buffer, and a shared JSONL sink that
// flushes one line per sampled round into `<stem>.rounds.jsonl`.
//
// The recorder rides the observer contract from PR 3: observers are out
// of band (results are independent of whether one is attached), so
// per-round telemetry can be switched on per trial without perturbing
// RNG streams or outputs. Campaign code attaches the recorder to the
// first `trials` trials of each job (configurable) and samples every
// `sample_every`-th round to bound volume on long runs.
//
// rounds.jsonl is telemetry, not a result artifact: jobs finish in
// worker order, so line order varies across runs/thread counts (each
// line is self-identifying via job/trial/round). The byte-identity CI
// contract covers the result sinks, which this file never touches.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "core/process.hpp"

namespace cobra::obs {

/// One sampled round (subset of RoundStats plus trial identity).
struct RoundSample {
  std::size_t round = 0;
  std::size_t active = 0;
  std::size_t reached = 0;
  std::uint64_t round_transmissions = 0;
  std::uint64_t total_transmissions = 0;
  std::uint64_t total_delivered = 0;
  std::uint64_t total_dropped = 0;
  std::uint64_t total_blocked = 0;
  double energy = 0.0;
  bool faulty = false;  ///< whether the fault fields are meaningful
};

/// Append-only shared sink for sampled rounds. Thread-safe: workers
/// flush a whole trial's buffer under one lock so lines from different
/// trials never interleave.
class RoundsSink {
 public:
  /// Opens `path` (truncating). Throws std::runtime_error on failure.
  explicit RoundsSink(const std::string& path);

  /// Writes one line per sample: {"job":J,"trial":T,"round":R,...}.
  void append_trial(std::size_t job, std::size_t trial,
                    const std::vector<RoundSample>& samples);

  std::uint64_t lines_written() const noexcept { return lines_; }

 private:
  std::mutex mutex_;
  std::ofstream out_;
  std::uint64_t lines_ = 0;
  std::string scratch_;  ///< reused line buffer (guarded by mutex_)
};

/// The observer: buffers every `sample_every`-th round (and always the
/// final round of the trial). Reuse one recorder per worker across
/// trials — the buffer's capacity persists, so steady-state recording
/// does not allocate once a trial of the campaign's round budget has been
/// seen. With a sink, the recorder streams trials 0, 1, ... of `job` into
/// it, in the order they ran: each reset appends the previous trial, and
/// finish() appends the last one.
class RoundRecorder final : public RoundObserver {
 public:
  explicit RoundRecorder(std::size_t sample_every = 1,
                         RoundsSink* sink = nullptr, std::size_t job = 0)
      : sample_every_(sample_every == 0 ? 1 : sample_every),
        sink_(sink),
        job_(job) {}

  void on_reset(const Process& process) override;
  void on_round(const Process& process, const RoundStats& stats) override;

  /// Appends the trial in progress to the sink (no-op without one).
  void finish();

  /// The trial's samples (round 0 snapshot included). The buffer stays
  /// valid until the next on_reset.
  const std::vector<RoundSample>& samples() const noexcept { return samples_; }

  /// Estimated buffer bytes for a given round budget — what --dry-run
  /// folds into the telemetry estimate.
  static std::uint64_t buffer_bytes(std::size_t round_limit,
                                    std::size_t sample_every) {
    const std::size_t every = sample_every == 0 ? 1 : sample_every;
    return (round_limit / every + 2) * sizeof(RoundSample);
  }

 private:
  std::size_t sample_every_;
  RoundsSink* sink_;
  std::size_t job_;
  std::size_t trial_ = 0;  ///< index of the next trial appended to sink_
  std::vector<RoundSample> samples_;
};

}  // namespace cobra::obs
