// SPDX-License-Identifier: MIT
#include "obs/rounds.hpp"

#include <cstdio>
#include <stdexcept>

namespace cobra::obs {

RoundsSink::RoundsSink(const std::string& path)
    : out_(path, std::ios::trunc) {
  if (!out_) {
    throw std::runtime_error("cannot open rounds sink '" + path +
                             "' for writing");
  }
}

void RoundsSink::append_trial(std::size_t job, std::size_t trial,
                              const std::vector<RoundSample>& samples) {
  std::lock_guard lock(mutex_);
  char buf[384];
  for (const RoundSample& s : samples) {
    scratch_.clear();
    std::snprintf(buf, sizeof buf,
                  "{\"job\":%zu,\"trial\":%zu,\"round\":%zu,\"active\":%zu,"
                  "\"reached\":%zu,\"round_tx\":%llu,\"tx\":%llu",
                  job, trial, s.round, s.active, s.reached,
                  static_cast<unsigned long long>(s.round_transmissions),
                  static_cast<unsigned long long>(s.total_transmissions));
    scratch_ += buf;
    if (s.faulty) {
      std::snprintf(buf, sizeof buf,
                    ",\"delivered\":%llu,\"dropped\":%llu,\"blocked\":%llu,"
                    "\"energy\":%.6g",
                    static_cast<unsigned long long>(s.total_delivered),
                    static_cast<unsigned long long>(s.total_dropped),
                    static_cast<unsigned long long>(s.total_blocked),
                    s.energy);
      scratch_ += buf;
    }
    scratch_ += "}\n";
    out_ << scratch_;
    ++lines_;
  }
  out_.flush();
}

void RoundRecorder::finish() {
  if (sink_ == nullptr || samples_.empty()) return;
  sink_->append_trial(job_, trial_++, samples_);
  samples_.clear();
}

void RoundRecorder::on_reset(const Process& process) {
  finish();
  samples_.clear();
  RoundSample s;
  s.round = 0;
  s.active = process.active_count();
  s.reached = process.reached_count();
  s.faulty = process.fault_session() != nullptr;
  samples_.push_back(s);
}

void RoundRecorder::on_round(const Process& process, const RoundStats& stats) {
  // Sample every k-th round, plus the terminal round (so short trials and
  // the endpoint of long ones are always visible).
  if (stats.round % sample_every_ != 0 && !process.done()) return;
  RoundSample s;
  s.round = stats.round;
  s.active = stats.active;
  s.reached = stats.reached;
  s.round_transmissions = stats.round_transmissions;
  s.total_transmissions = stats.total_transmissions;
  s.total_delivered = stats.total_delivered;
  s.total_dropped = stats.total_dropped;
  s.total_blocked = stats.total_blocked;
  s.energy = stats.energy;
  s.faulty = process.fault_session() != nullptr;
  samples_.push_back(s);
}

}  // namespace cobra::obs
