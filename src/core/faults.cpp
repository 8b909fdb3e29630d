// SPDX-License-Identifier: MIT
#include "core/faults.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/param_reader.hpp"

namespace cobra {

namespace {

void validate(const FaultOptions& o) {
  if (o.drop < 0.0 || o.drop > 1.0) {
    throw std::invalid_argument("[faults]: drop must be in [0, 1]");
  }
  if (o.churn < 0.0 || o.churn > 1.0) {
    throw std::invalid_argument("[faults]: churn must be in [0, 1]");
  }
  if (o.churn_period > 0 && o.churn_down > o.churn_period) {
    throw std::invalid_argument(
        "[faults]: churn_down must be <= churn_period");
  }
  if (o.churn_period == 0 && o.churn_down > 0) {
    throw std::invalid_argument(
        "[faults]: churn_down needs churn_period >= 1");
  }
  // Schedule slots are 32-bit sums of two values below the period.
  constexpr std::size_t kMaxPeriod = std::size_t{1} << 31;
  if (o.churn_period > kMaxPeriod || o.duty_period > kMaxPeriod) {
    throw std::invalid_argument(
        "[faults]: churn_period and the duty_cycle period must be <= 2^31");
  }
  if (o.duty_period > 0 && o.duty_awake > o.duty_period) {
    throw std::invalid_argument(
        "[faults]: duty_cycle awake rounds must be <= the period");
  }
  if (o.energy_tx < 0.0 || o.energy_rx < 0.0 || o.energy_idle < 0.0) {
    throw std::invalid_argument("[faults]: energy costs must be >= 0");
  }
}

}  // namespace

FaultModel::FaultModel(std::size_t num_vertices, FaultOptions options)
    : num_vertices_(num_vertices), options_(options) {
  validate(options_);
}

FaultSession::FaultSession(const FaultModel& model)
    : model_(&model),
      options_(&model.options()),
      drop_threshold_(drop_threshold(model.options().drop)),
      lossy_(drop_threshold_ != 0),
      state_(model.num_vertices(), kListening),
      tx_(model.num_vertices(), 0),
      rx_(model.num_vertices(), 0),
      missed_(model.num_vertices(), 0) {
  const FaultOptions& o = model.options();
  // A schedule that can never fire (churn_down = 0, a duty cycle with
  // A >= P) leaves every vertex up and awake, so it needs no pass.
  const unsigned schedules =
      (o.churn > 0.0 ? kRandomChurn : 0) |
      (o.churn_period > 0 && o.churn_down > 0 ? kPeriodicChurn : 0) |
      (o.duty_period > 0 && o.duty_awake < o.duty_period ? kDuty : 0);
  static constexpr Pass kPasses[8] = {
      nullptr, &FaultSession::schedule_pass<1>, &FaultSession::schedule_pass<2>,
      &FaultSession::schedule_pass<3>, &FaultSession::schedule_pass<4>,
      &FaultSession::schedule_pass<5>, &FaultSession::schedule_pass<6>,
      &FaultSession::schedule_pass<7>};
  pass_ = kPasses[schedules];
  if (schedules & kPeriodicChurn) phase_churn_.assign(state_.size(), 0);
  if (schedules & kDuty) phase_duty_.assign(state_.size(), 0);
}

void FaultSession::begin_trial(std::uint64_t entropy) {
  SplitMix64 sm(mix64(entropy, options_->seed));
  churn_base_ = sm.next();
  drop_base_ = sm.next();
  phase_key_ = sm.next();
  std::fill(tx_.begin(), tx_.end(), std::uint64_t{0});
  std::fill(rx_.begin(), rx_.end(), std::uint64_t{0});
  std::fill(missed_.begin(), missed_.end(), std::uint64_t{0});
  std::fill(state_.begin(), state_.end(), kListening);
  tx_total_ = delivered_ = dropped_ = blocked_ = 0;
  rounds_ = missed_total_ = 0;
  // Per-vertex schedule phases: a fresh deterministic offset per trial so
  // periodic schedules are desynchronized across vertices (and trials).
  // Only schedules that can fire keep phases.
  const auto draw_phases = [this](std::vector<std::uint32_t>& phases,
                                  std::uint64_t stream, std::uint64_t period) {
    const std::uint64_t key = mix64(phase_key_, stream);
    for (std::size_t v = 0; v < phases.size(); ++v) {
      phases[v] = static_cast<std::uint32_t>(mix64(key, v) % period);
    }
  };
  draw_phases(phase_churn_, 1, options_->churn_period);
  draw_phases(phase_duty_, 2, options_->duty_period);
}

std::uint64_t FaultSession::drop_threshold(double drop) noexcept {
  // drop * 2^53 is exact (a power-of-two scaling of a value in [0, 1]),
  // and for an integer x, x < D iff x < ceil(D).
  return static_cast<std::uint64_t>(std::ceil(drop * 0x1.0p53));
}

template <unsigned kSchedules>
void FaultSession::schedule_pass(std::size_t round) {
  constexpr bool kRandom = (kSchedules & kRandomChurn) != 0;
  constexpr bool kPeriodic = (kSchedules & kPeriodicChurn) != 0;
  constexpr bool kDutyCycle = (kSchedules & kDuty) != 0;
  // Options and array pointers live in locals: the byte stores to the
  // mask may alias anything, which would otherwise force reloads. The
  // periodic fields are 32-bit (validate() caps the periods at 2^31) and
  // the loop body is branch-free, so the compiler vectorises the periodic
  // passes.
  const FaultOptions& o = *options_;
  const std::uint64_t churn_key = kRandom ? mix64(churn_base_, round) : 0;
  // Down iff the churn hash drops at probability `churn`: the same
  // integer test as a channel drop.
  const std::uint64_t churn_threshold = kRandom ? drop_threshold(o.churn) : 0;
  const auto churn_period = static_cast<std::uint32_t>(o.churn_period);
  const auto churn_down = static_cast<std::uint32_t>(o.churn_down);
  const auto duty_period = static_cast<std::uint32_t>(o.duty_period);
  const auto duty_awake = static_cast<std::uint32_t>(o.duty_awake);
  // A vertex's slot in a periodic schedule is (round + phase) mod period.
  // Both terms are below the period, so one conditional subtract of the
  // per-round offset replaces the per-vertex modulo.
  const auto churn_offset =
      static_cast<std::uint32_t>(kPeriodic ? round % churn_period : 0);
  const auto duty_offset =
      static_cast<std::uint32_t>(kDutyCycle ? round % duty_period : 0);
  const std::uint32_t* phase_churn = phase_churn_.data();
  const std::uint32_t* phase_duty = phase_duty_.data();
  std::uint8_t* state = state_.data();
  std::uint64_t* missed = missed_.data();
  const std::size_t n = state_.size();
  std::uint64_t missed_round = 0;
  for (std::size_t v = 0; v < n; ++v) {
    std::uint32_t up = 1;
    if constexpr (kRandom) up = !drops(mix64(churn_key, v), churn_threshold);
    if constexpr (kPeriodic) {
      std::uint32_t slot = churn_offset + phase_churn[v];
      slot -= slot >= churn_period ? churn_period : 0;
      up &= slot >= churn_down;
    }
    std::uint32_t awake = 1;
    if constexpr (kDutyCycle) {
      std::uint32_t slot = duty_offset + phase_duty[v];
      slot -= slot >= duty_period ? duty_period : 0;
      awake = slot < duty_awake;
    }
    state[v] = static_cast<std::uint8_t>(up * kUp | awake * kAwake);
    const std::uint32_t deaf = 1 - (up & awake);
    missed[v] += deaf;
    missed_round += deaf;
  }
  missed_total_ += missed_round;
}

double FaultSession::vertex_energy(std::uint32_t v) const {
  const FaultOptions& o = *options_;
  return o.energy_tx * static_cast<double>(tx_[v]) +
         o.energy_rx * static_cast<double>(rx_[v]) +
         o.energy_idle * static_cast<double>(listen(v));
}

double FaultSession::total_energy() const {
  const FaultOptions& o = *options_;
  return o.energy_tx * static_cast<double>(tx_total_) +
         o.energy_rx * static_cast<double>(delivered_) +
         o.energy_idle * static_cast<double>(listen_total());
}

const std::vector<FaultParamSpec>& fault_param_specs() {
  static const std::vector<FaultParamSpec> kSpecs = {
      {"drop", "float in [0,1] (default 0) — per-message channel drop "
               "probability"},
      {"churn", "float in [0,1] (default 0) — per-(vertex, round) "
                "probability of being down (seeded-random churn)"},
      {"churn_period", "int (default 0 = off, at most 2^31) — periodic "
                       "churn: period length in rounds (per-vertex phase)"},
      {"churn_down", "int (default 0) — down rounds per churn_period"},
      {"duty_cycle", "A/P (default off) — each vertex receives only while "
                     "awake: A awake rounds per period of P <= 2^31 "
                     "(per-vertex phase); A=0 means never awake"},
      {"energy_tx", "float >= 0 (default 1) — energy units per "
                    "transmitted message"},
      {"energy_rx", "float >= 0 (default 0.5) — energy units per "
                    "delivered message"},
      {"energy_idle", "float >= 0 (default 0.1) — energy units per "
                      "up-and-awake listening round"},
      {"fault_seed", "int (default 0) — extra key mixed into every fault "
                     "decision stream"},
  };
  return kSpecs;
}

bool fault_has_param(std::string_view key) {
  for (const FaultParamSpec& spec : fault_param_specs()) {
    if (key == spec.key) return true;
  }
  return false;
}

FaultOptions parse_fault_options(
    const std::vector<std::pair<std::string, std::string>>& params) {
  ParamReader<std::invalid_argument> p(params, "[faults]");
  FaultOptions options;
  options.drop = p.get_double("drop", 0.0);
  options.churn = p.get_double("churn", 0.0);
  const std::int64_t churn_period = p.get_int("churn_period", 0);
  const std::int64_t churn_down = p.get_int("churn_down", 0);
  if (churn_period < 0 || churn_down < 0) {
    throw std::invalid_argument(
        "[faults]: churn_period/churn_down must be >= 0");
  }
  options.churn_period = static_cast<std::size_t>(churn_period);
  options.churn_down = static_cast<std::size_t>(churn_down);
  if (p.has("duty_cycle")) {
    // Compound "A/P": A awake rounds out of each period of P.
    const std::string text = p.get("duty_cycle", "");
    const std::size_t slash = text.find('/');
    std::int64_t awake = -1;
    std::int64_t period = -1;
    bool ok = slash != std::string::npos && slash > 0 &&
              slash + 1 < text.size();
    if (ok) {
      try {
        std::size_t used = 0;
        awake = std::stoll(text.substr(0, slash), &used);
        ok = used == slash;
        period = std::stoll(text.substr(slash + 1), &used);
        ok = ok && used == text.size() - slash - 1;
      } catch (const std::exception&) {
        ok = false;
      }
    }
    if (!ok || awake < 0 || period < 1) {
      throw std::invalid_argument(
          "[faults]: duty_cycle expects 'A/P' (awake rounds / period, "
          "period >= 1), got '" + text + "'");
    }
    options.duty_awake = static_cast<std::size_t>(awake);
    options.duty_period = static_cast<std::size_t>(period);
  }
  options.energy_tx = p.get_double("energy_tx", options.energy_tx);
  options.energy_rx = p.get_double("energy_rx", options.energy_rx);
  options.energy_idle = p.get_double("energy_idle", options.energy_idle);
  options.seed = static_cast<std::uint64_t>(p.get_int("fault_seed", 0));
  p.finish();
  validate(options);
  return options;
}

std::uint64_t fault_session_bytes(std::uint64_t num_vertices) {
  // Three u64 counter arrays, one byte mask, two u32 phase arrays.
  return num_vertices * (3 * 8 + 1 + 2 * 4);
}

}  // namespace cobra
