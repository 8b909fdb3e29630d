// SPDX-License-Identifier: MIT
//
// Fault-injection layer tests (core/faults.hpp):
//  (a) faults-off parity — attaching then detaching a fault model leaves
//      every registry process bitwise identical to never attaching one,
//  (b) the conservation invariant tx == delivered + dropped + blocked and
//      the energy identity, per process, under a mixed fault load,
//  (c) churn/duty edge cases: an always-down graph freezes every process
//      at its start state with zero transmissions, and a never-awake duty
//      cycle blocks every message while senders keep paying for them,
//  (d) campaign-level determinism: a faulty campaign's results are
//      identical at 1/2/8 worker threads, and a killed-and-resumed faulty
//      campaign reproduces the uninterrupted sinks byte-for-byte,
//  (e) [faults] spec validation (unknown keys, malformed values, swept
//      process names, schedule periods above 2^31) and the journal
//      payload round-trip,
//  (f) COBRA under faults: every frontier representation gives the same
//      faulty run, schedules that never fire match no schedule, and the
//      per-vertex listening counts sum to the total,
//  (g) drop decisions: the integer threshold test agrees with the
//      floating-point one at and around the threshold, the per-sender
//      keyed hash equals the two-step (round key, sender, index) hash, and
//      a drop probability of 1 loses every message of every process.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cobra.hpp"
#include "core/faults.hpp"
#include "core/process.hpp"
#include "core/process_factory.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "scenario/campaign.hpp"
#include "scenario/registry.hpp"
#include "scenario/sink.hpp"
#include "scenario/spec.hpp"

namespace cobra {
namespace {

using scenario::CampaignOptions;
using scenario::SpecError;

/// Every registry process, with a round budget small enough that even a
/// trial frozen solid by faults finishes the test quickly.
const std::vector<std::pair<std::string, std::string>> kBoundedRounds = {
    {"max_rounds", "2048"}};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

template <typename Fn>
void expect_spec_error(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected SpecError containing '" << needle << "'";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

// ---- (a) faults-off parity ----

TEST(Faults, AttachThenDetachIsBitwiseIdenticalToNeverAttached) {
  // Min degree >= 1 everywhere so bips/sis construct; expander keeps
  // every process short.
  Rng graph_rng(42);
  const Graph g = gen::connected_random_regular(64, 4, graph_rng);
  FaultOptions options;
  options.drop = 0.5;
  options.churn = 0.5;
  const FaultModel model(g.num_vertices(), options);
  for (const std::string& name : process_names()) {
    for (const std::uint64_t seed : {7ull, 12345ull}) {
      const auto baseline = make_process(g, name, kBoundedRounds);
      const SpreadResult expected = baseline->run(Rng(seed), 0);
      const auto detached = make_process(g, name, kBoundedRounds);
      detached->set_fault_model(&model);
      detached->set_fault_model(nullptr);  // restores the untouched path
      EXPECT_EQ(detached->run(Rng(seed), 0), expected) << name;
      EXPECT_EQ(detached->fault_session(), nullptr) << name;
    }
  }
}

// ---- (b) conservation + energy, per process ----

TEST(Faults, ConservationAndEnergyIdentityPerProcess) {
  Rng graph_rng(43);
  const Graph g = gen::connected_random_regular(48, 4, graph_rng);
  FaultOptions options;
  options.drop = 0.2;
  options.churn = 0.1;
  options.duty_period = 4;
  options.duty_awake = 3;
  options.energy_tx = 2.0;
  options.energy_rx = 0.75;
  options.energy_idle = 0.125;
  const FaultModel model(g.num_vertices(), options);
  for (const std::string& name : process_names()) {
    const auto process = make_process(g, name, kBoundedRounds);
    process->set_fault_model(&model);
    (void)process->run(Rng(99), 0);
    const FaultSession* fs = process->fault_session();
    ASSERT_NE(fs, nullptr) << name;
    EXPECT_EQ(fs->tx_total(), fs->delivered_total() + fs->dropped_total() +
                                  fs->blocked_total())
        << name;
    EXPECT_GT(fs->tx_total(), 0u) << name;
    const double expected_energy =
        options.energy_tx * static_cast<double>(fs->tx_total()) +
        options.energy_rx * static_cast<double>(fs->delivered_total()) +
        options.energy_idle * static_cast<double>(fs->listen_total());
    EXPECT_DOUBLE_EQ(fs->total_energy(), expected_energy) << name;
    // Per-vertex energies sum to the total (delivered == sum of rx).
    double vertex_sum = 0.0;
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      vertex_sum += fs->vertex_energy(v);
    }
    EXPECT_NEAR(vertex_sum, expected_energy,
                1e-9 * (1.0 + std::abs(expected_energy)))
        << name;
    // The SpreadResult mirrors the session's totals.
    const SpreadResult result = process->result();
    EXPECT_EQ(result.delivered, fs->delivered_total()) << name;
    EXPECT_EQ(result.dropped_channel, fs->dropped_total()) << name;
    EXPECT_EQ(result.blocked_receiver, fs->blocked_total()) << name;
    EXPECT_DOUBLE_EQ(result.energy, fs->total_energy()) << name;
  }
}

// ---- (c) churn / duty edge cases ----

TEST(Faults, AlwaysDownChurnFreezesEveryProcessAtItsStart) {
  const Graph g = gen::cycle(24);
  FaultOptions options;
  options.churn = 1.0;  // every vertex down every round
  const FaultModel model(g.num_vertices(), options);
  // Walk-style processes tolerate a down start vertex at round 0: the
  // token/particles simply wait (documented behaviour, satellite check).
  for (const char* name : {"cobra", "push", "flood", "walk",
                           "branching-walk", "push-pull", "pull"}) {
    const auto process = make_process(g, name, {{"max_rounds", "64"}});
    process->set_fault_model(&model);
    const SpreadResult result = process->run(Rng(5), 0);
    EXPECT_FALSE(result.completed) << name;
    EXPECT_EQ(process->reached_count(), 1u) << name;
    const FaultSession* fs = process->fault_session();
    EXPECT_EQ(fs->tx_total(), 0u) << name;  // down vertices never send
    EXPECT_EQ(fs->listen_total(), 0u) << name;  // ...nor idle-listen
    EXPECT_DOUBLE_EQ(fs->total_energy(), 0.0) << name;
  }
}

TEST(Faults, NeverAwakeDutyCycleBlocksEveryMessage) {
  const Graph g = gen::cycle(24);
  FaultOptions options;
  options.duty_period = 4;
  options.duty_awake = 0;  // the whole graph sleeps every round
  const FaultModel model(g.num_vertices(), options);
  for (const char* name : {"cobra", "push", "flood", "branching-walk"}) {
    const auto process = make_process(g, name, {{"max_rounds", "64"}});
    process->set_fault_model(&model);
    const SpreadResult result = process->run(Rng(6), 0);
    EXPECT_FALSE(result.completed) << name;
    EXPECT_EQ(process->reached_count(), 1u) << name;
    const FaultSession* fs = process->fault_session();
    EXPECT_GT(fs->tx_total(), 0u) << name;  // asleep vertices still send
    EXPECT_EQ(fs->delivered_total(), 0u) << name;
    EXPECT_EQ(fs->blocked_total(), fs->tx_total()) << name;
    EXPECT_EQ(fs->dropped_total(), 0u) << name;
  }
}

TEST(Faults, PeriodicChurnAndDutyCycleStillCover) {
  // Mild periodic schedules delay but do not stop coverage.
  Rng graph_rng(44);
  const Graph g = gen::connected_random_regular(48, 4, graph_rng);
  FaultOptions options;
  options.churn_period = 8;
  options.churn_down = 1;
  options.duty_period = 3;
  options.duty_awake = 2;
  const FaultModel model(g.num_vertices(), options);
  const auto faulty = make_process(g, "cobra", kBoundedRounds);
  faulty->set_fault_model(&model);
  const SpreadResult with_faults = faulty->run(Rng(7), 0);
  EXPECT_TRUE(with_faults.completed);
  const auto clean = make_process(g, "cobra", kBoundedRounds);
  const SpreadResult without = clean->run(Rng(7), 0);
  EXPECT_GE(with_faults.rounds, without.rounds);
}

// ---- (d) campaign-level determinism ----

constexpr const char* kFaultySpec = R"(
[campaign]
name = faulty
trials = 4
base_seed = 77
seeds = 0

[graph]
family = cycle
n = 32

[process]
name = cobra, push
max_rounds = 4096

[faults]
drop = 0.0, 0.3
duty_cycle = 3/4
)";

TEST(FaultsCampaign, DeterministicAcrossThreadCounts) {
  const auto spec = scenario::ScenarioSpec::parse_string(kFaultySpec);
  const auto plan = scenario::plan_campaign(spec);
  ASSERT_EQ(plan.jobs.size(), 4u);  // 2 names x 2 drop values
  std::vector<std::vector<std::string>> payloads;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2},
                                    std::size_t{8}}) {
    CampaignOptions options;
    options.threads = threads;
    const auto result = scenario::run_campaign(plan, options);
    ASSERT_TRUE(result.complete);
    std::vector<std::string> run;
    for (const auto& job : plan.jobs) {
      run.push_back(scenario::serialize_job_result(*result.jobs[job.index]));
    }
    payloads.push_back(std::move(run));
  }
  EXPECT_EQ(payloads[0], payloads[1]);
  EXPECT_EQ(payloads[0], payloads[2]);
}

TEST(FaultsCampaign, KilledAndResumedSinksAreByteIdentical) {
  const auto spec = scenario::ScenarioSpec::parse_string(kFaultySpec);
  const auto plan = scenario::plan_campaign(spec);
  const std::string dir = ::testing::TempDir();
  const std::string uninterrupted = dir + "faults_uninterrupted";
  const std::string interrupted = dir + "faults_interrupted";
  for (const auto& stem : {uninterrupted, interrupted}) {
    for (const auto& ext : {".journal", ".jsonl", ".csv"}) {
      std::remove((stem + ext).c_str());
    }
  }
  CampaignOptions full;
  full.output = uninterrupted;
  ASSERT_TRUE(scenario::run_campaign(plan, full).complete);

  CampaignOptions stop_early;
  stop_early.output = interrupted;
  stop_early.max_jobs = 1;
  EXPECT_FALSE(scenario::run_campaign(plan, stop_early).complete);
  CampaignOptions finish;
  finish.output = interrupted;
  ASSERT_TRUE(scenario::run_campaign(plan, finish).complete);

  EXPECT_EQ(read_file(uninterrupted + ".jsonl"),
            read_file(interrupted + ".jsonl"));
  EXPECT_EQ(read_file(uninterrupted + ".csv"),
            read_file(interrupted + ".csv"));
  // The faulty CSV leads with the extended header and the JSONL records
  // carry the fault block.
  const std::string csv = read_file(uninterrupted + ".csv");
  EXPECT_EQ(csv.substr(0, csv.find('\n')), scenario::csv_header(true));
  EXPECT_NE(read_file(uninterrupted + ".jsonl").find("\"pdr\""),
            std::string::npos);
}

TEST(FaultsCampaign, FingerprintSeparatesFaultSchedules) {
  const std::string base(kFaultySpec);
  const auto plan_a =
      scenario::plan_campaign(scenario::ScenarioSpec::parse_string(base));
  std::string changed = base;
  const std::size_t at = changed.find("drop = 0.0, 0.3");
  ASSERT_NE(at, std::string::npos);
  changed.replace(at, 15, "drop = 0.0, 0.4");
  const auto plan_b =
      scenario::plan_campaign(scenario::ScenarioSpec::parse_string(changed));
  EXPECT_NE(plan_a.fingerprint, plan_b.fingerprint);
}

// ---- (e) spec validation + journal payloads ----

TEST(FaultsSpec, RejectsUnknownKeysAndMalformedValues) {
  expect_spec_error(
      [] {
        scenario::plan_campaign(scenario::ScenarioSpec::parse_string(
            "[graph]\nfamily = cycle\nn = 32\n[process]\nname = cobra\n"
            "[faults]\ndorp = 0.1\n",
            "s.scenario"));
      },
      "s.scenario:7: unknown [faults] key 'dorp'");
  expect_spec_error(
      [] {
        scenario::plan_campaign(scenario::ScenarioSpec::parse_string(
            "[graph]\nfamily = cycle\nn = 32\n[process]\nname = cobra\n"
            "[faults]\ndrop = 1.5\n",
            "s.scenario"));
      },
      "[faults]");
  for (const std::string value : {"nan", "inf"}) {
    expect_spec_error(
        [&] {
          scenario::plan_campaign(scenario::ScenarioSpec::parse_string(
              "[graph]\nfamily = cycle\nn = 32\n[process]\nname = cobra\n"
              "[faults]\ndrop = " + value + "\n",
              "s.scenario"));
        },
        "job 0: [faults]: parameter 'drop' expects a number, got '" + value +
            "'");
  }
  expect_spec_error(
      [] {
        scenario::plan_campaign(scenario::ScenarioSpec::parse_string(
            "[graph]\nfamily = cycle\nn = 32\n"
            "[process]\nname = cobra, not-a-process\n",
            "s.scenario"));
      },
      "unknown process 'not-a-process'");
  // A swept key must be valid for every process in the name sweep.
  expect_spec_error(
      [] {
        scenario::plan_campaign(scenario::ScenarioSpec::parse_string(
            "[graph]\nfamily = cycle\nn = 32\n"
            "[process]\nname = cobra, flood\nk = 2\n",
            "s.scenario"));
      },
      "process 'flood' has no parameter 'k'");
}

TEST(FaultsSpec, SchedulePeriodsAreCappedAt2To31) {
  // Schedule slots are 32-bit sums of two values below the period.
  FaultOptions options;
  options.duty_period = std::size_t{1} << 31;
  options.duty_awake = 1;
  EXPECT_NO_THROW(FaultModel(8, options));
  options.duty_period += 1;
  EXPECT_THROW(FaultModel(8, options), std::invalid_argument);
  options = FaultOptions{};
  options.churn_period = (std::size_t{1} << 31) + 1;
  EXPECT_THROW(FaultModel(8, options), std::invalid_argument);
  expect_spec_error(
      [] {
        scenario::plan_campaign(scenario::ScenarioSpec::parse_string(
            "[graph]\nfamily = cycle\nn = 32\n[process]\nname = cobra\n"
            "[faults]\nduty_cycle = 1/4294967296\n",
            "s.scenario"));
      },
      "must be <= 2^31");
}

TEST(FaultsSpec, EveryFaultKeyIsAccepted) {
  for (const FaultParamSpec& param : fault_param_specs()) {
    EXPECT_TRUE(fault_has_param(param.key)) << param.key;
  }
  EXPECT_FALSE(fault_has_param("nope"));
}

TEST(FaultsJournal, PayloadRoundTripsAndLegacyParses) {
  scenario::JobResult result;
  result.trials = 8;
  result.failed = 1;
  result.rounds.count = 7;
  result.rounds.mean = 12.5;
  result.rounds.max = 20.0;
  result.transmissions.count = 7;
  result.transmissions.mean = 321.0;
  result.graph_name = "cycle_n32";
  result.faulty = true;
  result.pdr.count = 7;
  result.pdr.mean = 0.73;
  result.energy.count = 7;
  result.energy.mean = 4096.25;
  result.delivered = 1000;
  result.dropped = 250;
  result.blocked = 99;
  const std::string payload = scenario::serialize_job_result(result);
  scenario::JobResult parsed;
  ASSERT_TRUE(scenario::parse_job_result(payload, parsed));
  EXPECT_TRUE(parsed.faulty);
  EXPECT_EQ(parsed.delivered, 1000u);
  EXPECT_EQ(parsed.dropped, 250u);
  EXPECT_EQ(parsed.blocked, 99u);
  EXPECT_DOUBLE_EQ(parsed.pdr.mean, 0.73);
  EXPECT_DOUBLE_EQ(parsed.energy.mean, 4096.25);
  EXPECT_EQ(parsed.graph_name, "cycle_n32");
  // Round trip is exact: re-serializing reproduces the payload.
  EXPECT_EQ(scenario::serialize_job_result(parsed), payload);

  // A faults-off payload (the pre-fault-layer format) still parses, with
  // the fault block defaulted.
  result.faulty = false;
  const std::string legacy = scenario::serialize_job_result(result);
  EXPECT_EQ(legacy.find(" F "), std::string::npos);
  scenario::JobResult legacy_parsed;
  // Poison the fields to prove the parser resets them.
  legacy_parsed.faulty = true;
  legacy_parsed.delivered = 123;
  ASSERT_TRUE(scenario::parse_job_result(legacy, legacy_parsed));
  EXPECT_FALSE(legacy_parsed.faulty);
  EXPECT_EQ(legacy_parsed.delivered, 0u);
  EXPECT_EQ(legacy_parsed.graph_name, "cycle_n32");
}

// ---- (f) COBRA under faults, schedules, listening counts ----

/// Every per-vertex fault counter of the session, in vertex order.
std::vector<std::uint64_t> vertex_counters(const FaultSession& fs,
                                           std::size_t n) {
  std::vector<std::uint64_t> out;
  out.reserve(3 * n);
  for (Vertex v = 0; v < n; ++v) {
    out.push_back(fs.tx(v));
    out.push_back(fs.rx(v));
    out.push_back(fs.listen(v));
  }
  return out;
}

/// A mixed load: drops, both churn kinds and a duty cycle at once.
FaultOptions mixed_faults() {
  FaultOptions options;
  options.drop = 0.25;
  options.churn = 0.05;
  options.churn_period = 5;
  options.churn_down = 1;
  options.duty_period = 4;
  options.duty_awake = 3;
  return options;
}

TEST(FaultsCobra, FrontierModesAgreeUnderFaults) {
  // The dense threshold (64 here) is far below the bulk of the frontier,
  // so kAuto switches to the dense stamp scan mid-trial while kSparse
  // keeps the sorted list. The sparse runs are also folded into one
  // pinned digest, recorded from the faulty round that predates COBRA's
  // shared round loop (weighted draws included).
  Rng graph_rng(45);
  Graph g = gen::connected_random_regular(1024, 4, graph_rng);
  gen::generate_weights(g, gen::WeightKind::kExp, 3);
  FaultOptions drop_duty;
  drop_duty.drop = 0.25;
  drop_duty.duty_period = 4;
  drop_duty.duty_awake = 3;
  FaultOptions down_often;
  down_often.churn = 0.3;
  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a over u64 words
  const auto mix = [&digest](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (word >> (8 * i)) & 0xffu;
      digest *= 0x100000001b3ull;
    }
  };
  for (const FaultOptions& fault_options :
       {drop_duty, down_often, mixed_faults()}) {
    const FaultModel model(g.num_vertices(), fault_options);
    for (const bool weighted : {false, true}) {
      for (const Branching branching :
           {Branching::fixed(2), Branching::fixed(5),
            Branching::fractional(0.5)}) {
        CobraOptions options;
        options.branching = branching;
        options.weighted = weighted;
        options.max_rounds = 4096;
        std::vector<SpreadResult> results;
        std::vector<std::vector<Round>> visits;
        std::vector<std::vector<std::uint64_t>> counters;
        for (const FrontierMode mode :
             {FrontierMode::kSparse, FrontierMode::kDense,
              FrontierMode::kAuto}) {
          options.frontier_mode = mode;
          CobraProcess process(g, 0, options);
          process.set_fault_model(&model);
          results.push_back(process.run(Rng(31), 0));
          visits.push_back(process.first_visit_rounds());
          counters.push_back(
              vertex_counters(*process.fault_session(), g.num_vertices()));
        }
        EXPECT_TRUE(results[0].completed);
        mix(results[0].rounds);
        mix(results[0].total_transmissions);
        mix(results[0].peak_vertex_round_transmissions);
        mix(results[0].delivered);
        mix(results[0].dropped_channel);
        mix(results[0].blocked_receiver);
        for (const std::size_t c : results[0].curve) mix(c);
        for (const Round r : visits[0]) mix(r);
        for (const std::uint64_t c : counters[0]) mix(c);
        for (std::size_t m = 1; m < results.size(); ++m) {
          EXPECT_EQ(results[m], results[0]) << "mode " << m;
          EXPECT_EQ(visits[m], visits[0]) << "mode " << m;
          EXPECT_EQ(counters[m], counters[0]) << "mode " << m;
        }
      }
    }
  }
  EXPECT_EQ(digest, 0xbf6e7a5bcd3472c5ull) << "got 0x" << std::hex << digest;
}

TEST(Faults, SchedulesThatNeverFireMatchNoSchedule) {
  // An always-awake duty cycle (A >= P) and a churn period with zero down
  // rounds fire on no vertex in no round: the runs, and every per-vertex
  // counter, equal those of a model with no schedule at all.
  Rng graph_rng(46);
  const Graph g = gen::connected_random_regular(64, 4, graph_rng);
  FaultOptions none;
  none.drop = 0.25;
  FaultOptions awake = none;
  awake.duty_period = 5;
  awake.duty_awake = 5;
  FaultOptions never_down = none;
  never_down.churn_period = 3;
  never_down.churn_down = 0;
  FaultOptions both = awake;
  both.churn_period = 7;
  both.churn_down = 0;
  const FaultModel reference_model(g.num_vertices(), none);
  for (const std::string& name : process_names()) {
    const auto reference = make_process(g, name, kBoundedRounds);
    reference->set_fault_model(&reference_model);
    const SpreadResult expected = reference->run(Rng(8), 0);
    const auto expected_counters =
        vertex_counters(*reference->fault_session(), g.num_vertices());
    for (const FaultOptions& options : {awake, never_down, both}) {
      const FaultModel model(g.num_vertices(), options);
      const auto process = make_process(g, name, kBoundedRounds);
      process->set_fault_model(&model);
      EXPECT_EQ(process->run(Rng(8), 0), expected) << name;
      EXPECT_EQ(vertex_counters(*process->fault_session(), g.num_vertices()),
                expected_counters)
          << name;
    }
  }
}

TEST(Faults, ListenCountsSumToTotal) {
  Rng graph_rng(47);
  const Graph g = gen::connected_random_regular(64, 4, graph_rng);
  FaultOptions drop_only;
  drop_only.drop = 0.5;
  FaultOptions asleep_always;
  asleep_always.duty_period = 3;
  asleep_always.duty_awake = 0;
  for (const FaultOptions& options :
       {drop_only, asleep_always, mixed_faults()}) {
    const FaultModel model(g.num_vertices(), options);
    for (const std::string& name : process_names()) {
      const auto process = make_process(g, name, kBoundedRounds);
      process->set_fault_model(&model);
      // Two trials on one workspace: the second must not inherit counts.
      for (const std::uint64_t seed : {4ull, 5ull}) {
        (void)process->run(Rng(seed), 0);
        const FaultSession& fs = *process->fault_session();
        std::uint64_t sum = 0;
        std::uint64_t most = 0;
        for (Vertex v = 0; v < g.num_vertices(); ++v) {
          sum += fs.listen(v);
          most = std::max(most, fs.listen(v));
        }
        EXPECT_EQ(sum, fs.listen_total()) << name;
        EXPECT_LE(most, process->round()) << name;
        if (options.duty_awake == 0 && options.duty_period > 0) {
          EXPECT_EQ(sum, 0u) << name;
        }
        if (options.churn == 0.0 && options.duty_period == 0) {
          // Nothing is ever down or asleep: every vertex listens in
          // every round.
          EXPECT_EQ(sum, g.num_vertices() * process->round()) << name;
        }
      }
    }
  }
}

// ---- (g) drop decisions ----

/// The fault layer's SplitMix combine, restated so the tests check the
/// keyed path against an independent copy.
std::uint64_t reference_mix(std::uint64_t a, std::uint64_t b) {
  SplitMix64 sm(a ^ (0x632be59bd9b4e019ULL * (b + 1)));
  return sm.next();
}

/// The floating-point drop test: h's top 53 bits as a unit double.
double unit_of(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

TEST(Faults, DropDecisionIsExactAtTheThreshold) {
  Rng rng(48);
  constexpr std::uint64_t kTop = std::uint64_t{1} << 53;
  for (const double drop : {0x1.0p-53, 1e-300, 0.1, 0.25, 1.0 / 3.0,
                            1.0 - 0x1.0p-53, 1.0}) {
    const std::uint64_t threshold = FaultSession::drop_threshold(drop);
    EXPECT_EQ(threshold,
              static_cast<std::uint64_t>(std::ceil(drop * 0x1.0p53)))
        << drop;
    std::vector<std::uint64_t> hashes;
    for (const std::uint64_t x : {threshold - 1, threshold, threshold + 1}) {
      if (x >= kTop) continue;  // no 53-bit value reaches 2^53
      // The low 11 bits take no part in the decision.
      hashes.push_back(x << 11);
      hashes.push_back((x << 11) | 0x7ff);
    }
    for (int i = 0; i < 100000; ++i) hashes.push_back(rng());
    std::size_t mismatches = 0;
    for (const std::uint64_t h : hashes) {
      if (FaultSession::drops(h, threshold) != (unit_of(h) < drop)) {
        ADD_FAILURE() << "drop " << drop << " hash 0x" << std::hex << h;
        if (++mismatches == 5) break;
      }
    }
  }
  // The keyed path: a sender's key folds the round key with the vertex,
  // and each message mixes in only its index, so the decision equals the
  // two-step hash of (round key, sender, index).
  FaultOptions options;
  options.drop = 1.0 / 3.0;
  options.seed = 77;
  const FaultModel model(64, options);
  FaultSession fs(model);
  const std::uint64_t entropy = 0x243f6a8885a308d3ull;
  fs.begin_trial(entropy);
  SplitMix64 streams(reference_mix(entropy, options.seed));
  (void)streams.next();  // the churn stream's key
  const std::uint64_t drop_base = streams.next();
  std::uint64_t decisions = 0;
  std::uint64_t dropped = 0;
  for (std::size_t round = 0; round < 4; ++round) {
    fs.begin_round(round);
    const std::uint64_t round_key = reference_mix(drop_base, round);
    for (std::uint32_t from = 0; from < 64; ++from) {
      const FaultSession::Sender sender = fs.sender(from);
      ASSERT_EQ(sender.vertex, from);
      ASSERT_EQ(sender.key, reference_mix(round_key, from));
      for (std::uint32_t index = 0; index < 8; ++index) {
        const std::uint64_t before = fs.dropped_total();
        fs.transmit(sender, index, (from + 1) % 64);
        const bool expected =
            unit_of(reference_mix(reference_mix(round_key, from), index)) <
            options.drop;
        ASSERT_EQ(fs.dropped_total() != before, expected)
            << "round " << round << " from " << from << " index " << index;
        ++decisions;
        dropped += expected;
      }
    }
  }
  // The stream is not degenerate: about a third of the messages drop.
  EXPECT_GT(dropped, decisions / 4);
  EXPECT_LT(dropped, decisions * 5 / 12);
}

TEST(Faults, FullDropLosesEveryMessage) {
  // The drop counterpart of NeverAwakeDutyCycleBlocksEveryMessage: every
  // sender keeps paying for messages the channel always loses, so no
  // process ever leaves its start state.
  const Graph g = gen::cycle(24);
  FaultOptions options;
  options.drop = 1.0;
  const FaultModel model(g.num_vertices(), options);
  for (const std::string& name : process_names()) {
    const auto process = make_process(g, name, {{"max_rounds", "64"}});
    process->set_fault_model(&model);
    const SpreadResult result = process->run(Rng(9), 0);
    EXPECT_FALSE(result.completed) << name;
    EXPECT_EQ(result.rounds, 64u) << name;
    EXPECT_EQ(process->reached_count(), 1u) << name;
    const FaultSession* fs = process->fault_session();
    EXPECT_GT(fs->tx_total(), 0u) << name;
    EXPECT_EQ(fs->delivered_total(), 0u) << name;
    EXPECT_EQ(fs->dropped_total(), fs->tx_total()) << name;
    EXPECT_EQ(fs->blocked_total(), 0u) << name;
  }
}

}  // namespace
}  // namespace cobra
