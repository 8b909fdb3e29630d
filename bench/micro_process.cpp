// SPDX-License-Identifier: MIT
//
// M1c — unified-process microbenchmark: every process in the factory
// registry is driven through the steppable Process interface
// (reset / step / done) for a batch of trials on one expander instance,
// measuring round throughput AND steady-state heap behaviour. Global
// operator new/delete are overridden with counting shims, so the bench
// proves the workspace-reuse contract end to end: after the first
// (warm-up) trial, a reset+step trial loop performs ZERO allocations for
// every registered process. Fault legs time every process with no fault
// model, an inert one, drop 0.25 and duty 3/4, in ns per message (min of
// 5 reps). Emits machine-readable BENCH_process.json,
// opening with a host block.
//
//   ./micro_process [--scale small|medium|large] [--trials N] [--seed S]
//                   [--n N] [--out BENCH_process.json]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/faults.hpp"
#include "core/process_factory.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/rounds.hpp"
#include "rand/rng.hpp"
#include "sim/batched.hpp"
#include "util/build_info.hpp"
#include "util/flags.hpp"
#include "util/scale.hpp"
#include "util/stopwatch.hpp"

// ---------------------------------------------------------------------------
// Counting allocator shims. Single-threaded bench, but the counter is
// atomic so incidental library threads cannot corrupt it.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace cobra;

struct BenchRow {
  std::string name;
  std::size_t trials = 0;
  std::size_t completed = 0;
  std::uint64_t warmup_allocations = 0;  ///< trial 0: first-touch growth
  std::uint64_t steady_allocations = 0;  ///< trials 1..T-1 combined
  std::uint64_t total_rounds = 0;
  double steady_seconds = 0;

  double rounds_per_sec() const {
    return steady_seconds > 0
               ? static_cast<double>(total_rounds) / steady_seconds
               : 0;
  }
};

// ---------------------------------------------------------------------------
// Telemetry-overhead leg: the same trial loop with the campaign's
// telemetry instrumentation attached (metrics counter + histogram update
// per trial, RoundRecorder observer sampling every round) versus bare.
// The rounds *sink* is deliberately excluded — campaigns record only the
// first rounds_trials trials per job, so file writes are not steady
// state. Interleaved repetitions with min-time-per-leg de-noise the
// comparison; the gate (<= 3% overhead, zero steady allocations) fails
// the bench's exit status, which CI treats as a regression.
// ---------------------------------------------------------------------------

struct TelemetryBench {
  std::size_t trials = 0;
  std::uint64_t steady_allocations = 0;  ///< telemetry legs after warm-up
  double plain_seconds = 0;      ///< min over reps, telemetry detached
  double telemetry_seconds = 0;  ///< min over reps, telemetry attached

  double overhead() const {
    return plain_seconds > 0 ? telemetry_seconds / plain_seconds - 1.0 : 0;
  }
};

TelemetryBench bench_telemetry(const Graph& g, std::uint64_t seed,
                               std::size_t trials, std::size_t reps) {
  ProcessParams params;
  params.emplace_back("record_curve", "0");
  const auto process = make_process(g, "cobra", params);
  const std::size_t n = g.num_vertices();

  obs::MetricsRegistry registry;
  const obs::CounterId trials_done = registry.counter("trials_done");
  const obs::HistogramId trial_rounds = registry.histogram("trial_rounds", 1.0);
  obs::RoundRecorder recorder(1);

  TelemetryBench result;
  result.trials = trials;
  const auto run_leg = [&](bool telemetry) {
    process->set_observer(telemetry ? &recorder : nullptr);
    Stopwatch watch;
    for (std::size_t i = 0; i < trials; ++i) {
      process->reset(Rng::for_trial(seed, i), static_cast<Vertex>(i % n));
      while (!process->done()) process->step();
      if (telemetry) {
        registry.add(trials_done);
        registry.observe(trial_rounds, static_cast<double>(process->round()));
      }
    }
    return watch.seconds();
  };

  // Warm-up both legs: first-touch shard allocation, recorder buffer
  // growth to the trial set's max round count (reps reuse the same trial
  // seeds, so capacity cannot grow again), process workspace.
  run_leg(false);
  run_leg(true);

  result.plain_seconds = -1;
  result.telemetry_seconds = -1;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const double plain = run_leg(false);
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const double telemetry = run_leg(true);
    result.steady_allocations +=
        g_allocations.load(std::memory_order_relaxed) - before;
    if (result.plain_seconds < 0 || plain < result.plain_seconds) {
      result.plain_seconds = plain;
    }
    if (result.telemetry_seconds < 0 ||
        telemetry < result.telemetry_seconds) {
      result.telemetry_seconds = telemetry;
    }
  }
  process->set_observer(nullptr);
  return result;
}

// ---------------------------------------------------------------------------
// Batched-engine leg: the same workspace-reuse contract for the lockstep
// engine (sim/batched.hpp). Block 0 is warm-up (first-touch growth of the
// lane planes and scratch lists); every later run_block must perform ZERO
// allocations, mirroring the scalar reset+step gate above. Processes with
// no batched variant are skipped — the scalar rows already cover them.
// ---------------------------------------------------------------------------

struct BatchedRow {
  std::string name;
  std::size_t batch = 0;
  std::size_t blocks = 0;
  std::uint64_t warmup_allocations = 0;  ///< block 0: first-touch growth
  std::uint64_t steady_allocations = 0;  ///< blocks 1..B-1 combined
  std::uint64_t total_rounds = 0;
  double steady_seconds = 0;

  double rounds_per_sec() const {
    return steady_seconds > 0
               ? static_cast<double>(total_rounds) / steady_seconds
               : 0;
  }
};

bool bench_batched(const Graph& g, const std::string& name,
                   ProcessParams params, std::uint64_t seed,
                   std::size_t blocks, std::size_t batch, BatchedRow* out) {
  params.emplace_back("record_curve", "0");
  const auto process = make_process(g, name, params);
  const auto engine = make_batched_engine(*process, batch);
  if (engine == nullptr) return false;  // no batched variant for this process

  BatchedRow row;
  row.name = name;
  row.batch = batch;
  row.blocks = blocks;
  const std::size_t n = g.num_vertices();
  std::vector<Vertex> starts(batch);
  for (std::size_t l = 0; l < batch; ++l) {
    starts[l] = static_cast<Vertex>(l % n);
  }
  std::vector<SpreadResult> results(batch);
  Stopwatch watch;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    if (b == 1) watch.reset();
    engine->run_block(seed, b * batch, batch, starts, results.data());
    const std::uint64_t spent =
        g_allocations.load(std::memory_order_relaxed) - before;
    if (b == 0) {
      row.warmup_allocations = spent;
    } else {
      row.steady_allocations += spent;
      for (std::size_t l = 0; l < batch; ++l) {
        row.total_rounds += results[l].rounds;
      }
    }
  }
  row.steady_seconds = blocks > 1 ? watch.seconds() : 0;
  *out = row;
  return true;
}

// ---------------------------------------------------------------------------
// Fault legs: the same steady-state trial loop with a fault model attached
// (core/faults.hpp), against the faults-off leg of the same process.
// "inert" attaches a model whose schedules never fire, so its ratio to
// "off" is the fault layer's bare overhead. Each leg is the min of `reps`
// timed passes over the same trials; "off" is always the first leg.
// ---------------------------------------------------------------------------

struct FaultLeg {
  const char* name;
  bool attached;
  FaultOptions options;
};

std::vector<FaultLeg> fault_legs() {
  FaultOptions drop;
  drop.drop = 0.25;
  FaultOptions duty;
  duty.duty_period = 4;
  duty.duty_awake = 3;
  return {{"off", false, {}},
          {"inert", true, {}},
          {"drop_0.25", true, drop},
          {"duty_3/4", true, duty}};
}

struct FaultRow {
  std::string process;
  std::string leg;
  std::size_t trials = 0;
  std::uint64_t total_rounds = 0;
  std::uint64_t messages = 0;  ///< transmissions per pass
  double seconds = 0;          ///< min over reps

  double ns_per_message() const {
    return messages > 0 ? seconds * 1e9 / static_cast<double>(messages) : 0;
  }
};

/// All legs of one process. The reps interleave the legs (off, inert,
/// drop, duty, off, ...), so a load change on the host hits every leg
/// alike and the ratios to "off" stay meaningful.
std::vector<FaultRow> bench_fault_legs(const Graph& g, const std::string& name,
                                       ProcessParams params, std::uint64_t seed,
                                       std::size_t trials, std::size_t reps) {
  params.emplace_back("record_curve", "0");
  const std::vector<FaultLeg> legs = fault_legs();
  std::vector<std::unique_ptr<FaultModel>> models;
  std::vector<std::unique_ptr<Process>> processes;
  std::vector<FaultRow> rows(legs.size());
  for (std::size_t l = 0; l < legs.size(); ++l) {
    models.push_back(
        std::make_unique<FaultModel>(g.num_vertices(), legs[l].options));
    processes.push_back(make_process(g, name, params));
    if (legs[l].attached) processes[l]->set_fault_model(models[l].get());
    rows[l].process = name;
    rows[l].leg = legs[l].name;
    rows[l].trials = trials;
  }
  const std::size_t n = g.num_vertices();
  for (std::size_t rep = 0; rep <= reps; ++rep) {  // pass 0 warms up
    for (std::size_t l = 0; l < legs.size(); ++l) {
      Process& process = *processes[l];
      std::uint64_t rounds = 0;
      std::uint64_t messages = 0;
      Stopwatch watch;
      for (std::size_t i = 0; i < trials; ++i) {
        process.reset(Rng::for_trial(seed, i), static_cast<Vertex>(i % n));
        while (!process.done()) process.step();
        rounds += process.round();
        messages += process.total_transmissions();
      }
      const double seconds = watch.seconds();
      FaultRow& row = rows[l];
      row.total_rounds = rounds;
      row.messages = messages;
      if (rep == 1 || (rep > 1 && seconds < row.seconds)) row.seconds = seconds;
    }
  }
  return rows;
}

BenchRow bench_process(const Graph& g, const std::string& name,
                       ProcessParams params, std::uint64_t seed,
                       std::size_t trials) {
  // Bulk Monte Carlo configuration, same as the campaign hot path.
  params.emplace_back("record_curve", "0");
  const auto process = make_process(g, name, params);
  BenchRow row;
  row.name = name;
  row.trials = trials;
  const std::size_t n = g.num_vertices();
  Stopwatch watch;
  for (std::size_t i = 0; i < trials; ++i) {
    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    if (i == 1) watch.reset();
    // Drive the steppable interface directly (result() would copy the
    // curve; the campaign layer harvests scalars the same way).
    process->reset(Rng::for_trial(seed, i), static_cast<Vertex>(i % n));
    while (!process->done()) process->step();
    if (i >= 1) row.total_rounds += process->round();
    row.completed += process->completed();
    const std::uint64_t spent =
        g_allocations.load(std::memory_order_relaxed) - before;
    if (i == 0) {
      row.warmup_allocations = spent;
    } else {
      row.steady_allocations += spent;
    }
  }
  row.steady_seconds = trials > 1 ? watch.seconds() : 0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const Scale scale = Scale::from_flags(flags);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 20260729));
  const std::string out_path = flags.get("out", "BENCH_process.json");
  const auto n = static_cast<std::size_t>(flags.get_int(
      "n", static_cast<std::int64_t>(
               scale.pick<std::size_t>(1u << 11, 1u << 13, 1u << 15))));
  const auto trials = static_cast<std::size_t>(flags.get_int(
      "trials", static_cast<std::int64_t>(scale.pick<std::size_t>(8, 12, 16))));

  Rng graph_rng(seed);
  const Graph g = gen::connected_random_regular(n, 8, graph_rng);
  std::printf("micro_process [scale=%s, graph=%s, n=%zu, trials=%zu]\n",
              scale.name().c_str(), g.name().c_str(), n, trials);
  std::printf("%-16s %9s %12s %14s %12s\n", "process", "trials",
              "rounds/sec", "steady allocs", "warm allocs");

  // Per-process parameter tweaks keep every row seconds-cheap: the walk's
  // step budget covers n log n cover times, SIS gets a finite round cap.
  std::vector<BenchRow> rows;
  bool all_zero = true;
  for (const std::string& name : process_names()) {
    ProcessParams params;
    if (name == "sis") params.emplace_back("max_rounds", "4096");
    const BenchRow row = bench_process(g, name, params, seed, trials);
    const double per_trial =
        row.trials > 1 ? static_cast<double>(row.steady_allocations) /
                             static_cast<double>(row.trials - 1)
                       : 0;
    all_zero = all_zero && row.steady_allocations == 0;
    std::printf("%-16s %9zu %12.0f %11.1f/t %12llu%s\n", row.name.c_str(),
                row.trials, row.rounds_per_sec(), per_trial,
                static_cast<unsigned long long>(row.warmup_allocations),
                row.steady_allocations == 0 ? "" : "  [ALLOCATES]");
    rows.push_back(row);
  }
  std::printf(all_zero
                  ? "steady state: zero per-trial allocations across the "
                    "registry\n"
                  : "steady state: some processes still allocate per trial\n");

  // Batched-engine gate: after the warm-up block, every run_block of the
  // lockstep engine must be allocation-free too (curve recording off, the
  // campaign hot path). Nonzero steady allocations fail the exit status.
  const auto batch = static_cast<std::size_t>(flags.get_int("batch", 32));
  const std::size_t blocks = trials;  // same steady-state depth as above
  std::printf("%-16s %9s %12s %14s %12s\n", "batched[B]", "blocks",
              "rounds/sec", "steady allocs", "warm allocs");
  std::vector<BatchedRow> batched_rows;
  bool batched_zero = true;
  for (const std::string& name : process_names()) {
    ProcessParams params;
    if (name == "sis") params.emplace_back("max_rounds", "4096");
    BatchedRow row;
    if (!bench_batched(g, name, params, seed, blocks, batch, &row)) continue;
    const double per_block =
        row.blocks > 1 ? static_cast<double>(row.steady_allocations) /
                             static_cast<double>(row.blocks - 1)
                       : 0;
    batched_zero = batched_zero && row.steady_allocations == 0;
    std::printf("%-13s %2zu %9zu %12.0f %11.1f/b %12llu%s\n", row.name.c_str(),
                row.batch, row.blocks, row.rounds_per_sec(), per_block,
                static_cast<unsigned long long>(row.warmup_allocations),
                row.steady_allocations == 0 ? "" : "  [ALLOCATES]");
    batched_rows.push_back(row);
  }
  std::printf(batched_zero
                  ? "batched steady state: zero per-block allocations across "
                    "the supported set\n"
                  : "batched steady state: some engines still allocate per "
                    "block\n");

  // Telemetry-overhead gate: <= --telemetry-overhead-pct (default 3) and
  // zero steady-state allocations with the full per-trial instrumentation
  // attached, or the bench exits nonzero.
  const double overhead_limit =
      flags.get_double("telemetry-overhead-pct", 3.0) / 100.0;
  const TelemetryBench telemetry =
      bench_telemetry(g, seed, trials * 4, /*reps=*/5);
  const bool telemetry_ok = telemetry.steady_allocations == 0 &&
                            telemetry.overhead() <= overhead_limit;
  std::printf(
      "telemetry leg (cobra, %zu trials, min of 5 reps): plain %.6fs, "
      "instrumented %.6fs, overhead %+.2f%%, steady allocs %llu%s\n",
      telemetry.trials, telemetry.plain_seconds, telemetry.telemetry_seconds,
      telemetry.overhead() * 100.0,
      static_cast<unsigned long long>(telemetry.steady_allocations),
      telemetry_ok ? "" : "  [FAIL]");

  std::printf("%-14s %-10s %12s %12s %10s\n", "faults", "leg", "messages",
              "ns/message", "vs off");
  std::vector<FaultRow> fault_rows;
  for (const std::string& name : process_names()) {
    ProcessParams params;
    if (name == "sis") params.emplace_back("max_rounds", "4096");
    // A walk round sends one message, so under a duty cycle the O(n)
    // schedule pass dominates it; a short step budget keeps the leg cheap.
    if (name == "walk") params.emplace_back("max_rounds", "4096");
    const std::vector<FaultRow> legs =
        bench_fault_legs(g, name, params, seed, trials, /*reps=*/5);
    const double off_ns = legs.front().ns_per_message();
    for (const FaultRow& row : legs) {
      std::printf("%-14s %-10s %12llu %12.2f %9.2fx\n", name.c_str(),
                  row.leg.c_str(),
                  static_cast<unsigned long long>(row.messages),
                  row.ns_per_message(),
                  off_ns > 0 ? row.ns_per_message() / off_ns : 0.0);
      fault_rows.push_back(row);
    }
  }

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"micro_process\",\n");
  std::fprintf(out, "  \"host\": %s,\n", host_json().c_str());
  std::fprintf(out, "  \"scale\": \"%s\",\n", scale.name().c_str());
  std::fprintf(out, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(seed));
  std::fprintf(out, "  \"graph\": \"%s\",\n", g.name().c_str());
  std::fprintf(out, "  \"n\": %zu,\n  \"m\": %zu,\n", g.num_vertices(),
               g.num_edges());
  std::fprintf(out, "  \"zero_steady_state_allocations\": %s,\n",
               all_zero ? "true" : "false");
  std::fprintf(out, "  \"zero_steady_state_batched_allocations\": %s,\n",
               batched_zero ? "true" : "false");
  std::fprintf(out, "  \"processes\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& row = rows[i];
    std::fprintf(
        out,
        "    {\"name\": \"%s\", \"trials\": %zu, \"completed\": %zu, "
        "\"warmup_allocations\": %llu, \"steady_allocations\": %llu, "
        "\"total_rounds\": %llu, \"steady_seconds\": %.6f, "
        "\"rounds_per_sec\": %.1f}%s\n",
        row.name.c_str(), row.trials, row.completed,
        static_cast<unsigned long long>(row.warmup_allocations),
        static_cast<unsigned long long>(row.steady_allocations),
        static_cast<unsigned long long>(row.total_rounds), row.steady_seconds,
        row.rounds_per_sec(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"batched\": [\n");
  for (std::size_t i = 0; i < batched_rows.size(); ++i) {
    const BatchedRow& row = batched_rows[i];
    std::fprintf(
        out,
        "    {\"name\": \"%s\", \"batch\": %zu, \"blocks\": %zu, "
        "\"warmup_allocations\": %llu, \"steady_allocations\": %llu, "
        "\"total_rounds\": %llu, \"steady_seconds\": %.6f, "
        "\"rounds_per_sec\": %.1f}%s\n",
        row.name.c_str(), row.batch, row.blocks,
        static_cast<unsigned long long>(row.warmup_allocations),
        static_cast<unsigned long long>(row.steady_allocations),
        static_cast<unsigned long long>(row.total_rounds), row.steady_seconds,
        row.rounds_per_sec(), i + 1 < batched_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"telemetry\": {\"trials\": %zu, \"plain_seconds\": %.6f, "
               "\"telemetry_seconds\": %.6f, \"overhead_pct\": %.2f, "
               "\"steady_allocations\": %llu, \"pass\": %s},\n",
               telemetry.trials, telemetry.plain_seconds,
               telemetry.telemetry_seconds, telemetry.overhead() * 100.0,
               static_cast<unsigned long long>(telemetry.steady_allocations),
               telemetry_ok ? "true" : "false");
  std::fprintf(out, "  \"faults\": [\n");
  for (std::size_t i = 0; i < fault_rows.size(); ++i) {
    const FaultRow& row = fault_rows[i];
    std::fprintf(out,
                 "    {\"process\": \"%s\", \"leg\": \"%s\", "
                 "\"trials\": %zu, \"reps\": 5, \"total_rounds\": %llu, "
                 "\"messages\": %llu, \"seconds_min\": %.6f, "
                 "\"ns_per_message\": %.3f}%s\n",
                 row.process.c_str(), row.leg.c_str(), row.trials,
                 static_cast<unsigned long long>(row.total_rounds),
                 static_cast<unsigned long long>(row.messages), row.seconds,
                 row.ns_per_message(), i + 1 < fault_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  for (const auto& name : flags.unconsumed()) {
    std::fprintf(stderr, "warning: unrecognized flag --%s\n", name.c_str());
  }
  return all_zero && batched_zero && telemetry_ok ? 0 : 1;
}
