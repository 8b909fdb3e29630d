// SPDX-License-Identifier: MIT
//
// M1e — engine throughput: rounds/sec and visits/sec for the COBRA/BIPS
// hot path on random-regular, grid, and irregular instances, through
// run_process_trials on the calling thread (`engine`) and on a pool of T
// threads (`engine_mt`), plus the push-pull batched lockstep legs. Emits
// machine-readable BENCH_engine.json so successive perf PRs are judged
// against a recorded trajectory.
//
//   ./micro_engine [--scale small|medium|large] [--trials N] [--seed S]
//                  [--threads T] [--out BENCH_engine.json]
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/bips.hpp"
#include "core/cobra.hpp"
#include "graph/generators.hpp"
#include "protocols/push_pull.hpp"
#include "sim/trial_runner.hpp"
#include "util/flags.hpp"
#include "util/scale.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace cobra;

constexpr std::size_t kMaxRounds = 1u << 20;

struct Throughput {
  double seconds = 0;
  std::uint64_t rounds = 0;
  std::uint64_t visits = 0;
  std::size_t trials = 0;
  std::size_t failed = 0;
  double rounds_per_sec() const {
    return seconds > 0 ? static_cast<double>(rounds) / seconds : 0;
  }
  double visits_per_sec() const {
    return seconds > 0 ? static_cast<double>(visits) / seconds : 0;
  }
};

using ProcessFactory = std::function<std::unique_ptr<Process>()>;

/// The same trials through run_process_trials on `pool` (nullptr = the
/// calling thread) with the given batch width (B = 1 is the scalar loop).
Throughput time_runner(std::uint64_t seed, std::size_t trials,
                       ThreadPool* pool, const ProcessFactory& make,
                       std::span<const Vertex> starts, std::size_t batch) {
  TrialOptions options;
  options.trials = trials;
  options.base_seed = seed;
  Throughput t;
  t.trials = trials;
  Stopwatch watch;
  const auto results = run_process_trials(options, make, starts, pool, batch);
  t.seconds = watch.seconds();
  for (const auto& r : results) {
    t.rounds += r.rounds;
    t.visits += r.final_count;
    t.failed += !r.completed;
  }
  return t;
}

double visits_speedup(const Throughput& batched, const Throughput& scalar) {
  return scalar.visits_per_sec() > 0
             ? batched.visits_per_sec() / scalar.visits_per_sec()
             : 0;
}

void print_row(const char* label, const Throughput& t) {
  std::printf("  %-10s %8.3fs  %12.0f rounds/s  %14.0f visits/s%s\n", label,
              t.seconds, t.rounds_per_sec(), t.visits_per_sec(),
              t.failed ? "  [FAILED TRIALS]" : "");
}

void emit_throughput(FILE* out, const char* name, const Throughput& t,
                     std::size_t threads, const char* separator) {
  std::fprintf(out,
               "      \"%s\": {\"threads\": %zu, \"trials\": %zu, "
               "\"failed\": %zu, \"seconds\": %.6f, \"total_rounds\": %llu, "
               "\"rounds_per_sec\": %.1f, \"visits_per_sec\": %.1f}%s\n",
               name, threads, t.trials, t.failed, t.seconds,
               static_cast<unsigned long long>(t.rounds), t.rounds_per_sec(),
               t.visits_per_sec(), separator);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const Scale scale = Scale::from_flags(flags);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 20260729));
  // engine_mt runs on at least two threads, so the pooled path is always
  // the one measured.
  const auto threads = static_cast<std::size_t>(flags.get_int(
      "threads", std::max<std::int64_t>(
                     2, static_cast<std::int64_t>(
                            std::thread::hardware_concurrency()))));
  const std::string out_path = flags.get("out", "BENCH_engine.json");
  const auto trials_flag = flags.get_int("trials", 0);

  const std::size_t n = scale.pick<std::size_t>(1u << 14, 1u << 16, 1u << 18);
  const std::size_t side = scale.pick<std::size_t>(128, 256, 512);
  const std::size_t cobra_trials =
      trials_flag > 0 ? static_cast<std::size_t>(trials_flag)
                      : scale.pick<std::size_t>(8, 12, 16);
  const std::size_t bips_trials =
      trials_flag > 0 ? static_cast<std::size_t>(trials_flag)
                      : std::max<std::size_t>(2, cobra_trials / 2);
  // The batched legs need enough trials to fill 32 lanes twice over;
  // their scalar reference (B = 1) is re-timed at the same count.
  const std::size_t batched_trials =
      trials_flag > 0 ? std::max<std::size_t>(trials_flag, 64) : 64;
  const std::size_t batches[] = {8, 32};
  ThreadPool pool(threads);

  Rng graph_rng(seed);
  struct Instance {
    std::string family;
    Graph graph;
  };
  std::vector<Instance> instances;
  instances.push_back(
      {"random_regular", gen::connected_random_regular(n, 8, graph_rng)});
  instances.push_back({"grid", gen::torus({side, side})});
  instances.push_back({"irregular", gen::barabasi_albert(n, 4, graph_rng)});

  std::printf("micro_engine [scale=%s, n=%zu, threads=%zu]\n",
              scale.name().c_str(), n, threads);

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"micro_engine\",\n");
  std::fprintf(out, "  \"scale\": \"%s\",\n", scale.name().c_str());
  std::fprintf(out, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(seed));
  std::fprintf(out, "  \"threads\": %zu,\n", threads);
  std::fprintf(out, "  \"instances\": [\n");

  for (std::size_t idx = 0; idx < instances.size(); ++idx) {
    const auto& instance = instances[idx];
    const Graph& g = instance.graph;
    std::printf("\n%s  (n=%zu, m=%zu)\n", g.name().c_str(), g.num_vertices(),
                g.num_edges());

    std::vector<Vertex> starts(g.num_vertices());
    std::iota(starts.begin(), starts.end(), Vertex{0});

    std::printf(" COBRA cover (k=2, %zu trials):\n", cobra_trials);
    CobraOptions cobra_options;
    cobra_options.record_curves = false;
    const ProcessFactory make_cobra = [&]() -> std::unique_ptr<Process> {
      return std::make_unique<CobraProcess>(g, 0, cobra_options);
    };
    const auto cobra_engine =
        time_runner(seed, cobra_trials, nullptr, make_cobra, starts, 1);
    const auto cobra_mt =
        time_runner(seed, cobra_trials, &pool, make_cobra, starts, 1);
    print_row("engine", cobra_engine);
    print_row("engine_mt", cobra_mt);

    std::printf(" BIPS infection (k=2, %zu trials):\n", bips_trials);
    BipsOptions bips_options;
    bips_options.record_curve = false;
    const ProcessFactory make_bips = [&]() -> std::unique_ptr<Process> {
      return std::make_unique<BipsProcess>(g, 0, bips_options);
    };
    const auto bips_engine =
        time_runner(seed, bips_trials, nullptr, make_bips, starts, 1);
    const auto bips_mt =
        time_runner(seed, bips_trials, &pool, make_bips, starts, 1);
    print_row("engine", bips_engine);
    print_row("engine_mt", bips_mt);

    // Batched lockstep leg: same trials, serial, lanes doing the work.
    // COBRA and BIPS have no lockstep engine (they would time the scalar
    // fallback), so push-pull is the one batched leg.
    PushPullOptions pp_options;
    pp_options.record_curve = false;
    pp_options.max_rounds = kMaxRounds;
    const ProcessFactory make_pp = [&]() -> std::unique_ptr<Process> {
      return std::make_unique<PushPullProcess>(g, pp_options);
    };
    std::printf(" push-pull batched (%zu trials, serial):\n", batched_trials);
    const Throughput pp_scalar =
        time_runner(seed, batched_trials, nullptr, make_pp, starts, 1);
    print_row("scalar", pp_scalar);
    std::vector<Throughput> pp_legs;
    for (const std::size_t b : batches) {
      pp_legs.push_back(
          time_runner(seed, batched_trials, nullptr, make_pp, starts, b));
      char label[16];
      std::snprintf(label, sizeof label, "b%zu", b);
      print_row(label, pp_legs.back());
    }
    std::printf("  batched speedup (visits/s vs scalar): %.2fx @8, "
                "%.2fx @32\n",
                visits_speedup(pp_legs[0], pp_scalar),
                visits_speedup(pp_legs[1], pp_scalar));

    std::fprintf(out, "    {\"family\": \"%s\", \"graph\": \"%s\", ",
                 instance.family.c_str(), g.name().c_str());
    std::fprintf(out, "\"n\": %zu, \"m\": %zu,\n", g.num_vertices(),
                 g.num_edges());
    std::fprintf(out, "     \"cobra\": {\n");
    emit_throughput(out, "engine", cobra_engine, 1, ",");
    emit_throughput(out, "engine_mt", cobra_mt, threads, "");
    std::fprintf(out, "     },\n     \"bips\": {\n");
    emit_throughput(out, "engine", bips_engine, 1, ",");
    emit_throughput(out, "engine_mt", bips_mt, threads, "");
    std::fprintf(out, "     },\n     \"push_pull_batched\": {\n");
    emit_throughput(out, "scalar", pp_scalar, 1, ",");
    for (std::size_t i = 0; i < pp_legs.size(); ++i) {
      char name[16];
      std::snprintf(name, sizeof name, "b%zu", batches[i]);
      emit_throughput(out, name, pp_legs[i], 1,
                      i + 1 < pp_legs.size() ? "," : "");
    }
    std::fprintf(out, "     }");
    std::fprintf(out, "}%s\n", idx + 1 < instances.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());

  for (const auto& name : flags.unconsumed()) {
    std::fprintf(stderr, "warning: unrecognized flag --%s\n", name.c_str());
  }
  return 0;
}
