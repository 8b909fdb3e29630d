// SPDX-License-Identifier: MIT
//
// Unified Process API tests: (a) golden digests of every SpreadResult
// field for each steppable protocol under fixed seeds across several
// graph families, (b) observer-captured curves are deterministic and equal to
// SpreadResult::curve, (c) factory metadata and error behaviour, and
// (d) trial-runner integration (thread-count independence).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/process.hpp"
#include "core/process_factory.hpp"
#include "graph/generators.hpp"
#include "sim/trial_runner.hpp"

namespace cobra {
namespace {

/// The parity graph families: an expander, a non-transitive lattice, and
/// a dense clique — all with min degree >= 1 so every process runs.
std::vector<Graph> parity_graphs() {
  std::vector<Graph> graphs;
  Rng rng(1234);
  graphs.push_back(gen::connected_random_regular(96, 6, rng));
  graphs.push_back(gen::torus({6, 7}));
  graphs.push_back(gen::complete(48));
  return graphs;
}

constexpr std::uint64_t kSeeds[] = {7, 1001, 987654321};

// ---- golden digests: every SpreadResult field, pinned ----

/// FNV-1a over every SpreadResult field as u64 words: the scalars, the
/// curve (length, then entries), the fault counters and the energy bits.
std::uint64_t SpreadDigest(const SpreadResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(r.completed);
  mix(r.rounds);
  mix(r.final_count);
  mix(r.curve.size());
  for (const std::size_t c : r.curve) mix(c);
  mix(r.total_transmissions);
  mix(r.peak_vertex_round_transmissions);
  mix(r.delivered);
  mix(r.dropped_channel);
  mix(r.blocked_receiver);
  mix(std::bit_cast<std::uint64_t>(r.energy));
  return h;
}

struct GoldenRow {
  const char* process;
  ProcessParams params;
  Vertex start;
  /// digest[3 * graph + seed] over parity_graphs() x kSeeds: one line per
  /// graph, random_regular(96, 6), torus(6x7), complete(48).
  std::array<std::uint64_t, 9> digest;
};

TEST(ProcessGolden, SpreadDigestsArePinned) {
  // Generated from the one-shot reference functions these processes
  // replaced, which they matched draw for draw. The branching-walk and
  // SIS one-shot results carried fewer fields: those fields were checked
  // equal and the full process result pinned. The cobra and bips rows
  // come from the former cover/infection loops, which equalled the
  // process result field for field. Flood never draws, so its seeds
  // agree. A changed digest changes every campaign sink for that process
  // and must be a deliberate edit here.
  const std::vector<GoldenRow> golden = {
      {"cobra", {{"k", "2"}}, 0,
       {0x83dab9d69239f867ull, 0xf776e4436d378d17ull, 0x7e171a93fa42091cull,
        0x1aa23c666d60da1full, 0xd401c18b5b2804a7ull, 0x691b0af467885485ull,
        0x1f6075732a319c2bull, 0xd82fe20a7d1fb16full, 0xe5da4b4c2f8c78f6ull}},
      {"cobra", {{"k", "3"}}, 0,
       {0x4e53d5f6fb419761ull, 0xf4ca5216a5779ca0ull, 0x5a28cc67d8b4e451ull,
        0x7103caa624f0002bull, 0x06b20a550133d7cbull, 0x495ba322826218aeull,
        0x6369ae1730fee69cull, 0x3f033c07e78a001bull, 0x836d078bb547c08bull}},
      {"cobra", {{"rho", "0.5"}}, 0,
       {0x60cdee2008a8220eull, 0x296f21166bfecc6cull, 0x2ff67b6a86243361ull,
        0xee243a180f1c00eaull, 0x533d12d74053a194ull, 0xbc4c087104780195ull,
        0x38126b4706965d05ull, 0x221d5434d7c7233bull, 0xaea0ba09e626bc9full}},
      {"bips", {}, 0,
       {0xe4747c6e826d019full, 0x419e9fe3eee00235ull, 0xa98b4df0b41e8b5dull,
        0xa8bc70561572d432ull, 0x721f7d9782a5fbb1ull, 0x1f56db7d58dfb642ull,
        0xc707d35982b10669ull, 0x4c046e040805cb2dull, 0x557ff9c7f0eb560bull}},
      {"push", {}, 0,
       {0x64b9bae9f9a5765eull, 0xcf07c7e735dc756dull, 0x8a911b2673f371e1ull,
        0xa3e30893e6789b78ull, 0xadd6e3c44ea028faull, 0xe58f3bf88fc3c3b9ull,
        0xd748983eb39594d6ull, 0x0f1b61b3c1d610bdull, 0xf644979e49a617feull}},
      {"pull", {}, 0,
       {0xd4be3d8f268dbe00ull, 0x175e6d12389ce6eaull, 0xc98bbba0ce9e0590ull,
        0x5347ee9aa2b8d889ull, 0xa259025574356263ull, 0x82684e47f20608fdull,
        0x28cfd76341d13ceeull, 0x5da5154c5b1e041cull, 0x60c7bb8d63cbbb9bull}},
      {"push-pull", {}, 0,
       {0xc2a46b66ff699226ull, 0x4a3716dc69e0896aull, 0xaadc9a5b00f8f192ull,
        0xe27f83cb25e6ad40ull, 0x00a3d7fe514e08abull, 0xc3d04216ca28f638ull,
        0x194a9a1c7a60c879ull, 0x98ab32c842685ccfull, 0x203f676e6e21e756ull}},
      {"flood", {}, 1,
       {0x9d833145654f2b05ull, 0x9d833145654f2b05ull, 0x9d833145654f2b05ull,
        0x91da18d599bcf7a1ull, 0x91da18d599bcf7a1ull, 0x91da18d599bcf7a1ull,
        0xa996594834923266ull, 0xa996594834923266ull, 0xa996594834923266ull}},
      {"walk", {}, 0,
       {0xffc4dbef57292ef3ull, 0xcb3fe601a5cf4b52ull, 0xd869b47dd2f6e7acull,
        0xfe68306190917993ull, 0x40cdbdfe0749478cull, 0xd59e4961e273524aull,
        0x63aa599540d83168ull, 0xf23e41afe1e9b449ull, 0xd0c18094f27fea48ull}},
      {"branching-walk", {}, 0,
       {0x15fa9395743ba19full, 0x53f6398fbf92709eull, 0x214f49d3cbd17530ull,
        0xd9e1d8acc429d90full, 0x8b0f3cffb98c7b5eull, 0xbbac57d609fc2353ull,
        0x1d984193268f67c6ull, 0x9845a0be06e4dd03ull, 0x32b326425d5fdc87ull}},
      {"sis", {{"max_rounds", "2000"}}, 0,
       {0x1e303efa035c0711ull, 0x5cbcd96f8353b717ull, 0x8087575d68fbbf75ull,
        0xea6536f7a8c45152ull, 0x75958a573deb53b3ull, 0xad8e41e27240dac5ull,
        0x664d9e6b3773638dull, 0x66162efce0c1cd51ull, 0x20028c3fc7d7ae19ull}},
  };
  const std::vector<Graph> graphs = parity_graphs();
  for (const GoldenRow& row : golden) {
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const auto process = make_process(graphs[gi], row.process, row.params);
      for (std::size_t si = 0; si < std::size(kSeeds); ++si) {
        EXPECT_EQ(SpreadDigest(process->run(Rng(kSeeds[si]), row.start)),
                  row.digest[3 * gi + si])
            << row.process << " on " << graphs[gi].name()
            << " seed=" << kSeeds[si];
      }
    }
  }
}

// ---- observers ----

TEST(ProcessObserver, CurveObserverMatchesResultCurve) {
  Rng graph_rng(5);
  const Graph g = gen::connected_random_regular(64, 4, graph_rng);
  for (const std::string& name : process_names()) {
    if (name == "walk") continue;  // visit-event curve, not reached-per-round
    const auto process = make_process(g, name, {});
    CurveObserver observer;
    process->set_observer(&observer);
    const SpreadResult result = process->run(Rng(42), 0);
    EXPECT_EQ(observer.curve(), result.curve) << name;
  }
}

TEST(ProcessObserver, CurvesAreDeterministicAcrossRunsAndReuse) {
  Rng graph_rng(6);
  const Graph g = gen::connected_random_regular(64, 4, graph_rng);
  for (const std::string& name : process_names()) {
    const auto process = make_process(g, name, {});
    CurveObserver first;
    process->set_observer(&first);
    const SpreadResult r1 = process->run(Rng(99), 1);
    const std::vector<std::size_t> curve1 = first.curve();
    // Same workspace, same seed: byte-identical trial.
    CurveObserver second;
    process->set_observer(&second);
    const SpreadResult r2 = process->run(Rng(99), 1);
    EXPECT_EQ(r1, r2) << name;
    EXPECT_EQ(curve1, second.curve()) << name;
    // A fresh workspace agrees too (reuse leaves no residue).
    const auto fresh = make_process(g, name, {});
    EXPECT_EQ(fresh->run(Rng(99), 1), r1) << name;
  }
}

TEST(ProcessObserver, RoundTransmissionsSumToTotal) {
  Rng graph_rng(7);
  const Graph g = gen::torus({5, 5});

  struct SumObserver final : RoundObserver {
    std::uint64_t sum = 0;
    std::size_t rounds_seen = 0;
    void on_round(const Process&, const RoundStats& stats) override {
      sum += stats.round_transmissions;
      ++rounds_seen;
      EXPECT_EQ(stats.round, rounds_seen);
    }
  };

  for (const std::string& name : {"cobra", "push", "bips"}) {
    const auto process = make_process(g, name, {});
    SumObserver observer;
    process->set_observer(&observer);
    const SpreadResult result = process->run(Rng(3), 0);
    EXPECT_EQ(observer.sum, result.total_transmissions) << name;
    EXPECT_EQ(observer.rounds_seen, result.rounds) << name;
  }
}

// ---- lifecycle / budget semantics ----

TEST(ProcessLifecycle, BudgetExhaustionIsDoneButNotCompleted) {
  const Graph g = gen::cycle(64);
  const auto process = make_process(g, "walk", {{"max_rounds", "5"}});
  const SpreadResult result = process->run(Rng(1), 0);
  EXPECT_TRUE(process->done());
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.rounds, 5u);
}

TEST(ProcessLifecycle, StepwiseDrivingMatchesRun) {
  Rng graph_rng(8);
  const Graph g = gen::connected_random_regular(48, 4, graph_rng);
  const auto a = make_process(g, "cobra", {});
  const auto b = make_process(g, "cobra", {});
  const SpreadResult via_run = a->run(Rng(17), 2);
  b->reset(Rng(17), 2);
  while (!b->done()) b->step();
  EXPECT_EQ(b->result(), via_run);
}

// ---- factory metadata ----

TEST(ProcessFactory, RegistryNamesAndKeys) {
  const std::vector<std::string> expected = {
      "bips", "branching-walk", "cobra", "flood", "pull",
      "push", "push-pull",      "sis",   "walk"};
  EXPECT_EQ(process_names(), expected);
  for (const std::string& name : expected) {
    ASSERT_TRUE(is_process_name(name));
    const ProcessSpec* spec = find_process_spec(name);
    ASSERT_NE(spec, nullptr);
    EXPECT_STRNE(spec->summary, "");
    // Every process takes a round budget and the curve toggle.
    EXPECT_TRUE(process_has_param(name, "max_rounds")) << name;
    EXPECT_TRUE(process_has_param(name, "record_curve")) << name;
    EXPECT_FALSE(process_has_param(name, "no_such_key")) << name;
    for (const auto& param : spec->params) {
      EXPECT_TRUE(process_has_param(name, param.key))
          << name << "." << param.key;
    }
  }
  EXPECT_FALSE(is_process_name("gossip9000"));
  EXPECT_EQ(find_process_spec("gossip9000"), nullptr);
}

TEST(ProcessFactory, ErrorsNameTheProblem) {
  const Graph g = gen::cycle(8);
  EXPECT_THROW(make_process(g, "gossip9000", {}), ProcessFactoryError);
  EXPECT_THROW(make_process(g, "cobra", {{"typo", "1"}}), ProcessFactoryError);
  EXPECT_THROW(make_process(g, "cobra", {{"k", "2"}, {"rho", "0.5"}}),
               ProcessFactoryError);
  EXPECT_THROW(make_process(g, "cobra", {{"k", "zero"}}), ProcessFactoryError);
  EXPECT_THROW(make_process(g, {{"k", "2"}}), ProcessFactoryError);  // no name
  // Params may carry the dispatch key; it is consumed, not unknown.
  EXPECT_NO_THROW(make_process(g, {{"name", "cobra"}, {"k", "2"}}));
}

TEST(ProcessFactory, RecordCurveZeroSuppressesCurves) {
  Rng graph_rng(9);
  const Graph g = gen::connected_random_regular(32, 4, graph_rng);
  const auto process = make_process(g, "push", {{"record_curve", "0"}});
  const SpreadResult result = process->run(Rng(4), 0);
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.curve.empty());
}

TEST(ProcessFactory, RecordCurveDoesNotChangeResults) {
  // The Process contract: results are independent of curve recording.
  // Exercises every registered process, cobra in particular (its
  // transmission accounting used to be gated on the curves flag).
  Rng graph_rng(11);
  const Graph g = gen::connected_random_regular(48, 4, graph_rng);
  for (const std::string& name : process_names()) {
    const auto with = make_process(g, name, {});
    const auto without = make_process(g, name, {{"record_curve", "0"}});
    SpreadResult a = with->run(Rng(21), 0);
    const SpreadResult b = without->run(Rng(21), 0);
    EXPECT_TRUE(b.curve.empty()) << name;
    a.curve.clear();  // the only field allowed to differ
    EXPECT_EQ(a, b) << name;
  }
}

TEST(ProcessFactory, VertexCapMustBePositive) {
  const Graph g = gen::cycle(8);
  EXPECT_THROW(make_process(g, "branching-walk", {{"vertex_cap", "0"}}),
               ProcessFactoryError);
  EXPECT_THROW(make_process(g, "branching-walk", {{"vertex_cap", "-1"}}),
               ProcessFactoryError);
}

// ---- trial runner integration ----

TEST(ProcessTrials, ThreadCountIndependent) {
  Rng graph_rng(10);
  const Graph g = gen::connected_random_regular(64, 6, graph_rng);
  std::vector<Vertex> starts(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) starts[v] = v;
  for (const std::string& name : {"cobra", "push-pull"}) {
    TrialOptions options;
    options.trials = 12;
    options.base_seed = 77;
    ThreadPool pool(4);
    const auto make = [&] { return make_process(g, name, {}); };
    const auto a = run_process_trials(options, make, starts);
    const auto b = run_process_trials(options, make, starts, &pool);
    EXPECT_EQ(a, b) << name;
  }
}

}  // namespace
}  // namespace cobra
