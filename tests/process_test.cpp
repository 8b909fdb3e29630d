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

/// FNV-1a over a sequence of u64 words, fed byte by byte.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void mix(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
};

/// FNV-1a over every SpreadResult field as u64 words: the scalars, the
/// curve (length, then entries), the fault counters and the energy bits.
std::uint64_t SpreadDigest(const SpreadResult& r) {
  Fnv1a f;
  f.mix(r.completed);
  f.mix(r.rounds);
  f.mix(r.final_count);
  f.mix(r.curve.size());
  for (const std::size_t c : r.curve) f.mix(c);
  f.mix(r.total_transmissions);
  f.mix(r.peak_vertex_round_transmissions);
  f.mix(r.delivered);
  f.mix(r.dropped_channel);
  f.mix(r.blocked_receiver);
  f.mix(std::bit_cast<std::uint64_t>(r.energy));
  return f.h;
}

struct GoldenRow {
  const char* process;
  ProcessParams params;
  Vertex start;
  /// digest[3 * graph + seed] over parity_graphs() x kSeeds: one line per
  /// graph, random_regular(96, 6), torus(6x7), complete(48).
  std::array<std::uint64_t, 9> digest;
};

/// One row per process configuration, shared by the fault-free and the
/// fault-path digest tables below.
const std::vector<GoldenRow>& golden_rows() {
  // Generated from the one-shot reference functions these processes
  // replaced, which they matched draw for draw. The branching-walk and
  // SIS one-shot results carried fewer fields: those fields were checked
  // equal and the full process result pinned. The cobra and bips rows
  // come from the former cover/infection loops, which equalled the
  // process result field for field. Flood never draws, so its seeds
  // agree. A changed digest changes every campaign sink for that process
  // and must be a deliberate edit here.
  static const std::vector<GoldenRow> kRows = {
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
  return kRows;
}

TEST(ProcessGolden, SpreadDigestsArePinned) {
  const std::vector<Graph> graphs = parity_graphs();
  for (const GoldenRow& row : golden_rows()) {
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

// ---- golden fault-path digests ----

FaultOptions drop_quarter() {
  FaultOptions o;
  o.drop = 0.25;
  return o;
}

FaultOptions duty_three_quarters() {
  FaultOptions o;
  o.duty_period = 4;
  o.duty_awake = 3;
  return o;
}

FaultOptions drop_and_duty() {
  FaultOptions o = duty_three_quarters();
  o.drop = 0.25;
  return o;
}

FaultOptions random_churn() {
  FaultOptions o;
  o.churn = 0.1;
  return o;
}

FaultOptions periodic_churn() {
  FaultOptions o;
  o.churn_period = 4;
  o.churn_down = 1;
  return o;
}

/// Schedules that never fire: always awake, never down.
FaultOptions inert_schedules() {
  FaultOptions o;
  o.duty_period = 1;
  o.duty_awake = 1;
  o.churn_period = 4;
  o.churn_down = 0;
  return o;
}

struct FaultGolden {
  const char* setting;
  FaultOptions options;
  /// digest[i] folds golden_rows()[i] over parity_graphs() x kSeeds: each
  /// run's SpreadDigest, then every vertex's tx, rx and listen counters.
  std::array<std::uint64_t, 11> digest;
};

TEST(ProcessGolden, FaultDigestsArePinned) {
  // Recorded from the fault-aware rounds before the listening counters
  // went bulk and COBRA's faulty round joined its batched round loop;
  // both changes had to leave every faulty result and counter unchanged.
  const std::vector<FaultGolden> golden = {
      {"drop 0.25", drop_quarter(),
       {0x0775c4f568465397ull, 0xb839bf11ceb512b2ull, 0x4482668ec331f397ull,
        0xfe733fa06c6ea270ull, 0x8fd3f6a36d2f0edaull, 0x355320a601a065cdull,
        0x7bb6da8e2185974full, 0xcf5fc9872218900eull, 0x70ab5a5efaaec73bull,
        0xa8b961bddba9e3b2ull, 0x765b77973d6b77d1ull}},
      {"duty 3/4", duty_three_quarters(),
       {0x8d656be9f7c43bf5ull, 0x8ef8a1606c1f5bb3ull, 0xd2932c2a46dbb634ull,
        0xc376060e88cbe6a3ull, 0x4e3f6ba8b7bad588ull, 0x42345216b45cfae7ull,
        0xd44ce0810829b8e7ull, 0x8c5a9b4b550cfe45ull, 0xc37a6bc322f9c582ull,
        0x023fde779ab0e9ecull, 0x94243f706a916b85ull}},
      {"drop 0.25 + duty 3/4", drop_and_duty(),
       {0xd9f7d3c0bdb26325ull, 0x740d058c1f8493b7ull, 0x70cb4a036903356dull,
        0x92878a510aa72c36ull, 0xc39fdcf7e2d7fc3bull, 0x88f9b97f0200e3a4ull,
        0x5bd22105bd033109ull, 0xbfe495201c3a48afull, 0x9660297306f57448ull,
        0xca4573de058b5e2dull, 0xfda5f1cb184bb94eull}},
      {"churn 0.1", random_churn(),
       {0xd5e4ce49f703d5e8ull, 0x50193e689afb04f7ull, 0x17d2cd6f1dfe9433ull,
        0x05ab19fd2225d2faull, 0x1aa1cc2e02645d89ull, 0x30c58da7fcbda0d4ull,
        0x74c58d79fb8bb28full, 0x220a9d6e935fdd07ull, 0x9a61f533c2df4531ull,
        0x64f3340c57d59384ull, 0xf53f35df05b6b061ull}},
      {"churn 1/4", periodic_churn(),
       {0xc963abf66ce73147ull, 0x6aaba5b9152196ebull, 0xf0f5f93da315ad17ull,
        0x1bb9b6b7fa2ca772ull, 0x9b8a5ad1b12a348cull, 0x014608a552c41bb1ull,
        0xfb3d5f7cf7cd31d0ull, 0x9c69158b01770731ull, 0x761334230eba6951ull,
        0xd0b23257e8529051ull, 0x1465be9a6f09a4faull}},
      {"inert", inert_schedules(),
       {0xe0d2b7c65eb55526ull, 0xec0ca92d242a4248ull, 0x9d259d54a357be27ull,
        0xdeef995d998fe9aaull, 0x7c6aa95b82031ec8ull, 0x7c67fc5818a53606ull,
        0x1b6032536ec2d5d3ull, 0xca95df3cafe3c772ull, 0xda237fb5f0c6048cull,
        0x8033e4fdb2a758feull, 0x005896edb3b59508ull}},
  };
  const std::vector<Graph> graphs = parity_graphs();
  const std::vector<GoldenRow>& rows = golden_rows();
  for (const FaultGolden& setting : golden) {
    ASSERT_EQ(setting.digest.size(), rows.size());
    for (std::size_t ri = 0; ri < rows.size(); ++ri) {
      const GoldenRow& row = rows[ri];
      Fnv1a f;
      for (const Graph& g : graphs) {
        const FaultModel model(g.num_vertices(), setting.options);
        const auto process = make_process(g, row.process, row.params);
        process->set_fault_model(&model);
        for (const std::uint64_t seed : kSeeds) {
          f.mix(SpreadDigest(process->run(Rng(seed), row.start)));
          const FaultSession& fs = *process->fault_session();
          for (Vertex v = 0; v < g.num_vertices(); ++v) {
            f.mix(fs.tx(v));
            f.mix(fs.rx(v));
            f.mix(fs.listen(v));
          }
        }
      }
      EXPECT_EQ(f.h, setting.digest[ri])
          << setting.setting << ": " << row.process << " "
          << (row.params.empty() ? "" : row.params[0].first + "=" +
                                            row.params[0].second)
          << " got 0x" << std::hex << f.h;
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
