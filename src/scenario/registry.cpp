// SPDX-License-Identifier: MIT
#include "scenario/registry.hpp"

#include <algorithm>
#include <fstream>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/weights.hpp"
#include "util/param_reader.hpp"

namespace cobra::scenario {

const std::string* find_param(const ParamMap& params, std::string_view key) {
  for (const auto& [k, v] : params) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string canonical_params(const ParamMap& params) {
  ParamMap sorted = params;
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const auto& [k, v] : sorted) {
    if (!out.empty()) out += ',';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

namespace {

/// Graph-family parameter reader reporting SpecError (shared machinery in
/// util/param_reader.hpp; the process factory uses the same reader with
/// its own error type).
using ParamReader = ::cobra::ParamReader<SpecError>;

std::vector<std::uint32_t> to_u32(const std::vector<std::size_t>& values) {
  std::vector<std::uint32_t> out;
  out.reserve(values.size());
  for (const std::size_t v : values) {
    out.push_back(static_cast<std::uint32_t>(v));
  }
  return out;
}

// ---- graph family table ----

using GraphFactory = Graph (*)(ParamReader&, Rng&);

/// The file family's values, read the same way by file_graph and by
/// check_graph_params.
struct FileGraphParams {
  std::string path;
  EdgeListOptions options;
  bool use_mmap = false;
};

FileGraphParams read_file_params(ParamReader& p) {
  FileGraphParams out;
  out.path = p.require("file");
  out.options.require_header = p.get_int("require_header", 0) != 0;
  out.options.dedup = p.get_int("dedup", 1) != 0;
  // mmap = 1 loads a .cgr zero-copy: the job's CSR arrays are read-only
  // views over the file mapping (Graph::is_mapped()), so huge instances
  // run without materializing the graph in RAM. Only meaningful for .cgr
  // files — edge lists always parse into owned storage.
  out.use_mmap = p.get_int("mmap", 0) != 0;
  return out;
}

Graph file_graph(ParamReader& p, Rng&) {
  const auto [path, options, use_mmap] = read_file_params(p);
  // Binary CSR instances load directly (campaigns reuse one generated
  // .cgr across runs instead of re-parsing or regenerating); detection is
  // by extension or magic so an edge list named foo.cgr still errors
  // loudly inside read_cgr rather than being misparsed.
  if (std::string_view(path).ends_with(".cgr") || is_cgr_file(path)) {
    try {
      return use_mmap ? map_cgr(path) : read_cgr(path);
    } catch (const std::invalid_argument& e) {
      throw SpecError("graph family 'file': " + std::string(e.what()));
    }
  }
  if (use_mmap) {
    throw SpecError("graph family 'file': mmap = 1 requires a .cgr file");
  }
  std::ifstream in(path);
  if (!in) {
    throw SpecError("graph family 'file': cannot open '" + path + "'");
  }
  return read_edge_list(in, "file(" + path + ")", options);
}

/// (n, 2m) size prediction for estimate_graph_memory; expectation for
/// random families.
struct SizeEstimate {
  std::uint64_t n = 0;
  std::uint64_t endpoints = 0;
};

using GraphEstimator = SizeEstimate (*)(ParamReader&);

SizeEstimate est_regular(std::uint64_t n, std::uint64_t r) {
  return {n, n * r};
}

struct GraphFamily {
  const char* name;
  /// Accepted parameter keys, null-padded ("family" itself is implied);
  /// the campaign planner validates spec keys against this list.
  const char* keys[4];
  GraphFactory build;
  /// Size prediction for --dry-run memory estimates; nullptr = unknown
  /// (family=file).
  GraphEstimator estimate = nullptr;
};

const GraphFamily kGraphFamilies[] = {
    {"barabasi_albert",
     {"n", "attach"},
     [](ParamReader& p, Rng& rng) {
       return gen::barabasi_albert(p.require_size("n"), p.require_size("attach"),
                                   rng);
     },
     [](ParamReader& p) -> SizeEstimate {
       const std::uint64_t n = p.require_size("n");
       const std::uint64_t a = p.require_size("attach");
       if (n < a + 1) return {n, 0};
       return {n, a * (a + 1) + 2 * (n - a - 1) * a};
     }},
    {"barbell",
     {"clique", "bridge"},
     [](ParamReader& p, Rng&) {
       return gen::barbell(p.require_size("clique"), p.require_size("bridge"));
     },
     [](ParamReader& p) -> SizeEstimate {
       const std::uint64_t c = p.require_size("clique");
       const std::uint64_t b = p.require_size("bridge");
       return {2 * c + b, 2 * (c * (c - 1) + b + 1)};
     }},
    {"binary_tree",
     {"levels"},
     [](ParamReader& p, Rng&) {
       return gen::binary_tree(p.require_size("levels"));
     },
     [](ParamReader& p) -> SizeEstimate {
       const std::uint64_t n =
           (std::uint64_t{1} << std::min<std::size_t>(p.require_size("levels"),
                                                      62)) -
           1;
       return {n, n > 0 ? 2 * (n - 1) : 0};
     }},
    {"circulant",
     {"n", "offsets"},
     [](ParamReader& p, Rng&) {
       return gen::circulant(p.require_size("n"),
                             to_u32(p.require_size_list("offsets")));
     },
     [](ParamReader& p) -> SizeEstimate {
       const std::uint64_t n = p.require_size("n");
       std::uint64_t edges = 0;
       for (const std::size_t s : p.require_size_list("offsets")) {
         edges += (2 * s == n) ? n / 2 : n;
       }
       return {n, 2 * edges};
     }},
    {"complete",
     {"n"},
     [](ParamReader& p, Rng&) { return gen::complete(p.require_size("n")); },
     [](ParamReader& p) -> SizeEstimate {
       const std::uint64_t n = p.require_size("n");
       return {n, n * (n - 1)};
     }},
    {"complete_bipartite",
     {"a", "b"},
     [](ParamReader& p, Rng&) {
       return gen::complete_bipartite(p.require_size("a"),
                                      p.require_size("b"));
     },
     [](ParamReader& p) -> SizeEstimate {
       const std::uint64_t a = p.require_size("a");
       const std::uint64_t b = p.require_size("b");
       return {a + b, 2 * a * b};
     }},
    {"connected_random_regular",
     {"n", "r"},
     [](ParamReader& p, Rng& rng) {
       return gen::connected_random_regular(p.require_size("n"),
                                            p.require_size("r"), rng);
     },
     [](ParamReader& p) -> SizeEstimate {
       return est_regular(p.require_size("n"), p.require_size("r"));
     }},
    {"cycle",
     {"n"},
     [](ParamReader& p, Rng&) { return gen::cycle(p.require_size("n")); },
     [](ParamReader& p) -> SizeEstimate {
       const std::uint64_t n = p.require_size("n");
       return {n, 2 * n};
     }},
    {"erdos_renyi",
     {"n", "p"},
     [](ParamReader& p, Rng& rng) {
       return gen::erdos_renyi(p.require_size("n"), p.require_double("p"),
                               rng);
     },
     [](ParamReader& p) -> SizeEstimate {
       const std::uint64_t n = p.require_size("n");
       const double prob = p.require_double("p");
       const double pairs = 0.5 * static_cast<double>(n) *
                            static_cast<double>(n > 0 ? n - 1 : 0);
       return {n, static_cast<std::uint64_t>(2.0 * prob * pairs)};
     }},
    {"file", {"file", "require_header", "dedup", "mmap"}, file_graph},
    {"generalized_petersen",
     {"n", "k"},
     [](ParamReader& p, Rng&) {
       return gen::generalized_petersen(p.require_size("n"),
                                        p.require_size("k"));
     },
     [](ParamReader& p) -> SizeEstimate {
       const std::uint64_t n = p.require_size("n");
       p.require_size("k");
       return {2 * n, 6 * n};
     }},
    {"grid",
     {"dims", "periodic"},
     [](ParamReader& p, Rng&) {
       return gen::grid(p.require_size_list("dims"),
                        p.get_int("periodic", 0) != 0);
     },
     [](ParamReader& p) -> SizeEstimate {
       const auto dims = p.require_size_list("dims");
       const bool periodic = p.get_int("periodic", 0) != 0;
       std::uint64_t n = 1;
       for (const std::size_t side : dims) n *= side;
       std::uint64_t edges = 0;
       for (const std::size_t side : dims) {
         if (side == 0) return {0, 0};
         edges += periodic ? n : n - n / side;
       }
       return {n, 2 * edges};
     }},
    {"hypercube",
     {"d"},
     [](ParamReader& p, Rng&) { return gen::hypercube(p.require_size("d")); },
     [](ParamReader& p) -> SizeEstimate {
       const std::uint64_t d = std::min<std::size_t>(p.require_size("d"), 62);
       const std::uint64_t n = std::uint64_t{1} << d;
       return {n, n * d};
     }},
    {"kneser",
     {"n_set", "k_subset"},
     [](ParamReader& p, Rng&) {
       return gen::kneser(p.require_size("n_set"),
                          p.require_size("k_subset"));
     },
     [](ParamReader& p) -> SizeEstimate {
       const std::uint64_t ns = p.require_size("n_set");
       const std::uint64_t k = p.require_size("k_subset");
       const auto binom = [](std::uint64_t nn, std::uint64_t kk) {
         if (kk > nn) return std::uint64_t{0};
         double acc = 1.0;
         for (std::uint64_t i = 0; i < kk; ++i) {
           acc *= static_cast<double>(nn - i) / static_cast<double>(i + 1);
           if (acc > 1e18) return std::uint64_t{1} << 62;
         }
         return static_cast<std::uint64_t>(acc);
       };
       const std::uint64_t n = binom(ns, k);
       return {n, n * binom(ns - k, k)};
     }},
    {"lollipop",
     {"clique", "path"},
     [](ParamReader& p, Rng&) {
       return gen::lollipop(p.require_size("clique"), p.require_size("path"));
     },
     [](ParamReader& p) -> SizeEstimate {
       const std::uint64_t c = p.require_size("clique");
       const std::uint64_t path = p.require_size("path");
       return {c + path, c * (c - 1) + 2 * path};
     }},
    {"margulis",
     {"m"},
     [](ParamReader& p, Rng&) { return gen::margulis(p.require_size("m")); },
     [](ParamReader& p) -> SizeEstimate {
       // Template upper bound: 8 half-edges per vertex before loop and
       // coincidence drops.
       const std::uint64_t m = p.require_size("m");
       return {m * m, 8 * m * m};
     }},
    {"paley",
     {"q"},
     [](ParamReader& p, Rng&) { return gen::paley(p.require_size("q")); },
     [](ParamReader& p) -> SizeEstimate {
       const std::uint64_t q = p.require_size("q");
       return {q, q > 0 ? q * ((q - 1) / 2) : 0};
     }},
    {"path",
     {"n"},
     [](ParamReader& p, Rng&) { return gen::path(p.require_size("n")); },
     [](ParamReader& p) -> SizeEstimate {
       const std::uint64_t n = p.require_size("n");
       return {n, n > 0 ? 2 * (n - 1) : 0};
     }},
    {"petersen", {}, [](ParamReader&, Rng&) { return gen::petersen(); },
     [](ParamReader&) -> SizeEstimate { return {10, 30}; }},
    {"random_geometric",
     {"n", "radius"},
     [](ParamReader& p, Rng& rng) {
       return gen::random_geometric(p.require_size("n"),
                                    p.require_double("radius"), rng);
     },
     [](ParamReader& p) -> SizeEstimate {
       const std::uint64_t n = p.require_size("n");
       const double radius = p.require_double("radius");
       const double pairs = 0.5 * static_cast<double>(n) *
                            static_cast<double>(n > 0 ? n - 1 : 0);
       const double pi = 3.14159265358979323846;
       return {n, static_cast<std::uint64_t>(2.0 * pairs * pi * radius *
                                             radius)};
     }},
    {"random_regular",
     {"n", "r", "connected"},
     [](ParamReader& p, Rng& rng) {
       // connected=1 (default) retries until the sample is connected.
       if (p.get_int("connected", 1) != 0) {
         return gen::connected_random_regular(p.require_size("n"),
                                              p.require_size("r"), rng);
       }
       return gen::random_regular(p.require_size("n"), p.require_size("r"),
                                  rng);
     },
     [](ParamReader& p) -> SizeEstimate {
       p.get_int("connected", 1);  // parsed so the planner vets it
       return est_regular(p.require_size("n"), p.require_size("r"));
     }},
    {"star",
     {"n"},
     [](ParamReader& p, Rng&) { return gen::star(p.require_size("n")); },
     [](ParamReader& p) -> SizeEstimate {
       const std::uint64_t n = p.require_size("n");
       return {n, n > 0 ? 2 * (n - 1) : 0};
     }},
    {"torus",
     {"dims"},
     [](ParamReader& p, Rng&) {
       return gen::torus(p.require_size_list("dims"));
     },
     [](ParamReader& p) -> SizeEstimate {
       const auto dims = p.require_size_list("dims");
       std::uint64_t n = 1;
       for (const std::size_t side : dims) n *= side;
       return {n, 2 * n * dims.size()};
     }},
    {"watts_strogatz",
     {"n", "k", "beta"},
     [](ParamReader& p, Rng& rng) {
       return gen::watts_strogatz(p.require_size("n"), p.require_size("k"),
                                  p.require_double("beta"), rng);
     },
     [](ParamReader& p) -> SizeEstimate {
       const std::uint64_t n = p.require_size("n");
       const std::uint64_t k = p.require_size("k");
       p.get_double("beta", 0.0);  // rewiring preserves the edge count
       return {n, n * k};
     }},
};

const GraphFamily* find_family(std::string_view name) {
  for (const auto& family : kGraphFamilies) {
    if (name == family.name) return &family;
  }
  return nullptr;
}

bool key_listed(const char* const (&keys)[4], std::string_view key) {
  for (const char* candidate : keys) {
    if (candidate == nullptr) break;
    if (key == candidate) return true;
  }
  return false;
}

}  // namespace

std::vector<std::string> graph_families() {
  std::vector<std::string> names;
  for (const auto& family : kGraphFamilies) names.emplace_back(family.name);
  return names;
}

bool is_graph_family(std::string_view name) {
  return find_family(name) != nullptr;
}

namespace {

const GraphFamily& dispatch_family(const ParamMap& params) {
  const std::string* family_name = find_param(params, "family");
  if (family_name == nullptr) {
    throw SpecError("graph: missing required parameter 'family'");
  }
  const GraphFamily* family = find_family(*family_name);
  if (family == nullptr) {
    throw SpecError("graph: unknown family '" + *family_name +
                    "' (see scenario_runner --list)");
  }
  return *family;
}

/// Universal weight hooks, consumed before family dispatch:
///   weight = uniform|exp  synthesizes deterministic per-edge weights on
///                         any family (graph/weights.hpp);
///   weight = file         asserts the loaded file carried weights;
///   weight_seed           pins the synthesis seed (default: one draw
///                         from the job's graph RNG, taken after the
///                         family build so unweighted jobs see an
///                         unchanged stream).
struct WeightSpec {
  std::string kind;
  std::optional<gen::WeightKind> synth;
  bool seed_given = false;
  std::int64_t seed = 0;
};

WeightSpec read_weight_spec(ParamReader& reader) {
  WeightSpec spec;
  spec.kind = reader.get("weight", "none");
  spec.seed_given = reader.has("weight_seed");
  spec.seed = spec.seed_given ? reader.require_int("weight_seed") : 0;
  // Pure string checks, validated before the family build: surfacing a
  // typo after a multi-minute n=2^24 generation would waste the build.
  if (spec.kind != "none" && spec.kind != "file") {
    spec.synth = gen::parse_weight_kind(spec.kind);
    if (!spec.synth.has_value()) {
      throw SpecError("graph: unknown weight kind '" + spec.kind +
                      "' (none, uniform, exp, file)");
    }
  }
  if (spec.seed_given && !spec.synth.has_value()) {
    throw SpecError("graph: 'weight_seed' requires weight = uniform|exp");
  }
  return spec;
}

}  // namespace

Graph build_graph(const ParamMap& params, Rng& rng) {
  const GraphFamily& family = dispatch_family(params);
  ParamReader reader(params, std::string("graph family '") + family.name +
                                 "'");
  reader.require("family");  // consumed by dispatch
  const WeightSpec weight = read_weight_spec(reader);
  Graph g = family.build(reader, rng);
  reader.finish();
  if (weight.kind == "file") {
    if (!g.is_weighted()) {
      throw SpecError(
          "graph: weight = file, but the loaded graph carries no weights "
          "(needs family = file with a weighted edge list or .cgr v2)");
    }
  } else if (weight.synth.has_value()) {
    const std::uint64_t seed = weight.seed_given
                                   ? static_cast<std::uint64_t>(weight.seed)
                                   : rng();
    gen::generate_weights(g, *weight.synth, seed);
  }
  return g;
}

void check_graph_params(const ParamMap& params) {
  const GraphFamily& family = dispatch_family(params);
  ParamReader reader(params, std::string("graph family '") + family.name +
                                 "'");
  reader.require("family");
  (void)read_weight_spec(reader);
  // The size estimators read every value that shapes the graph, with the
  // build's reader context; the file family reads its own keys.
  if (family.estimate != nullptr) {
    (void)family.estimate(reader);
  } else {
    (void)read_file_params(reader);
  }
}

GraphMemoryEstimate estimate_graph_memory(const ParamMap& params) {
  GraphMemoryEstimate out;
  const std::string* family_name = find_param(params, "family");
  if (family_name == nullptr) return out;
  // family=file on a .cgr: the header gives *exact* sizes, and mmap = 1
  // marks the file-backed portion so --dry-run can report mapped vs
  // resident bytes separately.
  if (*family_name == "file") {
    const std::string* path = find_param(params, "file");
    if (path == nullptr || !is_cgr_file(*path)) return out;
    CgrInfo info;
    try {
      info = read_cgr_info(*path);
    } catch (const std::invalid_argument&) {
      return out;  // corrupt file — surfaces when the job actually runs
    }
    out.known = true;
    out.n = info.n;
    out.endpoints = info.endpoints;
    out.offset_bytes = info.wide ? 8 : 4;
    out.csr_bytes = (info.n + 1) * out.offset_bytes + info.endpoints * 4;
    const std::string* weight = find_param(params, "weight");
    const bool synth =
        weight != nullptr && (*weight == "uniform" || *weight == "exp");
    if (synth || info.weighted) {
      out.weight_bytes = info.endpoints * sizeof(float);
    }
    const std::string* mmap_param = find_param(params, "mmap");
    if (mmap_param != nullptr && *mmap_param != "0") {
      // Synthesized weights replace the file's and live in owned storage,
      // so only file-carried weights stay mapped.
      out.mapped_bytes =
          out.csr_bytes + (info.weighted && !synth ? out.weight_bytes : 0);
    }
    return out;
  }
  const GraphFamily* family = find_family(*family_name);
  if (family == nullptr || family->estimate == nullptr) return out;
  SizeEstimate size;
  try {
    ParamReader reader(params, "estimate '" + *family_name + "'");
    reader.require("family");
    size = family->estimate(reader);
    // No reader.finish(): estimators only read the keys that determine
    // size; leftover keys are the planner's concern, not the estimate's.
  } catch (const SpecError&) {
    return out;  // malformed values surface when the job actually runs
  }
  out.known = true;
  out.n = size.n;
  out.endpoints = size.endpoints;
  out.offset_bytes = csr_offsets_fit_32bit(size.endpoints) ? 4 : 8;
  out.csr_bytes = (size.n + 1) * out.offset_bytes + size.endpoints * 4;
  // Synthetic weights add one float per half-edge (8m bytes). weight=file
  // keeps whatever the file holds; file-family sizes are unknown anyway.
  const std::string* weight = find_param(params, "weight");
  if (weight != nullptr && (*weight == "uniform" || *weight == "exp")) {
    out.weight_bytes = size.endpoints * sizeof(float);
  }
  return out;
}

/// The weight hooks are accepted by every family (build_graph consumes
/// them before family dispatch).
bool is_universal_graph_key(std::string_view key) {
  return key == "weight" || key == "weight_seed";
}

bool graph_family_has_param(std::string_view family, std::string_view key) {
  const GraphFamily* entry = find_family(family);
  if (entry == nullptr) return false;
  return is_universal_graph_key(key) || key_listed(entry->keys, key);
}

std::vector<std::string> graph_family_param_keys(std::string_view family) {
  std::vector<std::string> keys;
  const GraphFamily* entry = find_family(family);
  if (entry == nullptr) return keys;
  for (const char* key : entry->keys) {
    if (key == nullptr) break;
    keys.emplace_back(key);
  }
  keys.emplace_back("weight");
  keys.emplace_back("weight_seed");
  return keys;
}

std::vector<std::string> process_names() {
  return ::cobra::process_names();
}

bool is_process_name(std::string_view name) {
  return ::cobra::is_process_name(name);
}

bool process_has_param(std::string_view name, std::string_view key) {
  return ::cobra::process_has_param(name, key);
}

std::unique_ptr<Process> make_process(const Graph& g, const ParamMap& params) {
  try {
    return ::cobra::make_process(g, params);
  } catch (const ProcessFactoryError& e) {
    // Same diagnostics, one error type for the campaign planner.
    throw SpecError(e.what());
  }
}

void check_process_params(const ParamMap& params) {
  // A weighted triangle satisfies every graph precondition a builder
  // checks (weights present, no isolated vertex), so only the parameter
  // values can fail here.
  static const Graph probe = [] {
    Graph g = gen::complete(3);
    gen::generate_weights(g, gen::WeightKind::kUniform, 1);
    return g;
  }();
  (void)scenario::make_process(probe, params);
}

}  // namespace cobra::scenario
