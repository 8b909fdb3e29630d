// SPDX-License-Identifier: MIT
//
// graph_convert — converts between the text edge-list format and the
// binary CSR container (.cgr), in either direction, and generates graph
// families straight to disk. Formats are chosen by extension (.cgr =
// binary, anything else = edge list); binary inputs are additionally
// recognised by magic, so a misnamed file still converts.
//
//   graph_convert big.el big.cgr          # parse once, load fast forever
//   graph_convert big.cgr roundtrip.el    # back to text for inspection
//   graph_convert big.cgr sharded.cgr --shards 8     # v1/v2 -> v3
//   graph_convert --generate family=erdos_renyi,n=1000000,p=0.0001 \
//       --seed 42 --mem-budget 64M big.cgr           # out-of-core
//
// Generation (--generate) turns the spec into the family's EdgeStream and
// by default runs it through the out-of-core scatter/assemble path, so
// the peak working set follows --mem-budget instead of the graph size;
// --in-core materialises the same stream in RAM (build_from_stream) and
// writes it with write_cgr — byte-identical output, which the CI smoke
// compares. --status FILE drops a small JSON with the achieved VmHWM so
// memory-budget claims are checkable from scripts.
//
// Prints the instance summary (n, m, offset width, resident CSR bytes) so
// the conversion doubles as a sanity check before a campaign references
// the file via [graph] family=file.
//
// Exit status: 0 on success, 1 on any IO/format error.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/stream.hpp"
#include "graph/weights.hpp"
#include "obs/progress.hpp"
#include "rand/rng.hpp"
#include "util/flags.hpp"

namespace {

using namespace cobra;

/// Filename without directory or extension — the default graph name for
/// edge-list inputs (kept stable through el -> cgr -> el round trips).
std::string stem_of(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  std::string stem = slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = stem.rfind('.');
  if (dot != std::string::npos && dot > 0) stem.erase(dot);
  return stem;
}

/// Parses "64M"-style sizes (K/M/G binary suffixes, case-insensitive).
std::uint64_t parse_size(const std::string& text) {
  if (text.empty()) throw std::invalid_argument("empty size");
  std::size_t used = 0;
  const std::uint64_t value = std::stoull(text, &used);
  std::uint64_t shift = 0;
  if (used < text.size()) {
    switch (text[used]) {
      case 'K': case 'k': shift = 10; break;
      case 'M': case 'm': shift = 20; break;
      case 'G': case 'g': shift = 30; break;
      default:
        throw std::invalid_argument("bad size suffix in '" + text + "'");
    }
    if (used + 1 != text.size()) {
      throw std::invalid_argument("bad size '" + text + "'");
    }
  }
  return value << shift;
}

/// Parses "key=value,key=value" generation specs ("family=torus,dims=8x8").
std::map<std::string, std::string> parse_spec(const std::string& spec) {
  std::map<std::string, std::string> out;
  std::size_t at = 0;
  while (at < spec.size()) {
    std::size_t comma = spec.find(',', at);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(at, comma - at);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("bad generate item '" + item +
                                  "' (want key=value)");
    }
    out[item.substr(0, eq)] = item.substr(eq + 1);
    at = comma + 1;
  }
  return out;
}

std::vector<std::size_t> parse_dims(const std::string& text) {
  std::vector<std::size_t> dims;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t x = text.find('x', at);
    if (x == std::string::npos) x = text.size();
    dims.push_back(std::stoull(text.substr(at, x - at)));
    at = x + 1;
  }
  if (dims.empty()) throw std::invalid_argument("empty dims");
  return dims;
}

std::string spec_value(const std::map<std::string, std::string>& spec,
                       const std::string& key) {
  const auto it = spec.find(key);
  if (it == spec.end()) {
    throw std::invalid_argument("generate spec missing '" + key + "'");
  }
  return it->second;
}

struct StatusReport {
  std::string mode;
  std::uint64_t n = 0;
  std::uint64_t endpoints = 0;
  std::uint64_t shards = 0;
  std::uint64_t shard_span = 0;
  std::uint64_t mem_budget_bytes = 0;
  std::uint64_t mapped_bytes = 0;
  std::uint64_t resident_bytes = 0;
};

/// Writes the machine-readable run summary the CI memory checks consume.
/// vm_hwm_bytes is the kernel's view of this process's peak RSS — the
/// number an out-of-core run must keep under its budget.
void write_status(const std::string& path, const StatusReport& r) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write status '" + path + "'");
  char buffer[640];
  std::snprintf(
      buffer, sizeof buffer,
      "{\"tool\":\"graph_convert\",\"mode\":\"%s\",\"n\":%" PRIu64
      ",\"endpoints\":%" PRIu64 ",\"shards\":%" PRIu64
      ",\"shard_span\":%" PRIu64 ",\"mem_budget_bytes\":%" PRIu64
      ",\"mapped_bytes\":%" PRIu64 ",\"resident_bytes\":%" PRIu64
      ",\"vm_hwm_bytes\":%" PRIu64 "}\n",
      r.mode.c_str(), r.n, r.endpoints, r.shards, r.shard_span,
      r.mem_budget_bytes, r.mapped_bytes, r.resident_bytes,
      obs::peak_rss_bytes());
  out << buffer;
  out.flush();
  if (!out) throw std::runtime_error("cannot write status '" + path + "'");
}

int run_generate(const std::string& spec_text, const std::string& output,
                 const Flags& flags, const std::string& status_path) {
  const auto spec = parse_spec(spec_text);
  const std::string family = spec_value(spec, "family");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::uint64_t budget = parse_size(flags.get("mem-budget", "256M"));
  const auto shards = static_cast<std::uint64_t>(flags.get_int("shards", 0));
  const auto threads = static_cast<std::size_t>(flags.get_int("threads", 0));
  const bool in_core = flags.has("in-core");
  const std::string weight_name = flags.get("weights", "");
  const auto weight_seed =
      static_cast<std::uint64_t>(flags.get_int("weight-seed", 0));
  flags.warn_unconsumed(std::cerr);
  if (!output.ends_with(".cgr")) {
    std::fprintf(stderr, "error: --generate output must be a .cgr file\n");
    return 1;
  }

  std::optional<gen::WeightKind> weights;
  if (!weight_name.empty()) {
    weights = gen::parse_weight_kind(weight_name);
    if (!weights) {
      std::fprintf(stderr, "error: unknown --weights '%s'\n",
                   weight_name.c_str());
      return 1;
    }
  }

  Rng rng(seed);
  gen::EdgeStream stream;
  if (family == "erdos_renyi") {
    stream = gen::erdos_renyi_stream(std::stoull(spec_value(spec, "n")),
                                     std::stod(spec_value(spec, "p")), rng);
  } else if (family == "torus") {
    stream = gen::torus_stream(parse_dims(spec_value(spec, "dims")));
  } else if (family == "grid") {
    const auto it = spec.find("periodic");
    stream = gen::grid_stream(parse_dims(spec_value(spec, "dims")),
                              it != spec.end() && it->second != "0");
  } else if (family == "hypercube") {
    stream = gen::hypercube_stream(std::stoull(spec_value(spec, "d")));
  } else {
    std::fprintf(stderr, "error: unknown family '%s'\n", family.c_str());
    return 1;
  }

  StatusReport report;
  report.mode = in_core ? "generate-incore" : "generate-stream";
  report.mem_budget_bytes = budget;
  if (in_core) {
    Graph g = gen::build_from_stream(stream);
    if (weights) gen::generate_weights(g, *weights, weight_seed);
    write_cgr(g, output, {.shards = shards});
    report.n = g.num_vertices();
    report.endpoints = 2 * g.num_edges();
    report.shards = shards;
    report.resident_bytes = g.memory_bytes();
    std::printf("%s: n=%zu m=%zu%s -> %s (in-core%s)\n", g.name().c_str(),
                g.num_vertices(), g.num_edges(),
                g.is_weighted() ? " weighted" : "", output.c_str(),
                shards > 0 ? ", sharded" : "");
  } else {
    gen::StreamToCgrOptions options;
    options.mem_budget = budget;
    options.shards = shards;
    options.threads = threads;
    options.tmp_dir = flags.get("tmp-dir", "");
    options.weights = weights;
    options.weight_seed = weight_seed;
    const gen::StreamToCgrStats stats =
        gen::stream_to_cgr(stream, output, options);
    report.n = stats.n;
    report.endpoints = stats.edges * 2;
    report.shards = stats.shards;
    report.shard_span = stats.shard_span;
    std::printf("%s: n=%" PRIu64 " m=%" PRIu64 " shards=%" PRIu64
                " span=%" PRIu64 " spill=%" PRIu64 "B peak_shard=%" PRIu64
                "B -> %s (streamed)\n",
                stream.name.c_str(), stats.n, stats.edges, stats.shards,
                stats.shard_span, stats.spill_bytes, stats.peak_shard_bytes,
                output.c_str());
  }

  if (!status_path.empty()) write_status(status_path, report);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool help = flags.help_requested();
  const bool no_header = flags.has("no-header");
  const bool dedup = flags.has("dedup");
  const bool strip_weights = flags.has("strip-weights");
  const bool use_mmap = flags.has("mmap");
  const std::string name_override = flags.get("name", "");
  const std::string generate = flags.get("generate", "");
  const std::string status_path = flags.get("status", "");
  if (help) {
    std::printf(
        "usage: graph_convert <input> <output> [flags]\n"
        "       graph_convert --generate SPEC <output.cgr> [flags]\n\n"
        "Converts between the text edge-list format and the binary CSR\n"
        "container (.cgr). Output format is chosen by the output file's\n"
        "extension; binary inputs are recognised by extension or magic.\n"
        "Edge weights round-trip through both formats (.cgr v2 carries\n"
        "them natively); --strip-weights drops them so a weighted\n"
        "instance can feed unweighted baselines byte-identically.\n\n"
        "--generate SPEC streams a family straight to a sharded .cgr v3\n"
        "file with peak memory bounded by --mem-budget (K/M/G suffixes).\n"
        "SPEC examples: family=erdos_renyi,n=100000,p=0.001\n"
        "               family=torus,dims=64x64   family=hypercube,d=12\n"
        "--in-core builds the graph in RAM instead (identical bytes).\n"
        "--shards N forces the shard count; --mmap loads .cgr inputs\n"
        "zero-copy; --status FILE writes a JSON summary with the\n"
        "process's peak RSS for memory-budget checks.\n\n"
        "flags:\n");
    flags.print_help(std::cout);
    return 0;
  }
  try {
    if (!generate.empty()) {
      if (flags.positionals().size() != 1) {
        std::fprintf(stderr,
                     "error: --generate expects one <output.cgr> positional\n");
        return 1;
      }
      const std::string output = flags.positionals()[0];
      return run_generate(generate, output, flags, status_path);
    }

    if (flags.positionals().size() != 2) {
      std::fprintf(stderr, "error: expected <input> <output> (try --help)\n");
      return 1;
    }
    const std::string& input = flags.positionals()[0];
    const std::string& output = flags.positionals()[1];
    const auto shards = static_cast<std::uint64_t>(flags.get_int("shards", 0));
    flags.warn_unconsumed(std::cerr);

    Graph g;
    if (input.ends_with(".cgr") || is_cgr_file(input)) {
      g = use_mmap ? map_cgr(input, name_override)
                   : read_cgr(input, name_override);
    } else {
      std::ifstream in(input);
      if (!in) {
        std::fprintf(stderr, "error: cannot open '%s'\n", input.c_str());
        return 1;
      }
      EdgeListOptions options;
      options.require_header = !no_header;
      options.dedup = dedup;
      g = read_edge_list(
          in, name_override.empty() ? stem_of(input) : name_override, options);
    }
    if (strip_weights) g = g.strip_weights();

    if (output.ends_with(".cgr")) {
      write_cgr(g, output, {.shards = shards});
    } else {
      std::ofstream out(output, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                     output.c_str());
        return 1;
      }
      write_edge_list(g, out);
      out.flush();
      if (!out) {
        std::fprintf(stderr, "error: write to '%s' failed\n", output.c_str());
        return 1;
      }
    }

    std::printf("%s: n=%zu m=%zu offsets=%zu-bit%s csr_bytes=%zu%s -> %s\n",
                g.name().c_str(), g.num_vertices(), g.num_edges(),
                g.offset_bytes() * 8, g.is_weighted() ? " weighted" : "",
                g.memory_bytes(), g.is_mapped() ? " (mapped)" : "",
                output.c_str());
    if (!status_path.empty()) {
      StatusReport report;
      report.mode = "convert";
      report.n = g.num_vertices();
      report.endpoints = 2 * g.num_edges();
      report.shards = shards;
      report.mapped_bytes = g.mapped_bytes();
      report.resident_bytes = g.resident_bytes();
      write_status(status_path, report);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
