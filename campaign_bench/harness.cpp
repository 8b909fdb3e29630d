// SPDX-License-Identifier: MIT
//
// campaign_harness: the compiled half of the end-to-end campaign benchmark
// (run.py drives it; see README.md for the workloads and metrics). It calls
// the repository only through its public entry points, one leg per process
// so that VmHWM is scoped to the leg:
//
//   generate   build_graph(random_regular) + write_cgr, once: the
//              big_expander set-up that produces the graph it later maps
//   run        untraced leg: --setup-reps set-ups (read + parse +
//              plan_campaign), then one campaign from the plan to written
//              sinks (run_campaign, or a Coordinator serving the fabric)
//   trace      traced leg: replays the plan serially with a span around each
//              call into a layer, then (--fabric 1) serves it once more
//              through an in-process Coordinator and two run_worker threads
//
// Every subcommand prints one JSON object on stdout and exits 0, or prints
// the error on stderr and exits 1.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "graph/io.hpp"
#include "obs/progress.hpp"
#include "rand/rng.hpp"
#include "scenario/campaign.hpp"
#include "scenario/graph_cache.hpp"
#include "scenario/registry.hpp"
#include "scenario/sink.hpp"
#include "scenario/spec.hpp"
#include "util/build_info.hpp"

namespace {

using namespace cobra;
using scenario::CampaignPlan;
using scenario::JobResult;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU of the whole process: generator and thread-pool
/// workers the program starts are included.
double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  return static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0);
}

double mb(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Exact totals from a job's summaries: count * mean recovers the integer
/// sum (every total here is far below 2^53).
std::uint64_t summary_total(const Summary& summary) {
  return static_cast<std::uint64_t>(
      static_cast<double>(summary.count) * summary.mean + 0.5);
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += json_number(values[i]);
  }
  return out + "]";
}

/// --key value pairs after the subcommand.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("expected --key value, got '" + key + "'");
      }
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw std::invalid_argument("missing --" + key);
    }
    return it->second;
  }
  std::uint64_t get_u64(const std::string& key) const {
    return std::stoull(get(key));
  }
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    return values_.count(key) != 0 ? get_u64(key) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

struct Planned {
  std::string text;
  CampaignPlan plan;
};

Planned plan_spec(const std::string& path) {
  Planned planned;
  planned.text = read_text(path);
  planned.plan = scenario::plan_campaign(
      scenario::ScenarioSpec::parse_string(planned.text, path));
  return planned;
}

// ---- fabric: in-process Coordinator + serial run_worker threads ----

struct WorkerRun {
  double seconds = 0.0;
  dist::WorkerResult result;
  std::string error;
};

struct FabricRun {
  dist::CoordinatorResult served;
  double serve_seconds = 0.0;
  std::vector<WorkerRun> workers;
};

constexpr std::size_t kFabricWorkers = 2;

dist::CoordinatorOptions fabric_options(const std::string& stem) {
  dist::CoordinatorOptions options;
  options.output = stem;
  options.resume = false;
  return options;
}

FabricRun serve_fabric(dist::Coordinator& coordinator) {
  FabricRun run;
  run.workers.resize(kFabricWorkers);
  dist::WorkerOptions worker_options;
  worker_options.port = coordinator.port();
  std::vector<std::thread> threads;
  for (WorkerRun& worker : run.workers) {
    threads.emplace_back([&worker, worker_options] {
      const Clock::time_point start = Clock::now();
      try {
        worker.result = dist::run_worker(worker_options);
      } catch (const std::exception& e) {
        worker.error = e.what();
      }
      worker.seconds = seconds_since(start);
    });
  }
  std::string serve_error;
  const Clock::time_point start = Clock::now();
  try {
    run.served = coordinator.serve();
  } catch (const std::exception& e) {
    serve_error = e.what();
    coordinator.stop();
  }
  run.serve_seconds = seconds_since(start);
  for (std::thread& thread : threads) thread.join();
  if (!serve_error.empty()) throw std::runtime_error("serve: " + serve_error);
  for (const WorkerRun& worker : run.workers) {
    if (!worker.error.empty()) {
      throw std::runtime_error("worker: " + worker.error);
    }
  }
  if (!run.served.complete) throw std::runtime_error("fabric left jobs unmerged");
  return run;
}

std::string fabric_json(const FabricRun& run) {
  std::string out = "{\"serve_s\":" + json_number(run.serve_seconds) +
                    ",\"merged\":" + std::to_string(run.served.merged) +
                    ",\"duplicates\":" + std::to_string(run.served.duplicates) +
                    ",\"requeues\":" + std::to_string(run.served.requeues) +
                    ",\"workers\":[";
  for (std::size_t i = 0; i < run.workers.size(); ++i) {
    const WorkerRun& worker = run.workers[i];
    if (i > 0) out += ",";
    out += "{\"seconds\":" + json_number(worker.seconds) +
           ",\"jobs\":" + std::to_string(worker.result.jobs_executed) +
           ",\"shards\":" + std::to_string(worker.result.shards_completed) +
           "}";
  }
  return out + "]}";
}

// ---- subcommands ----

int cmd_generate(const Args& args) {
  const scenario::ParamMap params = {{"family", "random_regular"},
                                     {"n", args.get("n")},
                                     {"r", args.get("r")}};
  Clock::time_point start = Clock::now();
  Rng rng(args.get_u64("seed"));
  const Graph graph = scenario::build_graph(params, rng);
  const double generate_s = seconds_since(start);
  start = Clock::now();
  write_cgr(graph, args.get("out"));
  std::cout << "{\"generate_s\":" << json_number(generate_s)
            << ",\"write_cgr_s\":" << json_number(seconds_since(start))
            << "}\n";
  return 0;
}

int cmd_run(const Args& args) {
  const std::string spec_path = args.get("spec");
  const std::string stem = args.get("stem");
  const bool fabric = args.get_u64("fabric", 0) != 0;
  const std::uint64_t setup_reps = args.get_u64("setup-reps", 1);

  // Set-up, repeated so the reported figure can be a median: reading,
  // parsing and planning the spec. The journal open (and with it the
  // Coordinator, which opens the journal when it binds) is fsync-bound,
  // so it is timed inside wall_s instead (see README.md).
  std::vector<double> setup_s;
  Planned planned;
  for (std::uint64_t rep = 0; rep < setup_reps; ++rep) {
    const Clock::time_point start = Clock::now();
    planned = plan_spec(spec_path);
    setup_s.push_back(seconds_since(start));
  }

  const double cpu_start = cpu_seconds();
  const Clock::time_point start = Clock::now();
  if (fabric) {
    dist::Coordinator coordinator(planned.plan, planned.text,
                                  fabric_options(stem));
    serve_fabric(coordinator);
  } else {
    scenario::CampaignOptions options;
    options.output = stem;
    options.resume = false;
    const scenario::CampaignResult result =
        scenario::run_campaign(planned.plan, options);
    if (!result.complete) throw std::runtime_error("campaign incomplete");
  }
  const double wall_s = seconds_since(start);
  const double cpu_s = cpu_seconds() - cpu_start;
  std::cout << "{\"setup_s\":" << json_list(setup_s)
            << ",\"wall_s\":" << json_number(wall_s)
            << ",\"cpu_s\":" << json_number(cpu_s)
            << ",\"peak_rss_mb\":" << json_number(peak_rss_mb())
            << ",\"jobs\":" << planned.plan.jobs.size()
            << ",\"threads\":" << planned.plan.threads << "}\n";
  return 0;
}

/// In-memory span log for the traced leg: name, start, end, the enclosing
/// span, and process CPU over the span (RUSAGE_SELF, so pools the callee
/// starts are charged to it; the replay itself is serial).
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, std::string detail = {})
        : log_(log), index_(log.open(std::move(name), std::move(detail))) {}
    ~Scope() { log_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Extra numeric field on the span (rounds, messages, bytes...).
    void set(const std::string& key, double value) {
      log_.spans_[index_].fields.emplace_back(key, value);
    }

   private:
    SpanLog& log_;
    std::size_t index_;
  };

  /// A span timed elsewhere (a worker thread), attached to the open span.
  void add(std::string name, double start_s, double end_s,
           std::vector<std::pair<std::string, double>> fields) {
    spans_.push_back({std::move(name), {}, parent(), start_s, end_s, 0.0,
                      std::move(fields)});
  }

  double now() const { return seconds_since(epoch_); }

  std::string json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      if (i > 0) out += ",";
      out += "{\"name\":" + json_string(span.name) +
             ",\"detail\":" + json_string(span.detail) +
             ",\"parent\":" + std::to_string(span.parent) +
             ",\"start_s\":" + json_number(span.start_s) +
             ",\"end_s\":" + json_number(span.end_s) +
             ",\"cpu_s\":" + json_number(span.cpu_s);
      for (const auto& [key, value] : span.fields) {
        out += ',';
        out += json_string(key);
        out += ':';
        out += json_number(value);
      }
      out += "}";
    }
    return out + "]";
  }

 private:
  struct Span {
    std::string name;
    std::string detail;
    long parent;
    double start_s;
    double end_s;
    double cpu_s;
    std::vector<std::pair<std::string, double>> fields;
  };

  long parent() const {
    return open_.empty() ? -1 : static_cast<long>(open_.back());
  }
  std::size_t open(std::string name, std::string detail) {
    spans_.push_back({std::move(name), std::move(detail), parent(), now(), 0.0,
                      cpu_seconds(), {}});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    spans_[index].end_s = now();
    spans_[index].cpu_s = cpu_seconds() - spans_[index].cpu_s;
    open_.pop_back();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

int cmd_trace(const Args& args) {
  const std::string spec_path = args.get("spec");
  const std::string stem = args.get("stem");
  const bool fabric = args.get_u64("fabric", 0) != 0;
  SpanLog log;
  Planned planned;
  {
    SpanLog::Scope replay(log, "replay");
    {
      SpanLog::Scope span(log, "scenario.plan");
      planned = plan_spec(spec_path);
    }
    const CampaignPlan& plan = planned.plan;
    std::optional<scenario::Journal> journal;
    {
      SpanLog::Scope span(log, "scenario.journal_open");
      journal.emplace(stem + ".journal", plan, false);
    }
    std::vector<std::optional<JobResult>> results(plan.jobs.size());
    // The grid's fastest axes are process and fault keys, so the jobs that
    // share a graph instance are adjacent: one build per key, as the
    // campaign's GraphCache does.
    std::string graph_key;
    std::shared_ptr<const Graph> graph;
    for (const scenario::JobSpec& job : plan.jobs) {
      const std::string key = scenario::GraphCache::key_for(job);
      if (graph == nullptr || key != graph_key) {
        graph.reset();
        const std::string* family = scenario::find_param(job.graph, "family");
        SpanLog::Scope span(log, *family == "file" ? "graph.map" : "graph.build",
                            key);
        graph = std::make_shared<const Graph>(
            scenario::build_campaign_graph(plan, job));
        graph_key = key;
        span.set("resident_mb", mb(graph->resident_bytes()));
        span.set("mapped_mb", mb(graph->mapped_bytes()));
      }
      const std::string* process = scenario::find_param(job.process, "name");
      {
        SpanLog::Scope span(log, "core.trials", *process);
        const JobResult result =
            scenario::execute_campaign_job(plan, job, *graph);
        span.set("job", static_cast<double>(job.index));
        span.set("faulty", job.faults.empty() ? 0.0 : 1.0);
        span.set("trials", static_cast<double>(result.trials));
        span.set("failed", static_cast<double>(result.failed));
        span.set("rounds", static_cast<double>(summary_total(result.rounds)));
        span.set("messages",
                 static_cast<double>(summary_total(result.transmissions)));
        results[job.index] = result;
      }
      SpanLog::Scope span(log, "scenario.journal_append");
      journal->append(job.index, *results[job.index]);
    }
    graph.reset();
    journal.reset();
    SpanLog::Scope span(log, "scenario.sink_write");
    scenario::write_campaign_sinks(plan, results, stem);
  }
  std::string fabric_detail = "null";
  if (fabric) {
    SpanLog::Scope root(log, "fabric");
    std::optional<dist::Coordinator> coordinator;
    {
      SpanLog::Scope span(log, "dist.bind");
      coordinator.emplace(planned.plan, planned.text,
                          fabric_options(stem + ".fabric"));
    }
    const double serve_start = log.now();
    const FabricRun run = serve_fabric(*coordinator);
    log.add("dist.serve", serve_start, serve_start + run.serve_seconds, {});
    for (const WorkerRun& worker : run.workers) {
      log.add("dist.worker", serve_start, serve_start + worker.seconds,
              {{"jobs", static_cast<double>(worker.result.jobs_executed)},
               {"shards", static_cast<double>(worker.result.shards_completed)}});
    }
    fabric_detail = fabric_json(run);
  }
  std::cout << "{\"jobs\":" << planned.plan.jobs.size()
            << ",\"fabric\":" << fabric_detail
            << ",\"spans\":" << log.json() << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: campaign_harness generate|run|trace|build-info "
                 "--key value ...\n";
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Args args(argc, argv);
    if (command == "generate") return cmd_generate(args);
    if (command == "run") return cmd_run(args);
    if (command == "trace") return cmd_trace(args);
    if (command == "build-info") {
      std::cout << "{\"build_info\":" << json_string(build_info_string())
                << "}\n";
      return 0;
    }
    std::cerr << "campaign_harness: unknown subcommand '" << command << "'\n";
  } catch (const std::exception& e) {
    std::cerr << "campaign_harness " << command << ": " << e.what() << "\n";
  }
  return 1;
}
