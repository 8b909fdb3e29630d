// SPDX-License-Identifier: MIT
#include "dist/worker.hpp"

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <vector>

#include "dist/protocol.hpp"
#include "scenario/campaign.hpp"
#include "scenario/graph_cache.hpp"
#include "scenario/registry.hpp"
#include "scenario/sink.hpp"
#include "sim/thread_pool.hpp"
#include "util/build_info.hpp"

namespace cobra::dist {

using scenario::CampaignPlan;
using scenario::GraphCache;
using scenario::JobSpec;
using scenario::ScenarioSpec;
using scenario::SpecError;

namespace {

struct WorkerState {
  Socket socket;
  std::mutex send_mutex;  ///< result frames may race from pool threads
  CampaignPlan plan;
  std::unique_ptr<GraphCache> cache;
  std::ostream* log = nullptr;
  std::uint64_t id = 0;

  void send(FrameType type, std::string_view payload) {
    std::lock_guard lock(send_mutex);
    socket.send_frame(type, payload);
  }

  void log_line(const std::string& text) {
    if (log != nullptr) {
      *log << "[worker " << id << "] " << text << "\n";
    }
  }
};

WelcomeMsg do_handshake(WorkerState& state) {
  HelloMsg hello;
  hello.journal_format = scenario::kJournalFormatVersion;
  hello.build_info = build_info_string();
  state.socket.send_frame(FrameType::kHello, encode_hello(hello));

  Frame frame;
  if (!state.socket.recv_frame(frame)) {
    throw ProtocolError("coordinator closed during handshake");
  }
  if (frame.type == FrameType::kReject) {
    throw ProtocolError("coordinator rejected worker: " + frame.payload);
  }
  if (frame.type != FrameType::kWelcome) {
    throw ProtocolError(std::string("expected WELCOME, got ") +
                        frame_type_name(frame.type));
  }
  const WelcomeMsg welcome = decode_welcome(frame.payload);
  if (welcome.protocol != kProtocolVersion ||
      welcome.journal_format != scenario::kJournalFormatVersion) {
    throw ProtocolError("coordinator version mismatch: protocol v" +
                        std::to_string(welcome.protocol) + " journal v" +
                        std::to_string(welcome.journal_format));
  }
  return welcome;
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

/// mkdir -p for the directory components of `path` (the graph lands at
/// the same relative path the plan names, which may be nested).
void make_parent_dirs(const std::string& path) {
  for (std::size_t slash = path.find('/'); slash != std::string::npos;
       slash = path.find('/', slash + 1)) {
    if (slash == 0) continue;  // absolute-path root
    const std::string dir = path.substr(0, slash);
    ::mkdir(dir.c_str(), 0755);  // EEXIST is fine
  }
}

/// Downloads one plan-referenced graph file from the coordinator in
/// frame-sized byte ranges, writing to `<path>.part` and renaming into
/// place — a killed worker never leaves a plausible-looking half file.
void fetch_graph(WorkerState& state, const std::string& path) {
  constexpr std::uint32_t kChunk = 8u << 20;
  make_parent_dirs(path);
  const std::string part = path + ".part";
  std::ofstream out(part, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw SpecError("cannot write graph file '" + part + "'");
  }
  std::uint64_t offset = 0;
  std::uint64_t file_size = 0;
  Frame frame;
  do {
    GraphRequestMsg request;
    request.path = path;
    request.offset = offset;
    request.max_bytes = kChunk;
    state.send(FrameType::kGraphRequest, encode_graph_request(request));
    if (!state.socket.recv_frame(frame)) {
      throw ProtocolError("coordinator closed during graph fetch");
    }
    if (frame.type == FrameType::kError) {
      throw SpecError("coordinator error: " + frame.payload);
    }
    if (frame.type != FrameType::kGraphData) {
      throw ProtocolError(std::string("expected GRAPH_DATA, got ") +
                          frame_type_name(frame.type));
    }
    const GraphDataMsg data = decode_graph_data(frame.payload);
    file_size = data.file_size;
    if (offset < file_size && data.bytes.empty()) {
      throw ProtocolError("empty GRAPH_DATA mid-file for '" + path + "'");
    }
    out.write(data.bytes.data(),
              static_cast<std::streamsize>(data.bytes.size()));
    if (!out) throw SpecError("cannot write graph file '" + part + "'");
    offset += data.bytes.size();
  } while (offset < file_size);
  out.flush();
  out.close();
  if (std::rename(part.c_str(), path.c_str()) != 0) {
    throw SpecError("cannot move '" + part + "' into place");
  }
  state.log_line("fetched graph '" + path + "' (" +
                 std::to_string(file_size) + " bytes)");
}

/// Pre-fetches every family=file graph the plan references that is
/// missing locally — right after the handshake, before the lease loop, so
/// job execution never blocks on the wire. Paths stay exactly as written
/// in the spec (the worker runs in its own directory), which keeps graph
/// seeds and the plan fingerprint unchanged.
void fetch_missing_graphs(WorkerState& state) {
  std::set<std::string> wanted;
  for (const JobSpec& job : state.plan.jobs) {
    const std::string* family = scenario::find_param(job.graph, "family");
    const std::string* file = scenario::find_param(job.graph, "file");
    if (family != nullptr && *family == "file" && file != nullptr &&
        !file_exists(*file)) {
      wanted.insert(*file);
    }
  }
  for (const std::string& path : wanted) fetch_graph(state, path);
}

/// Executes one leased shard, streaming a JOB_RESULT frame per job (each
/// frame renews the lease — results are heartbeats) and SHARD_DONE at the
/// end. On a job failure the first error is reported via an ERROR frame
/// and rethrown as SpecError: deterministic jobs fail identically on every
/// worker, so retrying elsewhere cannot help.
std::size_t run_shard(WorkerState& state, const LeaseGrantMsg& grant,
                      ThreadPool* pool) {
  for (const std::uint64_t job : grant.jobs) {
    if (job >= state.plan.jobs.size()) {
      throw ProtocolError("lease grants out-of-range job " +
                          std::to_string(job));
    }
    state.cache->expect(state.plan.jobs[static_cast<std::size_t>(job)]);
  }

  std::mutex error_mutex;
  std::string first_error;
  const auto run_one = [&](std::size_t at) {
    const auto index = static_cast<std::size_t>(grant.jobs[at]);
    const JobSpec& job = state.plan.jobs[index];
    try {
      const GraphCache::Acquired acquired = state.cache->acquire(job);
      const scenario::JobResult result =
          scenario::execute_campaign_job(state.plan, job, *acquired.graph,
                                         pool);
      state.cache->release(job);
      JobResultMsg msg;
      msg.shard = grant.shard;
      msg.job = index;
      msg.payload = scenario::serialize_job_result(result);
      state.send(FrameType::kJobResult, encode_job_result(msg));
    } catch (const std::exception& e) {
      state.cache->release(job);
      std::lock_guard lock(error_mutex);
      if (first_error.empty()) {
        first_error =
            "job " + std::to_string(index) + " failed: " + e.what();
      }
    }
  };

  if (pool != nullptr) {
    pool->parallel_for(grant.jobs.size(), run_one);
  } else {
    for (std::size_t at = 0; at < grant.jobs.size(); ++at) run_one(at);
  }

  if (!first_error.empty()) {
    state.send(FrameType::kError, first_error);
    throw SpecError(first_error);
  }
  WireWriter done;
  done.u64(grant.shard);
  state.send(FrameType::kShardDone, done.take());
  return grant.jobs.size();
}

}  // namespace

WorkerResult run_worker(const WorkerOptions& options) {
  WorkerState state;
  state.log = options.log;
  state.socket = Socket::connect_to(options.host, options.port);

  const WelcomeMsg welcome = do_handshake(state);
  state.id = welcome.worker_id;

  // Re-plan from the shipped spec and cross-check: render/parse round-trip
  // plus fingerprint equality proves this binary would expand the exact
  // same job grid the coordinator is merging into.
  const ScenarioSpec spec =
      ScenarioSpec::parse_string(welcome.spec_text, "<coordinator>");
  state.plan = scenario::plan_campaign(spec);
  if (state.plan.fingerprint != welcome.fingerprint) {
    const std::string message =
        "plan fingerprint mismatch: coordinator expects " +
        std::to_string(welcome.fingerprint) + ", this binary plans " +
        std::to_string(state.plan.fingerprint) +
        " — planner diverged between builds; upgrade the stale side";
    state.send(FrameType::kError, message);
    throw SpecError(message);
  }
  fetch_missing_graphs(state);
  state.cache = std::make_unique<GraphCache>([&state](const JobSpec& job) {
    return scenario::build_campaign_graph(state.plan, job);
  });
  state.log_line("joined " + options.host + ":" +
                 std::to_string(options.port) + " campaign '" +
                 state.plan.name + "' (coordinator " + welcome.build_info +
                 ")");

  // One pool for the worker's lifetime: a grant's jobs, and the trials
  // inside each job, are tasks on it.
  std::unique_ptr<ThreadPool> pool;
  if (options.threads > 0) pool = std::make_unique<ThreadPool>(options.threads);

  WorkerResult result;
  result.worker_id = welcome.worker_id;
  result.coordinator_build = welcome.build_info;

  Frame frame;
  while (true) {
    state.send(FrameType::kLeaseRequest, "");
    if (!state.socket.recv_frame(frame)) {
      throw ProtocolError("coordinator closed while awaiting lease");
    }
    if (frame.type == FrameType::kShutdown) {
      state.log_line("shutdown: campaign complete");
      break;
    }
    if (frame.type == FrameType::kError) {
      throw SpecError("coordinator error: " + frame.payload);
    }
    if (frame.type != FrameType::kLeaseGrant) {
      throw ProtocolError(std::string("expected LEASE_GRANT, got ") +
                          frame_type_name(frame.type));
    }
    const LeaseGrantMsg grant = decode_lease_grant(frame.payload);
    state.log_line("lease shard " + std::to_string(grant.shard) + " (" +
                   std::to_string(grant.jobs.size()) + " job(s))");
    result.jobs_executed += run_shard(state, grant, pool.get());
    ++result.shards_completed;
  }
  return result;
}

}  // namespace cobra::dist
