#!/usr/bin/env python3
# SPDX-License-Identifier: MIT
"""End-to-end campaign benchmark: a .scenario spec turned into written sinks.

Usage (from the repository root):

    python3 campaign_bench/run.py --workload big_expander --seed 1 \
        --seconds 50 --trace 0
    python3 campaign_bench/run.py --selftest

Workloads, metrics and the layer -> end-to-end map are described in
campaign_bench/README.md. Every call configures and (when stale) builds
campaign_harness against the repository's own cobra_core under
.bench_build/, and writes its specs, graphs, sinks and a result file under
.bench_work/.

--trace 0 prints the end-to-end metrics of an untraced leg; --trace 1 runs
one untraced campaign for the CPU figures, then the serial traced replay,
and prints the per-layer metrics. Either way the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}; the lines before
it are a host block and a readable table.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "campaign_bench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
HARNESS = os.path.join(BUILD_DIR, "campaign_harness")

# big_expander runs by hand only: BENCHMARK.json leaves it out because its
# spread on a shared host exceeds the bounds (see README.md).
WORKLOADS = ["big_expander", "regular_sweep", "faults_fabric"]

# [campaign] threads = N runs N pool workers plus the calling thread
# (src/sim/thread_pool.hpp), so 3 keeps the load at 4 compute threads.
CAMPAIGN_THREADS = 3
FABRIC_WORKERS = 2  # serial run_worker threads behind one Coordinator
MIN_REPS = 3        # medians need at least three samples ...
STRETCH = 1.5       # ... unless that would run past seconds * STRETCH
SETUP_REPS = 25     # read + parse + plan set-ups per run process
TRACE_PAIRS = 3     # big_expander untraced/traced pairs for the overhead

# big_expander: mean COBRA cover rounds / ln n on random_regular(2^18, 8),
# pinned from seed runs (2.33-2.37 over seeds 1-10); Theorem 1's O(log n).
COVER_BAND = (2.2, 2.5)

THREAD_RULE = ("[campaign] threads = N runs N pool workers plus the calling "
               "thread; the campaigns use threads = 3 (4 compute threads), "
               "the fabric serves 2 serial in-process workers")
GRAPH_PATHS = {
    "big_expander": "mmap: family = file, mmap = 1 over a .cgr written in "
                    "set-up",
    "regular_sweep": "in-core: random_regular generated per job key",
    "faults_fabric": "in-core: random_regular generated by each worker",
}


def base_seed(seed):
    return (seed * 2654435761 + 20260612) % (1 << 62)


def make_spec(workload, seed, tiny=False, max_rounds=None):
    """The .scenario text of one workload; the program sees only this."""
    rounds = "" if max_rounds is None else f"max_rounds = {max_rounds}\n"
    head = (f"[campaign]\nname = {workload}\n"
            f"base_seed = {base_seed(seed)}\nthreads = {CAMPAIGN_THREADS}\n")
    if workload == "big_expander":
        return (head + f"trials = {8 if tiny else 64}\n\n"
                "[graph]\nfamily = file\n"
                f"file = {os.path.relpath(graph_path(workload), ROOT)}\n"
                "mmap = 1\n\n"
                "[process]\nname = cobra\nk = 2\n" + rounds)
    if workload == "regular_sweep":
        sizes = "256, 1024" if tiny else "16384, 65536"
        return (head + f"trials = {2 if tiny else 8}\nseeds = 0, 1\n\n"
                f"[graph]\nfamily = random_regular\nn = {sizes}\n"
                "r = 3, 4, 6, 8\n\n"
                "[process]\nname = cobra, bips, push-pull\n" + rounds)
    if workload == "faults_fabric":
        return (head + f"trials = {4 if tiny else 32}\nseeds = 0, 1\n\n"
                "[graph]\nfamily = random_regular\n"
                f"n = {256 if tiny else 8192}\nr = 8\n\n"
                "[process]\nname = cobra, push-pull, flood\n"
                f"max_rounds = {max_rounds or 8192}\nrecord_curve = 0\n\n"
                "[faults]\ndrop = 0.0, 0.25\nduty_cycle = 1/1, 3/4\n")
    raise SystemExit(f"unknown workload '{workload}'")


def graph_size(tiny):
    return (1 << 12, 8) if tiny else (1 << 18, 8)


def workdir(workload):
    return os.path.join(WORK_DIR, workload)


def graph_path(workload):
    return os.path.join(workdir(workload), "graph.cgr")


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---- build and harness calls ----

def build():
    """Configures on every call, so the provenance baked into build_info
    follows the checkout, then lets the build tool decide what is stale."""
    generator = []
    if (not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt"))
            and shutil.which("ninja")):
        generator = ["-G", "Ninja"]
    subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release", *generator],
                   check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "campaign_harness", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, timeout=900)


def harness(*args):
    """Runs one harness leg from the repository root; returns its JSON."""
    argv = [HARNESS, *[str(a) for a in args]]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def rel(path):
    return os.path.relpath(path, ROOT)


def prepare(workload, seed, tiny=False, max_rounds=None):
    """Writes the spec into a fresh work directory; returns its path."""
    shutil.rmtree(workdir(workload), ignore_errors=True)
    os.makedirs(workdir(workload))
    spec = os.path.join(workdir(workload), "campaign.scenario")
    with open(spec, "w") as out:
        out.write(make_spec(workload, seed, tiny, max_rounds))
    return spec


def generate(seed, tiny):
    """big_expander's set-up: generates the graph and writes the .cgr the
    campaign maps, in a fresh process. Returns the harness JSON."""
    n, r = graph_size(tiny)
    return harness("generate", "--n", n, "--r", r, "--seed", base_seed(seed),
                   "--out", rel(graph_path("big_expander")))


# ---- output checks ----

def job_record(line):
    """The fields the checks use from one JSONL line, or None when the line
    is unreadable (it then counts as a missing job)."""
    def total(summary):
        return round(summary["count"] * summary["mean"])
    try:
        record = json.loads(line)
        return {"job": record["job"], "failed": record["failed"],
                "rounds": total(record["rounds"]),
                "messages": total(record["transmissions"]),
                "trials": record["rounds"]["count"],
                "mean_rounds": record["rounds"]["mean"],
                "graph_name": record["graph_name"]}
    except (ValueError, KeyError, TypeError):
        return None


def read_sinks(stem):
    """Digest of the JSONL + CSV bytes and the readable job records."""
    digest = hashlib.sha256()
    with open(stem + ".jsonl", "rb") as jsonl:
        data = jsonl.read()
    digest.update(data)
    with open(stem + ".csv", "rb") as csv:
        digest.update(csv.read())
    records = [job_record(line)
               for line in data.decode(errors="replace").splitlines()]
    return digest.hexdigest(), [r for r in records if r is not None]


def check_sinks(stem, jobs):
    """Checks one campaign's sinks. Returns (summary, bad jobs) where the
    summary holds the digest and exact totals, and a bad job is one that is
    missing, unreadable or has a failed trial."""
    digest, records = read_sinks(stem)
    by_index = {record["job"]: record for record in records}
    bad = sum(1 for j in range(jobs)
              if j not in by_index or by_index[j]["failed"] != 0)
    bad += max(0, len(records) - jobs)
    summary = {
        "digest": digest,
        "rounds": sum(r["rounds"] for r in records),
        "messages": sum(r["messages"] for r in records),
        "failed_trials": sum(r["failed"] for r in records),
        "bytes": (os.path.getsize(stem + ".jsonl") +
                  os.path.getsize(stem + ".csv")),
        "cover_per_ln_n": None,
    }
    if len(records) == 1 and records[0]["trials"] > 0:
        n = int(records[0]["graph_name"].split("n=")[1].split(",")[0])
        summary["cover_per_ln_n"] = records[0]["mean_rounds"] / math.log(n)
    return summary, bad


class Checks:
    """Counts operations (job records) and the ones that fail a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def jobs(self, jobs, bad, what):
        self.attempted += jobs
        if bad:
            self.failed += bad
            self.notes.append(f"{what}: {bad} of {jobs} jobs missing/failed")

    def same(self, summary, first, jobs, what):
        """Determinism: rounds, messages and sink digest repeat exactly."""
        for key in ("digest", "rounds", "messages"):
            if summary[key] != first[key]:
                self.failed += jobs
                self.notes.append(f"{what}: {key} differs from the first run")
                return

    def band(self, summary):
        value = summary["cover_per_ln_n"]
        if value is None or not COVER_BAND[0] <= value <= COVER_BAND[1]:
            self.failed += 1
            self.notes.append(f"cover rounds / ln n = {value} outside "
                              f"{COVER_BAND}")

    @property
    def correct(self):
        return self.failed == 0


# ---- the two legs ----

def untraced(workload, seed, seconds, tiny=False, max_rounds=None,
             tamper=None):
    """The --trace 0 leg. tamper(stem), when given, is called on every sink
    the leg writes before it is checked (the self-test corrupts one)."""
    fabric = workload == "faults_fabric"
    spec = prepare(workload, seed, tiny, max_rounds)
    checks = Checks()
    runs = []
    generate_s = []
    first = None
    start = time.monotonic()
    while True:
        # Start a repetition while at least half of it fits the window;
        # under MIN_REPS, while all of it fits the stretched window.
        elapsed = time.monotonic() - start
        last = runs[-1]["duration"] if runs else 0.0
        if len(runs) >= MIN_REPS and elapsed + last / 2 >= seconds:
            break
        if runs and elapsed + last > seconds * STRETCH:
            break
        stem = os.path.join(workdir(workload), f"run{len(runs)}")
        began = time.monotonic()
        if workload == "big_expander":
            # Set-up is sampled inside the window too, next to the runs.
            generated = generate(seed, tiny)
            generate_s.append(generated["generate_s"] +
                              generated["write_cgr_s"])
        run = harness("run", "--spec", rel(spec), "--stem", rel(stem),
                      "--setup-reps", SETUP_REPS, "--fabric", int(fabric))
        run["duration"] = time.monotonic() - began
        if tamper:
            tamper(stem)
        summary, bad = check_sinks(stem, run["jobs"])
        checks.jobs(run["jobs"], bad, f"run {len(runs)}")
        if first is None:
            first = summary
        checks.same(summary, first, run["jobs"], f"run {len(runs)}")
        runs.append(run)
    if fabric:
        # The fabric's sinks must be byte-identical to an in-process
        # run_campaign of the same plan.
        stem = os.path.join(workdir(workload), "reference")
        harness("run", "--spec", rel(spec), "--stem", rel(stem),
                "--fabric", 0)
        if tamper:
            tamper(stem)
        reference, bad = check_sinks(stem, runs[0]["jobs"])
        checks.jobs(runs[0]["jobs"], bad, "reference")
        checks.same(first, reference, runs[0]["jobs"] * len(runs),
                    "fabric vs in-process run_campaign")
    if workload == "big_expander" and not tiny:
        checks.band(first)

    setup = [s for run in runs for s in run["setup_s"]]
    setup_s = statistics.median(setup)
    if generate_s:
        setup_s += statistics.median(generate_s)
    walls = [run["wall_s"] for run in runs]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "messages_per_s": (statistics.median(
            first["messages"] / w for w in walls), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs),
                        "MB"),
    }
    detail = {"repetitions": len(runs), "wall_s": walls,
              "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
              "setup_samples": len(setup),
              "generate_samples": len(generate_s),
              "cover_per_ln_n": first["cover_per_ln_n"],
              "messages": first["messages"], "rounds": first["rounds"],
              "failed_trials": first["failed_trials"]}
    return metrics, checks, detail


def traced(workload, seed, tiny=False):
    fabric = workload == "faults_fabric"
    spec = prepare(workload, seed, tiny)
    generated = (generate(seed, tiny) if workload == "big_expander"
                 else None)
    checks = Checks()
    # big_expander does the same one-thread work traced and untraced, so
    # alternating pairs measure the tracing overhead; elsewhere one pair.
    pairs = TRACE_PAIRS if workload == "big_expander" and not tiny else 1
    runs, traces = [], []
    for pair in range(pairs):
        # Untraced campaign for wall and CPU (same leg as --trace 0).
        stem = os.path.join(workdir(workload), f"untraced{pair}")
        run = harness("run", "--spec", rel(spec), "--stem", rel(stem),
                      "--setup-reps", 1, "--fabric", int(fabric))
        untraced_sinks, bad = check_sinks(stem, run["jobs"])
        checks.jobs(run["jobs"], bad, "untraced run")
        # Serial traced replay (+ a traced fabric serve for faults_fabric).
        stem = os.path.join(workdir(workload), f"traced{pair}")
        trace = harness("trace", "--spec", rel(spec), "--stem", rel(stem),
                        "--fabric", int(fabric))
        replay_sinks, bad = check_sinks(stem, trace["jobs"])
        checks.jobs(trace["jobs"], bad, "traced replay")
        checks.same(replay_sinks, untraced_sinks, trace["jobs"],
                    "traced replay vs untraced run")
        if fabric:
            fabric_sinks, bad = check_sinks(stem + ".fabric", trace["jobs"])
            checks.jobs(trace["jobs"], bad, "traced fabric")
            checks.same(fabric_sinks, untraced_sinks, trace["jobs"],
                        "traced fabric vs untraced run")
        runs.append(run)
        traces.append(trace)
    with open(os.path.join(workdir(workload), "spans.json"), "w") as out:
        json.dump(traces[0]["spans"], out)
    replays = [replay_seconds(t) for t in traces]
    walls = [r["wall_s"] for r in runs]
    overhead = (statistics.median(replays) / statistics.median(walls) - 1.0
                if workload == "big_expander" else 0.0)
    metrics = layer_metrics(traces[0], runs[0], generated, replay_sinks,
                            overhead)
    return metrics, checks, {"untraced_wall_s": walls, "replay_s": replays}


def replay_seconds(trace):
    replay = next(s for s in trace["spans"] if s["name"] == "replay")
    return replay["end_s"] - replay["start_s"]


def layer_metrics(trace, run, generated, sinks, overhead):
    spans = trace["spans"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def dur(span):
        return span["end_s"] - span["start_s"]

    def total(name, pick=lambda s: True):
        return sum(dur(s) for s in named(name) if pick(s))

    builds = named("graph.build")
    graphs = builds + named("graph.map")
    trials = named("core.trials")
    messages = sum(s["messages"] for s in trials)
    trials_s = total("core.trials")
    replay_s = replay_seconds(trace)
    nproc = os.cpu_count() or 1
    fabric = trace["fabric"]
    compute_threads = (FABRIC_WORKERS if fabric is not None
                       else run["threads"] + 1)
    m = {
        "graph.build_s": (total("graph.build"), "s"),
        "graph.build_max_s": (max((dur(s) for s in builds), default=0.0),
                              "s"),
        "graph.build_cpu_s": (sum(s["cpu_s"] for s in builds), "s"),
        "graph.builds": (len(graphs), "count"),
        "graph.generate_s": (generated["generate_s"] if generated else 0.0,
                             "s"),
        "graph.write_cgr_s": (generated["write_cgr_s"] if generated
                              else 0.0, "s"),
        "graph.map_s": (total("graph.map"), "s"),
        "graph.resident_mb": (max(s["resident_mb"] for s in graphs), "MB"),
        "graph.mapped_mb": (max(s["mapped_mb"] for s in graphs), "MB"),
        "core.trials_s": (trials_s, "s"),
    }
    for process in ("cobra", "bips", "push-pull", "flood"):
        m[f"core.trials_s.{process}"] = (
            total("core.trials", lambda s: s["detail"] == process), "s")
    m.update({
        "core.faulty_trials_s": (
            total("core.trials", lambda s: s["faulty"] == 1), "s"),
        "core.rounds": (sum(s["rounds"] for s in trials), "count"),
        "core.messages": (messages, "count"),
        "core.ns_per_message": (trials_s * 1e9 / messages if messages
                                else 0.0, "ns"),
        "sim.cpu_s": (run["cpu_s"], "s"),
        "sim.core_utilization": (run["cpu_s"] / (run["wall_s"] * nproc),
                                 "ratio"),
        "sim.parallel_efficiency": (
            replay_s / (run["wall_s"] * compute_threads), "ratio"),
        "sim.cpu_per_busy": (run["cpu_s"] / replay_s, "ratio"),
        "scenario.plan_s": (total("scenario.plan"), "s"),
        "scenario.journal_append_s": (total("scenario.journal_append"), "s"),
        "scenario.journal_appends": (len(named("scenario.journal_append")),
                                     "count"),
        "scenario.sink_write_s": (total("scenario.sink_write"), "s"),
        "scenario.sink_bytes": (sinks["bytes"], "bytes"),
        "failed_trial_share": (
            sum(s["failed"] for s in trials) / sum(s["trials"] for s in trials),
            "ratio"),
        "trace.overhead_share": (overhead, "ratio"),
    })
    workers = fabric["workers"] if fabric else []
    worker_s = [w["seconds"] for w in workers] or [0.0]
    worker_jobs = [w["jobs"] for w in workers] or [0]
    serve_s = fabric["serve_s"] if fabric else 0.0
    merged = fabric["merged"] if fabric else 0
    duplicates = fabric["duplicates"] if fabric else 0
    m.update({
        "dist.serve_s": (serve_s, "s"),
        "dist.worker_s.max": (max(worker_s), "s"),
        "dist.worker_s.min": (min(worker_s), "s"),
        "dist.jobs_per_worker.max": (max(worker_jobs), "count"),
        "dist.jobs_per_worker.min": (min(worker_jobs), "count"),
        "dist.shards": (sum(w["shards"] for w in workers), "count"),
        "dist.duplicates": (duplicates, "count"),
        "dist.requeues": (fabric["requeues"] if fabric else 0, "count"),
        "dist.merge_ratio": (merged / (merged + duplicates) if merged else 0.0,
                             "ratio"),
        "dist.overhead_share": (
            1.0 - trials_s / (len(workers) * serve_s) if fabric else 0.0,
            "ratio"),
    })
    return m


# ---- reporting ----

def source_digest():
    """SHA-256 prefix over the library's sources and top-level build file:
    names the code under test where build_info has no git hash."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for folder, _, names in os.walk(os.path.join(ROOT, "src")):
        files += [os.path.join(folder, name) for name in names]
    for path in sorted(files):
        digest.update(rel(path).encode() + b"\0")
        with open(path, "rb") as source:
            digest.update(hashlib.sha256(source.read()).digest())
    return digest.hexdigest()[:12]


def host_block():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "build_info": harness("build-info")["build_info"],
            "src_digest": source_digest(),
            "thread_budget": THREAD_RULE, "graph_paths": GRAPH_PATHS}


def report(workload, seed, trace, metrics, checks, detail):
    host = host_block()
    print("host " + json.dumps(host))
    print(f"{workload} seed={seed} trace={trace} "
          f"correct={checks.correct} detail={json.dumps(detail)}")
    for note in checks.notes:
        print(f"  CHECK FAILED: {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    result = {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    with open(os.path.join(WORK_DIR, "results",
                           f"{workload}-seed{seed}-trace{trace}.json"),
              "w") as out:
        json.dump({"host": host, "detail": detail, **result}, out, indent=1)
    print(json.dumps(result))


# ---- self-test ----

def selftest():
    """Tiny size of every workload: every named metric is emitted with its
    unit, and the checks fire on a corrupted sink byte and a failed trial."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as bench:
        declared = json.load(bench)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            if trace:
                metrics, checks, _ = traced(workload, seed=1, tiny=True)
            else:
                metrics, checks, _ = untraced(workload, seed=1, seconds=1,
                                              tiny=True)
            if not checks.correct:
                problems.append(f"{workload} trace={trace}: {checks.notes}")
            for metric in declared[key]:
                got = metrics.get(metric["name"])
                if got is None or got[1] != metric["unit"]:
                    problems.append(f"{workload} trace={trace}: metric "
                                    f"{metric['name']} missing or wrong unit "
                                    f"({got})")
            extra = set(metrics) - {m["name"] for m in declared[key]}
            if extra:
                problems.append(f"{workload}: undeclared metrics {extra}")
        log(f"selftest: {workload} emits every metric")

    # A corrupted sink byte must fail the leg's own checks: in a repetition
    # (compared with the first) and in the fabric's in-process reference.
    def flip(stem):
        # The CSV is not parsed, so only the byte comparison can see this.
        with open(stem + ".csv", "r+b") as sink:
            sink.seek(sink.seek(0, os.SEEK_END) // 2)
            byte = sink.read(1)
            sink.seek(-1, os.SEEK_CUR)
            sink.write(bytes([byte[0] ^ 0x01]))

    for workload, victim in (("regular_sweep", "run1"),
                             ("faults_fabric", "reference")):
        _, checks, _ = untraced(
            workload, seed=1, seconds=1, tiny=True,
            tamper=lambda stem: (os.path.basename(stem) == victim
                                 and flip(stem)))
        if checks.correct or checks.failed == 0:
            problems.append(f"{workload}: a corrupted byte in {victim} went "
                            "unnoticed")

    # A forced failed trial (max_rounds too small to finish) must count.
    for workload in ("regular_sweep", "faults_fabric"):
        _, checks, _ = untraced(workload, seed=1, seconds=1, tiny=True,
                                max_rounds=2)
        if checks.correct or checks.failed == 0:
            problems.append(f"{workload}: a failed trial went unnoticed")
    log("selftest: checks fire on a corrupted sink byte and a failed trial")

    for problem in problems:
        log("selftest FAILED: " + problem)
    print(json.dumps({"selftest": "fail" if problems else "pass",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    build()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.trace:
        metrics, checks, detail = traced(args.workload, args.seed)
    else:
        metrics, checks, detail = untraced(args.workload, args.seed,
                                           args.seconds)
    report(args.workload, args.seed, args.trace, metrics, checks, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
