#!/usr/bin/env python3
"""CFGExplainer benchmark: paper-scale triage and open-loop serving.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Without --workload every workload runs in turn. The script builds
perfbench_driver from source on first use (CMake, into .bench_build/ or
$CARGO_TARGET_DIR), runs each benchmark phase in its own driver process
under a watchdog, checks every output, prints a human-readable report and,
as the last stdout line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the nominal load
once untraced and once traced and reports the per-layer metrics.
See perfbench/README.md for what each workload and metric means.
"""
import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS_PATH = os.path.join(HERE, "digests.json")
RUN_DEADLINE_S = 150.0  # stop starting ladder rungs after this much wall time

# Serving-engine defaults this benchmark relies on (ServeConfig in
# src/serve/engine.hpp); the driver never overrides them.
MAX_BATCH = 8

WORKLOADS = {
    "triage-7352": {
        "kind": "triage",
        "layers": ("latency_p90_s", "latency_p99_request_s", "failed_share",
                   "isa.", "gnn.",
                   "explain.explain_s",
                   "alg2.", "nn.", "bench.trace_overhead_share",
                   "bench.phases_died"),
    },
    # Runs by name only: BENCHMARK.json leaves it out while a nominal part
    # can die at random from the batch-of-5 crash (README.md).
    "serve-small": {
        "kind": "serve",
        "mix": "small",
        "nominal_rps": 200,
        "ladder_rps": [50, 100, 200, 300, 400, 500, 600, 700, 800, 1000,
                       1200, 1600, 2000],
        # SloConfig::latency_objective_seconds, the engine's own objective.
        "p99_limit_s": 0.050,
        "layers": ("latency_p90_s", "latency_p99_request_s", "max_rate_rps",
                   "failed_share", "explain.explain_s", "alg2.", "nn.",
                   "serve.queue",
                   "serve.batch",
                   "explain.factory", "pool.", "bench."),
    },
    "serve-mixed-reduced": {
        "kind": "serve",
        "mix": "mixed",
        # At 10/s about 5% of requests are big or wait behind a big one, so
        # p90 sits clear of that head-of-line group and p99 inside it; at
        # 20/s and above p90 lands on its edge and swings from run to run.
        "nominal_rps": 10,
        "ladder_rps": [5, 10, 15, 20, 30, 40, 60, 80, 100],
        # About three times what one reduced paper-scale request takes on
        # an idle engine (100-170 ms on a 4-core x86-64 host).
        "p99_limit_s": 0.500,
        "layers": ("latency_p90_s", "latency_p99_request_s", "max_rate_rps",
                   "failed_share", "explain.explain_s", "alg2.", "nn.",
                   "serve.", "graph.",
                   "explain.project_s",
                   "explain.factory", "pool.", "bench."),
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_gps": "1/s",
    "latency_p50_s": "s",
    "latency_p99_s": "s",
    "peak_rss_mb": "MB",
}

# The first four are end-to-end quantities kept with the unbounded
# per-layer metrics because no bound could hold them steady (README.md).
PER_LAYER_UNITS = {
    "latency_p90_s": "s",
    "latency_p99_request_s": "s",
    "max_rate_rps": "1/s",
    "failed_share": "ratio",
    "isa.lift_s": "s",
    "isa.lift_ns_per_instr": "ns",
    "isa.to_acfg_s": "s",
    "gnn.predict_s": "s",
    "explain.explain_s": "s",
    "alg2.embed_s": "s",
    "alg2.score_s": "s",
    "alg2.prune_self_s": "s",
    "alg2.renorm_s": "s",
    "alg2.outside_interpret_s": "s",
    "alg2.iterations": "count",
    "alg2.unattributed_share": "ratio",
    "nn.spmm_s": "s",
    "nn.matmul_s": "s",
    "nn.spmm_calls": "count",
    "nn.matmul_calls": "count",
    "nn.gemm_flop": "flop",
    "nn.spmm_bytes": "B",
    "nn.workspace_bytes_allocated": "B",
    "nn.workspace_reuse_ratio": "ratio",
    "nn.workspace_bytes_retained": "B",
    "graph.reduce_s": "s",
    "graph.reduction_ratio": "ratio",
    "explain.project_s": "s",
    "serve.queue_wait_p50_s": "s",
    "serve.queue_wait_p99_s": "s",
    "serve.batch_size_mean": "count",
    "serve.batch_prepare_s": "s",
    "serve.batch_forward_s": "s",
    "serve.batch_explain_s": "s",
    "serve.queue_full_share": "ratio",
    "explain.factory_calls_per_batch": "count",
    "explain.factory_s": "s",
    "serve.small_latency_p99_s": "s",
    "serve.big_latency_p50_s": "s",
    "pool.task_wait_p99_s": "s",
    "pool.busy_share": "ratio",
    "bench.generator_lag_p99_s": "s",
    "bench.trace_overhead_share": "ratio",
    "bench.phases_died": "count",
}

# Model shapes (GnnConfig / ExplainerModelConfig defaults) for the FLOP and
# byte counts computed from tensor shapes.
GCN_DIMS = [12, 64, 48, 32]
SCORER_DIMS = [32, 64, 32, 1]
STEP_PERCENT = 10


# ------------------------------------------------------------ statistics

def percentile(samples, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n)) if n else 0


def percentile_supported(n, p, need=10):
    """A percentile is reported with support only when at least `need`
    samples lie beyond it."""
    return samples_beyond(n, p) >= need


def highest_supported_percentile(n, candidates=(99.9, 99, 95, 90, 75, 50)):
    for p in candidates:
        if percentile_supported(n, p):
            return p
    return None


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------- span trees

def span_self_times(events):
    """Per-name totals over Chrome 'X' events: count, inclusive and self
    seconds. A span's self time is its duration minus the durations of the
    spans directly nested in it on the same thread."""
    by_tid = {}
    for e in events:
        if e.get("ph") == "X":
            by_tid.setdefault(e["tid"], []).append(e)
    totals = {}

    def entry(name):
        return totals.setdefault(name, {"count": 0, "total": 0.0,
                                        "self": 0.0})

    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # open spans: [end_us, name, dur_us, children_us]
        for e in spans:
            while stack and stack[-1][0] <= e["ts"] + 1e-3:
                end, name, dur, children = stack.pop()
                entry(name)["self"] += (dur - children) * 1e-6
            if stack:
                stack[-1][3] += e["dur"]
            entry(e["name"])["count"] += 1
            entry(e["name"])["total"] += e["dur"] * 1e-6
            stack.append([e["ts"] + e["dur"], e["name"], e["dur"], 0.0])
        for end, name, dur, children in stack:
            entry(name)["self"] += (dur - children) * 1e-6
    return totals


def flow_waits(events):
    """Seconds from each flow's start event to its first step event (the
    engine emits start at submit and a step when the request's batch
    forms)."""
    starts, steps = {}, {}
    for e in events:
        ph = e.get("ph")
        if ph == "s":
            starts[e["id"]] = e["ts"]
        elif ph == "t" and e["id"] not in steps:
            steps[e["id"]] = e["ts"]
    return [(steps[i] - starts[i]) * 1e-6 for i in starts if i in steps]


# ----------------------------------------------------------------- ladder

def select_max_rate(ladder, nominal, nominal_passed, evaluate):
    """Highest rung of `ladder` that passes, with every rung below it taken
    to pass. The nominal rate's own result is reused: if it passed, climb
    from the next rung until one fails; otherwise descend until one passes.
    Returns (max_rate, rungs run as [(rate, passed)])."""
    index = ladder.index(nominal)
    tried = []
    if nominal_passed:
        best = nominal
        for rate in ladder[index + 1:]:
            passed = evaluate(rate)
            tried.append((rate, passed))
            if passed is None:  # out of time: stop climbing
                break
            if not passed:
                break
            best = rate
        return best, tried
    for rate in reversed(ladder[:index]):
        passed = evaluate(rate)
        tried.append((rate, passed))
        if passed:
            return rate, tried
        if passed is None:
            break
    return 0, tried


def backlog_growing(inflight, max_batch=MAX_BATCH):
    """True when requests outstanding at send time climb through the
    window: the last third averages more than one full batch above the
    middle third."""
    n = len(inflight)
    if n < 6:
        return False
    middle = inflight[n // 3: 2 * n // 3]
    last = inflight[2 * n // 3:]
    return statistics.mean(last) - statistics.mean(middle) > max_batch


# ------------------------------------------------------------ processes

class Phase:
    """One driver process: how it ended and what it printed."""

    def __init__(self, name, status, detail="", result=None, scheduled=None,
                 wall_s=0.0):
        self.name = name
        self.status = status  # ok | crashed | hung | error
        self.detail = detail  # signal name, exit code or error text
        self.result = result
        self.scheduled = scheduled
        self.wall_s = wall_s

    @property
    def died(self):
        return self.status != "ok"


def run_process(name, argv, timeout_s):
    """Runs argv under a watchdog. A child killed by a signal is 'crashed',
    one still running after timeout_s is killed and 'hung'. The last JSON
    line of its stdout is its result; a line {"event": "scheduled", ...}
    announces how many measured requests it will send."""
    started = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout_s)
        hung = False
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        hung = True
    wall = time.monotonic() - started
    scheduled, result = None, None
    for line in out.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if obj.get("event") == "scheduled":
            scheduled = obj.get("measured")
        else:
            result = obj
    if hung:
        return Phase(name, "hung", "killed after %.0f s" % timeout_s,
                     scheduled=scheduled, wall_s=wall)
    if proc.returncode < 0:
        try:
            sig = signal.Signals(-proc.returncode).name
        except ValueError:
            sig = "signal %d" % -proc.returncode
        return Phase(name, "crashed", sig, scheduled=scheduled, wall_s=wall)
    if proc.returncode != 0 or result is None:
        tail = err.strip().splitlines()[-1:] or ["no result"]
        return Phase(name, "error", "exit %d: %s" % (proc.returncode, tail[0]),
                     scheduled=scheduled, wall_s=wall)
    return Phase(name, "ok", result=result, scheduled=scheduled, wall_s=wall)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")


def build():
    """Configures (once) and builds perfbench_driver; returns its path."""
    out = build_dir()
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(["ninja", "--version"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL) == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            raise RuntimeError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", out, "-j", jobs, "--target",
                        "perfbench_driver"], stdout=log, stderr=log) != 0:
        raise RuntimeError("build failed")
    return os.path.join(out, "perfbench_driver")


class Session:
    """Runs driver phases for one benchmark invocation."""

    def __init__(self, driver, seed, tag):
        self.driver = driver
        self.seed = seed
        self.scratch = os.path.join(build_dir(), "runs")
        os.makedirs(self.scratch, exist_ok=True)
        self.tag = "%d-%s" % (os.getpid(), tag)
        self.started = time.monotonic()
        self.phases = []

    def elapsed(self):
        return time.monotonic() - self.started

    def phase(self, name, mode_args, budget_s, traced=False):
        argv = [self.driver] + mode_args + ["--seed=%d" % self.seed]
        paths = None
        if traced:
            base = os.path.join(self.scratch, "%s-%s" % (self.tag, name))
            paths = (base + "-trace.json", base + "-metrics.json")
            argv += ["--trace-out=" + paths[0], "--metrics-out=" + paths[1]]
        phase = run_process(name, argv, timeout_s=budget_s + 20.0)
        if paths:
            phase.trace, phase.metrics = None, None
            if phase.status == "ok":
                with open(paths[0]) as f:
                    phase.trace = json.load(f)["traceEvents"]
                with open(paths[1]) as f:
                    phase.metrics = json.load(f)
            for p in paths:
                if os.path.exists(p):
                    os.remove(p)
        self.phases.append(phase)
        return phase


# ----------------------------------------------------------------- triage

def load_digests():
    try:
        with open(DIGESTS_PATH) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def check_triage(result, seed):
    """Every request must give its program's digest from the warm-up pass,
    and the digest over all programs must equal the one recorded for this
    ISA and seed. Returns (failed request count, note)."""
    failed = sum(1 for r in result["requests"]
                 if r["digest"] != result["digests"][r["program"]])
    if failed:
        return failed, "%d rankings differ from their program's" % failed
    digest = result["digest"]
    recorded = load_digests().get(result["isa"], {}).get(str(seed))
    if recorded is None:
        return 0, ("digest %s (no recorded digest for isa %s seed %d: "
                   "repeat consistency only)" % (digest, result["isa"], seed))
    if recorded != digest:
        return len(result["requests"]), ("digest %s != recorded %s"
                                          % (digest, recorded))
    return 0, "digest %s matches the recorded one" % digest


def triage_end_to_end(session, seconds):
    # Set-up repeats identical work, yet single set-ups vary by 10-30% on a
    # shared host; the median of five holds setup_s steadier than three.
    phase = session.phase("triage", ["triage", "--seconds=%g" % seconds,
                                     "--setups=5"], budget_s=seconds + 20)
    if phase.died:
        raise RuntimeError("triage phase %s (%s)" % (phase.status,
                                                     phase.detail))
    res = phase.result
    failed, note = check_triage(res, session.seed)
    lat = [r["total_s"] for r in res["requests"]]
    per_program = program_medians(res["requests"])
    metrics = {
        "setup_s": statistics.median(res["setup_s"]),
        "throughput_gps": len(lat) / res["wall_s"],
        "latency_p50_s": percentile(lat, 50),
        "latency_p90_s": percentile(per_program, 90),
        "latency_p99_s": percentile(per_program, 99),
        "latency_p99_request_s": percentile(lat, 99),
        "failed_share": failed / len(lat),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    report = ["triage-7352: closed loop, 1 caller, %d requests over %.1f s; "
              "programs %s (%s blocks)" % (
                  len(lat), res["wall_s"], ",".join(res["families"]),
                  "/".join(str(n) for n in sorted(
                      {r["nodes"] for r in res["requests"]}))),
              "  outputs: " + note,
              support_note(len(lat)),
              "  latency_p90_s / latency_p99_s: over the %d per-program "
              "median times" % len(per_program)]
    return metrics, len(lat), failed, failed == 0, report


def triage_layers(session, seconds):
    half = seconds / 2.0
    plain = session.phase("triage-untraced", ["triage", "--seconds=%g" % half,
                                              "--setups=1"], budget_s=half + 10)
    traced = session.phase("triage-traced", ["triage", "--seconds=%g" % half,
                                             "--setups=1"], budget_s=half + 10,
                           traced=True)
    for p in (plain, traced):
        if p.died:
            raise RuntimeError("%s phase %s (%s)" % (p.name, p.status,
                                                     p.detail))
    res = traced.result
    failed, note = check_triage(res, session.seed)
    spans = span_self_times(traced.trace)
    reqs = res["requests"]
    n = len(reqs)
    m = layers_from_trace(spans, traced.metrics, explanations=n,
                          explained=[(r["nodes"], res["nnz"][r["program"]])
                                     for r in reqs])
    instr = sum(res["instructions"][r["program"]] for r in reqs)
    m["isa.lift_s"] = span_total(spans, "bench.lift") / n
    m["isa.lift_ns_per_instr"] = span_total(spans, "bench.lift") / instr * 1e9
    m["isa.to_acfg_s"] = span_total(spans, "bench.to_acfg") / n
    m["gnn.predict_s"] = span_total(spans, "bench.predict") / n
    m["bench.trace_overhead_share"] = trace_overhead(plain.result["requests"],
                                                     reqs)
    m["latency_p90_s"] = percentile(program_medians(plain.result["requests"]),
                                    90)
    m["latency_p99_request_s"] = percentile(
        [r["total_s"] for r in plain.result["requests"]], 99)
    e2e = {"throughput_gps": len(plain.result["requests"]) /
           plain.result["wall_s"],
           "latency_p50_s": percentile([r["total_s"] for r in
                                        plain.result["requests"]], 50)}
    report = ["triage-7352 traced run: %d requests untraced, %d traced"
              % (len(plain.result["requests"]), n), "  outputs: " + note]
    return m, e2e, n, failed, failed == 0, report


def input_medians(requests, key, value):
    """Median latency of each distinct input (requests grouped by `key`).
    Tail percentiles are taken over these: a host hiccup that delays one
    request moves no input's median, a slower code path moves many."""
    times = {}
    for r in requests:
        times.setdefault(key(r), []).append(value(r))
    return [statistics.median(t) for t in times.values()]


def program_medians(requests):
    return input_medians(requests, lambda r: r["program"],
                         lambda r: r["total_s"])


def graph_medians(requests):
    return input_medians(requests, lambda r: (r["big"], r["graph"]),
                         lambda r: r["latency"])


def trace_overhead(untraced, traced):
    """Traced over untraced request time, compared program by program (the
    two windows need not hold the same program mix), minus one."""
    ratios = []
    for program in {r["program"] for r in traced}:
        a = [r["total_s"] for r in untraced if r["program"] == program]
        b = [r["total_s"] for r in traced if r["program"] == program]
        if a and b:
            ratios.append(statistics.median(b) / statistics.median(a))
    return statistics.mean(ratios) - 1.0 if ratios else 0.0


def support_note(n):
    best = highest_supported_percentile(n)
    weak = [p for p in (90, 99) if not percentile_supported(n, p)]
    text = ("  latency sample n=%d: highest percentile with >=10 samples "
            "beyond it is %s" % (n, "p%g" % best if best else "none"))
    if weak:
        text += "; %s printed without that support" % "/".join(
            "p%d" % p for p in weak)
    return text


# ---------------------------------------------------------------- serving

def phase_requests(phase):
    """Per-request tuples of a finished serving phase."""
    keys = ("latency", "lag", "status", "correct", "big", "inflight",
            "nodes", "nnz", "graph")
    return [dict(zip(keys, r)) for r in phase.result["requests"]]


def serve_accounting(phase, planned):
    """(attempted, failed, wrong-output count) for one serving phase. A
    phase that died counts every request it scheduled as failed."""
    if phase.died:
        n = phase.scheduled if phase.scheduled is not None else planned
        return n, n, 0
    reqs = phase_requests(phase)
    failed = sum(1 for r in reqs if not r["correct"])
    wrong = sum(1 for r in reqs if r["status"] == "ok" and not r["correct"])
    return len(reqs), failed, wrong


def rung_passes(phase, limit_s):
    """A rate passes when its phase survived, no request failed, the p99
    latency (failed requests counting as missing it) is within the limit
    and the backlog did not grow."""
    if phase.died:
        return False
    reqs = phase_requests(phase)
    if not reqs or any(not r["correct"] for r in reqs):
        return False
    if percentile([r["latency"] for r in reqs], 99) > limit_s:
        return False
    return not backlog_growing([r["inflight"] for r in reqs])


def serve_phase(session, spec, name, rate, seconds, warmup, traced=False,
                part=0):
    args = ["serve", "--mix=" + spec["mix"], "--rate=%g" % rate,
            "--seconds=%g" % seconds, "--warmup=%g" % warmup,
            "--part=%d" % part]
    setup_guess = 3.0 if spec["mix"] == "mixed" else 1.0
    return session.phase(name, args, budget_s=setup_guess + warmup + seconds,
                         traced=traced)


def describe(phase, limit_s=None):
    if phase.died:
        return "%s: DIED %s (%s)" % (phase.name, phase.status, phase.detail)
    reqs = phase_requests(phase)
    lat = [r["latency"] for r in reqs]
    bad = sum(1 for r in reqs if not r["correct"])
    text = "%s: %d requests, %d failed, p50 %.4f s, p99 %.4f s" % (
        phase.name, len(reqs), bad, percentile(lat, 50), percentile(lat, 99))
    if limit_s is not None:
        text += " (limit %.3f s)" % limit_s
    return text


def serve_end_to_end(session, spec, seconds):
    nominal = spec["nominal_rps"]
    limit = spec["p99_limit_s"]
    sub_seconds = seconds / 4.0
    subphases = [serve_phase(session, spec, "nominal-%d" % i, nominal,
                             sub_seconds, warmup=0.5, part=i)
                 for i in range(4)]
    planned = int(nominal * sub_seconds)
    attempted = failed = wrong = 0
    for p in subphases:
        a, f, w = serve_accounting(p, planned)
        attempted, failed, wrong = attempted + a, failed + f, wrong + w
    ok_reqs = [r for p in subphases if not p.died
               for r in phase_requests(p) if r["correct"]]
    per_graph = graph_medians(ok_reqs)
    if not ok_reqs:
        raise RuntimeError("no nominal-rate request succeeded: " + "; ".join(
            describe(p) for p in subphases))
    nominal_passed = all(rung_passes(p, limit) for p in subphases)
    max_rate, ladder_report, ladder_wrong = run_ladder(
        session, spec, seconds, nominal_passed)
    wrong += ladder_wrong
    lat = [r["latency"] for r in ok_reqs]
    wall = sum(p.result["wall_s"] for p in subphases if not p.died)
    setups = [s for p in session.phases if not p.died
              for s in p.result["setup_s"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_gps": len(ok_reqs) / wall,
        "latency_p50_s": percentile(lat, 50),
        "latency_p90_s": percentile(per_graph, 90),
        "latency_p99_s": percentile(per_graph, 99),
        "peak_rss_mb": max(p.result["peak_rss_mb"] for p in subphases
                           if not p.died),
        # Printed beside the end-to-end metrics; reported under per_layer.
        "latency_p99_request_s": percentile(lat, 99),
        "max_rate_rps": max_rate,
        "failed_share": failed / attempted,
    }
    report = ["%s at nominal %g/s (explain_workers and max_batch at engine "
              "defaults), p99 limit %.3f s" % (spec["mix"], nominal, limit)]
    report += ["  " + describe(p, limit) for p in subphases]
    report += ladder_report
    report.append("  failed_share at nominal: %d/%d = %.4f" % (
        failed, attempted, failed / attempted if attempted else 0.0))
    report.append(support_note(len(lat)))
    report.append("  per-request p90 %.6g s, p99 %.6g s; latency_p90_s / "
                  "latency_p99_s are over the %d per-graph medians, so a "
                  "delay that hits under half of a graph's requests does "
                  "not move them" % (percentile(lat, 90), percentile(lat, 99),
                                     len(per_graph)))
    return metrics, attempted, failed, wrong == 0, report


def run_ladder(session, spec, seconds, nominal_passed):
    """Rate ladder from the nominal rate, one process per rung. Returns
    (max_rate_rps, report lines, wrong-output count)."""
    limit = spec["p99_limit_s"]
    rung_phases = []

    def evaluate(rate):
        if session.elapsed() > RUN_DEADLINE_S:
            return None
        p = serve_phase(session, spec, "rung-%g" % rate, rate, seconds / 20.0,
                        warmup=0.5)
        rung_phases.append(p)
        return rung_passes(p, limit)

    max_rate, tried = select_max_rate(spec["ladder_rps"], spec["nominal_rps"],
                                      nominal_passed, evaluate)
    wrong = sum(1 for p in rung_phases if not p.died
                for r in phase_requests(p)
                if r["status"] == "ok" and not r["correct"])
    report = ["  " + describe(p, limit) for p in rung_phases]
    report.append("  ladder: nominal %s; rungs %s -> max_rate_rps %g" % (
        "passed" if nominal_passed else "failed",
        ", ".join("%g:%s" % (r, {True: "pass", False: "FAIL",
                                 None: "skipped"}[ok]) for r, ok in tried),
        max_rate))
    died = [p for p in session.phases if p.died]
    if died:
        report.append("  phases that died: " + "; ".join(
            "%s %s (%s)" % (p.name, p.status, p.detail) for p in died))
    return float(max_rate), report, wrong


def serve_layers(session, spec, seconds):
    window = seconds / 4.0
    rate = spec["nominal_rps"]
    plain = serve_phase(session, spec, "nominal-untraced", rate, window,
                        warmup=1.0)
    # Same part, so both phases send the same requests and the traced p50
    # differs from the untraced one only by the tracing.
    traced = serve_phase(session, spec, "nominal-traced", rate, window,
                         warmup=1.0, traced=True)
    planned = int(rate * window)
    attempted, failed, wrong = serve_accounting(traced, planned)
    a2, f2, w2 = serve_accounting(plain, planned)
    attempted, failed, wrong = attempted + a2, failed + f2, wrong + w2
    report = ["%s traced run at %g/s" % (spec["mix"], rate),
              "  " + describe(plain), "  " + describe(traced)]
    m = {}
    m["max_rate_rps"], ladder_report, ladder_wrong = run_ladder(
        session, spec, seconds, rung_passes(plain, spec["p99_limit_s"]))
    wrong += ladder_wrong
    report += ladder_report
    e2e = {}
    if not plain.died:
        lat = [r["latency"] for r in phase_requests(plain) if r["correct"]]
        ok = [r for r in phase_requests(plain) if r["correct"]]
        if ok:
            per_graph = graph_medians(ok)
            e2e = {"latency_p50_s": percentile(lat, 50),
                   "latency_p99_s": percentile(per_graph, 99)}
            m["latency_p90_s"] = percentile(per_graph, 90)
            m["latency_p99_request_s"] = percentile(lat, 99)
    if traced.died:
        report.append("  traced phase died: no per-layer numbers")
        return m, e2e, attempted, failed, wrong == 0, report
    res = traced.result
    reqs = phase_requests(traced)
    explained = [(r["nodes"], r["nnz"]) for r in reqs if r["status"] == "ok"]
    spans = span_self_times(traced.trace)
    m.update(layers_from_trace(spans, traced.metrics,
                               explanations=max(1, len(explained)),
                               explained=explained))
    hist = histograms(traced.metrics)
    batches = hist.get("serve.batch_size", {}).get("count", 0)
    per_batch = lambda name: (hist.get(name, {}).get("sum", 0.0) / batches
                              if batches else 0.0)
    waits = flow_waits(traced.trace)
    m["serve.queue_wait_p50_s"] = percentile(waits, 50) if waits else 0.0
    m["serve.queue_wait_p99_s"] = percentile(waits, 99) if waits else 0.0
    m["serve.batch_size_mean"] = hist.get("serve.batch_size", {}).get("mean",
                                                                      0.0)
    m["serve.batch_prepare_s"] = per_batch("serve.batch_prepare_seconds")
    m["serve.batch_forward_s"] = per_batch("serve.batch_execute_seconds")
    m["serve.batch_explain_s"] = max(0.0, (
        span_total(spans, "serve.batch") / batches if batches else 0.0)
        - m["serve.batch_prepare_s"] - m["serve.batch_forward_s"])
    m["serve.queue_full_share"] = (
        sum(1 for r in reqs if r["status"] == "queue_full") / len(reqs)
        if reqs else 0.0)
    m["explain.factory_calls_per_batch"] = (res["factory_calls"] / batches
                                            if batches else 0.0)
    m["explain.factory_s"] = (res["factory_s"] / res["factory_calls"]
                              if res["factory_calls"] else 0.0)
    if spec["mix"] == "mixed":
        small = [r["latency"] for r in reqs if r["correct"] and not r["big"]]
        big = [r["latency"] for r in reqs if r["correct"] and r["big"]]
        m["serve.small_latency_p99_s"] = percentile(small, 99) if small else 0.0
        m["serve.big_latency_p50_s"] = percentile(big, 50) if big else 0.0
        m["graph.reduce_s"] = median_or_zero(res["reduce_s"])
        m["graph.reduction_ratio"] = statistics.mean(res["reduction_ratio"])
        m["explain.project_s"] = median_or_zero(res["project_s"])
    workers = res["explain_workers"]
    m["pool.task_wait_p99_s"] = hist.get("pool.task_wait_seconds",
                                         {}).get("p99", 0.0)
    m["pool.busy_share"] = (hist.get("pool.task_run_seconds", {}).get(
        "sum", 0.0) / (workers * res["wall_s"]))
    m["bench.generator_lag_p99_s"] = percentile([r["lag"] for r in reqs], 99)
    if e2e:
        traced_p50 = percentile([r["latency"] for r in reqs if r["correct"]],
                                50)
        m["bench.trace_overhead_share"] = traced_p50 / e2e["latency_p50_s"] - 1
    return m, e2e, attempted, failed, wrong == 0, report


# ------------------------------------------------------------ layer table

def span_total(spans, name):
    return spans.get(name, {}).get("total", 0.0)


def histograms(snapshot):
    return {h["name"]: h for h in snapshot.get("histograms", [])}


def computed_gemm_flop(nodes):
    """Multiply-adds x2 of one explanation, from tensor shapes: each of the
    100/step iterations runs the GCN's combine GEMMs over the nodes still
    remaining and the scorer over all rows."""
    flop = 0
    for it in range(100 // STEP_PERCENT):
        live = round(nodes * (100 - it * STEP_PERCENT) / 100)
        flop += 2 * live * sum(a * b for a, b in zip(GCN_DIMS, GCN_DIMS[1:]))
        flop += 2 * nodes * sum(a * b for a, b in zip(SCORER_DIMS,
                                                      SCORER_DIMS[1:]))
    return flop


def computed_spmm_bytes(nodes, nnz):
    """Bytes one explanation's SpMMs read and write, from tensor shapes:
    per iteration and layer, the live rows' CSR entries (8-byte value,
    4-byte column), the gathered input rows and the written output rows;
    live nnz is scaled by the share of nodes remaining."""
    total = 0
    for it in range(100 // STEP_PERCENT):
        share = (100 - it * STEP_PERCENT) / 100
        live, live_nnz = nodes * share, nnz * share
        for width in GCN_DIMS[1:]:
            total += live_nnz * (12 + 8 * width) + live * (8 + 8 * width)
    return total


def layers_from_trace(spans, snapshot, explanations, explained):
    """Per-explanation Algorithm 2 / nn numbers from the traced window."""
    m = {}
    hist = histograms(snapshot)
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    n = float(explanations)
    explain = span_total(spans, "bench.explain")
    interpret = span_total(spans, "alg2.interpret")
    renorm = hist.get("alg2.csr_renorm.seconds", {}).get("sum", 0.0)
    m["explain.explain_s"] = explain / n
    m["alg2.embed_s"] = span_total(spans, "alg2.embed") / n
    m["alg2.score_s"] = span_total(spans, "alg2.score") / n
    m["alg2.prune_self_s"] = (span_total(spans, "alg2.prune") - renorm) / n
    m["alg2.renorm_s"] = renorm / n
    m["alg2.outside_interpret_s"] = (explain - interpret) / n
    m["alg2.iterations"] = counters.get("alg2.iterations", 0) / n
    interpret_self = spans.get("alg2.interpret", {}).get("self", 0.0)
    m["alg2.unattributed_share"] = interpret_self / explain if explain else 0.0
    m["nn.spmm_s"] = hist.get("kernel.spmm.seconds", {}).get("sum", 0.0) / n
    m["nn.matmul_s"] = hist.get("kernel.matmul.seconds", {}).get("sum", 0.0) / n
    m["nn.spmm_calls"] = counters.get("kernel.spmm.calls", 0) / n
    m["nn.matmul_calls"] = counters.get("kernel.matmul.calls", 0) / n
    m["nn.gemm_flop"] = statistics.mean(computed_gemm_flop(v)
                                        for v, _ in explained)
    m["nn.spmm_bytes"] = statistics.mean(computed_spmm_bytes(v, e)
                                         for v, e in explained)
    allocated = counters.get("workspace.bytes_allocated", 0)
    reused = counters.get("workspace.bytes_reused", 0)
    m["nn.workspace_bytes_allocated"] = float(allocated)
    m["nn.workspace_reuse_ratio"] = (reused / (reused + allocated)
                                     if reused + allocated else 0.0)
    m["nn.workspace_bytes_retained"] = gauges.get("workspace.bytes_retained",
                                                  0.0)
    return m


COMPUTED = {"nn.gemm_flop", "nn.spmm_bytes"}


def layer_table(m, layers, e2e):
    rows = ["  %-34s %16s  %s" % ("per-layer metric", "value", "unit")]
    for name, unit in PER_LAYER_UNITS.items():
        if name.startswith(layers):
            value = "%.6g" % m[name]
            note = " (computed from tensor shapes)" if name in COMPUTED else ""
        else:
            value, note = "n/a", " (not on this workload's path; reported 0)"
        rows.append("  %-34s %16s  %s%s" % (name, value, unit, note))
    rows.append("  untraced end-to-end beside it: " + ", ".join(
        "%s=%.6g" % kv for kv in sorted(e2e.items())))
    return rows


# -------------------------------------------------------------- top level

def run_workload(driver, name, seed, seconds, trace):
    spec = WORKLOADS[name]
    session = Session(driver, seed, name)
    if not trace:
        if spec["kind"] == "triage":
            metrics, attempted, failed, correct, report = triage_end_to_end(
                session, seconds)
        else:
            metrics, attempted, failed, correct, report = serve_end_to_end(
                session, spec, seconds)
        units = END_TO_END_UNITS
        report.append("  %-20s %14s  %s" % ("end-to-end metric", "value",
                                            "unit"))
        report += ["  %-20s %14.6g  %s" % (k, metrics[k], units[k])
                   for k in units]
        report += ["  %-20s %14.6g  %s (unbounded: listed under per_layer)"
                   % (k, metrics[k], PER_LAYER_UNITS[k])
                   for k in ("latency_p90_s", "latency_p99_request_s",
                             "max_rate_rps", "failed_share")
                   if k in metrics]
    else:
        if spec["kind"] == "triage":
            m, e2e, attempted, failed, correct, report = \
                triage_layers(session, seconds)
        else:
            m, e2e, attempted, failed, correct, report = \
                serve_layers(session, spec, seconds)
        m = dict({name: 0.0 for name in PER_LAYER_UNITS}, **m)
        m["failed_share"] = failed / attempted if attempted else 0.0
        m["bench.phases_died"] = float(sum(p.died for p in session.phases))
        report += layer_table(m, spec["layers"], e2e)
        metrics, units = m, PER_LAYER_UNITS
    payload = {"correct": bool(correct), "attempted": int(attempted),
               "failed": int(failed),
               "metrics": {k: {"value": metrics[k], "unit": units[k]}
                           for k in units}}
    return payload, report


def record_digests(driver, seeds, isas):
    digests = load_digests()
    for isa in isas:
        table = digests.setdefault(isa, {})
        for seed in seeds:
            phase = run_process("digest", [driver, "triage", "--seconds=0",
                                           "--setups=1", "--seed=%d" % seed,
                                           "--isa=" + isa], timeout_s=120)
            if phase.died:
                raise RuntimeError("digest run %s (%s)" % (phase.status,
                                                           phase.detail))
            table[str(seed)] = phase.result["digest"]
    with open(DIGESTS_PATH, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", type=int, metavar="N",
                        help="record triage digests for seeds 0..N-1 and exit")
    args = parser.parse_args(argv)
    try:
        driver = build()
        if args.record_digests:
            record_digests(driver, range(args.record_digests),
                           ["avx2", "scalar"])
            return 0
        names = (list(WORKLOADS) if args.workload == "all"
                 else [args.workload])
        combined = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
        for name in names:
            payload, report = run_workload(driver, name, args.seed,
                                           args.seconds, args.trace)
            print("\n".join(report))
            combined["correct"] &= payload["correct"]
            combined["attempted"] += payload["attempted"]
            combined["failed"] += payload["failed"]
            prefix = name + "/" if len(names) > 1 else ""
            for k, v in payload["metrics"].items():
                combined["metrics"][prefix + k] = v
        sys.stdout.flush()
        print(json.dumps(combined))
        return 0
    except (RuntimeError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
