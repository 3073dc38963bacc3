"""valtool benchmark: one workload from one seed, checked against known answers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chain-eval --seed 1 --seconds 20 --trace 0

Workloads: scenarios, chain-eval, chain-transform, chain-detect (see
``workloads.py``).  One process, one thread, a closed loop with a single
client: the fixed task list of the workload runs in passes, each task
starting after the previous one ends, until ``--seconds`` are used (at
least one pass).  Every answer is checked by ``oracle.py``; a wrong or
undecided answer makes the run fail and the exit code 1.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs one untraced and one traced pass and prints the per-layer metrics
(see ``trace.py``).  Each metric goes on its own line with its unit, and the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A result file with the environment, git sha and source line
count goes to ``perfbench/results/``.

End-to-end metrics: ``setup_s`` (import valtool and make the inputs, in a
fresh interpreter; median of several), ``wall_s`` (median pass time),
``task_p50_s`` and ``task_tail_s`` (median and the highest percentile with
ten per-task medians beyond it), ``peak_rss_mb``, and
``depth_within_budget``: the deepest chain, probed upward after the timed
passes, whose task over Q finishes within a fixed budget.  The failed and
undecided shares are printed too; any nonzero share fails the run.
The timed figures (set-up, pass and task times) are divided by the
machine's slowness sampled around them, so they read as seconds at a fixed
reference speed (see ``speed.py``); the result file keeps the raw ones.

Child processes, one at a time: ``--setup-probe`` measures set-up in a
fresh interpreter, ``--depth-probe`` runs one chain task of a given depth
for ``depth_within_budget``.

The benchmark's own tests: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
EXPECTED = os.path.join(HERE, "expected")

SETUP_RUNS = 9
# per workload: (budget per depth in s, deepest depth probed).  Each task
# costs about 10x more per level, so a budget near the geometric middle of
# two levels keeps the headline depth clear of timing noise.
PROBES = {
    "scenarios": (1.2, 8),
    "chain-eval": (2.5, 8),
    "chain-transform": (2.5, 7),
    "chain-detect": (1.2, 6),
}
PROBE_GRACE_S = 0.6   # interpreter start and imports, on top of the budget
TAIL_BEYOND = 10


class SetupError(Exception):
    """The checkout lacks what the benchmark needs to run."""


def _prepare_path():
    if not os.path.isfile(os.path.join(SRC, "valtool", "__init__.py")):
        raise SetupError("no valtool sources under %s" % SRC)
    sys.path[:0] = [p for p in (SRC, HERE) if p not in sys.path]


def _load_recorded():
    import workloads
    out = {}
    for name in workloads.SCENARIOS:
        for fmt in workloads.FORMATS:
            path = os.path.join(EXPECTED, "%s.%s.txt" % (name, fmt))
            with open(path, newline="") as handle:
                out[(name, fmt)] = handle.read()
    return out


def _setup(workload, seed):
    """Import valtool and make the inputs: everything before the first task."""
    import workloads
    env = workloads.Env(_load_recorded() if workload == "scenarios" else None)
    return env, workloads.task_list(workload, seed)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Outcomes:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.undecided = 0
        self.messages = []

    def note(self, kind, message):
        if kind == "failed":
            self.failed += 1
        else:
            self.undecided += 1
        if len(self.messages) < 20:
            self.messages.append("%s: %s" % (kind, message))


def run_pass(tasks, env, outcomes, times, tracer=None, probe=None):
    """One pass over the task list; returns its wall time in seconds.

    Appends (start, end, busy) to ``times[id]`` for each task, where busy
    is its time less that of the speed ``probe``'s samples taken during it.
    """
    import oracle
    import workloads
    start = time.perf_counter()
    for task in tasks:
        if tracer is not None:
            tracer.begin_task(task["id"])
        spent = probe.spent if probe is not None else 0.0
        t0 = time.perf_counter()
        outcomes.attempted += 1
        try:
            workloads.run_task(task, env)
        except oracle.Undecided as err:
            outcomes.note("undecided", err)
        except oracle.Mismatch as err:
            outcomes.note("failed", err)
        except Exception as err:  # an unexpected fault is a failed task
            outcomes.note("failed", "%s: %s" % (type(err).__name__, err))
        t1 = time.perf_counter()
        if probe is not None:
            spent = probe.spent - spent
        times[task["id"]].append((t0, t1, t1 - t0 - spent))
        if tracer is not None:
            tracer.end_task()
    return time.perf_counter() - start


def tail(values):
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def measure(tasks, env, seconds):
    """Passes until ``seconds`` are used; times scaled to reference speed.

    Returns the outcomes, the scaled pass times (sums of scaled task
    times), the per-task medians, the tail with its percentile, and the raw
    pass times with the median slowness for the result file.
    """
    import speed
    outcomes = Outcomes()
    times = {task["id"]: [] for task in tasks}
    raw_passes = []
    started = time.perf_counter()
    with speed.SpeedProbe() as probe:
        while True:
            raw_passes.append(run_pass(tasks, env, outcomes, times,
                                       probe=probe))
            used = time.perf_counter() - started
            if used + statistics.median(raw_passes) > seconds:
                break
    scaled = {i: [busy / probe.slowness(t0, t1) for t0, t1, busy in v]
              for i, v in times.items()}
    passes = [sum(v[k] for v in scaled.values())
              for k in range(len(raw_passes))]
    per_task = [statistics.median(v) for v in scaled.values()]
    tail_value, tail_pct = tail(per_task)
    raw = {"passes_raw_s": raw_passes, "reference_kernel_s": speed.REFERENCE_S,
           "slowness_median": statistics.median(probe.durations)
           / speed.REFERENCE_S,
           "speed_samples": len(probe.durations),
           "speed_sampling_s": probe.spent}
    return outcomes, passes, per_task, tail_value, tail_pct, raw


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _child(args, timeout):
    """Run this script as a child; its last output line parsed, or None."""
    cmd = [sys.executable, os.path.abspath(__file__)] + args
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    if done.returncode != 0 or not done.stdout.strip():
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_seconds(workload, seed):
    """Median scaled set-up time over fresh interpreters, one at a time;
    also the raw samples."""
    samples, raw = [], []
    for _ in range(SETUP_RUNS):
        got = _child(["--setup-probe", "--workload", workload,
                      "--seed", str(seed)], timeout=60)
        if got is None:
            raise SetupError("set-up probe failed")
        samples.append(got["setup_s"])
        raw.append(got["raw_s"])
    return statistics.median(samples), samples, raw


def depth_within_budget(workload, outcomes):
    """Largest chain depth whose probe task finishes within the budget.

    A probe that answers wrongly counts as a failed task.
    """
    budget, cap = PROBES[workload]
    best, log = 0, []
    for depth in range(1, cap + 1):
        got = _child(["--depth-probe", "--workload", workload,
                      "--depth", str(depth)], timeout=budget + PROBE_GRACE_S)
        outcomes.attempted += 1
        if got is not None and not got["correct"]:
            outcomes.note("failed", "depth probe %d: %s"
                          % (depth, got["error"]))
        ok = got is not None and got["correct"] and got["task_s"] <= budget
        log.append((depth, None if got is None else got["task_s"], ok))
        if not ok:
            break
        best = depth
    return best, budget, cap, log


def probe_task(workload, depth):
    """The workload's task at one depth over Q, or a chain scenario file."""
    import workloads
    from chain import ChainSpec
    spec = ChainSpec(depth)
    rng = random.Random(depth)
    if workload == "chain-eval":
        return workloads.eval_task(spec, rng)
    if workload == "chain-transform":
        return workloads.transform_task(spec, rng)
    if workload == "chain-detect":
        return {"kind": "detect", "cell": (depth, "Q", 1), "ramify": False}
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "probe-chain-%d.scn" % depth)
    key = "P%d" % depth if depth >= 2 else "y"
    with open(path, "w") as handle:
        handle.write(spec.scenario_text(
            ["validate nu", "eval nu %s^2" % key, "blowup nu 1"]))
    return {"kind": "chain-scenario", "cell": (depth, "Q", 1), "path": path}


def run_probe(workload, depth):
    import oracle
    import workloads
    env = workloads.Env()
    task = probe_task(workload, depth)
    t0 = time.perf_counter()
    error = None
    try:
        workloads.run_task(task, env)
    except (oracle.Mismatch, oracle.Undecided) as err:
        error = str(err)
    return {"correct": error is None, "error": error,
            "task_s": time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _git_sha():
    """HEAD of the checkout, or None; git may not look above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_lines():
    total = 0
    pkg = os.path.join(SRC, "valtool")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as handle:
                total += sum(1 for _ in handle)
    return total


def environment():
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "machine": platform.machine(),
            "cpus": os.cpu_count(), "git_sha": _git_sha(),
            "src_valtool_lines": _src_lines()}


def emit(args, metrics, reported, notes, outcomes, details):
    """Print each metric with its unit, save the result, print the JSON line.

    ``reported`` names the metrics of the JSON line; the result file keeps
    all of them plus ``details``.
    """
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print("%-34s %14.6g %s%s" % (name, value, unit,
                                     "  (%s)" % note if note else ""))
    for message in outcomes.messages:
        print("task %s" % message)
    failed = outcomes.failed + outcomes.undecided
    result = {"correct": failed == 0, "attempted": outcomes.attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name][0],
                                 "unit": metrics[name][1]}
                          for name in reported}}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  all_metrics={n: {"value": v, "unit": u, "note": notes.get(n)}
                               for n, (v, u) in metrics.items()},
                  undecided=outcomes.undecided, failures=outcomes.messages,
                  environment=environment(), details=details)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


END_TO_END = ("setup_s", "wall_s", "task_p50_s", "task_tail_s",
              "peak_rss_mb", "depth_within_budget")


def main_untraced(args, env, tasks):
    setup_s, setup_samples, setup_raw = setup_seconds(args.workload,
                                                      args.seed)
    outcomes, passes, per_task, tail_value, tail_pct, raw = measure(
        tasks, env, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    depth, budget, cap, probe_log = depth_within_budget(args.workload,
                                                        outcomes)
    n = max(outcomes.attempted, 1)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(passes), "s"),
        "task_p50_s": (statistics.median(per_task), "s"),
        "task_tail_s": (tail_value, "s"),
        "failed_share": (outcomes.failed / n, "ratio"),
        "undecided_share": (outcomes.undecided / n, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "depth_within_budget": (depth, "depth"),
    }
    notes = {
        "setup_s": "median of %d fresh interpreters" % len(setup_samples),
        "wall_s": "median of %d passes of %d tasks; raw times %.2fx these"
                  % (len(passes), len(tasks), raw["slowness_median"]),
        "task_p50_s": "over %d per-task medians" % len(per_task),
        "task_tail_s": "p%.1f of %d per-task medians, %d beyond it"
                       % (tail_pct, len(per_task), TAIL_BEYOND),
        "failed_share": "%d of %d tasks" % (outcomes.failed,
                                            outcomes.attempted),
        "undecided_share": "%d of %d tasks" % (outcomes.undecided,
                                               outcomes.attempted),
        "depth_within_budget": "budget %.1f s per depth, cap %d; %s"
                               % (budget, cap, ", ".join(
                                   "d%d %s" % (d, "killed" if t is None
                                               else "%.2fs" % t)
                                   for d, t, _ in probe_log)),
    }
    details = dict(raw, passes_s=passes, setup_samples_s=setup_samples,
                   setup_raw_s=setup_raw, task_tail_percentile=tail_pct,
                   task_tail_samples=len(per_task), depth_probes=probe_log,
                   task_medians_s=sorted(
                       ([t.get("cell") or [t["name"], t["fmt"]], m]
                        for t, m in zip(tasks, per_task)),
                       key=lambda row: row[1]))
    return emit(args, metrics, END_TO_END, notes, outcomes, details)


def main_traced(args, env, tasks):
    import trace
    outcomes = Outcomes()
    times = {task["id"]: [] for task in tasks}
    untraced = run_pass(tasks, env, outcomes, times)
    tracer = trace.Tracer()
    tracer.install()
    try:
        traced = run_pass(tasks, env, outcomes, times, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    os.makedirs(RESULTS, exist_ok=True)
    spans = os.path.join(RESULTS, "%s-seed%d.spans.jsonl.gz"
                         % (args.workload, args.seed))
    tracer.write_spans(spans)
    notes = {"trace.overhead_ratio": "%.3f s traced / %.3f s untraced"
                                     % (traced, untraced)}
    details = {"spans_file": spans, "untraced_wall_s": untraced,
               "traced_wall_s": traced}
    return emit(args, metrics, tuple(metrics), notes, outcomes, details)


def main(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--depth-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--depth", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        _prepare_path()
        env, tasks = _setup(args.workload, args.seed)
    except (SetupError, ImportError, OSError) as err:
        print("cannot set up the benchmark: %s" % err, file=sys.stderr)
        return 2
    if args.setup_probe:
        raw = time.perf_counter() - t0
        import speed   # after the clock stops: fractions is loaded by now
        print(json.dumps({"setup_s": raw / speed.slowness(), "raw_s": raw}))
        return 0
    if args.depth_probe:
        print(json.dumps(run_probe(args.workload, args.depth)))
        return 0
    if args.trace:
        return main_traced(args, env, tasks)
    try:
        return main_untraced(args, env, tasks)
    except SetupError as err:
        print("cannot set up the benchmark: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
