"""Tests of the benchmark's own code: generator, task lists, oracle, runs.

Run from the root of a checkout: python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import oracle
import run
import workloads
from chain import ChainSpec, greedy_monomial, vless

F = Fraction


@pytest.mark.parametrize("depth", range(1, 8))
@pytest.mark.parametrize("base", ["Q", "GF2", "GF3"])
def test_values_follow_the_recursion(depth, base):
    spec = ChainSpec(depth, base)
    betas = [v for v, pi in spec.values]
    assert all(pi == 0 for _, pi in spec.values)
    assert betas[:2] == [F(1), F(3, 2)]
    for i in range(1, depth + 1):
        assert betas[i + 1] == 2 * betas[i] + F(1, 2 ** (i + 1))
        tail = spec.tails[i - 1]
        assert len(tail) == i
        assert all(a < 2 for a in tail[1:])
        assert spec.value_of(tail) == (2 * betas[i], 0)


def test_first_tails_and_corn_is_not_a_member():
    spec = ChainSpec(3)
    assert spec.tails[0] == (3,)          # y^2 - x^3
    assert spec.tails[1] == (5, 1)        # P_2^2 - x^5 y
    assert spec.values[3] == (F(53, 8), 0)   # corn has 55/8 here


def test_rank2_top_value_is_past_the_chain_value():
    spec = ChainSpec(2, rank=2)
    top = spec.values[-1]
    assert top == (2 * F(13, 4) - 3, 1)   # 2*beta_2 + (pi - 3)
    assert vless((2 * F(13, 4), 0), top)
    assert spec.next_tail is None


def test_greedy_monomial_reports_unreachable_values():
    assert greedy_monomial(F(1, 3), [F(1), F(3, 2)]) is None
    assert greedy_monomial(F(5, 2), [F(1), F(3, 2)]) == (1, 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_task_list(workload):
    assert workloads.task_list(workload, 7) == workloads.task_list(workload, 7)
    if workload != "scenarios":
        # chain inputs change with the seed, the amount of work does not
        other = workloads.task_list(workload, 8)
        assert other != workloads.task_list(workload, 7)
        assert sorted(t["cell"] for t in other) == sorted(
            t["cell"] for t in workloads.task_list(workload, 7))


def test_monomial_sums_have_distinct_values():
    for task in workloads.task_list("chain-eval", 3):
        spec = ChainSpec(*task["cell"])
        for terms in task["sums"]:
            values = [spec.value_of(e) for _, e in terms]
            assert len(set(values)) == len(values)


def _value(q0, q1=0):
    return SimpleNamespace(q0=F(q0), q1=F(q1))


def test_oracle_rejects_a_wrong_value():
    spec = ChainSpec(2)
    terms = [(1, (0, 0, 0, 1)), (1, (3, 1, 0, 0))]   # P_3 + x^3 y
    assert oracle.expected_min(spec, terms) == (F(9, 2), 0)
    oracle.check_value(_value(F(9, 2)), (F(9, 2), 0), "ok")
    with pytest.raises(oracle.Mismatch):
        oracle.check_value(_value(F(53, 8)), (F(9, 2), 0), "wrong")


def test_oracle_rejects_a_wrong_verdict_and_indices():
    good = SimpleNamespace(verdict=SimpleNamespace(kind="obstruction", level=1),
                           witnesses=[(1, "no solution")], e=1, f=1)
    oracle.check_detect(good, "ok")
    for bad in (dict(verdict=SimpleNamespace(kind="consistent", level=6)),
                dict(witnesses=[]), dict(e=2)):
        with pytest.raises(oracle.Mismatch):
            oracle.check_detect(SimpleNamespace(**dict(vars(good), **bad)), "bad")
    with pytest.raises(oracle.Mismatch):
        oracle.check_ramification(
            SimpleNamespace(e=1, f=1, delta=1, consistent=True), "bad")


def test_oracle_rejects_a_wrong_value_table_row():
    spec = ChainSpec(2)
    terms = [(1, (2, 0, 0, 0)), (1, (0, 1, 1, 0))]
    want = oracle.expected_value_table(spec, terms, 1)
    assert want == [((0, 1, 1, 0), 9, 3, True), ((2, 0, 0, 0), 4, 3, True)]
    oracle.check_value_table([(e, t, lam, ok) for e, t, lam, ok in want],
                             want, "ok")
    with pytest.raises(oracle.Mismatch):
        oracle.check_value_table([want[0]], want, "missing row")


def test_transformed_values_match_the_first_new_key():
    assert oracle.transformed_values(ChainSpec(2)) == [
        (F(1, 2), 0), (F(1, 4), 0), (F(53, 8) - 6, 0)]


@pytest.fixture
def recorded():
    run._prepare_path()
    return run._load_recorded()


def test_oracle_rejects_a_changed_report(recorded):
    text = recorded[("def2", "text")]
    oracle.check_scenario("def2", "text", 0, text, text, "ok")
    changed = text.replace("delta = 1", "delta = 0")
    with pytest.raises(oracle.Mismatch):
        oracle.check_scenario("def2", "text", 0, changed, changed, "facts")
    with pytest.raises(oracle.Mismatch):
        oracle.check_scenario("def2", "text", 0, text + " ", text, "bytes")
    with pytest.raises(oracle.Mismatch):
        oracle.check_scenario("def2", "text", 1, text, text, "exit code")


def test_tiny_load_runs_clean(recorded):
    env = workloads.Env(recorded)
    for workload in workloads.WORKLOADS:
        tasks = [t for t in workloads.task_list(workload, 1)
                 if t.get("cell", (1,))[0] <= 2][:6]
        outcomes = run.Outcomes()
        times = {t["id"]: [] for t in tasks}
        run.run_pass(tasks, env, outcomes, times)
        assert outcomes.attempted == len(tasks)
        assert (outcomes.failed, outcomes.undecided) == (0, 0), outcomes.messages


def test_speed_probe_samples_and_is_taken_out_of_task_times(recorded):
    import signal
    import speed
    env = workloads.Env(recorded)
    tasks = workloads.task_list("scenarios", 1)[:8]
    times = {t["id"]: [] for t in tasks}
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        run.run_pass(tasks, env, run.Outcomes(), times, probe=probe)
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.durations) >= 3
    assert probe.spent >= sum(probe.durations)
    for (t0, t1, busy), in times.values():
        assert 0 < busy <= t1 - t0
        assert 0.2 < probe.slowness(t0, t1) < 5


def test_tracer_counts_layers_and_restores_originals(recorded):
    import trace
    import valtool.genseq
    env = workloads.Env()
    tasks = [t for t in workloads.task_list("chain-eval", 1)
             if t["cell"][0] <= 2][:3]
    original = valtool.genseq.evaluate
    tracer = trace.Tracer()
    tracer.install()
    try:
        run.run_pass(tasks, env, run.Outcomes(),
                     {t["id"]: [] for t in tasks}, tracer)
    finally:
        tracer.uninstall()
    assert valtool.genseq.evaluate is original
    metrics = tracer.metrics()
    assert metrics["genseq.evaluate_calls"][0] > 0
    assert metrics["graded.calls"][0] == 0
    assert metrics["blowup.calls"][0] == 0
    assert 0 < metrics["genseq.self_s"][0] <= metrics["genseq.incl_s"][0]


def test_tiny_run_end_to_end():
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
           "scenarios", "--seed", "2", "--seconds", "0.2"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    cmd = [sys.executable, str(tmp_path / "perfbench" / "run.py"),
           "--workload", "chain-eval", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                          cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
