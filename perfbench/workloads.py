"""Workload task lists (plain data from a seed) and the code that runs them.

``task_list(workload, seed)`` builds the inputs without importing valtool;
``run_task(task, env)`` hands them to valtool's public functions and checks
every answer with ``oracle``.  A task returns None when all answers match,
or raises ``oracle.Mismatch`` / ``oracle.Undecided``.

Each chain workload has a fixed schedule of (depth, base, rank) cells and
fixed monomials in its elements, so the amount of work barely depends on
the seed; the seed picks the coefficients and the order of the tasks.

The scenario reports in ``expected/`` were recorded at the commit that added
the benchmark, with ``valtool run FILE --format FMT``; a change that alters
a report on purpose records them again the same way.
"""

from __future__ import annotations

import contextlib
import io
import random

from chain import BASES, ChainSpec
import oracle

WORKLOADS = ("scenarios", "chain-eval", "chain-transform", "chain-detect")
SCENARIOS = ("v1", "def2", "pi2", "disc")
FORMATS = ("text", "csv")

BASE_RANKS = [(b, r) for b in ("Q", "GF2", "GF3") for r in (1, 2)]

# (depth, base, rank) cells of one pass; repeated cells are separate tasks.
# Each pass has 40 tasks, so the p75 of the per-task times has ten beyond it.
# The cells come in blocks of near-equal cost, listed cheapest first, and
# the p50 (20th/21st task by time) and the p75 (30th) fall inside a block,
# not on the edge between two: there a task crossing the edge would move
# the figure by the whole gap between the blocks.
EVAL_CELLS = (
    # 1-14: depth 1, and depth 2 over GF(p)
    [(1, b, r) for b, r in BASE_RANKS] + [(1, "Q", r) for r in (1, 2)] * 2
    + [(2, b, r) for b in ("GF2", "GF3") for r in (1, 2)]
    # 15-24, the p50: depth 2 over Q and depth 3 over GF(2)
    + [(2, "Q", r) for r in (1, 2)] * 4 + [(3, "GF2", r) for r in (1, 2)]
    # 25-33, the p75: depth 3 over GF(3) and depth 4 over GF(2)
    + [(3, "GF3", r) for r in (1, 2)] * 2 + [(4, "GF2", 1)] * 3
    + [(4, "GF2", 2)] * 2
    # 34-40: the deep end
    + [(3, "Q", 1), (5, "GF2", 1), (6, "GF2", 1), (4, "GF3", 1), (4, "Q", 2),
       (4, "Q", 1), (5, "Q", 1)]
)
TRANSFORM_CELLS = (
    # 1-16: depth 1, and depth 2 over GF(p)
    [(1, b, r) for b, r in BASE_RANKS] + [(1, b, 1) for b in BASES]
    + [(2, b, r) for b in ("GF2", "GF3") for r in (1, 2)]
    + [(2, "GF2", 1), (2, "GF3", 1), (2, "GF2", 1)]
    # 17-25, the p50: depth 2 over Q and depth 3 over GF(2)
    + [(2, "Q", 1)] * 5 + [(2, "Q", 2)] * 2 + [(3, "GF2", r) for r in (1, 2)]
    # 26-33, the p75: depth 3 over Q
    + [(3, "Q", r) for r in (1, 2)] * 4
    # 34-40: the deep end
    + [(4, b, r) for b in ("GF2", "GF3") for r in (1, 2)]
    + [(5, "GF2", r) for r in (1, 2)] + [(4, "Q", 1)]
)
# (depth, base, rank, ramify).  The flag adds a ramification report, which
# reruns the detector, so only at depth 1.  1-26, the p50: depth 1 over
# GF(p); 27-33, the p75: depth 1 over Q; 34-40: the reports, depth 2 and
# one depth-3 cell.
DETECT_CELLS = (
    [(1, b, 1, False) for b in ("GF2", "GF3")] * 13
    + [(1, "Q", 1, False)] * 7
    + [(1, b, 1, True) for b in BASES]
    + [(2, b, 1, False) for b in BASES]
    + [(3, "GF2", 1, False)]
)
SCENARIO_REPEATS = 5
ELEMENTS_PER_TASK = 3
TERMS_PER_ELEMENT = 3
NEXT_KEY_MAX_DEPTH = 4   # the next key's expansion grows ~14x per level


def task_list(workload, seed):
    """The fixed task list of one pass of a workload, from its seed."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "scenarios":
        tasks = [{"kind": "scenario", "name": n, "fmt": f}
                 for _ in range(SCENARIO_REPEATS)
                 for n in SCENARIOS for f in FORMATS]
    elif workload == "chain-eval":
        tasks = [eval_task(ChainSpec(*cell), rng) for cell in EVAL_CELLS]
    elif workload == "chain-transform":
        tasks = [transform_task(ChainSpec(*cell), rng)
                 for cell in TRANSFORM_CELLS]
    elif workload == "chain-detect":
        tasks = [{"kind": "detect", "cell": cell[:3], "ramify": cell[3]}
                 for cell in DETECT_CELLS]
    else:
        raise ValueError("unknown workload %r" % workload)
    rng.shuffle(tasks)
    for k, task in enumerate(tasks):
        task["id"] = k
    return tasks


def _coefficient(rng, base):
    p = BASES[base]
    return rng.randrange(1, p) if p else rng.choice((1, -1, 2, -3, 5, -7))


def monomial_sum(spec, rng, top_degree):
    """Key monomials with distinct values; the first has the given y-degree.

    Key exponents stay reduced (below 2 for P_1 .. P_d), so the sum is its
    own expansion over the keys.  The y-degree of the key part of a
    monomial is sum a_j * 2^(j-1), which fixes its key exponents.  The other
    terms take the midpoints of equal strata below the first, and term k
    the first power x^a, a = k, k+1, ... mod 4, that keeps the values
    distinct.  So the monomials, which set the cost of a task, are the same
    for every seed, and the seed picks only the coefficients: monomials
    picked by the seed make one cell's cost vary by up to 45% between
    seeds, more than the benchmark's bounds allow between runs.
    """
    def keys_of(ydeg):
        return tuple((ydeg >> (j - 1)) & 1 if j <= spec.depth
                     else ydeg >> spec.depth for j in range(1, spec.nkeys))

    terms, seen = [], set()
    lower = _midpoints(0, max(1, top_degree), TERMS_PER_ELEMENT - 1)
    for k, ydeg in enumerate([top_degree] + lower):
        for a in range(4):
            exps = ((k + a) % 4,) + keys_of(ydeg)
            if spec.value_of(exps) not in seen:
                break
        else:
            raise ValueError("no distinct value at y-degree %d" % ydeg)
        seen.add(spec.value_of(exps))
        terms.append((_coefficient(rng, spec.base), exps))
    return terms


def _midpoints(lo, width, count):
    """The midpoint of each of ``count`` equal strata of [lo, lo+width)."""
    return [lo + (2 * k + 1) * width // (2 * count) for k in range(count)]


def eval_task(spec, rng):
    span = 2 ** spec.depth   # y-degrees [2^d, 2^(d+1)) involve the top key
    sums = [monomial_sum(spec, rng, deg)
            for deg in _midpoints(span, span, ELEMENTS_PER_TASK)]
    return {"kind": "eval", "cell": (spec.depth, spec.base, spec.rank),
            "sums": sums,
            "next_key": spec.rank == 1 and spec.depth <= NEXT_KEY_MAX_DEPTH}


def transform_task(spec, rng):
    # below P_d: substituting into the top keys dwarfs the transform itself
    span = 2 ** max(0, spec.depth - 2)
    elems = [monomial_sum(spec, rng, deg)
             for deg in _midpoints(span, span, ELEMENTS_PER_TASK)]
    # one level per element, spread from x to the top key
    levels = [k * spec.nkeys // len(elems) for k in range(len(elems))]
    return {"kind": "transform", "cell": (spec.depth, spec.base, spec.rank),
            "elements": elems, "levels": levels}


# ---------------------------------------------------------------------------
# running tasks against valtool
# ---------------------------------------------------------------------------

class Env:
    """valtool's modules plus the recorded scenario reports."""

    def __init__(self, recorded=None):
        import valtool
        import valtool.blowup
        import valtool.cli
        import valtool.extension
        import valtool.genseq
        import valtool.graded
        import valtool.ring
        import valtool.towers
        import valtool.values
        self.valtool = valtool
        self.recorded = recorded or {}
        self.undecided_errors = (valtool.genseq.InsufficientGeneratingData,
                                 valtool.values.UndecidedComparison)


def build_chain(spec, env):
    """Declare a chain through valtool's public constructors."""
    vt = env.valtool
    tower = vt.towers.ResidueTower(vt.towers.BaseField(spec.char))
    ctx = vt.ring.LocalRingCtx(tower, ("x", "y"))
    pi = vt.values.pi_descriptor() if spec.rank == 2 else None
    values = [vt.values.Value(q0, q1, pi if q1 else None)
              for q0, q1 in spec.values]
    steps = [vt.genseq.KeyStep(i, 2, [vt.genseq.TailTerm(tower.scalar(-1), t)],
                               values[i + 1])
             for i, t in enumerate(spec.tails, start=1)]
    residues = {i: tower.one() for i in range(1, spec.nkeys)}
    return vt.genseq.GenSeq(ctx, values, steps, residues=residues,
                            terminal=spec.rank == 2)


def element(g, terms):
    out = g.ctx.zero()
    for c, exps in terms:
        out = out + g.monomial(exps) * g.ctx.tower.scalar(c)
    return out


def run_task(task, env):
    kind = task["kind"]
    try:
        if kind == "scenario":
            _run_scenario(task, env)
        elif kind == "eval":
            _run_eval(task, env)
        elif kind == "transform":
            _run_transform(task, env)
        elif kind == "detect":
            _run_detect(task, env)
        else:
            _run_chain_scenario(task, env)
    except env.undecided_errors as err:
        raise oracle.Undecided("%s: %s: %s"
                               % (_label(task), type(err).__name__, err))


def _label(task):
    if "cell" in task:
        return "%s %s" % (task["kind"], ChainSpec(*task["cell"]).name)
    return "scenario %s/%s" % (task["name"], task["fmt"])


def _run_scenario(task, env):
    name, fmt = task["name"], task["fmt"]
    out, err = io.StringIO(), io.StringIO()
    path = str(env.valtool.scenario_path(name))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = env.valtool.cli.main(["run", path, "--format", fmt])
    oracle.check_scenario(name, fmt, code, out.getvalue(),
                          env.recorded.get((name, fmt)), _label(task))


def _run_eval(task, env):
    gs = env.valtool.genseq
    spec = ChainSpec(*task["cell"])
    what = _label(task)
    g = build_chain(spec, env)
    oracle.check_valid(gs.validate_sequence(g), what)
    for terms in task["sums"]:
        oracle.check_value(gs.evaluate(element(g, terms), g),
                           oracle.expected_min(spec, terms), what)
    for i in range(1, spec.depth + 1):
        oracle.check_value(gs.evaluate(g.keys[i] ** 2, g),
                           oracle.square_value(spec, i), "%s P%d^2" % (what, i))
    if task["next_key"]:
        beyond = g.keys[-1] ** 2 - g.monomial(spec.next_tail)
        try:
            got = gs.evaluate(beyond, g)
        except gs.InsufficientGeneratingData:
            return
        raise oracle.Mismatch("%s: the key beyond the prefix got value %r; "
                              "it cancels in the residue field" % (what, got))


def _run_transform(task, env):
    bl = env.valtool.blowup
    spec = ChainSpec(*task["cell"])
    what = _label(task)
    g = build_chain(spec, env)
    tmap, target = bl.free_transform(g)
    oracle.check_transform(tmap, target, spec, what)
    oracle.check_chain_record(bl.iterate_transforms(g, 2), what)
    for terms, level in zip(task["elements"], task["levels"]):
        f = element(g, terms)
        oracle.check_strict(bl.strict_transform(f, tmap), what)
        rows = bl.transform_value_table(g, tmap, f, level)
        oracle.check_value_table(rows, oracle.expected_value_table(
            spec, terms, level), "%s level %d" % (what, level))


def _run_detect(task, env):
    vt = env.valtool
    spec = ChainSpec(*task["cell"])
    what = _label(task)
    g = build_chain(spec, env)
    tmap, target = vt.blowup.free_transform(g)
    ext = tmap.extension()
    oracle.check_detect(vt.graded.fingen_detect(g, target, ext, 6), what)
    if task["ramify"]:
        oracle.check_ramification(
            vt.extension.ramification_report(g, target, ext, depth=6), what)


def _run_chain_scenario(task, env):
    """``valtool run`` on a chain written as a scenario file."""
    spec = ChainSpec(*task["cell"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = env.valtool.cli.main(["run", task["path"]])
    oracle.check_chain_scenario(spec, spec.depth, code, out.getvalue(),
                                _label(task))

