"""Scenario files: a line-oriented declaration format plus a command list.

Sections are headed by [field], [ring NAME], [embedding NAME],
[valuation NAME], [extension NAME] and [run].  All constants are exact:
rationals as p/q, rank-2 values as (q0,q1) pairs over the declared
irrational.  Reports are deterministic: re-running a file reproduces the
bytes.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import blowup as blowup_mod
from . import graded as graded_mod
from .extension import ExtensionMap, ramification_report, splitting_report
from .genseq import (
    GenSeq,
    InsufficientGeneratingData,
    NonMonicKey,
    evaluate,
    expand,
    step_from_tail,
    validate_sequence,
)
from .ring import (
    LocalRingCtx,
    PolyParseError,
    SeriesEmbedding,
    TruncSeries,
    parse_poly,
    series_value,
)
from .towers import QQ, BaseField, NotAFieldExtension, ResidueTower
from .values import IrrationalDescriptor, Value, pi_descriptor


class ScenarioError(Exception):
    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class Scenario:
    def __init__(self):
        self.tower = ResidueTower(QQ)
        self.irrational = None  # the one irrational of rank-2 values
        self.rings = {}
        self.embeddings = {}
        self.valuations = {}
        self.extensions = {}
        self.commands = []   # (line, verb, args)


def _parse_fraction(text, line):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ScenarioError("expected an exact rational, found %r" % text, line)


def _parse_value(text, scenario, line):
    text = text.strip()
    m = re.fullmatch(r"\(([^,]+),([^)]+)\)", text)
    if m:
        q0 = _parse_fraction(m.group(1).strip(), line)
        q1 = _parse_fraction(m.group(2).strip(), line)
        if scenario.irrational is None:
            raise ScenarioError("rank-2 value %r needs an irrational "
                                "declaration" % text, line)
        return Value(q0, q1, scenario.irrational)
    return Value(_parse_fraction(text, line))


def _parse_const(text, scenario, line):
    """A tower constant: rational arithmetic over the declared generators."""
    ctx = LocalRingCtx(scenario.tower, ("_c0", "_c1"))
    consts = {name: scenario.tower.gen(name)
              for name in scenario.tower.level_names()}
    try:
        elem = parse_poly(text, ctx, consts=consts)
    except PolyParseError as err:
        raise ScenarioError("bad constant %r: %s" % (text, err), line)
    if elem.y_degree() > 0 or any(i for i, _ in elem.terms):
        raise ScenarioError("%r is not a constant" % text, line)
    return elem.constant_term()


_SERIES_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<coeff>\d+(?:/\d+)?)?\s*"
    r"(?:(?P<star>\*)?\s*t(?:\^(?P<exp>\(?-?\d+(?:/\d+)?\)?))?)?\s*")


def _parse_series(text, tower, trunc, line):
    coeffs = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _SERIES_TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ScenarioError("bad series term at %r" % text[pos:], line)
        sign, coeff, exp = m.group("sign"), m.group("coeff"), m.group("exp")
        has_t = "t" in text[m.start():m.end()]
        if coeff is None and not has_t:
            raise ScenarioError("empty series term in %r" % text, line)
        if sign is None and not first:
            raise ScenarioError("missing +/- between series terms", line)
        if exp and exp.startswith("(") != exp.endswith(")"):
            raise ScenarioError("unbalanced parenthesis in series exponent "
                                "%r" % exp, line)
        q = _parse_fraction(coeff, line) if coeff else Fraction(1)
        if sign == "-":
            q = -q
        e = (_parse_fraction(exp.strip("()"), line) if exp
             else Fraction(1) if has_t else Fraction(0))
        try:
            c = tower.scalar(q)
        except ZeroDivisionError as err:  # a denominator divisible by p
            raise ScenarioError("series coefficient %s: %s" % (q, err), line)
        if e in coeffs:
            coeffs[e] = coeffs[e] + c
        else:
            coeffs[e] = c
        pos = m.end()
        first = False
    return TruncSeries(tower, coeffs, trunc)


def parse_scenario(text):
    """Parse scenario text; errors carry the offending line number."""
    scenario = Scenario()
    section = None
    name = None
    header = None
    # accumulated per-section state; section-level errors are reported at
    # the section's header, or at the directive they concern
    state, seen = {}, {}

    def flush():
        if section is None:
            return
        try:
            if section == "ring":
                if "params" not in state:
                    raise ScenarioError("ring %r missing params" % name,
                                        header)
                scenario.rings[name] = LocalRingCtx(
                    scenario.tower, tuple(state["params"]),
                    ring_levels=state.get("levels"))
            elif section == "embedding":
                ctx = _ring_of(scenario, "embedding", name, state, header)
                trunc = state.get("truncate", Fraction(32))
                images = {}
                for pname, stext, sline in state.get("series", []):
                    if pname not in ctx.param_names:
                        raise ScenarioError(
                            "series for unknown parameter %r" % pname, sline)
                    images[pname] = _parse_series(stext, scenario.tower,
                                                  trunc, sline)
                norm = state.get("normalize")
                try:
                    scenario.embeddings[name] = SeriesEmbedding(
                        ctx, images, normalization=norm)
                except ValueError as err:
                    raise ScenarioError("embedding %r: %s" % (name, err),
                                        header)
            elif section == "valuation":
                scenario.valuations[name] = _build_valuation(
                    scenario, name, state, header)
            elif section == "extension":
                scenario.extensions[name] = _build_extension(
                    scenario, name, state, header)
        finally:
            state.clear()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = re.fullmatch(r"\[(\w+)(?:\s+(\w+))?\]", stripped)
        if m:
            flush()
            section, name, header = m.group(1), m.group(2), lineno
            seen = {}  # what this section's lines set -> the setting line
            if section not in ("field", "ring", "embedding", "valuation",
                               "extension", "run"):
                raise ScenarioError("unknown section %r" % section, lineno)
            if section != "field" and section != "run" and name is None:
                raise ScenarioError("section [%s] needs a name" % section,
                                    lineno)
            if name is not None and (
                    name in scenario.rings or name in scenario.embeddings
                    or name in scenario.valuations
                    or name in scenario.extensions):
                raise ScenarioError("duplicate name %r" % name, lineno)
            continue
        if section is None:
            raise ScenarioError("content before the first section", lineno)
        parts = stripped.split()
        try:
            if section == "run":
                scenario.commands.append((lineno, parts[0], parts[1:]))
                continue
            setting = _setting(stripped, parts)
            if setting in seen:
                raise ScenarioError("repeated %r line; the first is at line "
                                    "%d" % (setting, seen[setting]), lineno)
            if setting is not None:
                seen[setting] = lineno
            if section == "field":
                _field_line(scenario, stripped, lineno)
            else:
                _section_line(scenario, section, state, stripped, lineno)
        except IndexError:
            raise ScenarioError("%r misses an argument" % parts[0], lineno)
        except ValueError as err:
            raise ScenarioError("bad %r line: %s" % (parts[0], err), lineno)
    flush()
    return scenario


def _setting(line_text, parts):
    """What a section line sets, or None for a line that may repeat: keys
    and tower levels.  A second line setting the same thing is refused."""
    if parts[0] in ("key", "extend"):
        return None
    if parts[0] == "alpha":
        return "alpha %d" % int(parts[1])
    if "=" in line_text:  # a parameter's series or image
        return line_text.split("=", 1)[0].strip() + " ="
    return parts[0]


def _field_line(scenario, line_text, lineno):
    parts = line_text.split()
    if parts[0] == "base":
        if parts[1] == "Q":
            scenario.tower = ResidueTower(QQ)
        elif parts[1] == "F":
            scenario.tower = ResidueTower(BaseField(int(parts[2])))
        else:
            raise ScenarioError("base must be Q or F p", lineno)
    elif parts[0] == "irrational":
        # in this section or a later one, a second irrational would go
        # unused: every rank-2 value binds to the first
        if scenario.irrational is not None:
            raise ScenarioError("second irrational %r: every rank-2 value "
                                "binds to the first" % parts[1], lineno)
        nm = parts[1]
        if parts[2] == "default":
            scenario.irrational = pi_descriptor()
        elif parts[2] == "interval":
            vals = [_parse_fraction(p, lineno) for p in parts[3:]]
            if len(vals) < 2 or len(vals) % 2:
                raise ScenarioError("interval table needs lo/hi pairs", lineno)
            pairs = list(zip(vals[::2], vals[1::2]))
            try:
                scenario.irrational = IrrationalDescriptor(nm, pairs)
            except ValueError as err:
                raise ScenarioError(str(err), lineno)
        else:
            raise ScenarioError("irrational needs 'default' or 'interval'",
                                lineno)
    elif parts[0] == "extend":
        coeffs = [_parse_const(p, scenario, lineno) for p in parts[3:]]
        if parts[2] != "minpoly":
            raise ScenarioError("extend NAME minpoly c0 c1 ...", lineno)
        try:
            scenario.tower = scenario.tower.extend(parts[1], coeffs)
        except NotAFieldExtension as err:
            raise ScenarioError(str(err), lineno)
    else:
        raise ScenarioError("unknown field directive %r" % parts[0], lineno)


def _section_line(scenario, section, state, line_text, lineno):
    parts = line_text.split()
    key = parts[0]
    if section == "ring":
        if key == "params":
            if len(parts) != 3 or parts[1] == parts[2]:
                raise ScenarioError("params needs two distinct names", lineno)
            state["params"] = parts[1:]
        elif key == "levels":
            state["levels"] = int(parts[1])
            if not 0 <= state["levels"] <= scenario.tower.height:
                raise ScenarioError("levels must lie in 0..%d, the tower's "
                                    "height" % scenario.tower.height, lineno)
        else:
            raise ScenarioError("unknown ring directive %r" % key, lineno)
        return
    if section == "embedding":
        if key == "ring":
            state["ring"] = (parts[1], lineno)
        elif key == "truncate":
            state["truncate"] = _parse_fraction(parts[1], lineno)
            if state["truncate"] <= 0:
                raise ScenarioError("truncate must be positive", lineno)
        elif key == "normalize":
            state["normalize"] = (parts[1],
                                  _parse_value(parts[2], scenario, lineno))
        elif "=" in line_text:
            pname, stext = line_text.split("=", 1)
            state.setdefault("series", []).append(
                (pname.strip(), stext.strip(), lineno))
        else:
            raise ScenarioError("unknown embedding directive %r" % key, lineno)
        return
    if section == "valuation":
        if key == "ring":
            state["ring"] = (parts[1], lineno)
        elif key == "values":
            state["values"] = [_parse_value(p, scenario, lineno)
                               for p in parts[1:]]
        elif key == "key":
            m = re.fullmatch(
                r"key\s+n=([1-9]\d*)\s+value=(\S+)\s+tail=(.+)", line_text)
            if not m:
                raise ScenarioError("key n=<positive int> value=<value> "
                                    "tail=<poly>", lineno)
            state.setdefault("keys", []).append(
                (int(m.group(1)), m.group(2), m.group(3).strip(), lineno))
        elif key == "alpha":
            state.setdefault("alphas", {})[int(parts[1])] = (
                _parse_const(" ".join(parts[2:]), scenario, lineno), lineno)
        elif key == "oracle":
            state["oracle"] = (parts[1], lineno)
        elif key == "terminal":
            state["terminal"] = True
        else:
            raise ScenarioError("unknown valuation directive %r" % key, lineno)
        return
    if section == "extension":
        if key == "from":
            if len(parts) != 4 or parts[2] != "to":
                raise ScenarioError("from R to S", lineno)
            state["from"] = (parts[1], parts[3], lineno)
        elif key == "degree":
            state["degree"] = int(parts[1])
            if state["degree"] < 1:
                raise ScenarioError("degree must be a positive integer",
                                    lineno)
        elif key == "char":  # a check: p is read from the tower
            state["char"] = (int(parts[1]), lineno)
        elif key == "unique":
            if parts[1] not in ("true", "false"):
                raise ScenarioError("unique must be true or false", lineno)
            state["unique"] = parts[1] == "true"
        elif "=" in line_text:
            pname, ptext = line_text.split("=", 1)
            state.setdefault("images", []).append(
                (pname.strip(), ptext.strip(), lineno))
        else:
            raise ScenarioError("unknown extension directive %r" % key, lineno)
        return


def _ring_of(scenario, kind, name, state, line):
    """The ring a section's ``ring`` line names; ``line`` is its header."""
    if "ring" not in state:
        raise ScenarioError("%s %r needs a 'ring' line" % (kind, name), line)
    ring, rline = state["ring"]
    if ring not in scenario.rings:
        raise ScenarioError("%s %r references undeclared ring %r"
                            % (kind, name, ring), rline)
    return scenario.rings[ring]


def _build_valuation(scenario, name, state, line):
    ctx = _ring_of(scenario, "valuation", name, state, line)
    if "values" not in state or len(state["values"]) != 2:
        raise ScenarioError("valuation %r needs 'values b0 b1'" % name, line)
    values = list(state["values"])
    keys, tails = [ctx.x(), ctx.y()], []  # tails: (power, tail)
    for idx, (power, vtext, ttext, kline) in enumerate(state.get("keys", ()),
                                                       start=1):
        values.append(_parse_value(vtext, scenario, kline))
        tail = _parse_elem(ttext, ctx, keys, kline, "key %d tail" % idx)
        keys.append(keys[-1] ** power + tail)
        tails.append((power, tail))
    alphas = state.get("alphas", {})
    for level, (_, aline) in alphas.items():
        if not 1 <= level < len(keys):
            raise ScenarioError("alpha level %d is not in 1..%d"
                                % (level, len(keys) - 1), aline)
    oracle = None
    if "oracle" in state:
        oname, oline = state["oracle"]
        if oname not in scenario.embeddings:
            raise ScenarioError("valuation %r references undeclared "
                                "embedding %r" % (name, oname), oline)
        oracle = scenario.embeddings[oname]
        if oracle.ctx is not ctx:
            raise ScenarioError("oracle %r lives on a different ring" % oname,
                                oline)
    try:
        steps = [step_from_tail(keys, i, power, tail, values[i + 1])
                 for i, (power, tail) in enumerate(tails, start=1)]
        return GenSeq(ctx, values, steps, keys=keys, oracle=oracle,
                      residues={k: c for k, (c, _) in alphas.items()},
                      terminal=state.get("terminal", False))
    except NonMonicKey as err:  # reported at that key's own line
        raise ScenarioError("valuation %r: %s" % (name, err),
                            state["keys"][err.index - 2][-1])
    except ValueError as err:
        raise ScenarioError("valuation %r: %s" % (name, err), line)


def _build_extension(scenario, name, state, line):
    if "from" not in state:
        raise ScenarioError("extension %r needs a 'from R to S' line" % name,
                            line)
    src, dst, fline = state["from"]
    if src not in scenario.rings or dst not in scenario.rings:
        raise ScenarioError("extension %r references undeclared rings" % name,
                            fline)
    sctx, dctx = scenario.rings[src], scenario.rings[dst]
    p, cline = state.get("char", (sctx.tower.base.p, line))
    if p != sctx.tower.base.p:
        raise ScenarioError("char %d is not %d, the characteristic of "
                            "ring %s" % (p, sctx.tower.base.p, src), cline)
    images = {}
    for pname, ptext, pline in state.get("images", ()):
        if pname not in sctx.param_names:
            raise ScenarioError("image for unknown parameter %r" % pname,
                                pline)
        images[pname] = _parse_elem(ptext, dctx, (), pline,
                                    "image of %r" % pname)
    missing = [p for p in sctx.param_names if p not in images]
    if missing:
        raise ScenarioError("extension %r misses images for %s"
                            % (name, ", ".join(missing)), line)
    try:
        return ExtensionMap(sctx, images[sctx.param_names[0]],
                            images[sctx.param_names[1]],
                            field_degree=state.get("degree"),
                            unique=state.get("unique"))
    except ValueError as err:
        raise ScenarioError("extension %r: %s" % (name, err), line)


# ---------------------------------------------------------------------------
# command execution
# ---------------------------------------------------------------------------

class Section:
    def __init__(self, title):
        self.title = title
        self.lines = []
        self.csv = []        # (header, rows)
        self.dot = []
        self.fault = None
        self.skipped = False  # it names an INVALID valuation

    def add(self, *lines):
        self.lines.extend(lines)


class Report:
    def __init__(self):
        self.sections = []

    @property
    def ok(self):
        return all(s.fault is None for s in self.sections)

    def render(self, fmt="text"):
        out = []
        for s in self.sections:
            out.append("== %s ==" % s.title)
            if fmt == "csv" and s.csv:
                for header, rows in s.csv:
                    out.append(header)
                    out.extend(",".join(str(c) for c in row) for row in rows)
            elif fmt == "dot" and s.dot:
                out.extend(s.dot)
            else:
                out.extend(s.lines)
            if s.fault:
                out.append("FAULT: %s" % s.fault)
            out.append("")
        return "\n".join(out)


class RunFlags:
    def __init__(self, depth=4, seed=0):
        self.depth = depth
        self.seed = seed


def _resolve(scenario, kind, name, line):
    table = {"valuation": scenario.valuations, "extension": scenario.extensions,
             "ring": scenario.rings, "embedding": scenario.embeddings}[kind]
    if name not in table:
        raise ScenarioError("undeclared %s %r" % (kind, name), line)
    return table[name]


def _candidate(scenario, name, line):
    if name in scenario.valuations:
        return scenario.valuations[name]
    if name in scenario.embeddings:
        return scenario.embeddings[name]
    raise ScenarioError("undeclared candidate %r" % name, line)


def run_scenario(scenario, flags=None):
    """Execute the command list in order; faults do not stop later commands,
    and a command on an INVALID valuation, other than validate, is skipped."""
    flags = flags or RunFlags()
    report = Report()
    checked = {}  # valuation name -> its validation report
    for line, verb, args in scenario.commands:
        section = Section("%s %s" % (verb, " ".join(args)))
        report.sections.append(section)
        try:
            _dispatch(scenario, flags, section, line, verb, args, checked)
        except ScenarioError:
            raise
        except InsufficientGeneratingData as err:
            section.fault = "insufficient generating-sequence data: %s" % err
        except Exception as err:  # module faults become section failures
            section.fault = "%s: %s" % (type(err).__name__, err)
    return report


# each verb's usage and its least and greatest argument counts
_USAGE = {"validate": ("NU", 1, 1), "eval": ("NU POLY", 2, None),
          "expand": ("NU POLY", 2, None), "blowup": ("NU [COUNT]", 1, 2),
          "graded": ("NU [DEPTH]", 1, 2),
          "fingen": ("EXT NU NUSTAR [DEPTH]", 3, 4),
          "ramify": ("EXT NU NUSTAR [using EXT]", 3, 5),
          "split": ("EXT NU candidates NAMES... [probe POLY]", 4, None)}


def _dispatch(scenario, flags, section, line, verb, args, checked):
    if verb not in _USAGE:
        raise ScenarioError("unknown command %r" % verb, line)
    usage, low, high = _USAGE[verb]
    n = len(args)
    if (n < low or n > (high or n)
            or verb == "ramify" and n > 3 and (n == 4 or args[3] != "using")
            or verb == "split" and (args[2] != "candidates" or args[3] == "probe")):
        raise ScenarioError("usage: %s %s" % (verb, usage), line)
    if verb in ("fingen", "ramify", "split"):  # EXT NU ...
        ext = _resolve(scenario, "extension", args[0], line)
        g = _resolve(scenario, "valuation", args[1], line)
    else:  # NU ...
        g = _resolve(scenario, "valuation", args[0], line)
    # every argument is read before the validation gate, so a malformed one
    # is an error at its line whether or not a valuation it names is INVALID
    named = args[:1]  # the valuations the command names
    if verb in ("eval", "expand"):
        f = _parse_elem(" ".join(args[1:]), g.ctx, g.keys, line)
    elif verb == "blowup":
        count = _count(args, 1, 1, line)
    elif verb == "graded":
        depth = _count(args, 1, flags.depth, line)
    elif verb == "fingen":
        named, g_s = args[1:3], _resolve(scenario, "valuation", args[2], line)
        depth = _count(args, 3, flags.depth, line)
    elif verb == "ramify":
        named, g_s = args[1:3], _resolve(scenario, "valuation", args[2], line)
        monomial_ext = (_resolve(scenario, "extension", args[4], line)
                        if args[3:] else None)
    elif verb == "split":
        k = (args + ["probe"]).index("probe", 3)  # candidates end at "probe"
        named = args[1:2] + args[3:k]
        probes = [_parse_elem(" ".join(args[k + 1:]), ext.target_ctx, (),
                              line)] if k < n else []
        cands = [_candidate(scenario, c, line) for c in args[3:k]]
    for name in filter(scenario.valuations.__contains__, named):
        if name not in checked:
            checked[name] = validate_sequence(scenario.valuations[name])
        if not checked[name].ok and verb != "validate":
            section.add("skipped: %s is INVALID (%s)"
                        % (name, checked[name].failures()[0][0]))
            section.skipped = True
            return
    if verb == "validate":
        rep = checked[args[0]]
        section.add(*rep.lines())
        if not rep.ok:
            section.fault = "validation failed"
    elif verb == "eval":
        v = evaluate(f, g)
        section.add("value %r" % v)
        if g.oracle is not None:
            sv = series_value(f, g.oracle)
            section.add("oracle %r" % (sv,))
    elif verb == "expand":
        exp = expand(f, g)
        for c, e, v in exp.terms:
            section.add("term %r * P^%r  value %r" % (c, list(e), v))
        section.add("exact reconstruction: %s" % (exp.reconstruct() == f))
        if exp.top_exponent_overflow():
            section.add("note: last-key exponent reaches its derived bound")
    elif verb == "blowup":
        rec = blowup_mod.iterate_transforms(g, count)
        section.add(*rec.lines())
        section.dot = rec.dot()
    elif verb == "graded":
        pres = graded_mod.graded_presentation(g, depth)
        section.add(*pres.lines())
        rows = [(gen.index, gen.value, int(gen.redundant))
                for gen in pres.generators]
        section.csv.append(("generator,value,redundant", rows))
    elif verb == "fingen":
        st = graded_mod.fingen_detect(g, g_s, ext, depth)
        section.add(*st.lines())
        rows = [(l.s, l.tau, l.r, l.lam, l.chi) for l in st.levels]
        section.csv.append(("s,tau,r,lambda,chi", rows))
    elif verb == "ramify":
        rep = ramification_report(g, g_s, ext, depth=flags.depth,
                                  monomial_ext=monomial_ext)
        section.add(*rep.lines())
        section.csv.append(("route,e,f,delta,consistent", rep.csv_rows()))
    elif verb == "split":
        rep = splitting_report(cands, ext, g, probes=probes, seed=flags.seed)
        section.add(*rep.lines())


def _count(args, k, default, line):
    """args[k], a depth or count, as a nonnegative int; default if absent."""
    if len(args) > k and not args[k].isdecimal():
        raise ScenarioError("expected a nonnegative integer, found %r"
                            % args[k], line)
    return int(args[k]) if len(args) > k else default


def _parse_elem(text, ctx, keys, line, what=None):
    """Polynomial text in ctx, with P2, P3, ... naming keys[2:]."""
    extra = {"P%d" % i: keys[i] for i in range(2, len(keys))}
    try:
        return parse_poly(text, ctx, extra_vars=extra)
    except PolyParseError as err:
        raise ScenarioError("%s: %s" % (what or "bad element %r" % text, err),
                            line)
