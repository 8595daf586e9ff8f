"""The four benchmark workloads.

Each workload builds a pool of inputs from a seed (``setup``), runs one op
on one input (``op``), runs the same op with each public call timed as a
span and the calls made inside it replayed as child spans (``traced``),
renders an op's answer canonically for the golden digests (``canonical``)
and checks it against seed-independent oracles (``check``).  Inputs kept
out of the timed pool are checked once, untimed (``untimed_checks``).  Ops
raise on failure; the runner counts that op as failed and never retries
it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

from quadberk import (
    Lift,
    Mobius,
    PrimeCtx,
    TypeIIPoint,
    UnhandledResidueCaseError,
    classify_residue,
    conjugate,
    find_crucial_on_segment,
    hsia_check,
    identify_normal_form,
    minimize_profile,
    multiplier_valuations,
    normalize,
    ord_res_at,
    ord_res_profile,
    parse_map,
    predict_xi_distinct_fixed,
    predict_xi_multiple_fixed,
    reduce_at,
    resultant,
    sigma_invariants,
    stratum,
    verify_consistency,
)
import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: per-layer span names, one per public entry point timed from outside
LAYERS = (
    "parsing.parse_map",
    "quadmap.Lift",
    "quadmap.resultant",
    "quadmap.conjugate",
    "quadmap.normalize",
    "quadmap.ord_res_at",
    "quadmap.ord_res_profile",
    "quadmap.minimize_profile",
    "invariants.sigma_invariants",
    "classifier.stratum",
    "classifier.multiplier_valuations",
    "classifier.hsia_check",
    "crucial.predict_xi",
    "crucial.find_crucial_on_segment",
    "crucial.verify_consistency",
    "reduction.reduce_at",
    "reduction.classify_residue",
    "cli.interpreter",
    "cli.import",
    "cli.run",
)

#: stratum of each normal-form family
FAMILY_STRATUM = {
    "P1A": "W1", "P1B": "W3", "Ai": "W1", "Aii": "W1",
    "Bi": "W2", "Bii": "W3", "Biii": "W4",
}


def _res(x) -> str:
    """A residue-field value as text, whether it is a ResidueElem or an int."""
    return "-" if x is None else str(getattr(x, "value", x))


def predict_call(lift, ctx):
    """The closed-form xi predictor for a normal-form lift, and its arguments."""
    form = identify_normal_form(lift)
    if form[0] == "multiple":
        return predict_xi_multiple_fixed, (form[1], ctx)
    return predict_xi_distinct_fixed, (form[1], form[2], ctx)


def _gamma(point, ctx):
    """z -> center + p^m z, the conjugation ord_res_at and reduce_at use."""
    return Mobius.affine(Fraction(ctx.p) ** int(point.radius_exp), point.center)


# Replays: each repeats, with the same arguments, the calls into the traced
# layers that one library function makes, as read from its source.  Calls
# into padic, polyutil and private helpers are not replayed; their time
# stays in the caller's self time (for example sigma_invariants' shift
# conjugate and quadmap.Lift's 4x4 resultant).

def _replay_new_lift(t, lift, *args):
    # conjugate and parse_map build their answer as a new Lift
    t.call(Lift, *lift.coeffs)


def _replay_normalize(t, result, lift, ctx):
    scaled, mu = result
    if mu != 0:  # otherwise the lift itself is returned
        t.call(Lift, *scaled.coeffs)


def _replay_ord_res_at(t, result, lift, point, ctx):
    base, _ = t.call(normalize, lift, ctx)
    conj_norm, _ = t.call(normalize, t.call(conjugate, base, _gamma(point, ctx)), ctx)
    t.call(resultant, conj_norm)
    t.call(resultant, base)


def _replay_ord_res_profile(t, result, lift, center, ctx):
    t.call(resultant, lift)


def _replay_find_crucial(t, result, lift, center, ctx):
    t.call(minimize_profile, t.call(ord_res_profile, lift, center, ctx))


def _replay_predict(t, report, *args):
    ctx, nf, xi = args[-1], report.lift, report.xi
    t.call(Lift, *nf.coeffs)
    t.call(ord_res_profile, nf, xi.center, ctx)
    if xi.is_integral:
        t.call(classify_residue, t.call(reduce_at, nf, xi, ctx))


def _replay_reduce_at(t, result, lift, point, ctx):
    t.call(normalize, t.call(conjugate, lift, _gamma(point, ctx)), ctx)


def _replay_verify(t, report, lift, ctx):
    t.call(stratum, t.call(sigma_invariants, lift), ctx)
    fn, args = predict_call(lift, ctx)
    pred = t.call(fn, *args)
    t.call(find_crucial_on_segment, pred.lift, pred.xi.center, ctx)


def _replay_hsia(t, result, sigma, ctx):
    if t.call(stratum, sigma, ctx).tag != "W1":
        t.call(multiplier_valuations, sigma, ctx)


#: every traced function: (span name, replay of the traced calls it makes)
REPLAYS = {
    parse_map: ("parsing.parse_map", _replay_new_lift),
    Lift: ("quadmap.Lift", None),
    resultant: ("quadmap.resultant", None),
    conjugate: ("quadmap.conjugate", _replay_new_lift),
    normalize: ("quadmap.normalize", _replay_normalize),
    ord_res_at: ("quadmap.ord_res_at", _replay_ord_res_at),
    ord_res_profile: ("quadmap.ord_res_profile", _replay_ord_res_profile),
    minimize_profile: ("quadmap.minimize_profile", None),
    sigma_invariants: ("invariants.sigma_invariants", None),
    stratum: ("classifier.stratum", None),
    multiplier_valuations: ("classifier.multiplier_valuations", None),
    hsia_check: ("classifier.hsia_check", _replay_hsia),
    predict_xi_multiple_fixed: ("crucial.predict_xi", _replay_predict),
    predict_xi_distinct_fixed: ("crucial.predict_xi", _replay_predict),
    find_crucial_on_segment: ("crucial.find_crucial_on_segment", _replay_find_crucial),
    verify_consistency: ("crucial.verify_consistency", _replay_verify),
    reduce_at: ("reduction.reduce_at", _replay_reduce_at),
    classify_residue: ("reduction.classify_residue", None),
}


class Workload:
    """Defaults shared by the workloads."""

    #: ops run untimed after each set-up
    warmup_ops = 8
    #: peak RSS is read from the child processes instead of the benchmark
    runs_in_children = False

    def xi(self, answer):
        """The op's xi, or None when the op does not compute one."""
        return None

    def untimed_checks(self) -> tuple:
        """Checks of inputs kept out of the timed pool, run once after
        set-up: (problems, counts for the context line)."""
        return [], {}


class CorpusVerify(Workload):
    """One op is ``verify_consistency`` on one normal-form map.  The gap
    family is kept out of the timed pool and checked once, untimed."""

    name = "corpus-verify"
    per_family = 200

    def setup(self, seed: int) -> list:
        entries = [(kind, PrimeCtx(p), lift)
                   for kind, p, lift in corpus.normal_form_corpus(seed, self.per_family)]
        self.gap = [entry for entry in entries if entry[0] == "gap"]
        return corpus.shuffled([entry for entry in entries if entry[0] != "gap"], seed, self.name)

    def op(self, item):
        return verify_consistency(item[2], item[1])

    def traced(self, item, t):
        return t.call(verify_consistency, item[2], item[1])

    def canonical(self, report) -> str:
        rc = report.residue_class
        return "|".join((
            str(report.xi.center), str(report.xi.radius_exp),
            report.stratum.tag, _res(report.stratum.x_tilde),
            "Unavailable" if rc is None else rc.kind.value, _res(None if rc is None else rc.x_tilde),
            str(report.min_ord_res), *map(str, report.sigma.as_tuple()),
        ))

    def check(self, item, ok, answer):
        kind = item[0]
        if not ok:
            return f"{kind} map raised {type(answer).__name__}: {answer}"
        tag = answer.stratum.tag
        if tag != FAMILY_STRATUM[kind]:
            return f"{kind} map classified {tag}, expected {FAMILY_STRATUM[kind]}"
        if (answer.min_ord_res == 0) != (tag == "W1"):
            return f"{kind} map: min ordRes {answer.min_ord_res} with stratum {tag}"
        return None

    def untimed_checks(self) -> tuple:
        """Every gap map is still refused with UnhandledResidueCaseError, or
        (once that case is handled) verified as W1 with min ordRes 0."""
        problems, refused = [], 0
        for _, ctx, lift in self.gap:
            try:
                report = verify_consistency(lift, ctx)
            except UnhandledResidueCaseError:
                refused += 1
                continue
            except Exception as exc:
                problems.append(f"gap map {lift} at p={ctx.p} raised {type(exc).__name__}: {exc}")
                continue
            if report.stratum.tag != "W1" or report.min_ord_res != 0:
                problems.append(f"gap map {lift} at p={ctx.p}: {report.stratum.tag}, "
                                f"min ordRes {report.min_ord_res}")
        return problems, {"gap_maps": len(self.gap), "gap_refused": refused}

    def xi(self, answer):
        return answer.xi

    def lifts(self, pool):
        return [item[2] for item in pool]


class OrdresGrid(Workload):
    """One op is the criterion-5 grid for one map: ``ord_res_at`` at
    m = -12..12 around xi's center, then the exact profile and its argmin."""

    name = "ordres-grid"
    per_family = 12
    radii = range(-12, 13)

    def setup(self, seed: int) -> list:
        pool = []
        entries = corpus.normal_form_corpus(seed, self.per_family)
        for kind, p, lift in corpus.shuffled(entries, seed, self.name):
            if kind == "gap":
                continue
            ctx = PrimeCtx(p)
            fn, args = predict_call(lift, ctx)
            report = fn(*args)
            if report.xi.is_integral:
                pool.append((ctx, report.lift, report.xi, report.min_ord_res))
        return pool

    def op(self, item):
        ctx, lift, xi, _ = item
        grid = [ord_res_at(lift, TypeIIPoint(xi.center, m), ctx) for m in self.radii]
        return grid, minimize_profile(ord_res_profile(lift, xi.center, ctx))

    def traced(self, item, t):
        ctx, lift, xi, _ = item
        grid = [t.call(ord_res_at, lift, TypeIIPoint(xi.center, m), ctx) for m in self.radii]
        return grid, t.call(minimize_profile, t.call(ord_res_profile, lift, xi.center, ctx))

    def canonical(self, answer) -> str:
        grid, (argmin, low) = answer
        return ",".join(map(str, grid)) + f"|{argmin}|{low}"

    def check(self, item, ok, answer):
        if not ok:
            return f"grid raised {type(answer).__name__}: {answer}"
        _, _, xi, predicted_min = item
        grid, (argmin, low) = answer
        best = min(range(len(grid)), key=lambda i: (grid[i], i))
        if self.radii[best] != xi.radius_exp or argmin != xi.radius_exp:
            return f"grid argmin {self.radii[best]}, profile argmin {argmin}, xi at {xi.radius_exp}"
        if not grid[best] == low == predicted_min:
            return f"grid min {grid[best]}, profile min {low}, predicted {predicted_min}"
        return None

    def lifts(self, pool):
        return [item[1] for item in pool]


class GenericClassify(Workload):
    """One op classifies one generic map given as text: parse, sigma,
    stratum, multiplier valuations, Hsia's check, and sigma of a random
    Moebius conjugate."""

    name = "generic-classify"
    pool_size = 300

    def setup(self, seed: int) -> list:
        return [(PrimeCtx(p), lift, text, g) for p, lift, text, g in corpus.generic_maps(seed, self.pool_size)]

    def op(self, item):
        ctx, _, text, g = item
        lift = parse_map(text)
        sigma = sigma_invariants(lift)
        return (lift, sigma, stratum(sigma, ctx), multiplier_valuations(sigma, ctx),
                hsia_check(sigma, ctx), sigma_invariants(conjugate(lift, g)))

    def traced(self, item, t):
        ctx, _, text, g = item
        lift = t.call(parse_map, text)
        sigma = t.call(sigma_invariants, lift)
        return (lift, sigma, t.call(stratum, sigma, ctx), t.call(multiplier_valuations, sigma, ctx),
                t.call(hsia_check, sigma, ctx), t.call(sigma_invariants, t.call(conjugate, lift, g)))

    def canonical(self, answer) -> str:
        _, sigma, strat, vals, hsia, _ = answer
        return "|".join((
            *map(str, sigma.as_tuple()), strat.tag, _res(strat.x_tilde),
            ",".join(map(str, vals)), str(hsia),
        ))

    def check(self, item, ok, answer):
        if not ok:
            return f"generic map raised {type(answer).__name__}: {answer}"
        lift, sigma, _, _, hsia, sigma_conj = answer
        if not lift.proportional_to(item[1]):
            return f"parse_map({item[2]!r}) is not the generated map"
        if sigma_conj.as_tuple() != sigma.as_tuple():
            return "sigma of a conjugate differs from sigma of the map"
        if not hsia:
            return "hsia_check failed"
        return None

    def lifts(self, pool):
        return [item[1] for item in pool]


class CliError(Exception):
    pass


class CliVerify(Workload):
    """One op is one ``verify --json`` or ``classify --json`` process."""

    name = "cli-verify"
    runs_in_children = True
    pool_size = 12
    #: the first runs write the bytecode cache; later ones read it
    warmup_ops = 2
    timeout_s = 60

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def setup(self, seed: int) -> list:
        return [(sub, p, text, parse_map(text)) for sub, p, text in corpus.cli_commands(seed, self.pool_size)]

    def _run(self, item):
        """One child process running ``cli.run`` on the item's command
        line, as ``quadberk.cli.main`` does."""
        sub, p, text, _ = item
        proc = subprocess.run(
            [sys.executable, str(HERE / "cli_child.py"), sub, "-p", str(p), "--map", text, "--json"],
            env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=self.timeout_s,
        )
        if proc.returncode != 0:
            raise CliError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc

    def op(self, item):
        return self._run(item).stdout

    def traced(self, item, t):
        start = perf_counter_ns()
        proc = self._run(item)
        began, imported, ran = json.loads(proc.stderr.strip().splitlines()[-1])
        t.add("cli.interpreter", start, began)
        t.add("cli.import", began, imported)
        t.add("cli.run", imported, ran)
        return proc.stdout

    def canonical(self, stdout) -> str:
        return stdout

    def check(self, item, ok, answer):
        sub, p, text, lift = item
        if not ok:
            return f"{sub} -p {p} --map {text!r} failed: {answer}"
        doc = json.loads(answer)
        # the command line must agree with the library on sigma and the stratum
        sigma = sigma_invariants(lift)
        expected = {
            "schema": 1, "stratum": stratum(sigma, PrimeCtx(p)).tag,
            **{f"sigma{i}": str(s) for i, s in enumerate(sigma.as_tuple(), 1)},
        }
        if sub == "verify":
            expected["consistent"] = True
        if any(doc.get(key) != value for key, value in expected.items()):
            return f"{sub} -p {p} --map {text!r} printed {answer.strip()}, expected {expected}"
        return None

    def xi(self, answer):
        doc = json.loads(answer)
        return TypeIIPoint(doc["xi"]["center"], doc["xi"]["rexp"]) if "xi" in doc else None

    def lifts(self, pool):
        return [item[3] for item in pool]


WORKLOADS = {w.name: w for w in (CorpusVerify(), OrdresGrid(), GenericClassify(), CliVerify())}
