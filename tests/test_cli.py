import contextlib
import io
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from quadberk import (
    DegreeError,
    Lift,
    MapSyntaxError,
    PrimeCtx,
    lift_to_expr,
    ord_res_profile,
    parse_map,
    sigma_invariants,
)
import quadberk
from quadberk.cli import COMMANDS, fmt_rat, run
from _support import conjugation_cases, ord_res_profile_oracle, parse_map_oracle, rand_lift

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_parse_map_examples():
    assert parse_map("(z^2 + 1/3*z)/(2z + 1)") == Lift(1, Fraction(1, 3), 0, 0, 2, 1)
    assert parse_map("z + 1/5 + 1/z") == Lift(1, Fraction(1, 5), 1, 0, 1, 0)
    with pytest.raises(DegreeError):
        parse_map("z^3/(z+1)")


@pytest.mark.parametrize("text, pos", [("z²+1", 1), ("z^2+٣", 4), ("１z^2", 0), ("z^2 + ٣/z", 6)])
def test_parse_map_reads_ascii_digits_only(text, pos):
    with pytest.raises(MapSyntaxError) as excinfo:
        parse_map(text)
    assert excinfo.value.pos == pos


@pytest.mark.parametrize("center, rexp", [("٣", "1"), ("3", "１"), ("1/٣", "0"), ("３.5", "0")])
def test_cli_rationals_read_ascii_only(capsys, center, rexp):
    assert run(["ordres", "-p", "5", "--map", "z^2", "--center", center, "--rexp", rexp]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid rational" in captured.err


@pytest.mark.parametrize("argv", [
    ["classify", "-p", "５", "--map", "z^2+1/5"],
    ["sweep", "-p", "٣", "--form", "A", "--l1", "1/3"],
    ["verify", "-p", "1٣", "--map", "z^2+1/13"],
    ["ordres", "-p", "²", "--map", "z^2"],
])
def test_cli_prime_reads_ascii_only(capsys, argv):
    # int() reads "５" as 5; the prime, like every other value, is ASCII
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid int value" in captured.err and "not ASCII" in captured.err


@pytest.mark.parametrize("text", ["3", "-3", "+3", " 3 ", "1/3", "-1/3", "1.5", "1e2", "-47e-2"])
def test_cli_rationals_in_every_ascii_form(capsys, text):
    assert run(["ordres", "-p", "5", "--map", "z^2", f"--center={text}", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["point"]["center"] == fmt_rat(Fraction(text))


@pytest.mark.parametrize("text", ["1e3000000", "1E-3000000", "1.5e+3000000", "1e10001", "1e3_000_000", "1e" + "9" * 50])
@pytest.mark.parametrize("option", ["--center", "--rexp"])
def test_cli_rationals_refuse_huge_exponents_at_once(capsys, option, text):
    # refused before Fraction() expands the power of ten
    start = time.perf_counter()
    assert run(["ordres", "-p", "5", "--map", "z^2+1/5", f"{option}={text}", "--json"]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid rational" in captured.err and "exponent" in captured.err


@pytest.mark.parametrize("text, center", [
    ("1e3", "1000"),
    ("2.5E-2", "1/40"),
    ("-1/2", "-1/2"),
    ("1e10000", "1" + "0" * 10000),
    ("-1e-10000", "-1/1" + "0" * 10000),
    pytest.param("-1e-10_000", "-1/1" + "0" * 10000, marks=pytest.mark.skipif(
        sys.version_info < (3, 11), reason="Fraction() reads underscores from 3.11 on")),
])
def test_cli_rationals_with_exponents_up_to_the_cap(capsys, text, center):
    assert run(["ordres", "-p", "5", "--map", "z^2", f"--center={text}", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["point"]["center"] == center


@pytest.mark.parametrize("p, rexp", [("5", "1e10000"), ("5", "-1e10000"), ("2417851639229258349412301", "10000")])
@pytest.mark.parametrize("command", ["ordres", "reduce-at"])
def test_cli_answers_radius_exponents_of_any_size(capsys, command, p, rexp):
    # no power of p is built, so m = 10^10000 costs what m = 64 does; past
    # every crossing of the profile's lines the residue map no longer changes
    m, ctx, lift = Fraction(rexp), PrimeCtx(int(p)), parse_map("z^2+1/5")
    start = time.perf_counter()
    code, payload = _run_json(capsys, [command, "-p", p, "--map", "z^2+1/5", f"--rexp={rexp}", "--json"])
    assert time.perf_counter() - start < 1.0
    with _int_str_digits(0):  # m has 10,001 digits
        assert code == 0 and payload.pop("point") == {"center": "0", "rexp": fmt_rat(m)}
        if command == "ordres":
            line = max(k * m + b for k, b in ord_res_profile(lift, 0, ctx))
            assert payload == {"schema": 1, "ord_res": fmt_rat(line)}
    if command == "reduce-at":
        near = "64" if m > 0 else "-64"
        code, expected = _run_json(capsys, [command, "-p", p, "--map", "z^2+1/5", f"--rexp={near}", "--json"])
        assert code == 0 and expected.pop("point")["rexp"] == near
        assert payload == expected


def test_cli_answers_a_radius_exponent_past_the_last_crossing(capsys):
    # m = 100,000 is past the profile's last crossing, on its line 6m + 4
    assert run(["ordres", "-p", "5", "--map", "z^2+1/5", "--rexp", "100000", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ord_res"] == "600004"


def test_parse_map_syntax_and_degree_errors():
    with pytest.raises(MapSyntaxError) as excinfo:
        parse_map("z^2 + $")
    assert excinfo.value.pos == 6
    with pytest.raises(MapSyntaxError):
        parse_map("(z^2 + 1")
    with pytest.raises(DegreeError):
        parse_map("z + 1")  # degree 1
    with pytest.raises(DegreeError):
        parse_map("3")  # constant
    with pytest.raises(MapSyntaxError):
        parse_map("z^2/(z - z)")  # zero denominator


def test_parse_map_cancellation():
    # common factors cancel before the degree check
    assert parse_map("(z^3 + z^2)/(z + 1)") == Lift(1, 0, 0, 0, 0, 1)
    with pytest.raises(DegreeError):
        parse_map("(z^2 + z)/(z + 1)")  # cancels to z, degree 1


def test_parse_map_implicit_multiplication():
    assert parse_map("2z^2") == parse_map("2*z^2")
    assert parse_map("(z+1)(z+2)/(z)") == parse_map("(z^2 + 3z + 2)/z")


def test_parse_map_deep_nesting():
    # nesting is bounded before Python's recursion limit; sign runs are a loop
    assert parse_map("(" * 100 + "z^2 + 1" + ")" * 100) == parse_map("z^2 + 1")
    with pytest.raises(MapSyntaxError):
        parse_map("(" * 101 + "z^2 + 1" + ")" * 101)
    with pytest.raises(MapSyntaxError):
        parse_map("(" * 5000)
    assert parse_map("-" * 5000 + "z^2 + 1") == parse_map("z^2 + 1")
    assert parse_map("-+-z^2 - 1") == parse_map("z^2 - 1")


def test_round_trip_random_lifts():
    rng = random.Random(61)
    for _ in range(1000):
        L = rand_lift(rng)
        again = parse_map(lift_to_expr(L))
        assert again.proportional_to(L)


digits = st.one_of(st.integers(0, 9), st.integers(0, 2**40), st.integers(2**39, 2**40)).map(str)
literal = st.one_of(digits, st.tuples(digits, digits).map("/".join))
leaf = st.one_of(literal, st.just("z"), st.sampled_from(["(z - 3)", "(2z + 1)", "(z^2 + 1)", "z^9"]))


def _compound(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*", "/", ""]), children).map(
            lambda t: f"({t[0]}){t[1]}({t[2]})"),
        # no parentheses: precedence, implicit multiplication, merged literals
        st.tuples(children, st.sampled_from(["+", "-", "*", "/", ""]), children).map("".join),
        # 17 is above the exponent cap
        st.tuples(children, st.sampled_from([0, 1, 2, 3, 5, 9, 17])).map(lambda t: f"({t[0]})^{t[1]}"),
        children.map(lambda s: f"-({s})"),
        # a forced common factor c: cancellation runs
        st.tuples(children, children, children).map(lambda t: f"(({t[0]})*({t[2]}))/(({t[1]})*({t[2]}))"),
    )


quadratic = st.tuples(literal, literal, literal).map(lambda c: f"({c[0]}z^2 + {c[1]}z + {c[2]})")
map_exprs = st.one_of(
    st.recursive(leaf, _compound, max_leaves=8),
    # mostly degree 2 over degree 2, with a common factor to cancel
    st.tuples(quadratic, quadratic, st.recursive(leaf, _compound, max_leaves=4)).map(
        lambda t: f"{t[0]}*({t[2]})/({t[1]}*({t[2]}))"),
)
# one character put in anywhere: Unicode spaces are skipped, other characters refused
noisy_map_exprs = st.one_of(map_exprs, st.tuples(
    map_exprs, st.integers(0, 60), st.sampled_from([" ", "\t", "\n", "\u00a0", "\u3000", "²", "٣", "$", "x"]),
).map(lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:]))


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), getattr(exc, "pos", None), str(exc)


@given(noisy_map_exprs)
# the degree cap's edge: 16 is allowed, 17 is not
@example("z^8 z^8/z^14")
@example("z^9 z^8/z^15")
@example("(z^2 + 1)^8 z/z^15")
@settings(max_examples=400, deadline=None)
def test_parse_map_matches_fraction_oracle(text):
    # equal Lifts, or the same error class, position and message
    assert _parse_outcome(parse_map, text) == _parse_outcome(parse_map_oracle, text)


def test_parse_map_builds_only_the_lifts_fractions():
    with open(README, encoding="utf-8") as fh:
        # the examples, not the "<expr>" placeholder
        readme_maps = list(dict.fromkeys(re.findall(r'(?:--map |parse_map\()"([^"<]+)"', fh.read())))
    assert len(readme_maps) >= 3
    # every Fraction construction anywhere is counted; restored exactly after
    new = Fraction.__dict__["__new__"]
    built = 0

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new.__func__(cls, *args, **kwargs)

    for text in readme_maps:
        expected = parse_map_oracle(text)
        built = 0
        Fraction.__new__ = staticmethod(counting_new)
        try:
            lift = parse_map(text)
        finally:
            Fraction.__new__ = new
        assert (lift, built) == (expected, 6), text


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_cli_classify_json(capsys):
    code, payload = _run_json(
        capsys, ["classify", "-p", "5", "--map", "z + 1/5 + 1/z", "--json"]
    )
    assert code == 0
    assert payload["schema"] == 1
    assert payload["stratum"] == "W3"
    assert payload["sigma1"] == "74/25"
    assert payload["sigma2"] == "73/25"
    assert payload["sigma3"] == "24/25"
    assert "x_tilde" not in payload


def test_cli_classify_w1(capsys):
    code, payload = _run_json(capsys, ["classify", "-p", "7", "--map", "z^2", "--json"])
    assert code == 0
    assert payload["stratum"] == "W1"
    assert (payload["sigma1"], payload["sigma2"], payload["sigma3"]) == ("2", "0", "0")


def test_cli_classify_w2_payload(capsys):
    code, payload = _run_json(
        capsys, ["classify", "-p", "3", "--map", "(z^2 + 1/3*z)/(2z+1)", "--json"]
    )
    assert code == 0
    assert payload["stratum"] == "W2"
    assert payload["x_tilde"] == "1"


def test_cli_verify_json(capsys):
    code, payload = _run_json(
        capsys, ["verify", "-p", "3", "--map", "(z^2 + 1/3*z)/(2z+1)", "--json"]
    )
    assert code == 0
    assert payload["consistent"] is True
    assert payload["xi"] == {"center": "0", "rexp": "-1"}
    assert payload["stratum"] == "W2"
    assert payload["x_tilde"] == "1"
    assert payload["residue_class"] == "MultiplicativeIndifferent"
    assert payload["min_ord_res"] == "1"


def test_cli_ordres_and_profile(capsys):
    code, payload = _run_json(
        capsys,
        ["ordres", "-p", "5", "--map", "z + 1/5 + 1/z", "--center", "0", "--rexp", "-1", "--json"],
    )
    assert code == 0 and payload["ord_res"] == "2"
    code, payload = _run_json(
        capsys, ["profile", "-p", "5", "--map", "z^2", "--center", "0", "--json"]
    )
    assert code == 0
    assert payload["breakpoints"] == ["0"]
    assert payload["pieces"] == [
        {"slope": "-2", "intercept": "0"},
        {"slope": "2", "intercept": "0"},
    ]


@given(conjugation_cases())
@settings(max_examples=100, deadline=None)
def test_cli_profile_matches_envelope_oracle(case):
    # the printed pieces and breakpoints are the Fraction envelope's
    lift, point, ctx = case
    argv = ["profile", "-p", str(ctx.p), f"--map={lift_to_expr(lift)}",
            f"--center={fmt_rat(point.center)}", "--json"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert run(argv) == 0
    payload = json.loads(out.getvalue())
    pieces, breakpoints = ord_res_profile_oracle(lift, point.center, ctx)
    assert payload["pieces"] == [{"slope": fmt_rat(k), "intercept": fmt_rat(b)} for k, b in pieces]
    assert payload["breakpoints"] == [fmt_rat(x) for x in breakpoints]


def test_cli_reduce_at(capsys):
    code, payload = _run_json(
        capsys,
        ["reduce-at", "-p", "5", "--map", "z + 1/5 + 1/z", "--center", "0", "--rexp", "-1", "--json"],
    )
    assert code == 0
    assert payload["degree"] == 1
    assert payload["f_tilde"] == [1, 1] and payload["g_tilde"] == [0, 1]
    assert payload["residue_class"] == "AdditiveIndifferent"


def test_cli_find_crucial(capsys):
    code, payload = _run_json(
        capsys, ["find-crucial", "-p", "5", "--map", "z + 1/5 + 1/z", "--json"]
    )
    assert code == 0
    assert payload["argmin"] == "-1" and payload["min_value"] == "2"


def test_cli_verify_with_centers(capsys):
    code, payload = _run_json(
        capsys,
        ["verify", "-p", "7", "--map", "z^2 + 1", "--center", "0", "--json"],
    )
    assert code == 0
    assert payload["stratum"] == "W1" and payload["xi"] == {"center": "0", "rexp": "0"}


def test_cli_verify_names_centers_that_miss_xi(capsys):
    # the segment at center 0 misses xi = (-5/2, 0): an input error, not exit 2
    argv = ["verify", "-p", "2", "--map", "(z^2 - 355/18*z - 491/9)/(z + 5/2)"]
    assert run([*argv, "--center", "0", "--json"]) == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert "no segment center reaches xi: the best, 0, has minimum ordRes 2, above -mu = 0" in captured.err
    code, payload = _run_json(capsys, [*argv, "--center", "-5/2", "--json"])
    assert code == 0 and payload["xi"] == {"center": "-5/2", "rexp": "0"}
    assert (payload["stratum"], payload["min_ord_res"]) == ("W1", "0")


def test_cli_sweep_form_b(capsys):
    code, payload = _run_json(
        capsys,
        ["sweep", "-p", "3", "--form", "B", "--l1", "1/3,1/9", "--l2", "2,3", "--json"],
    )
    assert code == 0
    rows = payload["results"]
    assert [(r["l1"], r["l2"]) for r in rows] == [
        ("1/9", "2"), ("1/9", "3"), ("1/3", "2"), ("1/3", "3"),
    ]
    by_params = {(r["l1"], r["l2"]): r for r in rows}
    assert by_params[("1/3", "2")]["stratum"] == "W2"
    assert by_params[("1/9", "3")]["stratum"] == "W4"
    # l1*l2 = 1 is degenerate and must be reported, not skipped
    assert "error" in by_params[("1/3", "3")]
    assert all(r["consistent"] for r in rows if "error" not in r)


def test_cli_sweep_form_a_with_range(capsys):
    code, payload = _run_json(
        capsys, ["sweep", "-p", "5", "--form", "A", "--l1", "1/5:5:1/5", "--json"]
    )
    assert code == 0
    rows = payload["results"]
    assert len(rows) == 25
    assert rows[0]["l1"] == "1/5" and rows[0]["stratum"] == "W3"
    assert rows[-1]["l1"] == "5" and rows[-1]["stratum"] == "W1"


@pytest.mark.parametrize("ranges", [
    ["--form", "A", "--l1", "0:1000000000"],
    ["--form", "A", "--l1", "0:1:1/1000000"],
    ["--form", "A", "--l1", ",".join(map(str, range(100_001)))],
    ["--form", "B", "--l1", "0:99", "--l2", ",".join(map(str, range(1001)))],
    ["--form", "B", "--l1", "0:999", "--l2", "0:999"],
])
def test_cli_sweep_refuses_oversized_ranges_at_once(capsys, ranges):
    # counted before a single value is built
    start = time.perf_counter()
    assert run(["sweep", "-p", "5", *ranges, "--json"]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and "at most 100000" in captured.err


def test_cli_sweep_range_ends_and_empty_range(capsys):
    # a range holds start + i*step up to and including stop; stop < start
    # and an empty list give no rows
    code, payload = _run_json(capsys, ["sweep", "-p", "5", "--form", "A", "--l1", "1/3:2:1/2", "--json"])
    assert code == 0 and [row["l1"] for row in payload["results"]] == ["1/3", "5/6", "4/3", "11/6"]
    for form in (["--form", "A", "--l1"], ["--form", "B", "--l2", "2", "--l1"]):
        for empty in ("1:0", ""):
            code, payload = _run_json(capsys, ["sweep", "-p", "5", *form, empty, "--json"])
            assert code == 0 and payload["results"] == []


def test_cli_sweep_degenerate_entry(capsys):
    code, payload = _run_json(
        capsys, ["sweep", "-p", "5", "--form", "B", "--l1", "2", "--l2", "1/2", "--json"]
    )
    assert code == 0
    assert "error" in payload["results"][0]


def test_cli_exit_codes(capsys):
    assert run(["classify", "-p", "5", "--map", "z^3", "--json"]) == 1
    capsys.readouterr()
    assert run(["classify", "-p", "4", "--map", "z^2", "--json"]) == 1
    capsys.readouterr()
    assert run(["ordres", "-p", "5", "--map", "z^2", "--rexp", "1/2"]) == 1
    capsys.readouterr()
    # verify without centers on a non-normal-form map: input error
    assert run(["verify", "-p", "7", "--map", "z^2 + 1"]) == 1
    capsys.readouterr()


def test_cli_consistency_failure_exit_code(capsys, monkeypatch):
    from quadberk import ConsistencyFailure
    from quadberk import cli as cli_module

    def explode(*args, **kwargs):
        raise ConsistencyFailure("routes disagree", {"p": 3})

    monkeypatch.setattr(cli_module, "verify_consistency", explode)
    code = run(["verify", "-p", "3", "--map", "z^2", "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["consistent"] is False
    assert "routes disagree" in captured.err


def _first_value_off_by_one(module):
    # M(0) of every sigma one too large (sigma makes two _det calls), so
    # sigma3 = sigma1 - 2 fails
    exact, calls = module._det, itertools.count()
    return "_det", lambda rows: exact(rows) + (next(calls) % 2 == 0)


def _first_numerator_times_5(module):
    exact = module._conjugate_ints
    return "_conjugate_ints", lambda *args: [5 * exact(*args)[0], *exact(*args)[1:]]


def _common_root_at_infinity(module):
    return "_common_root", lambda w, p: None


@pytest.mark.parametrize("module_name, patch, argv", [
    ("invariants", _first_value_off_by_one, ["verify", "-p", "3", "--map", "z + 1/3 + 1/z"]),
    ("invariants", _first_value_off_by_one, ["sweep", "-p", "3", "--form", "A", "--l1", "1/3,1"]),
    ("quadmap", _first_numerator_times_5, ["ordres", "-p", "5", "--map", "z^2"]),
    ("quadmap", _first_numerator_times_5, ["find-crucial", "-p", "5", "--map", "z^2"]),
    ("quadmap", _first_numerator_times_5, ["reduce-at", "-p", "5", "--map", "z^2"]),
    ("quadmap", _common_root_at_infinity,
     ["reduce-at", "-p", "5", "--map", "z + 1/5 + 1/z", "--rexp", "-1"]),
], ids=["verify-sigma-relation", "sweep-sigma-relation", "ordres-routes", "find-crucial-table",
        "reduce-at-table", "reduce-at-factor"])
def test_cli_reports_failed_internal_checks_as_consistency_failures(
        capsys, monkeypatch, module_name, patch, argv):
    # a failed internal cross-check is a bug, not an input error: exit 2 and
    # the JSON dump, also from sweep, which files input errors as rows
    module = getattr(quadberk, module_name)
    monkeypatch.setattr(module, *patch(module))
    code, payload = _run_json(capsys, [*argv, "--json"])
    assert code == 2
    assert payload["consistent"] is False and payload["detail"]
    code = run(argv)
    assert code == 2 and "consistency failure: " in capsys.readouterr().err


def test_cli_consistency_failure_json_details(capsys, monkeypatch):
    from quadberk import ConsistencyFailure, ReductionType, ResidueClass, ResidueKind, TypeIIPoint
    from quadberk import cli as cli_module

    details = {
        "lift": Lift(1, Fraction(1, 5), 1, 0, 1, 0),
        "p": 5,
        "sigma": (Fraction(74, 25), Fraction(73, 25), Fraction(24, 25)),
        "argmin": (Fraction(-1, 2), 3),
        "xi": TypeIIPoint(0, -1),
        "stratum": ReductionType("W2", 1, 5),
        "residue_class": ResidueClass(ResidueKind.ADDITIVE),
        "flag": True,
        "reason": None,
    }
    exc = ConsistencyFailure("routes disagree", details)

    def explode(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli_module, "verify_consistency", explode)
    code, payload = _run_json(capsys, ["verify", "-p", "5", "--map", "z^2", "--json"])
    assert code == 2
    assert payload["schema"] == 1 and payload["consistent"] is False
    assert payload["detail"] == str(exc)
    assert payload["details"] == {
        "lift": {"a0": "1", "a1": "1/5", "a2": "1", "b0": "0", "b1": "1", "b2": "0"},
        "p": "5",
        "sigma": ["74/25", "73/25", "24/25"],
        "argmin": ["-1/2", "3"],
        "xi": {"center": "0", "radius_exp": "-1"},
        "stratum": {"tag": "W2", "x_tilde": "1", "p": "5"},
        "residue_class": {"kind": "AdditiveIndifferent", "x_tilde": None, "p": None},
        "flag": True,
        "reason": None,
    }


@contextlib.contextmanager
def _int_str_digits(limit):
    """Set Python's int<->str digit limit (where it has one) for the block."""
    saved = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if saved is not None:
        sys.set_int_max_str_digits(limit)
    try:
        yield saved
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def test_cli_long_coefficients(capsys):
    # sigma2 of this map has over 4,300 digits, Python's default int<->str limit
    text = "z^2 + " + "7" * 2500 + "z + 1"
    code, payload = _run_json(capsys, ["classify", "-p", "5", "--map", text, "--json"])
    assert code == 0
    sigma = sigma_invariants(parse_map(text))
    with _int_str_digits(0):
        expected = [str(s) for s in sigma.as_tuple()]
    assert [payload["sigma1"], payload["sigma2"], payload["sigma3"]] == expected
    assert len(payload["sigma2"]) > 4300
    # a 5,000-digit literal is read as a number, in the library and the CLI
    assert parse_map("7" * 5000 + "z^2 + z + 1").a0 == 1
    assert run(["verify", "-p", "5", "--map", "z + " + "1" * 5000 + "/5 + 1/z", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["stratum"] == "W3"


@pytest.mark.parametrize("argv", [
    ["classify", "-p", "5", "--map", "z^2 + " + "7" * 2500 + "z + 1"],
    ["classify", "-p", "5", "--map", "z^3"],
    ["classify", "-p", "4", "--map", "z^2"],
    ["classify", "--map", "z^2"],
])
def test_cli_leaves_int_str_limit_unchanged(capsys, argv):
    # run lifts the limit only while the command runs, on every exit path
    with _int_str_digits(5000) as saved:
        run(argv)
        after = sys.get_int_max_str_digits() if saved is not None else None
    capsys.readouterr()
    assert after == (5000 if saved is not None else None)
    if saved is not None:
        assert sys.get_int_max_str_digits() == saved


def test_cli_byte_stable(capsys):
    argv = ["verify", "-p", "5", "--map", "z + 1/5 + 1/z", "--json"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_human_output(capsys):
    assert run(["classify", "-p", "5", "--map", "z + 1/5 + 1/z"]) == 0
    out = capsys.readouterr().out
    assert "stratum: W3" in out and "sigma1: 74/25" in out


def test_python_m_cli_matches_run(capsys):
    argv = ["verify", "-p", "5", "--map", "z + 1/5 + 1/z", "--json"]
    assert run(argv) == 0
    expected = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(quadberk.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, "-m", "quadberk.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


#: a valid value for each required option of the command table
REQUIRED_VALUES = {"--map": "z^2", "--form": "A", "--l1": "1"}


@pytest.mark.parametrize("p", ["4", "1", str(2**89 - 1)])
@pytest.mark.parametrize("name, options", [(name, options) for name, _, options, _ in COMMANDS],
                         ids=[name for name, *_ in COMMANDS])
def test_cli_checks_the_prime_for_every_command(capsys, name, options, p):
    # the same command line runs at p = 5, so the prime alone is refused
    rest = [token for flag, keywords in options if keywords.get("required")
            for token in (flag, REQUIRED_VALUES[flag])]
    assert run([name, "-p", "5", *rest]) == 0
    capsys.readouterr()
    assert run([name, "-p", p, *rest]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_readme_command_line_examples(capsys):
    # each "$ quadberk ..." line of the README's command-line block exits 0
    # and prints what the README shows, up to its "..."
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Command line", 1)[1]
    lines = section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    examples = [(line, lines[i + 1] if i + 1 < len(lines) else "") for i, line in enumerate(lines)
                if line.startswith("$ quadberk ")]
    assert len(examples) >= 7
    for line, shown in examples:
        assert run(shlex.split(line)[2:]) == 0, line
        out = capsys.readouterr().out
        if shown and not shown.startswith("$"):
            assert out.startswith(shown.split("...")[0]), line


def test_cli_prime_beyond_primality_bound(capsys):
    assert run(["classify", "-p", str(2**89 - 1), "--map", "z^2", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "too large" in captured.err


def test_cli_verify_gap_case(capsys):
    # no repelling multiplier, l1*l2 = 1 mod 5, residues (1, 1, 0)
    code, payload = _run_json(capsys, ["verify", "-p", "5", "--map", "(z^2+6z)/(121z+1)", "--json"])
    assert code == 0
    assert payload["stratum"] == "W1" and payload["xi"] == {"center": "0", "rexp": "0"}


def test_cli_w2_payload_zero(capsys):
    # lambda2 = 2 at p = 5: x_tilde = 2 + 1/2 = 0 mod 5 is a real payload
    code, payload = _run_json(capsys, ["verify", "-p", "5", "--map", "(z^2 + 1/5*z)/(2z+1)", "--json"])
    assert code == 0
    assert payload["stratum"] == "W2" and payload["x_tilde"] == "0"
    assert payload["residue_x_tilde"] == "0"


M5 = ["--map", "z + 1/5 + 1/z"]


@pytest.mark.parametrize("head, option, value, tail", [
    (["sweep", "-p", "5", "--form", "A"], "--l1", "-2:2:1/2", []),
    (["sweep", "-p", "5", "--form", "B", "--l1", "1/5"], "--l2", "-1/3", []),
    (["ordres", "-p", "5", *M5], "--center", "-1/2", []),
    (["reduce-at", "-p", "5", *M5], "--center", "-1/2", ["--rexp", "-1"]),
    (["find-crucial", "-p", "5", *M5], "--center", "-1/2", []),
    (["verify", "-p", "7", "--map", "z^2 + 1"], "--center", "-1/2", ["--center", "0"]),
    (["sweep", "-p", "5", "--form", "A"], "--l1", "-.5:1", []),
    (["sweep", "-p", "5", "--form", "B", "--l1", "2"], "--l2", "-.5:0", []),
    (["ordres", "-p", "5", "--map", "z^2"], "--center", "-.5e1", []),
])
def test_cli_negative_option_values(capsys, head, option, value, tail):
    # "--opt -1/2" parses exactly as "--opt=-1/2"
    assert run(head + [f"{option}={value}"] + tail + ["--json"]) == 0
    expected = capsys.readouterr().out
    assert run(head + [option, value] + tail + ["--json"]) == 0
    assert capsys.readouterr().out == expected


def test_cli_missing_option_value(capsys):
    assert run(["verify", "-p", "5", "--map"]) == 1
    err = capsys.readouterr().err
    assert "expected one argument" in err and "Traceback" not in err


@pytest.mark.parametrize("text, sigmas", [
    ("-z^2+1", ("2", "-4", "0")),
    ("-(z^2+1)/z", ("-7", "15", "-9")),
])
@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_cli_map_with_leading_minus(capsys, text, sigmas, fmt):
    # "--map -z^2+1" parses exactly as "--map=-z^2+1"
    assert run(["classify", "-p", "5", f"--map={text}", *fmt]) == 0
    expected = capsys.readouterr().out
    assert run(["classify", "-p", "5", "--map", text, *fmt]) == 0
    out = capsys.readouterr().out
    assert out == expected
    if fmt:
        payload = json.loads(out)
        assert (payload["sigma1"], payload["sigma2"], payload["sigma3"]) == sigmas
    else:
        assert f"sigma1: {sigmas[0]}" in out


#: literals at the edges of the grammar and of Python's int conversion
EXTREME_MAPS = [
    "9^16", "9^16 z^2 + 1/z", "z^17", "(z + 1)^16/z^15", "7" * 5000, "z^2 + " + "3" * 5000 + "/z",
    "z^2 + " + "3" * 4000 + "z + 1", "(" * 500 + "z", "z^2 + 1)", "((z^2 + 1)", ")(", "-", "--", "-(",
    "^", "z^", "z^-1", "/", "1/0", "z^2/(z - z)", "", " ", "-z^2+1", "-(z^2+1)/z", "z + 1/5 + 1/z",
]
map_texts = st.one_of(
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=30),
    st.sampled_from(EXTREME_MAPS),
    # "²", "٣" and "１" are digits to str.isdigit() but not to the grammar
    st.lists(st.sampled_from(EXTREME_MAPS + ["z", "z^2", "1/5", "+", "-", "*", "/", "(", ")", "^2",
                                            "²", "٣", "１"]),
             max_size=6).map("".join),
)
primes = st.one_of(
    st.sampled_from([0, 1, 2, 3, 4, 5, 9, 561, -5, 2**61 - 1, 2**89 - 1]), st.integers(-20, 200)
).map(str)


@given(st.sampled_from([name for name, _, options, _ in COMMANDS if "--map" in dict(options)]),
       primes, map_texts, st.booleans())
@settings(max_examples=200, deadline=5000)
def test_cli_never_raises(command, p, text, as_json):
    argv = [command, "-p", p, "--map", text] + (["--json"] if as_json else [])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
