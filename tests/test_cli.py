"""Command-line interface: exit codes, output discipline, the verify suites."""

import hashlib
import json
import math
import sys
import time
from pathlib import Path

import pytest

from socle.catalog import PROFILES
from socle import grammar
from socle.cli import _build_parser, main
import socle.derham
from socle.derham import VARS_MAX, derham_truncated, spec_from_json
from socle.errors import DomainError
from socle.grammar import parse_operator, parse_poly, used_vars
from socle.seriesdecomp import RegularOperator, decompose
from socle.structure import predict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_everything(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ("p1", "twisted-cubic", "segre-p1xp2", "quadric-p3"):
        assert name in out
    assert "built-in hypersurfaces:" in out
    assert "fermat-cubic-p2" in out

    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert {p["name"] for p in payload["profiles"]} == set(PROFILES)


def test_predict_table_elliptic(capsys):
    code, out, _ = run(capsys, "predict", "--catalog", "elliptic-p2")
    assert code == 0
    assert "betti numbers: [1, 2, 1]" in out
    assert "H^1: critical module" in out
    assert "quotient E^2" in out


def test_predict_json_matches_library(capsys):
    code, out, _ = run(capsys, "predict", "--catalog", "segre-p1xp2", "--format", "json")
    assert code == 0
    entry = PROFILES["segre-p1xp2"]
    want = predict(entry.profile, name="segre-p1xp2").to_json()
    assert json.loads(out) == want


def test_predict_rejects_unknown_name(capsys):
    code, _, err = run(capsys, "predict", "--catalog", "nonsense")
    assert code == 2
    assert "unknown catalog entry" in err


def test_derham_e_module_table(capsys):
    code, out, _ = run(capsys, "derham", "--kind", "E", "--vars", "3")
    assert code == 0
    assert "dims (j = 0..3): [0, 0, 0, 1]" in out


def test_derham_monomial_json_is_deterministic(capsys):
    args = ("derham", "--kind", "loc", "--f", "x*y", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == 1
    assert payload["dims"] == [1, 2, 1]
    assert payload["certificate"] == "stabilized"


def test_derham_rank_one(capsys):
    code, out, _ = run(capsys, "derham", "--kind", "rank-one", "--f", "x^2")
    assert code == 0
    assert "dims (j = 0..1): [0, 2]" in out
    assert "certificate: exact" in out


def test_derham_rank_one_default_precision_adapts_to_degree(capsys):
    code, out, err = run(capsys, "derham", "--kind", "rank-one", "--f", "x^10")
    assert code == 0, err
    assert "dims (j = 0..1): [0, 10]" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--kind", "loc", "--f", "x*y", "--prec", "99"), "--prec applies only to --kind rank-one, not 'loc'"),
        (("--kind", "R", "--vars", "2", "--prec", "12"), "--prec applies only to --kind rank-one, not 'R'"),
        (("--catalog", "conic-p2", "--prec", "12"), "--prec applies only to --kind rank-one, not 'loc-quot'"),
        (("--kind", "rank-one", "--f", "x", "--pole-cutoff", "1"), "--pole-cutoff does not apply to --kind rank-one"),
        (("--kind", "rank-one", "--f", "x", "--vars", "7"), "--vars does not apply to --kind rank-one"),
        (("--kind", "rank-one", "--f", "x", "--vars", "1"), "--vars does not apply to --kind rank-one"),
    ],
)
def test_derham_refuses_a_flag_its_kind_does_not_read(capsys, argv, message):
    code, out, err = run(capsys, "derham", *argv)
    assert code == 2
    assert not out
    assert err == f"error: {message}\n"


def test_derham_needs_kind_or_catalog(capsys):
    code, _, err = run(capsys, "derham")
    assert code == 2
    assert "--kind" in err


@pytest.mark.parametrize("kind", ["R", "E", "rank-one"])
def test_derham_catalog_needs_a_hypersurface_kind(capsys, kind):
    # the entry fills in f, so the conflict is the kind, not a given --f
    code, out, err = run(capsys, "derham", "--catalog", "conic-p2", "--kind", kind)
    assert code == 2
    assert not out
    assert f"'conic-p2' is a hypersurface, so it needs --kind loc or loc-quot, not '{kind}'" in err


def test_derham_cutoff_cap(monkeypatch, capsys):
    monkeypatch.setenv("DERHAM_MAX_CUTOFF", "2")
    code, out, _ = run(capsys, "derham", "--kind", "loc", "--f", "x", "--vars", "1")
    assert code == 3  # capped run cannot certify stabilization
    assert "capped at 2 (requested 6)" in out
    assert "certificate: provisional" in out

    code, out, _ = run(
        capsys, "derham", "--kind", "loc", "--f", "x", "--vars", "1", "--format", "json"
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["capped"] is True
    assert payload["requested_cutoff"] == 6
    assert payload["certificate"] == "provisional"


NODAL_CUBIC = "y^2*z-x^3-x^2*z"


def test_derham_refuses_an_oversized_complex(capsys):
    # the nodal cubic fails the smoothness gate, which lists 15 monomials, so
    # its two-pair route would build 5803292 basis elements at cutoff 400
    start = time.perf_counter()
    code, out, err = run(capsys, "derham", "--kind", "loc", "--f", NODAL_CUBIC, "--pole-cutoff", "400")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert not out
    assert err == "error: the complex at pole cutoff 400 has 5803292 basis elements, which exceeds 400000\n"


def test_derham_answers_a_smooth_f_at_a_high_cutoff(capsys):
    # past the gate the conic is ranked on F_0 alone, 38 elements, though its
    # basis at cutoff 400 has 2579238
    start = time.perf_counter()
    code, out, _ = run(capsys, "derham", "--kind", "loc", "--f", "x^2+y^2+z^2", "--pole-cutoff", "400")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out.splitlines()[1:] == [
        "dims (j = 0..3): [1, 1, 0, 0]",
        "certificate: stabilized",
        "pole cutoffs compared: [399, 400]",
        "smooth complement gate: passed",
    ]


def test_derham_refuses_an_oversized_rank_one_precision(capsys):
    # unrefused, x^2+x at --prec 10000 already takes about 9 s, and the
    # cost grows faster than the square of the precision
    start = time.perf_counter()
    code, out, err = run(capsys, "derham", "--kind", "rank-one", "--f", "x", "--prec", "100000000")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert not out
    assert "rank-one precision 100000000 with 1 terms of up to 2 bits" in err
    assert "which exceeds 20000000" in err
    assert "Traceback" not in err
    # precision 2000 is accepted for p = x and x^2+x
    for p, want in (("x", "[0, 1]"), ("x^2+x", "[0, 2]")):
        code, out, _ = run(capsys, "derham", "--kind", "rank-one", "--f", p, "--prec", "2000")
        assert code == 0
        assert f"dims (j = 0..1): {want}" in out


def test_derham_refuses_a_costly_rank_one_connection(capsys):
    # the work bound counts the terms and coefficient bits of p as well:
    # unrefused, (x+1/3)^12 at precision 2000 takes about 9 s
    start = time.perf_counter()
    code, out, err = run(capsys, "derham", "--kind", "rank-one", "--f", "(x+1/3)^12", "--prec", "2000")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert not out
    assert "with 13 terms of up to 23 bits needs work 1196000000, which exceeds 20000000" in err


def test_derham_non_smooth_hypersurface_is_heuristic(capsys):
    # agreement past a failed smoothness gate certifies nothing, but the run
    # still answers; the monomial localization keeps its certificate
    code, out, _ = run(
        capsys, "derham", "--kind", "loc-quot", "--f", "x*y*z", "--vars", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == [0, 3, 3, 1]
    assert (payload["certificate"], payload["smooth"], payload["stabilized"]) == (
        "heuristic",
        False,
        True,
    )
    code, out, _ = run(capsys, "derham", "--kind", "loc", "--f", "x*y*z", "--vars", "3")
    assert code == 0
    assert "certificate: stabilized" in out
    assert "smooth complement gate: NOT smooth" in out


@pytest.mark.parametrize("f, monomial", [("2*x*y*z", "x*y*z"), ("-x*y*z", "x*y*z"), ("1/2*x*y", "x*y")])
def test_derham_scaled_monomial_reports_as_the_monomial(capsys, f, monomial):
    # c x_S localizes like x_S, so its closed form checks the table and a
    # failed gate leaves the certificate stabilized
    code, out, _ = run(capsys, "derham", "--kind", "loc", f"--f={f}", "--vars", "3")
    _, want, _ = run(capsys, "derham", "--kind", "loc", "--f", monomial, "--vars", "3")
    assert code == 0
    assert out.splitlines()[1:] == want.splitlines()[1:]
    assert "certificate: stabilized" in out
    assert "smooth complement gate: NOT smooth" in out


@pytest.mark.parametrize("f", ["1", "3", "-2/5"])
def test_derham_loc_at_a_constant_is_the_ring(capsys, f):
    # R[1/c] = R: the same dims, certificate and cutoffs as --kind R
    _, ring, _ = run(capsys, "derham", "--kind", "R", "--vars", "2")
    code, out, _ = run(capsys, "derham", "--kind", "loc", f"--f={f}", "--vars", "2")
    assert code == 0
    assert out.splitlines()[1:] == ring.splitlines()[1:]
    assert "certificate: exact" in out


def test_a_failed_out_write_is_an_input_error(capsys, tmp_path):
    # a directory, and a file inside a missing directory: one error line
    # naming the path, exit 2, nothing on stdout
    for target in (tmp_path, tmp_path / "missing" / "catalog.txt"):
        code, out, err = run(capsys, "catalog", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(target) in err
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "spec, cutoff",
    [
        ({"kind": "loc-quot", "f": "x^3 + y^3 + z^3 + w^3"}, 4),
        ({"kind": "loc", "f": "x*y"}, 5),
        ({"kind": "loc", "f": "x*z", "vars": 3}, 3),
        ({"kind": "R", "vars": 3}, 4),
        ({"kind": "E", "vars": 2}, 4),
        # a smooth f, whose route builds F_0 alone
        ({"kind": "loc", "f": "x^4 + y^4 + z^4 + w^4"}, 0),
    ],
)
def test_derham_bound_counts_the_assembled_basis(spec, cutoff):
    # the weight-0 piece the engine ranks at the top cutoff, the block of
    # f's torus: the whole piece for a sum of powers, for R and for E, one
    # element per index set in the support for x*y and x*z; at cutoff 0, F_0
    spec = spec_from_json(spec)
    f = spec.pole_terms()
    width = socle.derham._key_width(spec.n_vars, f, cutoff, 0)
    block = None if spec.cutoff_free else socle.derham._torus_block(f)
    piece = socle.derham._Piece(spec, f, cutoff, 0, width, block=block)
    assert socle.derham._basis_size(f, cutoff) == sum(map(len, piece.keys))


def test_derham_ranks_the_ten_variable_monomial_on_its_block(capsys):
    # x_S at |S| = 10 has 2^10 elements in its block at every cutoff, and
    # the gate of a single term is a closed form, so the run is quick
    f = "*".join(f"x{i}" for i in range(VARS_MAX))
    start = time.perf_counter()
    code, out, _ = run(capsys, "derham", "--kind", "loc", "--f", f, "--vars", str(VARS_MAX))
    assert time.perf_counter() - start < 1
    assert code == 0
    want = [math.comb(VARS_MAX, j) for j in range(VARS_MAX + 1)]
    assert f"dims (j = 0..{VARS_MAX}): {want}" in out.splitlines()
    assert "certificate: stabilized" in out


def test_derham_rejects_bad_cap(monkeypatch, capsys):
    monkeypatch.setenv("DERHAM_MAX_CUTOFF", "abc")
    code, _, err = run(capsys, "derham", "--kind", "loc", "--f", "x", "--vars", "1")
    assert code == 2
    assert "DERHAM_MAX_CUTOFF" in err


def test_decompose_table(capsys):
    code, out, _ = run(capsys, "decompose", "--p", "x*d0", "--f", "7 + 3*x + 5*x^3")
    assert code == 0
    assert "e_0 = 7" in out
    assert "b_1 = 3" in out
    assert "b_3 = 5/3" in out
    assert "residual: zero within the tracked box" in out


def test_decompose_json(capsys):
    code, out, _ = run(
        capsys,
        "decompose", "--p", "x*d0", "--f", "7 + 3*x + 5*x^3", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["e"] == ["7"]
    assert payload["b"] == {"1": "3", "3": "5/3"}
    assert payload["operator"] == "x*d0"


GOLDEN = Path(__file__).parent / "golden"


def assert_pinned(capsys, name, *argv):
    """The JSON output of one CLI invocation equals golden/<name>.json."""
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize(
    "name, p, f, prec",
    [
        ("decompose_two_vars", "(x0 + x1)*d0^2 + x1*d0 + 3", "x0^5*x1 + 3*x1^2 - x0", "10"),
        (
            "decompose_three_vars",
            "(x0 + x1 + x2)*d0 + x1*x2",
            "x0^4*x1*x2 - 2/3*x0^2*x2^2 + 5*x1 + 7/2",
            "8",
        ),
    ],
)
def test_decompose_json_is_pinned(capsys, name, p, f, prec):
    assert_pinned(capsys, name, "decompose", "--p", p, "--f", f, "--prec", prec)


# one input per spec route: the two cutoff-free complexes, a localization at
# no variable (R itself: exact, no smoothness key), a monomial that passes
# the gate and one that fails it (still "stabilized"), a hypersurface in
# both modes, a non-smooth one whose agreement is "heuristic", and rank one;
# and every catalog entry
DERHAM_PINS = {
    "derham_ring_two_vars": ("--kind", "R", "--vars", "2"),
    "derham_hull_three_vars": ("--kind", "E", "--vars", "3"),
    "derham_loc_nothing_inverted": ("--kind", "loc", "--f", "1", "--vars", "2"),
    "derham_loc_monomial_smooth": ("--kind", "loc", "--f", "x*y", "--vars", "2"),
    "derham_loc_monomial_not_smooth": ("--kind", "loc", "--f", "x*y", "--vars", "3"),
    "derham_loc_quot_heuristic": ("--kind", "loc-quot", "--f", "x*y*z", "--vars", "3"),
    "derham_loc_conic": ("--kind", "loc", "--f", "x^2+y^2+z^2"),
    "derham_catalog_conic": ("--catalog", "conic-p2"),
    "derham_catalog_fermat_cubic": ("--catalog", "fermat-cubic-p2"),
    "derham_catalog_weierstrass_cubic": ("--catalog", "weierstrass-cubic-p2"),
    "derham_catalog_quartic": ("--catalog", "quartic-p2"),
    "derham_catalog_quadric": ("--catalog", "quadric-p3"),
    "derham_rank_one": ("--kind", "rank-one", "--f", "x^2"),
}


@pytest.mark.parametrize("name", sorted(DERHAM_PINS))
def test_derham_json_is_pinned(capsys, name):
    assert_pinned(capsys, name, "derham", *DERHAM_PINS[name])


def test_verify_all_stdout_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    assert out == (GOLDEN / "verify_all.txt").read_text()


# the window is prec * t + deg_x f + order, prec 6 by default; x*d0 has band
# offset t = 1, and d0 has t = 0, so there only the precision exceeds 10000
OVERSIZED = [
    ("x*d0", "x^100000000", None),
    ("x*d0", "x^10", "100000000"),
    ("x*d0", "x^9994", None),
    ("d0", "x", "10001"),
]


@pytest.mark.parametrize("p, f, prec", OVERSIZED)
def test_decompose_refuses_oversized_input(capsys, p, f, prec):
    start = time.perf_counter()
    code, out, err = run(capsys, "decompose", "--p", p, "--f", f, *(("--prec", prec) if prec else ()))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert not out
    assert "exceeds 10000" in err


def test_decompose_refuses_a_large_indicial_root_bound(capsys):
    # the indicial polynomial l - 10^9 would send the root scan through
    # 10^9 integers
    start = time.perf_counter()
    code, out, err = run(capsys, "decompose", "--p", "x*d0 - 1000000000", "--f", "x")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert not out
    assert "indicial root bound 1000000001 exceeds 10000" in err


def test_decompose_refuses_a_huge_indicial_root_bound_briefly(capsys):
    # the bound of d0^321 has 667 digits; the refusal gives its size instead
    code, out, err = run(capsys, "decompose", "--p", "d0^321", "--f", "x0", "--prec", "2")
    assert code == 2
    assert not out
    assert len(err.encode()) < 200
    assert "indicial root bound of 2213 bits exceeds 10000" in err


@pytest.mark.parametrize("f", ["3^10000*x", "7" * 5000 + "*x"])
def test_integers_too_long_for_text_are_input_errors(capsys, f):
    # Python refuses int <-> str conversions past 4300 digits with a
    # ValueError.  Parsing keeps that limit, so the 5000-digit literal is an
    # input error; decompose lifts it while it renders, so the 4772 digits
    # of 3^10000 in its answer are printed, and the limit is restored
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "decompose", "--p", "x*d0", "--f", f)
    assert sys.get_int_max_str_digits() == limit
    if f.startswith("3^"):
        assert (code, err) == (0, "")
        (digits,) = (line[8:] for line in out.splitlines() if line.startswith("  b_1 = "))
        assert len(digits) == 4772 and int(digits[-9:]) == 3**10000 % 10**9
        return
    assert code == 2
    assert not out
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.slow
def test_decompose_prints_coefficients_past_the_digit_limit(capsys):
    # the sweep takes about 2.3 s; its answer, 15 MB of JSON, was refused
    # with exit 2 when the limit still held while rendering
    limit = sys.get_int_max_str_digits()
    code, out, err = run(
        capsys, "decompose", "--p", "(x+y)^5*d0^6+y*d0^2+(x+y)*d0+3",
        "--f", "x^8*y^3+x^2*y+y^5", "--prec", "32", "--format", "json",
    )
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9901d85c5aceddbc2920ec1178e80c203121c64591eecd5673cf1d21cb411327"
    )


@pytest.fixture
def parses(monkeypatch):
    """The variable count of each expression parse, in order."""
    counts = []
    original = grammar._Parser.parse

    def counted(parser):
        counts.append(parser.n_vars)
        return original(parser)

    monkeypatch.setattr(grammar._Parser, "parse", counted)
    return counts


def test_decompose_parses_each_expression_once(capsys, parses):
    code, _, _ = run(capsys, "decompose", "--p", "x*d0 + x1", "--f", "x0^2*x2")
    assert code == 0
    # both in the three variables the two expressions use together
    assert parses == [3, 3]


def test_decompose_checks_the_precision_before_parsing(capsys, parses):
    # unrefused until after parsing, (x+y+z)^58 cost about 0.6 s first
    start = time.perf_counter()
    code, out, err = run(capsys, "decompose", "--p", "(x+y+z)^58", "--f", "x", "--prec", "0")
    assert time.perf_counter() - start < 0.25
    assert (code, out, err) == (2, "", "error: --prec must be at least 1\n")
    assert parses == []


BINOMIAL = "x0*x1*x2*x3*x4 - x5*x6*x7*x8*x9"
SWEEP_CASE = ("--p", "(x+y)*d0^2+y*d0+3", "--f", "x^8*y^3+x^2*y")
# every size refusal of derham and decompose in this file
LIBRARY_REFUSALS = [
    # the basis bound after the smoothness gate, and before it
    ("derham", "--kind", "loc", "--f", NODAL_CUBIC, "--pole-cutoff", "400"),
    ("derham", "--kind", "loc", "--f", BINOMIAL, "--vars", "10", "--pole-cutoff", "6"),
    # the operator order
    ("decompose", "--p", "d0^1000", "--f", "x0", "--prec", "2"),
    ("decompose", "--p", "d0^3000", "--f", "x0", "--prec", "2"),
    # the precision or the tracked x-window
    *[("decompose", "--p", p, "--f", f, *(("--prec", prec) if prec else ())) for p, f, prec in OVERSIZED],
    # the window times the pairs of B-monomials
    ("decompose", *SWEEP_CASE, "--prec", "55"),
    # the indicial root bound, in digits and in bits
    ("decompose", "--p", "x*d0 - 1000000000", "--f", "x"),
    ("decompose", "--p", "d0^321", "--f", "x0", "--prec", "2"),
]


def library_call(argv):
    """The ``derham_truncated`` or ``decompose`` call that the CLI makes
    for argv, its input parsed."""
    args = _build_parser().parse_args(argv)
    if args.command == "derham":
        spec = spec_from_json({"kind": args.kind, "f": args.f, "vars": args.vars})
        return lambda: derham_truncated(spec, args.pole_cutoff)
    n = used_vars(args.p, args.f)
    op, f = RegularOperator.from_weyl(parse_operator(args.p, n)), parse_poly(args.f, n)
    return lambda: decompose(f, op, args.prec or 6)


@pytest.mark.parametrize("argv", LIBRARY_REFUSALS)
def test_the_library_refuses_what_the_cli_refuses(capsys, argv):
    call = library_call(argv)
    start = time.perf_counter()
    with pytest.raises(DomainError) as refusal:
        call()
    assert time.perf_counter() - start < 1
    assert run(capsys, *argv) == (2, "", f"error: {refusal.value}\n")


@pytest.mark.parametrize(
    "argv, field",
    [
        (("--kind", "R"), "vars"),
        (("--kind", "E", "--f", "x"), "vars"),
        (("--kind", "loc", "--vars", "2"), "f"),
        (("--kind", "loc-quot"), "f"),
        (("--kind", "R", "--vars", "2", "--f", "x $ y"), "f"),
    ],
)
def test_derham_names_a_missing_spec_field(capsys, argv, field):
    code, out, err = run(capsys, "derham", *argv)
    assert code == 2
    assert not out
    assert err.startswith("error: ")
    assert repr(field) in err


@pytest.mark.parametrize("p", ["d0^1000", "d0^3000"])
def test_decompose_refuses_a_high_order_before_its_indicial_polynomial(capsys, p):
    # the indicial polynomial of order r costs about r(r+1)/2 steps, and
    # building it took seconds before the root bound refused the input
    start = time.perf_counter()
    code, out, err = run(capsys, "decompose", "--p", p, "--f", "x0", "--prec", "2")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert not out
    assert "exceeds 100000" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--p", "x*d0", "--f", "(x0+x1)^3000"),
        ("decompose", "--p", "(x0+d0)^80", "--f", "x"),
        ("derham", "--kind", "loc", "--f", "(x+y+z)^2000"),
        ("derham", "--kind", "loc", "--f", "(x+y+z)^31*(x+y+z)^31"),
    ],
)
def test_oversized_powers_exit_2(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert not out
    assert "exceeds 250000" in err


def test_a_power_with_oversized_coefficients_exits_2(capsys):
    # unrefused, 3^10000000 is computed for about 8 s before the run fails
    start = time.perf_counter()
    code, out, err = run(capsys, "derham", "--kind", "loc", "--f", "3^10000000*x")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert not out
    assert err.startswith("error: parse error at byte 3: power 10000000")
    assert "Traceback" not in err


def test_non_ascii_digits_are_parse_errors(capsys):
    code, out, err = run(capsys, "derham", "--kind", "loc", "--f", "x²+y^2")
    assert code == 2
    assert not out
    assert err.startswith("error: parse error at byte 2")
    assert "Traceback" not in err


def test_decompose_accepts_input_at_the_bound(capsys):
    code, out, _ = run(capsys, "decompose", "--p", "x*d0", "--f", "x^9993", "--format", "json")
    assert code == 0
    assert json.loads(out)["x_window"] == 10000


def test_decompose_refuses_a_large_sweep(capsys):
    # the first precision refused: window 65 times C(56, 2) = 1540 pairs of
    # B-monomials is 100100; --prec 54 (95040) is accepted
    start = time.perf_counter()
    code, out, err = run(capsys, "decompose", *SWEEP_CASE, "--prec", "55")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert not out
    assert err == (
        "error: tracked x-window 65 times 1540 pairs of B-monomials below m_B^55 exceeds 100000\n"
    )


def test_decompose_accepts_a_small_sweep(capsys):
    code, out, _ = run(capsys, "decompose", *SWEEP_CASE, "--prec", "20", "--format", "json")
    assert code == 0
    assert json.loads(out)["x_window"] == 30


def test_decompose_accepts_a_sweep_in_two_b_variables(capsys):
    # window 22 times C(15, 4) = 1365 pairs: 30030, inside the bound; the
    # square of the 78 B-monomials (133848) refused it
    p, f = "(x0+x1+x2)*d0^2 + (x1+x2)*d0 + 3", "x0^8*x1^3 + x0^2*x2"
    code, out, _ = run(capsys, "decompose", "--p", p, "--f", f, "--prec", "12", "--format", "json")
    assert code == 0
    assert json.loads(out)["x_window"] == 22


@pytest.mark.parametrize(
    "p, f, prec, digest",
    [
        # one B-variable: estimate 50138, the JSON is 1.6 MB
        (
            "(x+y)*d0^2+y*d0+3",
            "x^8*y^3+x^2*y",
            "43",
            "28075d2132a44085d4a0c5b295de4e08902984fd7f3468734ff43aefe0b3ab82",
        ),
        # two B-variables: estimate 41860
        (
            "(x0+x1+x2)*d0^2 + (x1+x2)*d0 + 3",
            "x0^8*x1^3 + x0^2*x2",
            "13",
            "c71ece9c1805caa55b0a476bf0b098ac19cc40d76fce31baf11bd0ae90e24976",
        ),
    ],
)
def test_decompose_pins_the_costliest_accepted_inputs(capsys, p, f, prec, digest):
    # the costliest inputs accepted under the earlier sweep bound of 52000,
    # pinned by the sha256 of their JSON output
    code, out, _ = run(capsys, "decompose", "--p", p, "--f", f, "--prec", prec, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


NEGATIVE = "error: the variable count must be nonnegative, got -1\n"
# (argv, the whole of stderr)
BAD_COUNTS = {
    ("decompose", "--p", "d0", "--f", "x", "--vars", "0"): (
        "error: parse error at byte 1: partial index 0 outside the declared 0 variables\n"
    ),
    ("decompose", "--p", "d0", "--f", "x", "--vars", "-1"): NEGATIVE,
    ("derham", "--kind", "R", "--vars", "-1"): NEGATIVE,
    ("derham", "--kind", "E", "--vars", "-1"): NEGATIVE,
    ("derham", "--catalog", "conic-p2", "--vars", "0"): (
        "error: parse error at byte 1: variable index 0 outside the declared 0 variables\n"
    ),
    # parsing costs grow with the declared count, so decompose bounds it first
    ("decompose", "--p", "x*d0", "--f", "x", "--prec", "1", "--vars", str(VARS_MAX + 1)): (
        f"error: at most {VARS_MAX} variables (x0..x9), got {VARS_MAX + 1}\n"
    ),
    ("decompose", "--p", "x*d0", "--f", "x", "--prec", "1", "--vars", "-3"): (
        "error: the variable count must be nonnegative, got -3\n"
    ),
}


@pytest.mark.parametrize("argv", list(BAD_COUNTS))
def test_bad_variable_counts_are_input_errors(capsys, argv):
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1
    assert code == 2
    assert not out
    assert err == BAD_COUNTS[argv]


@pytest.mark.parametrize("argv", [("--kind", "R"), ("--kind", "E"), ("--kind", "loc", "--f", "1")])
def test_variable_count_is_bounded(capsys, argv):
    start = time.monotonic()
    code, out, err = run(capsys, "derham", *argv, "--vars", str(VARS_MAX + 1))
    assert time.monotonic() - start < 1
    assert code == 2
    assert not out
    assert err.count("error:") == 1 and f"at most {VARS_MAX} variables" in err
    code, out, _ = run(capsys, "derham", *argv, "--vars", str(VARS_MAX), "--format", "json")
    assert code == 0
    assert len(json.loads(out)["dims"]) == VARS_MAX + 1


@pytest.mark.parametrize("kind", ["R", "E"])
def test_no_variables_is_a_point(capsys, kind):
    code, out, _ = run(capsys, "derham", "--kind", kind, "--vars", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == [1]
    assert payload["certificate"] == "exact"


def test_ring_and_localization_at_one_agree_with_no_variables(capsys):
    # the constant 1 parses over 0 variables, so --kind loc gives the point
    _, ring, _ = run(capsys, "derham", "--kind", "R", "--vars", "0")
    code, out, _ = run(capsys, "derham", "--kind", "loc", "--f", "1", "--vars", "0")
    assert code == 0
    assert out.splitlines()[1:] == ring.splitlines()[1:]
    assert "dims (j = 0..0): [1]" in out.splitlines()


def test_decompose_rejects_second_partial(capsys):
    code, _, err = run(capsys, "decompose", "--p", "d0 + d1", "--f", "x")
    assert code == 2
    assert err.strip()


def test_decompose_rejects_parse_garbage(capsys):
    code, _, err = run(capsys, "decompose", "--p", "x*d0", "--f", "x $ y")
    assert code == 2
    assert err.strip()


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "dims.json"
    args = ("derham", "--kind", "E", "--vars", "2", "--format", "json")
    code, out, _ = run(capsys, *args)
    assert code == 0
    code = main([*args, "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    raw = target.read_bytes()
    assert raw.decode("utf-8") == out
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_verify_rank_one_json(capsys):
    code, out, _ = run(capsys, "verify", "rank-one", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["passed"] is True
    assert payload["suite"] == "rank-one"
    assert all(check["ok"] for check in payload["checks"])


def test_verify_decomposition_table(capsys):
    code, out, _ = run(capsys, "verify", "decomposition")
    assert code == 0
    assert "0 mismatches" in out
    assert "MISMATCH" not in out


def test_verify_monomial_counts(capsys):
    code, out, _ = run(capsys, "verify", "monomial")
    assert code == 0
    assert "14 checks, 0 mismatches" in out


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
