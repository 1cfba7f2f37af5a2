"""Command-line interface: exit codes, output discipline, the verify suites."""

import json
import time
from pathlib import Path

import pytest

from socle.catalog import PROFILES
from socle import grammar
from socle.cli import _basis_size, main
import socle.derham
from socle.derham import spec_from_json
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


def test_derham_refuses_an_oversized_complex(capsys):
    # 2579238 basis elements at cutoff 400; unrefused, this runs for minutes
    start = time.perf_counter()
    code, out, err = run(capsys, "derham", "--kind", "loc", "--f", "x^2+y^2+z^2", "--pole-cutoff", "400")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert not out
    assert "2579238 basis elements, which exceeds 400000" in err


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


@pytest.mark.parametrize(
    "spec, cutoff",
    [
        ({"kind": "loc-quot", "f": "x^3 + y^3 + z^3 + w^3"}, 4),
        ({"kind": "loc", "f": "x*y"}, 5),
        ({"kind": "loc", "f": "x*z", "vars": 3}, 3),
        ({"kind": "R", "vars": 3}, 4),
        ({"kind": "E", "vars": 2}, 4),
    ],
)
def test_derham_bound_counts_the_assembled_basis(spec, cutoff):
    # the weight-0 piece the engine ranks at the top cutoff
    spec = spec_from_json(spec)
    f = spec.pole_terms()
    width = socle.derham._key_width(spec.n_vars, f, cutoff, (0, 0))
    piece = socle.derham._Piece(spec, f, cutoff, 0, width)
    assert _basis_size(spec, cutoff) == sum(map(len, piece.keys))


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
# no variable (persistent route over R, no smoothness key), a monomial that
# passes the gate and one that fails it (still "stabilized"), a hypersurface
# in both modes, a non-smooth one whose agreement is "heuristic", and rank
# one; and every catalog entry
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
@pytest.mark.parametrize(
    "p, f, prec",
    [
        ("x*d0", "x^100000000", None),
        ("x*d0", "x^10", "100000000"),
        ("x*d0", "x^9994", None),
        ("d0", "x", "10001"),
    ],
)
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
    # ValueError: on output for 3^10000, on parsing for the 5000-digit literal
    code, out, err = run(capsys, "decompose", "--p", "x*d0", "--f", f)
    assert code == 2
    assert not out
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_decompose_parses_each_expression_once(capsys, monkeypatch):
    parses = []
    original = grammar._Parser.parse

    def counted(parser):
        parses.append(parser.n_vars)
        return original(parser)

    monkeypatch.setattr(grammar._Parser, "parse", counted)
    code, _, _ = run(capsys, "decompose", "--p", "x*d0 + x1", "--f", "x0^2*x2")
    assert code == 0
    # both in the three variables the two expressions use together
    assert parses == [3, 3]


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
    assert "exceeds 52000" in err


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


SWEEP_CASE = ("--p", "(x+y)*d0^2+y*d0+3", "--f", "x^8*y^3+x^2*y")


def test_decompose_refuses_a_large_sweep(capsys):
    # window 90 times C(81, 2) pairs of B-monomials is far past the bound;
    # unrefused, this input runs for minutes
    start = time.perf_counter()
    code, out, err = run(capsys, "decompose", *SWEEP_CASE, "--prec", "80")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert not out
    assert "exceeds 52000" in err


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
    "argv",
    [
        ("decompose", "--p", "d0", "--f", "x", "--vars", "0"),
        ("decompose", "--p", "d0", "--f", "x", "--vars", "-1"),
        ("derham", "--kind", "R", "--vars", "-1"),
        ("derham", "--kind", "E", "--vars", "-1"),
        ("derham", "--catalog", "conic-p2", "--vars", "0"),
    ],
)
def test_bad_variable_counts_are_input_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert not out
    assert ("-1" if "-1" in argv else "0 variables") in err


@pytest.mark.parametrize("kind", ["R", "E"])
def test_no_variables_is_a_point(capsys, kind):
    code, out, _ = run(capsys, "derham", "--kind", kind, "--vars", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == [1]
    assert payload["certificate"] == "exact"


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
