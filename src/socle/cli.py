"""Command-line front door.

Subcommands: predict (structure of local cohomology from a Betti profile),
derham (truncated/exact de Rham tables for a chosen module), decompose
(series splitting along a regular operator), verify (cross-engine agreement
suites), catalog (list built-in profiles and hypersurfaces).

Exit codes: 0 success, 1 verification mismatch, 2 input error (a failed
``--out`` write among them), 3 result did not stabilize at the allowed
cutoff.  JSON output is deterministic: sorted keys, two-space indent,
UTF-8, LF.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .catalog import HYPERSURFACES, PROFILES
from .derham import (
    check_var_count,
    completion_flattening,
    derham_closed_form,
    derham_rank_one,
    derham_truncated,
    spec_from_json,
)
from .grammar import parse_operator, parse_poly, used_vars
from .poly import MultiPoly
from .series import TruncatedSeries
from .seriesdecomp import (
    RegularOperator,
    decompose,
    expansion_condition_report,
    valuation_growth_probe,
)
from .structure import predict

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_UNSTABLE = 3


class _InputError(ValueError):
    """User-facing input problem outside the library error types.

    ``main`` reports every ValueError with exit 2: each library input error
    is a ValueError, and so is Python's refusal to convert an int past its
    digit limit from text (``decompose`` lifts the limit while it renders
    its answer)."""


# ----------------------------------------------------------------- plumbing


def _write_text(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write --out {out!r}: {exc.strerror or exc}") from None


def _emit(args, lines: List[str], payload: dict) -> None:
    if args.format == "json":
        _write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        _write_text("\n".join(lines) + "\n", args.out)


def _capped_cutoff(requested: int) -> tuple:
    """The cutoff to run, at most DERHAM_MAX_CUTOFF, and whether it was capped."""
    raw = os.environ.get("DERHAM_MAX_CUTOFF")
    if raw is None:
        return requested, False
    try:
        cap = int(raw)
    except ValueError:
        raise _InputError(f"DERHAM_MAX_CUTOFF must be an integer, got {raw!r}")
    if cap < 2:
        raise _InputError("DERHAM_MAX_CUTOFF must be at least 2")
    return min(requested, cap), requested > cap


# ------------------------------------------------------------------ catalog


def cmd_catalog(args) -> int:
    lines = ["built-in Betti profiles:"]
    profiles_json = []
    for entry in PROFILES.values():
        p = entry.profile
        lines.append(
            f"  {entry.name:<18} n={p.n} d={p.d} betti={list(p.betti)}  {entry.description}"
        )
        profiles_json.append(
            {
                "name": entry.name,
                "n": p.n,
                "d": p.d,
                "betti": list(p.betti),
                "description": entry.description,
            }
        )
    lines.append("")
    lines.append("built-in hypersurfaces:")
    hyp_json = []
    for entry in HYPERSURFACES.values():
        lines.append(
            f"  {entry.name:<18} f = {entry.f_text}  ({entry.n_vars} vars, "
            f"profile {entry.profile_name}, default cutoff {entry.default_cutoff})"
        )
        hyp_json.append(
            {
                "name": entry.name,
                "f": entry.f_text,
                "vars": entry.n_vars,
                "profile": entry.profile_name,
                "default_cutoff": entry.default_cutoff,
                "description": entry.description,
            }
        )
    _emit(args, lines, {"schema": 1, "profiles": profiles_json, "hypersurfaces": hyp_json})
    return EXIT_OK


# ------------------------------------------------------------------ predict


def _lookup_profile(name: str):
    if name in PROFILES:
        return PROFILES[name].profile
    if name in HYPERSURFACES:
        return PROFILES[HYPERSURFACES[name].profile_name].profile
    known = sorted(set(PROFILES) | set(HYPERSURFACES))
    raise _InputError(f"unknown catalog entry {name!r}; known: {', '.join(known)}")


def cmd_predict(args) -> int:
    if not args.catalog:
        raise _InputError("predict needs --catalog NAME (see the catalog subcommand)")
    profile = _lookup_profile(args.catalog)
    report = predict(profile, name=args.catalog)
    p = report.profile
    r = p.r
    lines = [
        f"profile: {args.catalog}",
        f"ambient projective space P^{p.n}, variety dimension d = {p.d}, r = n - d = {r}",
        f"betti numbers: {list(p.betti)}",
        f"cone homology (degrees 0..{2 * p.d + 2}): {list(report.cone_h)}",
        "local cohomology modules H^i_I(A):",
    ]
    for i, status in enumerate(report.statuses):
        if status == "zero":
            lines.append(f"  H^{i}: 0")
        elif status == "critical":
            lines.append(f"  H^{i}: critical module (see below)")
        else:
            lines.append(f"  H^{i}: isomorphic to {status}")
    lines.append(f"critical module H^{r}_I(A):")
    lines.append(f"  de Rham dims (j = 0..{p.n + 1}): {list(report.critical_dims)}")
    if report.simple:
        lines.append(f"  H^{r}_I(A) is simple")
    else:
        lines.append(
            f"  composition: quotient E^{report.quotient_e_copies} over a simple submodule "
            "supported on the cone point"
        )
    lines.append(
        "ogus vanishing criterion: " + ("holds" if report.ogus_vanishing else "fails")
    )
    _emit(args, lines, report.to_json())
    return EXIT_OK


# ------------------------------------------------------------------- derham


def cmd_derham(args) -> int:
    kind = args.kind
    f_text = args.f
    n_vars = args.vars
    cutoff = args.pole_cutoff

    if args.catalog:
        if args.catalog not in HYPERSURFACES:
            known = ", ".join(HYPERSURFACES)
            raise _InputError(f"unknown hypersurface {args.catalog!r}; known: {known}")
        entry = HYPERSURFACES[args.catalog]
        kind = kind or "loc-quot"
        if kind not in ("loc", "loc-quot"):
            raise _InputError(
                f"catalog entry {args.catalog!r} is a hypersurface, "
                f"so it needs --kind loc or loc-quot, not {kind!r}"
            )
        f_text = f_text if f_text is not None else entry.f_text
        n_vars = n_vars if n_vars is not None else entry.n_vars
        if cutoff is None:
            cutoff = entry.default_cutoff

    if kind is None:
        raise _InputError("derham needs --kind (R, E, loc, loc-quot, rank-one) or --catalog")
    if args.prec is not None and kind != "rank-one":
        raise _InputError(f"--prec applies only to --kind rank-one, not {kind!r}")
    for flag, value in (("--pole-cutoff", args.pole_cutoff), ("--vars", args.vars)):
        if value is not None and kind == "rank-one":
            raise _InputError(f"{flag} does not apply to --kind rank-one")

    if kind == "rank-one":
        if f_text is None:
            raise _InputError("rank-one connections need --f with the connection polynomial")
        dims = derham_rank_one(parse_poly(f_text, 1), precision=args.prec)
        lines = [
            "module: rank-one connection (d/dx + p) on one variable",
            f"p = {f_text}",
            f"dims (j = 0..1): {list(dims)}",
            "certificate: exact",
        ]
        payload = {
            "schema": 1,
            "kind": "rank-one",
            "p": f_text,
            "dims": list(dims),
            "certificate": "exact",
        }
        _emit(args, lines, payload)
        return EXIT_OK

    spec = spec_from_json({"kind": kind, "f": f_text, "vars": n_vars})
    requested = cutoff if cutoff is not None else 6
    if requested < 2:
        raise _InputError("--pole-cutoff must be at least 2")
    effective, capped = _capped_cutoff(requested)
    dims, report = derham_truncated(spec, pole_cutoff=effective)

    n = spec.n_vars
    lines = [
        f"module kind: {kind}" + (f", f = {f_text}" if f_text else f", {n} variables"),
        f"dims (j = 0..{n}): {list(dims)}",
        f"certificate: {report.certificate}",
        f"pole cutoffs compared: {list(report.cutoffs)}",
    ]
    if capped:
        lines.append(
            f"pole cutoff capped at {effective} (requested {requested}) by DERHAM_MAX_CUTOFF"
        )
    if report.smooth is not None:
        lines.append(
            "smooth complement gate: " + ("passed" if report.smooth else "NOT smooth")
        )
    payload = {"schema": 1, "kind": kind, "dims": list(dims)}
    if f_text:
        payload["f"] = f_text
    payload["vars"] = n
    payload.update(report.to_json())
    payload["requested_cutoff"] = requested
    payload["capped"] = capped
    _emit(args, lines, payload)
    if report.certificate == "provisional":
        return EXIT_UNSTABLE
    return EXIT_OK


# ---------------------------------------------------------------- decompose


def cmd_decompose(args) -> int:
    if not args.p:
        raise _InputError("decompose needs --p with an operator expression")
    if args.f is None:
        raise _InputError("decompose needs --f with a polynomial")
    # the flags are checked before parsing, whose cost grows with the
    # variable count and the expressions
    if args.vars is not None:
        check_var_count(args.vars)
    precision = args.prec if args.prec is not None else 6
    if precision < 1:
        raise _InputError("--prec must be at least 1")
    # one variable count for both expressions, each parsed once
    n = args.vars if args.vars is not None else used_vars(args.p, args.f)
    op = RegularOperator.from_weyl(parse_operator(args.p, n))
    f = parse_poly(args.f, n)
    dec = decompose(f, op, precision)
    a = dec.analysis

    # a computed coefficient may pass Python's int-to-text digit limit, so
    # the limit is lifted while the answer is rendered; parsing kept it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        lines = [
            f"operator: {args.p}   (order r = {op.order}, band offset t = {a.t})",
            f"f: {args.f}",
            f"indicial roots handled up to ell0 = {a.ell0}; plain coefficients s = {a.s}",
            f"precision: m_B^{precision}; tracked x-powers 0..{dec.x_window}",
        ]
        if dec.e:
            for i, series in enumerate(dec.e):
                lines.append(f"  e_{i} = {series.poly_part().render()}")
        else:
            lines.append("  e: (none)")
        if dec.b:
            for ell in sorted(dec.b):
                lines.append(f"  b_{ell} = {dec.b[ell].poly_part().render()}")
        else:
            lines.append("  b: (none)")
        lines.append("residual: zero within the tracked box (certified by the sweep)")
        payload = dec.to_json()
        payload["operator"] = args.p
        payload["f"] = args.f
        _emit(args, lines, payload)
    finally:
        sys.set_int_max_str_digits(limit)
    return EXIT_OK


# ------------------------------------------------------------------- verify


def _check(name: str, got, want) -> dict:
    return {"name": name, "ok": got == want, "got": got, "want": want}


def _suite_monomial() -> List[dict]:
    from itertools import combinations

    checks = []
    for n in range(1, 4):
        subsets = [()]
        for size in range(1, n + 1):
            subsets.extend(combinations(range(n), size))
        for subset in subsets:
            if subset:
                spec = spec_from_json(
                    {"kind": "loc", "f": "*".join(f"x{i}" for i in subset), "vars": n}
                )
            else:
                spec = spec_from_json({"kind": "R", "vars": n})
            closed = list(derham_closed_form(spec))
            dims, report = derham_truncated(spec, pole_cutoff=4)
            got = {"dims": list(dims), "settled": report.certificate in ("exact", "stabilized")}
            want = {"dims": closed, "settled": True}
            checks.append(_check(f"n={n} S={list(subset)}", got, want))
    return checks


def _suite_hypersurface() -> List[dict]:
    checks = []
    for entry in HYPERSURFACES.values():
        profile = PROFILES[entry.profile_name].profile
        report = predict(profile, name=entry.profile_name)
        spec = spec_from_json({"kind": "loc-quot", "f": entry.f_text, "vars": entry.n_vars})
        dims, trunc = derham_truncated(spec, pole_cutoff=entry.default_cutoff)
        got = {
            "dims": list(dims),
            "stabilized": trunc.stabilized,
            "smooth": trunc.smooth,
        }
        want = {
            "dims": list(report.critical_dims),
            "stabilized": True,
            "smooth": True,
        }
        checks.append(_check(entry.name, got, want))
    return checks


def _suite_rank_one() -> List[dict]:
    checks = []
    cases = [
        ("0", [1, 0]),
        ("5", [0, 0]),
        ("x", [0, 1]),
        ("x^2", [0, 2]),
        ("x^2 + x", [0, 2]),
    ]
    for text, want in cases:
        dims = derham_rank_one(parse_poly(text, 1))
        checks.append(_check(f"p={text}", list(dims), want))
    u = completion_flattening(parse_poly("x^2", 1), 10)
    frozen = parse_poly("1 - 1/3*x^3 + 1/18*x^6 - 1/162*x^9", 1)
    checks.append(
        _check(
            "flattening p=x^2 through degree 9",
            u.poly_part().render(),
            frozen.render(),
        )
    )
    return checks


def _suite_decomposition() -> List[dict]:
    checks = []

    p_d = RegularOperator.from_weyl(parse_operator("d0", 1))
    dec = decompose(parse_poly("1 + x + x^2", 1), p_d, 4)
    got = {str(l): dec.b[l].poly_part().render() for l in sorted(dec.b)}
    checks.append(_check("P=d on 1+x+x^2", got, {"1": "1", "2": "1/2", "3": "1/3"}))

    p_xd = RegularOperator.from_weyl(parse_operator("x*d0", 1))
    dec = decompose(parse_poly("7 + 3*x + 5*x^3", 1), p_xd, 4)
    got = {
        "e0": dec.e[0].poly_part().render(),
        "b": {str(l): dec.b[l].poly_part().render() for l in sorted(dec.b)},
    }
    checks.append(
        _check("P=xd on 7+3x+5x^3", got, {"e0": "7", "b": {"1": "3", "3": "5/3"}})
    )

    p_mix = RegularOperator.from_weyl(parse_operator("x1 + d0", 2))
    dec = decompose(parse_poly("x1 * x0^4", 2), p_mix, 6)
    got = {str(l): dec.b[l].poly_part().render() for l in sorted(dec.b)}
    checks.append(
        _check("P=x1+d on y*x^4", got, {"5": "1/5*y", "6": "-1/30*y^2"})
    )

    # reconstruction through the operator-algebra route
    p_band = RegularOperator.from_weyl(parse_operator("(x0 + x1)*d0", 2))
    f = parse_poly("x0^4 + 2*x0^2", 2)
    dec = decompose(f, p_band, 6)
    recon = dec.reconstruction()
    slices = f.x0_slices()
    agree = all(
        TruncatedSeries.from_poly(recon.get(j, MultiPoly.zero(2)), 6)
        == TruncatedSeries.from_poly(slices.get(j, MultiPoly.zero(2)), 6)
        for j in range(dec.x_window + 1)
    )
    checks.append(_check("reconstruction (x+y)d on x^4+2x^2", agree, True))

    a = dec.analysis
    conditions = all(
        all(
            expansion_condition_report(p_band, a, ell)[key]
            for key in ("support_ok", "band_ok", "pivot_unit", "pivot_matches_indicial")
        )
        for ell in range(a.ell0, a.ell0 + 31)
    )
    checks.append(_check("expansion conditions ell0..ell0+30", conditions, True))

    rows = valuation_growth_probe(p_band, [a.s + 2, a.s + 6, a.s + 10], 12)
    checks.append(
        _check("valuation growth probe", all(r["within_bound"] for r in rows), True)
    )
    return checks


_SUITES = {
    "monomial": _suite_monomial,
    "hypersurface": _suite_hypersurface,
    "rank-one": _suite_rank_one,
    "decomposition": _suite_decomposition,
}


def cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    lines = []
    all_checks = []
    for name in names:
        lines.append(f"verify suite: {name}")
        for check in _SUITES[name]():
            all_checks.append({"suite": name, **check})
            if check["ok"]:
                lines.append(f"  ok       {check['name']}")
            else:
                lines.append(
                    f"  MISMATCH {check['name']}: got {check['got']!r}, want {check['want']!r}"
                )
    failures = sum(1 for c in all_checks if not c["ok"])
    lines.append(f"{len(all_checks)} checks, {failures} mismatches")
    payload = {
        "schema": 1,
        "suite": args.suite,
        "checks": all_checks,
        "passed": failures == 0,
    }
    _emit(args, lines, payload)
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


# -------------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socle",
        description="Exact de Rham tables, local cohomology structure predictions, "
        "and regular-operator series decompositions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("table", "json"), default="table", help="output format"
    )
    common.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", parents=[common], help="list built-in profiles")
    p_cat.set_defaults(func=cmd_catalog)

    p_pred = sub.add_parser(
        "predict", parents=[common], help="structure of H^i_I(A) from a Betti profile"
    )
    p_pred.add_argument("--catalog", metavar="NAME", help="catalog profile or hypersurface")
    p_pred.set_defaults(func=cmd_predict)

    p_dr = sub.add_parser(
        "derham", parents=[common], help="de Rham dimension table of a module"
    )
    p_dr.add_argument(
        "--kind", choices=("R", "E", "loc", "loc-quot", "rank-one"), help="module family"
    )
    p_dr.add_argument("--f", metavar="EXPR", help="polynomial (or connection p for rank-one)")
    p_dr.add_argument("--vars", type=int, metavar="N", help="ambient variable count")
    p_dr.add_argument(
        "--prec", type=int, metavar="K",
        help="series precision (rank-one; default max(12, deg p + 3))",
    )
    p_dr.add_argument(
        "--pole-cutoff", type=int, metavar="K", help="pole-order cutoff (default 6)"
    )
    p_dr.add_argument("--catalog", metavar="NAME", help="use a built-in hypersurface")
    p_dr.set_defaults(func=cmd_derham)

    p_dec = sub.add_parser(
        "decompose", parents=[common], help="split f along a regular operator"
    )
    p_dec.add_argument("--p", metavar="EXPR", help="operator expression, e.g. 'x*d0'")
    p_dec.add_argument("--f", metavar="EXPR", help="polynomial to decompose")
    p_dec.add_argument("--vars", type=int, metavar="N", help="ambient variable count")
    p_dec.add_argument("--prec", type=int, metavar="K", help="m_B-adic precision (default 6)")
    p_dec.set_defaults(func=cmd_decompose)

    p_ver = sub.add_parser(
        "verify", parents=[common], help="run a cross-validation suite"
    )
    p_ver.add_argument(
        "suite",
        choices=(*_SUITES, "all"),
        help="which suite to run",
    )
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
