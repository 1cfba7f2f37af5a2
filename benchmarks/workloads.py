"""Seeded op lists for the three benchmark workloads.

Every op computes an answer with one engine and checks it against an
independent route:

- ``hypersurface``: the five catalog hypersurfaces in ``loc-quot`` mode at
  their default cutoffs, through the truncated pole-order complex, against
  the Betti-table prediction.  Elimination dominates (25 rank calls per op,
  2-3x fill-in, coefficients up to 68 bits).  The Fermat cubic surface is left
  out on purpose: at 91 s it would not fit a run.
- ``monomial``: every monomial localization ``R[1/x_S]`` and the injective
  hull ``E`` for n = 1..4 at pole cutoff 4, through the same engine, against
  the closed forms.  About 720 small rank calls per pass, so assembly
  dominates and per-call overhead of an elimination backend shows.
- ``series``: seeded random f (ten terms, x-degree <= 8, B-degree <= 3)
  split along fixed regular operators, checked by re-expanding through the
  operator action and by the product identity ``b*q = P(b) + d*R``.  No linear algebra and no de Rham code runs, so it is
  the bypass workload for every elimination and assembly change.

The seed permutes the op order and draws the series inputs; the library only
ever sees the generated inputs.  The functions here take the imported
``socle`` package as an argument and look every library function up on it
at call time, so the tracer can rebind those names.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Callable, List, NamedTuple, Tuple

WORKLOADS = ("hypersurface", "monomial", "series")

MONOMIAL_CUTOFF = 4
MONOMIAL_MAX_VARS = 4

# (operator, random f per precision).  Both operators have band offset
# t = 1; the first is second order in two variables and takes about twice as
# long per op as the second, first order in three.  Op times cluster by
# operator and precision, and rank statistics must not sit on a gap between
# clusters, where they jump with noise: with 5 inputs of the cheap operator
# against 4 the median lands inside its precision-12 cluster, and the
# 11th-largest time of three or more passes inside the costly operator's.
SERIES_OPERATORS = (
    ("(x0 + x1)*d0^2 + x1*d0 + 3", 4),
    ("(x0 + x1 + x2)*d0 + x1*x2", 5),
)
SERIES_PRECISIONS = (10, 11, 12)
# (x-degree, B-degree) of the ten terms of every f: x-degree up to 8, B-degree
# up to 3, each pair once.
SERIES_SHAPE = tuple((k % 9, k % 4) for k in range(10))


class Op(NamedTuple):
    """One unit of work: ``compute`` returns (answer, certificate accepted);
    ``expect`` returns what the independent route says the answer is."""

    label: str
    compute: Callable[[], Tuple[object, bool]]
    expect: Callable[[], object]


def build(socle, workload: str, seed: int) -> List[Op]:
    """The op list of one pass of ``workload`` for ``seed``."""
    rng = random.Random(seed)
    if workload == "hypersurface":
        ops = _hypersurface_ops(socle)
    elif workload == "monomial":
        ops = _monomial_ops(socle)
    elif workload == "series":
        ops = _series_ops(socle, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def _hypersurface_ops(socle) -> List[Op]:
    ops = []
    for entry in socle.HYPERSURFACES.values():
        spec = socle.spec_from_json(
            {"kind": "loc-quot", "f": entry.f_text, "vars": entry.n_vars}
        )
        profile = socle.PROFILES[entry.profile_name].profile

        def compute(spec=spec, cutoff=entry.default_cutoff):
            dims, report = socle.derham_truncated(spec, cutoff)
            certified = (
                report.certificate == "stabilized"
                and report.stabilized
                and report.smooth is True
            )
            return list(dims), certified

        def expect(profile=profile):
            return list(socle.predict(profile).critical_dims)

        ops.append(Op(entry.name, compute, expect))
    return ops


def _monomial_ops(socle) -> List[Op]:
    specs = []
    for n in range(1, MONOMIAL_MAX_VARS + 1):
        for size in range(n + 1):
            for subset in combinations(range(n), size):
                if subset:
                    f = "*".join(f"x{i}" for i in subset)
                    specs.append((f"loc n={n} S={list(subset)}", {"kind": "loc", "f": f, "vars": n}))
                else:
                    specs.append((f"R n={n}", {"kind": "R", "vars": n}))
        specs.append((f"E n={n}", {"kind": "E", "vars": n}))

    ops = []
    for label, data in specs:
        spec = socle.spec_from_json(data)

        def compute(spec=spec):
            dims, report = socle.derham_truncated(spec, MONOMIAL_CUTOFF)
            return list(dims), report.certificate in ("exact", "stabilized")

        def expect(spec=spec):
            return list(socle.derham_closed_form(spec))

        ops.append(Op(label, compute, expect))
    return ops


def _random_series_input(socle, rng: random.Random, n: int):
    """Random coefficients, and a random split of each term's B-degree over
    the B variables, on the fixed (x-degree, B-degree) shape SERIES_SHAPE.

    The fixed shape keeps the cost of an op from swinging with the seed.
    """
    terms = {}
    for x_degree, b_degree in SERIES_SHAPE:
        b_exp = [0] * (n - 1)
        for _ in range(b_degree):
            b_exp[rng.randrange(n - 1)] += 1
        terms[(x_degree, *b_exp)] = rng.choice((-1, 1)) * rng.randint(1, 9)
    return socle.MultiPoly(n, terms)


def _series_slices(socle, slices: dict, precision: int) -> dict:
    """x-slices reduced mod m_B^precision, zero slices dropped."""
    out = {}
    for j, sl in slices.items():
        s = socle.TruncatedSeries.from_poly(sl, precision)
        if s:
            out[j] = s.terms
    return out


def _series_ops(socle, rng: random.Random) -> List[Op]:
    ops = []
    for text, inputs in SERIES_OPERATORS:
        n = socle.parse_operator(text).n_vars
        for precision in SERIES_PRECISIONS:
            for k in range(inputs):
                f = _random_series_input(socle, rng, n)

                def compute(text=text, n=n, f=f, precision=precision):
                    p_weyl = socle.parse_operator(text, n)
                    p = socle.RegularOperator.from_weyl(p_weyl)
                    dec = socle.decompose(f, p, precision)
                    answer = _series_slices(socle, dec.reconstruction(), precision)
                    ledger = all(
                        v >= sweep - 1
                        for sweep, v in enumerate(dec.sweep_valuations, start=1)
                    )
                    b = socle.MultiPoly.zero(n)
                    for ell, b_ell in dec.b.items():
                        x_ell = socle.MultiPoly.monomial(n, (ell,) + (0,) * (n - 1))
                        b = b + b_ell.poly_part() * x_ell
                    q = socle.formal_adjoint(p_weyl)
                    adjoint, _, residual = socle.check_euler_identity(q, b)
                    return answer, ledger and not residual and adjoint == p_weyl

                def expect(f=f, precision=precision):
                    return _series_slices(socle, f.x0_slices(), precision)

                ops.append(Op(f"P={text} K={precision} #{k}", compute, expect))
    return ops
