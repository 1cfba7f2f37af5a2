"""Decomposition of power series along a regular differential operator.

Setting: operators P = sum_i a_i d^i in the distinguished first variable x,
with polynomial coefficients over the remaining variables (collectively B;
its maximal ideal m_B is generated by those variables).  The top coefficient
must contain a pure power of x, i.e. some x-power whose B-coefficient is a
unit.  For such operators every series f splits as

    f = e_0 + e_1 x + ... + e_{s-1} x^{s-1} + P(sum_l b_l x^l),

and this module computes the e's and b's to a requested m_B-adic precision K.

The algorithm is an ascending triangular solve repeated K times.  Expanding
P(x^l) = sum_m c_{l,m} x^m, regularity gives three facts for l past a
computable threshold l0: nothing appears below x^(l-r), the band of width t
above that point has coefficients in m_B, and the pivot coefficient
c_{l, l-r+t} is a unit whose constant term is the indicial value g(l).
Each sweep walks the tracked x-positions upward: below position s = l0-r+t
the residual coefficient is banked into e; at position j >= s it is
cancelled exactly by the generator l = j+r-t using the series inverse of the
pivot.  Cancellation throws dust t positions down, but only with one extra
order of m_B (that is the band condition), so after K sweeps the residual
vanishes identically at precision K.  Unit-coefficient spill upward is
cancelled later within the same sweep.

The sweep is fraction-free (Bareiss, Math. Comp. 1968).  Every residual
position, e-part and b-part is held as int numerators over one denominator,
with zeros dropped and the common gcd divided out.  Expansion columns and
pivot inverses are scaled to integers once per call; each product is
accumulated as ints truncated below K by the kernel of :mod:`socle.poly`
and merged over the lcm of the two denominators.  ``Fraction`` terms are
built only once per e-part and b-part, when the result is handed out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import DimensionMismatch, DomainError, InternalCheckError
from .poly import MultiPoly, _accumulate, _scaled
from .series import TruncatedSeries
from .weyl import WeylOp, _left_coefficients


@dataclass(eq=False, frozen=True)
class RegularOperator:
    """P = sum a_i d^i with polynomial coefficients; d is in the first variable."""

    n_vars: int
    coeffs: Tuple[MultiPoly, ...]  # a_0 .. a_r

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if self.n_vars < 1:
            raise DomainError("need at least one variable")
        if not self.coeffs:
            raise DomainError("an operator needs at least one coefficient")
        for a in self.coeffs:
            if a.n_vars != self.n_vars:
                raise DimensionMismatch("coefficient over the wrong variable count")
        top = self.coeffs[-1]
        if not top:
            raise DomainError("top coefficient must be nonzero")
        if not any(sl.constant_term() for sl in top.x0_slices().values()):
            raise DomainError(
                "top coefficient needs a pure power of the distinguished variable"
            )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_weyl(cls, op: WeylOp) -> "RegularOperator":
        if not op:
            raise DomainError("the zero operator cannot be regular")
        if any(i != 0 for i in op.d_vars_used()):
            raise DomainError("only the first variable's partial may appear")
        return cls(op.n_vars, tuple(_left_coefficients(op)))

    def to_weyl(self) -> WeylOp:
        d = WeylOp.d_gen(self.n_vars, 0)
        out = WeylOp.zero(self.n_vars)
        for i, a in enumerate(self.coeffs):
            if a:
                out = out + WeylOp.from_poly(a) * (d ** i)
        return out


@dataclass(frozen=True)
class OperatorAnalysis:
    """The combinatorial data controlling a decomposition.

    t: offset of the first unit band in the expansion coefficients;
    lambdas: constant terms above x^t in each a_i x^(r-i);
    g_coeffs: the indicial polynomial g(l) = sum_i lambda_i l(l-1)...(l-i+1),
    ascending coefficients;
    largest_root: largest nonnegative integer root of g, if any;
    ell0: first generator index (past every root, at least r);
    s: number of plain series coefficients e_0..e_{s-1}.
    """

    t: int
    lambdas: Tuple[Fraction, ...]
    g_coeffs: Tuple[Fraction, ...]
    largest_root: Optional[int]
    ell0: int
    s: int

    def g_at(self, ell: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.g_coeffs):
            acc = acc * ell + c
        return acc


def _falling_poly(i: int) -> List[Fraction]:
    """Coefficients of l(l-1)...(l-i+1), ascending."""
    coeffs = [Fraction(1)]
    for k in range(i):
        shifted = [Fraction(0)] + coeffs  # multiply by l
        for idx, c in enumerate(coeffs):
            shifted[idx] -= k * c  # minus k times
        coeffs = shifted
    return coeffs


def _integer_roots(coeffs: Sequence[Fraction]) -> List[int]:
    """Nonnegative integer roots of a rational polynomial, by bounded scan."""
    denom = 1
    for c in coeffs:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        raise DomainError("the zero polynomial has every root")
    lead = abs(ints[-1])
    bound = 1 + max(abs(c) for c in ints) // lead
    roots = []
    for ell in range(0, bound + 1):
        acc = 0
        for c in reversed(ints):
            acc = acc * ell + c
        if acc == 0:
            roots.append(ell)
    return roots


def analyze_operator(p: RegularOperator) -> OperatorAnalysis:
    """Extract the band offset, indicial polynomial, and thresholds of P."""
    r = p.order
    # slices of a_i x^(r-i) along powers of x
    shifted_slices: List[Dict[int, MultiPoly]] = []
    for i, a in enumerate(p.coeffs):
        shift = r - i
        shifted_slices.append({j + shift: sl for j, sl in a.x0_slices().items()})
    t = None
    top = max((max(sl) for sl in shifted_slices if sl), default=0)
    for j in range(top + 1):
        if any(sl.get(j) is not None and sl[j].constant_term() for sl in shifted_slices):
            t = j
            break
    if t is None:
        raise InternalCheckError("no unit band despite the constructor invariant")
    lambdas = tuple(
        sl.get(t, MultiPoly.zero(p.n_vars)).constant_term() for sl in shifted_slices
    )
    g = [Fraction(0)]
    for i, lam in enumerate(lambdas):
        if not lam:
            continue
        fp = _falling_poly(i)
        if len(g) < len(fp):
            g += [Fraction(0)] * (len(fp) - len(g))
        for idx, c in enumerate(fp):
            g[idx] += lam * c
    if not any(g):
        raise InternalCheckError("indicial polynomial vanished; lambdas cannot all be zero")
    roots = _integer_roots(g)
    largest = max(roots) if roots else None
    ell0 = max(r, (largest + 1) if largest is not None else 0)
    return OperatorAnalysis(
        t=t,
        lambdas=lambdas,
        g_coeffs=tuple(g),
        largest_root=largest,
        ell0=ell0,
        s=ell0 - r + t,
    )


def expansion_coeffs(p: RegularOperator, ell: int) -> Dict[int, MultiPoly]:
    """x-power coefficients of P(x^ell): {m: c_{ell,m}} with c in B."""
    if ell < p.order:
        raise DomainError("expansion coefficients are defined from the operator order up")
    out: Dict[int, MultiPoly] = {}
    for i, a in enumerate(p.coeffs):
        if not a:
            continue
        fall = math.perm(ell, i)
        for j, sl in a.x0_slices().items():
            m = j + ell - i
            contribution = sl * fall
            if m in out:
                out[m] = out[m] + contribution
            else:
                out[m] = contribution
    return {m: c for m, c in out.items() if c}


def expansion_condition_report(p: RegularOperator, analysis: OperatorAnalysis, ell: int) -> dict:
    """Check the three regularity conditions of the expansion at one index.

    (support) nothing below x^(ell - r); (band) the t coefficients above
    that are in m_B; (pivot) the coefficient at x^(ell - r + t) is a unit
    with constant term g(ell).
    """
    return _condition_report(p, analysis, ell, expansion_coeffs(p, ell))


def _condition_report(
    p: RegularOperator, analysis: OperatorAnalysis, ell: int, coeffs: Dict[int, MultiPoly]
) -> dict:
    """``expansion_condition_report`` from the expansion coefficients of
    P(x^ell), already computed."""
    low = ell - p.order
    support_ok = all(m >= low for m in coeffs)
    band_ok = all(
        not coeffs.get(m, MultiPoly.zero(p.n_vars)).constant_term()
        for m in range(low, low + analysis.t)
    )
    pivot = coeffs.get(low + analysis.t, MultiPoly.zero(p.n_vars))
    pivot_const = pivot.constant_term()
    return {
        "ell": ell,
        "support_ok": support_ok,
        "band_ok": band_ok,
        "pivot_unit": bool(pivot_const),
        "pivot_matches_indicial": pivot_const == analysis.g_at(ell),
    }


# ------------------------------------------------------------- decomposition

# The sweep holds a truncated B-series as a pair (nums, den): int numerators
# keyed by exponent over one positive denominator, as ``poly._scaled`` gives.
_Scaled = Tuple[Dict[Tuple[int, ...], int], int]


def _primitive(nums: Dict[Tuple[int, ...], int], den: int) -> _Scaled:
    """(nums, den) with zero numerators dropped and the gcd of the rest and
    den divided out, so that the integers stay small."""
    nums = {e: v for e, v in nums.items() if v}
    g = math.gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {e: v // g for e, v in nums.items()}, den // g


def _merge(a: _Scaled, b: _Scaled, sign: int) -> _Scaled:
    """a + sign * b, over the lcm of the two denominators."""
    (a_nums, a_den), (b_nums, b_den) = a, b
    den = math.lcm(a_den, b_den)
    a_scale, b_scale = den // a_den, sign * (den // b_den)
    out = {e: v * a_scale for e, v in a_nums.items()}
    get = out.get
    for e, v in b_nums.items():
        out[e] = get(e, 0) + v * b_scale
    return _primitive(out, den)


@dataclass(frozen=True)
class Decomposition:
    """Result of splitting f into plain coefficients and operator range."""

    operator: RegularOperator
    analysis: OperatorAnalysis
    precision: int
    x_window: int
    e: Tuple[TruncatedSeries, ...]
    b: Dict[int, TruncatedSeries]
    sweep_valuations: Tuple[float, ...]

    @property
    def e_valuations(self) -> Tuple[float, ...]:
        return tuple(v.valuation() for v in self.e)

    @property
    def b_valuations(self) -> Dict[int, float]:
        return {ell: v.valuation() for ell, v in self.b.items()}

    def reconstruction(self) -> Dict[int, MultiPoly]:
        """Re-expand e + P(sum b) via the operator action, as x-slices.

        This is an independent route (through the operator algebra, not the
        cached expansion columns); slices beyond the tracked window are
        dropped.
        """
        op = self.operator.to_weyl()
        n = self.operator.n_vars
        total = MultiPoly.zero(n)
        for i, ei in enumerate(self.e):
            total = total + ei.poly_part() * MultiPoly.monomial(n, (i,) + (0,) * (n - 1))
        for ell, bl in self.b.items():
            mono = MultiPoly.monomial(n, (ell,) + (0,) * (n - 1))
            total = total + op.act_on_poly(bl.poly_part() * mono)
        out: Dict[int, MultiPoly] = {}
        for j, sl in total.x0_slices().items():
            if j <= self.x_window:
                out[j] = sl
        return out

    def to_json(self) -> dict:
        def val_or_null(v):
            return None if v == math.inf else v

        return {
            "schema": 1,
            "precision": self.precision,
            "x_window": self.x_window,
            "t": self.analysis.t,
            "s": self.analysis.s,
            "ell0": self.analysis.ell0,
            "e": [series.poly_part().render() for series in self.e],
            "b": {str(ell): self.b[ell].poly_part().render() for ell in sorted(self.b)},
            "e_valuations": [val_or_null(v) for v in self.e_valuations],
            "b_valuations": {str(ell): val_or_null(v) for ell, v in sorted(self.b_valuations.items())},
        }


def decompose(
    f: Union[MultiPoly, TruncatedSeries],
    p: RegularOperator,
    precision: int,
) -> Decomposition:
    """Split f as e-part plus P(b-part), exact to m_B-order `precision`.

    The tracked x-degree range is precision * t + deg_x f + order, wide
    enough that f and every correction with visible effect stay inside.
    """
    if precision < 1:
        raise DomainError("precision must be at least 1")
    if isinstance(f, TruncatedSeries):
        f = f.poly_part()
    if not isinstance(f, MultiPoly):
        raise DomainError("f must be a polynomial or truncated series")
    if f.n_vars != p.n_vars:
        raise DimensionMismatch("f lives over a different variable count")

    analysis = analyze_operator(p)
    r, t, s, ell0 = p.order, analysis.t, analysis.s, analysis.ell0
    n = p.n_vars
    K = precision

    deg_f = f.degree_in(0) if f else 0
    window = K * t + deg_f + r

    def scaled(c: MultiPoly) -> _Scaled:
        return _scaled(TruncatedSeries.from_poly(c, K).terms)

    def product(a: _Scaled, b: _Scaled) -> _Scaled:
        return _accumulate(a[0], b[0], below=K), a[1] * b[1]

    zero: _Scaled = ({}, 1)
    # residual coefficients, one truncated B-series per tracked x-power
    residual: List[_Scaled] = [zero] * (window + 1)
    for j, sl in f.x0_slices().items():
        residual[j] = scaled(sl)

    # expansion columns and pivot inverses for every generator the sweep can touch
    max_ell = window + r - t
    columns: Dict[int, Dict[int, _Scaled]] = {}
    inverses: Dict[int, _Scaled] = {}
    for ell in range(ell0, max_ell + 1):
        col = expansion_coeffs(p, ell)
        report = _condition_report(p, analysis, ell, col)
        if not (report["support_ok"] and report["band_ok"] and report["pivot_unit"]):
            raise DomainError(
                f"operator fails its expansion conditions at generator index {ell}: {report}"
            )
        columns[ell] = {m: scaled(c) for m, c in col.items() if m <= window}
        inverses[ell] = _scaled(TruncatedSeries.from_poly(col[ell - r + t], K).invert().terms)

    e_parts: List[_Scaled] = [zero] * s
    b_parts: Dict[int, _Scaled] = {}
    sweep_vals: List[float] = []

    for sweep in range(1, K + 1):
        sweep_min = math.inf
        for j in range(window + 1):
            gamma = residual[j]
            if not gamma[0]:
                continue
            v = min(map(sum, gamma[0]))
            if v < sweep - 1:
                raise InternalCheckError(
                    f"coherence failure: sweep {sweep} found valuation {v} at position {j}"
                )
            sweep_min = min(sweep_min, v)
            if j < s:
                e_parts[j] = _merge(e_parts[j], gamma, 1)
                residual[j] = zero
                continue
            ell = j + r - t
            delta = _primitive(*product(gamma, inverses[ell]))
            b_parts[ell] = _merge(b_parts.get(ell, zero), delta, 1)
            for m, c in columns[ell].items():
                residual[m] = _merge(residual[m], product(delta, c), -1)
            if residual[j][0]:
                raise InternalCheckError("pivot cancellation was not exact")
        sweep_vals.append(sweep_min)
        if sweep_min == math.inf:
            break  # residual already empty; later sweeps are no-ops

    if any(nums for nums, _ in residual):
        raise InternalCheckError("residual survived all sweeps at the stated precision")

    def series(part: _Scaled) -> TruncatedSeries:
        nums, den = part
        return TruncatedSeries._trusted(n, K, {e: Fraction(v, den) for e, v in nums.items()})

    return Decomposition(
        operator=p,
        analysis=analysis,
        precision=K,
        x_window=window,
        e=tuple(series(v) for v in e_parts),
        b={ell: series(v) for ell, v in sorted(b_parts.items()) if v[0]},
        sweep_valuations=tuple(sweep_vals),
    )


def valuation_growth_probe(
    p: RegularOperator,
    m_values: Sequence[int],
    precision: int,
) -> List[dict]:
    """Decompose f = x^m for growing m and watch the e-part valuations climb.

    For band offset t >= 1 the plain part can only be reached after roughly
    (m - s)/t corrective sweeps, so its m_B-valuation is at least
    floor((m - s)/t) - 1; entries whose e-part is zero to the working
    precision report valuation infinity, which satisfies the bound vacuously.
    """
    analysis = analyze_operator(p)
    if analysis.t < 1:
        raise DomainError("the growth probe needs a band offset of at least 1")
    rows = []
    for m in m_values:
        if m < 0:
            raise DomainError("x-powers are nonnegative")
        f = MultiPoly.monomial(p.n_vars, (m,) + (0,) * (p.n_vars - 1))
        dec = decompose(f, p, precision)
        vals = [v for v in dec.e_valuations]
        min_val = min(vals) if vals else math.inf
        bound = (m - analysis.s) // analysis.t - 1 if m >= analysis.s else 0
        rows.append(
            {
                "m": m,
                "min_e_valuation": min_val,
                "bound": bound,
                "within_bound": min_val >= bound,
            }
        )
    return rows
