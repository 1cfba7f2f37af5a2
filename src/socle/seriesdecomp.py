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

The sweep is fraction-free (Bareiss, Math. Comp. 1968).  A B-series is
held as int numerators over one denominator, keyed by packed ints: the
total degree in the top digit, the B-exponents below it (``_pack``).  A
product of two keys is then one int addition, the truncation below K reads
the degree digit, and the least key carries the valuation.  Keys are packed
once, when f's slices, the columns and the pivot inverses come in, and
unpacked once, when the e- and b-series go out as ``Fraction`` terms.
When the sweep first reaches a generator, it checks the generator's
expansion conditions and scales its column, pivot and pivot inverse to
integers, once.  Each product is accumulated by the int kernel
of :mod:`socle.poly` and left as a pending piece at its x-position; the
pieces of a position are summed once, over the lcm of their denominators,
when the sweep visits it, and the e- and b-parts once at the end.  The sum
is made primitive (zeros dropped, gcd 1, denominator positive), so every
value the sweep reads has one canonical form.  The pivot cancellation is
checked exactly, by cross-multiplication of gamma and delta times the pivot.
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
        z = (0,) * (self.n_vars - 1)
        terms = {(e, (i,) + z): c for i, a in enumerate(self.coeffs) for e, c in a.terms.items()}
        return WeylOp._trusted(self.n_vars, terms)


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


def _integer_roots(coeffs: Sequence[Fraction], limit: Optional[int] = None) -> List[int]:
    """Nonnegative integer roots of a rational polynomial, by bounded scan;
    a scan bound above ``limit`` raises DomainError before the scan."""
    ints = list(_scaled(dict(enumerate(coeffs)))[0].values())
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        raise DomainError("the zero polynomial has every root")
    lead = abs(ints[-1])
    bound = 1 + max(abs(c) for c in ints) // lead
    if limit is not None and bound > limit:
        # past a machine word the digits say nothing the size does not
        shown = bound if bound.bit_length() <= 64 else f"of {bound.bit_length()} bits"
        raise DomainError(f"indicial root bound {shown} exceeds {limit}")
    roots = []
    for ell in range(0, bound + 1):
        acc = 0
        for c in reversed(ints):
            acc = acc * ell + c
        if acc == 0:
            roots.append(ell)
    return roots


def analyze_operator(p: RegularOperator, root_limit: Optional[int] = None) -> OperatorAnalysis:
    """Extract the band offset, indicial polynomial, and thresholds of P;
    ``root_limit`` bounds the scan for the indicial roots."""
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
    # g = sum_i lambda_i l(l-1)...(l-i+1); each falling factorial, as int
    # coefficients ascending, is the previous one times (l - i + 1)
    top = max((i for i, lam in enumerate(lambdas) if lam), default=0)
    g = [Fraction(0)] * (top + 1)
    falling = [1]
    for i, lam in enumerate(lambdas[: top + 1]):
        if i:
            falling = [0] + falling
            for idx in range(i):
                falling[idx] -= (i - 1) * falling[idx + 1]
        if lam:
            for idx, c in enumerate(falling):
                g[idx] += lam * c
    if not any(g):
        raise InternalCheckError("indicial polynomial vanished; lambdas cannot all be zero")
    roots = _integer_roots(g, root_limit)
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


def x_window(p: RegularOperator, t: int, f: MultiPoly, precision: int) -> int:
    """The last x-power ``decompose`` tracks for f at m_B-order ``precision``,
    with t the band offset of p: K*t + deg_x f + r, wide enough that f and
    every correction with visible effect stay inside."""
    return precision * t + f.degree_in(0) + p.order


# ------------------------------------------------------------- decomposition

# The sweep holds a truncated B-series as a pair (nums, den): int numerators
# over one positive denominator, as ``poly._scaled`` gives, keyed by packed
# B-monomials (``_pack``).
_Scaled = Tuple[Dict[int, int], int]


def _pack(exp: Tuple[int, ...], width: int) -> int:
    """The packed key of a B-monomial: the exponents of variables 1..m in
    digits of ``width`` bits, lowest first, and the total degree in the digit
    above them, from bit ``width * m`` up.  ``exp[0]``, the power of the
    distinguished variable, is 0 and not stored.

    Keys add as exponents do while no digit reaches 2^width; below precision
    K with width ``(2K).bit_length()`` the digits of a product of two keys
    stay under 2K.  Keys order by total degree first, so ``min(keys) >>
    (width * m)`` is the valuation."""
    key = sum(exp) << (width * (len(exp) - 1))
    for i, e in enumerate(exp[1:]):
        key += e << (width * i)
    return key


def _unpack(key: int, width: int, n_vars: int) -> Tuple[int, ...]:
    """The exponent tuple of a key ``_pack`` made, over ``n_vars`` variables."""
    mask = (1 << width) - 1
    return (0,) + tuple((key >> (width * i)) & mask for i in range(n_vars - 1))


def _primitive(nums: Dict[int, int], den: int) -> _Scaled:
    """(nums, den) with zero numerators dropped and the gcd of the rest and
    den divided out, so that the integers stay small."""
    nums = {e: v for e, v in nums.items() if v}
    g = math.gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {e: v // g for e, v in nums.items()}, den // g


def _merge(pieces: Sequence[_Scaled]) -> _Scaled:
    """The sum of the pieces, over the lcm of their denominators, made
    primitive: one canonical pair (den > 0, gcd 1) for each sum of values."""
    if len(pieces) == 1:
        return _primitive(*pieces[0])
    den = math.lcm(*(d for _, d in pieces))
    out: Dict[int, int] = {}
    get = out.get
    for nums, d in pieces:
        scale = den // d
        for e, v in nums.items():
            out[e] = get(e, 0) + v * scale
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
        dropped.  The e_i and b_l are series in B, so the terms of
        sum e_i x^i, and those of sum b_l x^l, never share a key: both are
        plain term dicts, and ``act_on_poly`` applies P to the second.
        """
        n = self.operator.n_vars
        e = MultiPoly._trusted(n, {(i,) + k[1:]: c for i, s in enumerate(self.e) for k, c in s.terms.items()})
        b = MultiPoly._trusted(n, {(j,) + k[1:]: c for j, s in self.b.items() for k, c in s.terms.items()})
        total = self.operator.to_weyl().act_on_poly(b) + e
        return {j: sl for j, sl in total.x0_slices().items() if j <= self.x_window}

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
    """Split f as e-part plus P(b-part), exact to m_B-order `precision`,
    over the x-powers 0..``x_window``."""
    if precision < 1:
        raise DomainError("precision must be at least 1")
    if isinstance(f, TruncatedSeries):
        f = f.poly_part()
    if not isinstance(f, MultiPoly):
        raise DomainError("f must be a polynomial or truncated series")
    if f.n_vars != p.n_vars:
        raise DimensionMismatch("f lives over a different variable count")

    analysis = analyze_operator(p)
    r, t, s = p.order, analysis.t, analysis.s
    n = p.n_vars
    K = precision

    window = x_window(p, t, f, K)
    width = (2 * K).bit_length()
    shift = width * (n - 1)

    def scaled(terms: Dict[Tuple[int, ...], Fraction], sign: int = 1) -> _Scaled:
        nums, den = _scaled(terms)
        return {_pack(e, width): sign * v for e, v in nums.items()}, den

    def truncated(c: MultiPoly, sign: int = 1) -> _Scaled:
        return scaled(TruncatedSeries.from_poly(c, K).terms, sign)

    def product(a: _Scaled, b: _Scaled) -> _Scaled:
        return _accumulate(a[0], b[0], below=K, shift=shift), a[1] * b[1]

    # the pieces still to be summed at each tracked x-power; the sweep sums
    # a position's pieces when it visits it
    pending: List[List[_Scaled]] = [[] for _ in range(window + 1)]
    for j, sl in f.x0_slices().items():
        pending[j].append(truncated(sl))

    # a generator's expansion conditions are checked, and its scaled column
    # (negated, pivot apart), pivot and pivot inverse built, when the sweep
    # first reaches it
    generators: Dict[int, Tuple[List[Tuple[int, _Scaled]], _Scaled, _Scaled]] = {}

    e_parts: List[List[_Scaled]] = [[] for _ in range(s)]
    b_parts: Dict[int, List[_Scaled]] = {}
    sweep_vals: List[float] = []

    for sweep in range(1, K + 1):
        sweep_min = math.inf
        for j in range(window + 1):
            pieces = pending[j]
            if not pieces:
                continue
            pending[j] = []
            gamma = _merge(pieces)
            g_nums, g_den = gamma
            if not g_nums:
                continue
            v = min(g_nums) >> shift
            if v < sweep - 1:
                raise InternalCheckError(
                    f"coherence failure: sweep {sweep} found valuation {v} at position {j}"
                )
            sweep_min = min(sweep_min, v)
            if j < s:
                e_parts[j].append(gamma)
                continue
            ell = j + r - t
            if ell not in generators:
                col = expansion_coeffs(p, ell)
                report = _condition_report(p, analysis, ell, col)
                if not (report["support_ok"] and report["band_ok"] and report["pivot_unit"]):
                    raise DomainError(
                        f"operator fails its expansion conditions at generator index {ell}: {report}"
                    )
                generators[ell] = (
                    [(m, truncated(c, -1)) for m, c in col.items() if m <= window and m != j],
                    truncated(col[j]),
                    scaled(TruncatedSeries.from_poly(col[j], K).invert().terms),
                )
            column, pivot, inverse = generators[ell]
            delta = _primitive(*product(gamma, inverse))
            b_parts.setdefault(ell, []).append(delta)
            for m, c in column:
                pending[m].append(product(delta, c))
            # gamma - delta * pivot is what the sweep leaves at j: it must be 0
            back_nums, back_den = product(delta, pivot)
            back_nums = {e: v for e, v in back_nums.items() if v}
            if back_nums.keys() != g_nums.keys() or any(
                v * g_den != g_nums[e] * back_den for e, v in back_nums.items()
            ):
                raise InternalCheckError("pivot cancellation was not exact")
        sweep_vals.append(sweep_min)
        if sweep_min == math.inf:
            break  # residual already empty; later sweeps are no-ops

    if any(_merge(pieces)[0] for pieces in pending if pieces):
        raise InternalCheckError("residual survived all sweeps at the stated precision")

    def series(pieces: List[_Scaled]) -> TruncatedSeries:
        nums, den = _merge(pieces)
        return TruncatedSeries._trusted(
            n, K, {_unpack(e, width, n): Fraction(v, den) for e, v in nums.items()}
        )

    b = {ell: series(pieces) for ell, pieces in sorted(b_parts.items())}
    return Decomposition(
        operator=p,
        analysis=analysis,
        precision=K,
        x_window=window,
        e=tuple(series(pieces) for pieces in e_parts),
        b={ell: v for ell, v in b.items() if v},
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
