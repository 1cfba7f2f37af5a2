"""Decomposition of power series along a regular differential operator.

Setting: operators P = sum_i a_i d^i in the distinguished first variable x,
with polynomial coefficients over the remaining variables (collectively B;
its maximal ideal m_B is generated by those variables).  The top coefficient
must contain a pure power of x, i.e. some x-power whose B-coefficient is a
unit.  For such operators every series f splits as

    f = e_0 + e_1 x + ... + e_{s-1} x^{s-1} + P(sum_l b_l x^l),

and this module computes the e's and b's to a requested m_B-adic precision K.

Expanding P(x^l) = sum_m c_{l,m} x^m, regularity gives three facts for l
past a computable threshold l0: nothing appears below x^(l-r), the band of
width t above that point has coefficients in m_B, and the pivot coefficient
c_{l, l-r+t} is a unit whose constant term is the indicial value g(l).

The split is unique in the tracked box.  Take the x-positions 0..window
(``x_window``) and the M B-monomials below m_B^K.  The unknowns are the
e-coefficients at positions j < s = l0-r+t and the b-coefficients of the
generators l = j+r-t for j = s..window: one unknown series per position,
(window+1)*M unknowns, as many as the equations.  Order each unknown by its
pivot position (i for e_i, l-r+t for b_l).  The column of b_l has nothing
below its pivot but the band, which is in m_B, and its pivot has the
constant term g(l) != 0; the column of e_i is x^i alone.  So modulo m_B the
system is triangular with a unit diagonal, its determinant is a unit of the
local ring B/m_B^K, and it has exactly one solution there: any split that
is exact mod m_B^K on the box is the split.

The algorithm solves it one B-degree at a time.  Sweep k walks the tracked
x-positions upward and clears the B-degree-(k-1) part gamma of the residual
at each: below s it is banked into e; at a position j >= s it is divided by
the scalar g(l), l = j+r-t, into delta, a degree-(k-1) part of b_l.  The
rest of the column of P(x^l), times delta, is spilled where it lands: the
band (degree >= k, so behind j only at higher degree), the pivot's terms of
positive degree (at j, degree >= k), and the entries above the pivot (past
j, visited later in the same sweep).  No degree-(k-1) piece lands at or
behind j, so after sweep k the residual lies in m_B^k, and after K sweeps
it vanishes at precision K.  No series is inverted.

``sweep_valuations`` is the ledger: entry k is the least B-degree left in
the residual when sweep k starts, and an ``inf`` entry, a zero residual,
ends it.  That residual is f - sum e_i^{<k-1} x^i - P(sum b_l^{<k-1} x^l)
on the box mod m_B^K, where ^{<d} keeps the terms of B-degree below d, so
the ledger depends on f, e and b alone.  It is at least k-1.

The sweep is fraction-free (Bareiss, Math. Comp. 1968).  A homogeneous part
is held as int numerators over one denominator, keyed by ``poly._pack``
ints: the B-exponents, then the total degree in the top digit, so keys
order by degree.  A product of two keys is then one int addition.  f's
terms and the operator's are packed once, split by B-degree; the
operator's are scaled to ints over one denominator.  A generator's column
is built once, when the sweep first reaches it, from those terms with the
weights perm(l, i), each entry's terms sorted once, and its expansion
conditions are checked there.  g(l) is evaluated on ints too: the
indicial coefficients are scaled once per call to ints over one
denominator, g(l) = g_num / g_den with g_num an int Horner, the pivot is
checked against it by cross-multiplication, and 1/g(l) = g_den / g_num is
put in lowest terms by one gcd, its sign in the numerator.  Each
(x-position, B-degree) has one cell: int numerators over the lcm of the
denominators of what landed there.  A product delta * c is summed into
its cell in place, term by term, and the cell is rescaled only when the
product's denominator grows that lcm.  When the sweep visits a cell it
makes it primitive once (zeros dropped, gcd 1, denominator positive), so
every value the sweep reads has one canonical form; the visited cell was
popped from its level, so its dict is divided in place, and a new dict is
made only when some numerator is 0.  delta = gamma / g(l) takes two small
gcds: with gamma primitive and 1/g(l) = p/q in lowest terms, the content
of gamma * p/q is gcd(p, den of gamma) * gcd(q, numerators of gamma),
proved prime by prime in ``_divide``.  Each division by g(l) is checked
exactly, by cross-multiplication of delta * g(l) against gamma.
``Fraction``s are built only for the answer, each packed key unpacked once
per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, DomainError, InternalCheckError
from .poly import MultiPoly, _pack, _scaled, _sum_terms, _unpack
from .series import TruncatedSeries
from .weyl import WeylOp, _act, _left_coefficients


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


#: largest precision, tracked x-window and indicial root bound of
#: ``decompose`` (one variable: x*d0 on x^9993 takes a few milliseconds)
DECOMPOSE_MAX = 10_000
#: largest estimated sweep size of ``decompose``: the tracked x-window times
#: the pairs of B-monomials whose degrees sum below the precision.  It leaves
#: out the operator order, which raises the cost per unit: at the bound
#: (x+y)^6*d0^7+y*d0^2+(x+y)*d0+3 on x^8*y^3+x^2*y+y^5 (precision 31), the
#: costliest input measured, takes about 2.1 s, and (x+y)*d0^2+y*d0+3 on
#: x^8*y^3+x^2*y (precision 54) 0.2 s (2-core x86-64, Python 3.11)
DECOMPOSE_SIZE_MAX = 100_000


def _integer_roots(coeffs: Sequence[Fraction]) -> List[int]:
    """Nonnegative integer roots of a rational polynomial, by bounded scan;
    a scan bound above ``DECOMPOSE_MAX`` raises DomainError before the scan."""
    ints = list(_scaled(dict(enumerate(coeffs)))[0].values())
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        raise DomainError("the zero polynomial has every root")
    lead = abs(ints[-1])
    bound = 1 + max(abs(c) for c in ints) // lead
    if bound > DECOMPOSE_MAX:
        # past a machine word the digits say nothing the size does not
        shown = bound if bound.bit_length() <= 64 else f"of {bound.bit_length()} bits"
        raise DomainError(f"indicial root bound {shown} exceeds {DECOMPOSE_MAX}")
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
    coeffs = expansion_coeffs(p, ell)
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

# The sweep holds a homogeneous B-polynomial as a pair (nums, den): int
# numerators over one positive denominator, as ``poly._scaled`` gives, keyed
# by packed B-monomials (``_pack``).
_Scaled = Tuple[Dict[int, int], int]


def _primitive(nums: Dict[int, int], den: int) -> _Scaled:
    """(nums, den) with zero numerators dropped and the gcd of the rest and
    den divided out, so that the integers stay small.

    ``nums`` is a dict nothing else holds, a cell popped from its level or
    a column entry being built, so the gcd is divided out in place; a new
    dict is made only when some numerator is 0."""
    if 0 in nums.values():
        nums = {e: v for e, v in nums.items() if v}
    g = math.gcd(den, *nums.values())
    if g > 1:
        for e in nums:
            nums[e] //= g
        den //= g
    return nums, den


def _cell_scale(cell: List, den: int) -> int:
    """The factor that puts a piece over ``den`` on the denominator of the
    cell [nums, cell_den]; when ``den`` does not divide it, the cell first
    moves to their lcm, its numerators rescaled in place."""
    nums, cell_den = cell
    if cell_den % den:
        grown = cell_den // math.gcd(cell_den, den) * den
        up = grown // cell_den
        for e in nums:
            nums[e] *= up
        cell[1] = cell_den = grown
    return cell_den // den


def _divide(nums: Dict[int, int], den: int, inv_num: int, inv_den: int) -> _Scaled:
    """The primitive pair of (nums / den) * (inv_num / inv_den), for a
    primitive pair (nums, den) with no zero numerator and a nonzero
    inv_num / inv_den in lowest terms (inv_den > 0).

    Its content, the gcd of den * inv_den and every v * inv_num, is
    gcd(inv_num, den) * gcd(inv_den, *nums).  Prime by prime, with a, b, c,
    e the valuations of gcd(*nums), inv_num, den and inv_den, the content's
    valuation is min(a + b, c + e), where min(a, c) = 0 (primitive) and
    min(b, e) = 0 (lowest terms).  It equals min(b, c) + min(e, a) in each
    of the four cases that leaves: a = b = 0 gives 0 on both sides, a = e =
    0 gives min(b, c), c = b = 0 gives min(a, e), and c = e = 0 gives 0.
    Both gcds start from an entry of the small inverse, so no gcd pairs two
    of the pair's large integers."""
    g_num, g_den = math.gcd(inv_num, den), math.gcd(inv_den, *nums.values())
    inv_num //= g_num
    return {e: v // g_den * inv_num for e, v in nums.items()}, den // g_num * (inv_den // g_den)


@dataclass(frozen=True)
class Decomposition:
    """Result of splitting f into plain coefficients and operator range.

    e[i] and b[l] are the unique split of f on the x-powers 0..x_window
    mod m_B^precision; sweep_valuations[k-1] is the least B-degree of the
    residual left by the parts of e and b below B-degree k-1, ending at the
    first ``inf`` (see the module docstring).
    """

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
        sum e_i x^i, and those of sum b_l x^l, never share a key.  P is
        applied to the second by ``weyl._act``, the kernel that
        ``act_on_poly`` wraps, on both scaled to ints; a term past the
        window is dropped there, on its packed key (the x-power is the
        lowest digit), before any ``Fraction`` is built, and the e_i are
        added slice by slice.  The terms come in the order of
        ``act_on_poly(b) + e`` split by ``x0_slices``.
        """
        n, window = self.operator.n_vars, self.x_window
        ops, den = _scaled(self.operator.to_weyl().terms)
        b, b_den = _scaled({(j,) + k[1:]: c for j, s in self.b.items() for k, c in s.terms.items()})
        width, (terms,) = _act(b, ops)
        den *= b_den
        mask = (1 << width) - 1
        slices: Dict[int, Dict[Tuple[int, ...], Fraction]] = {}
        for k, v in terms.items():
            j = k & mask
            if v and j <= window:
                slices.setdefault(j, {})[_unpack(k - j, width, n)] = Fraction(v, den)
        for i, s in enumerate(self.e[: window + 1]):
            slices[i] = _sum_terms(slices.get(i, {}), {(0,) + k[1:]: c for k, c in s.terms.items()}, 1)
        return {j: MultiPoly._trusted(n, sl) for j, sl in sorted(slices.items()) if sl}

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


def decompose(f: MultiPoly, p: RegularOperator, precision: int) -> Decomposition:
    """Split the polynomial f as e-part plus P(b-part), exact to m_B-order
    `precision`, over the x-powers 0..``x_window``; an input past
    ``DECOMPOSE_MAX`` or ``DECOMPOSE_SIZE_MAX`` raises DomainError first."""
    if precision < 1:
        raise DomainError("precision must be at least 1")
    if not isinstance(f, MultiPoly):
        raise DomainError("f must be a polynomial")
    if f.n_vars != p.n_vars:
        raise DimensionMismatch("f lives over a different variable count")

    # the indicial polynomial takes about r(r+1)/2 steps before the root
    # bound can refuse it
    r = p.order
    if r * (r + 1) // 2 > DECOMPOSE_SIZE_MAX:
        raise DomainError(
            f"operator order {r} needs {r * (r + 1) // 2} indicial steps, "
            f"which exceeds {DECOMPOSE_SIZE_MAX}"
        )
    analysis = analyze_operator(p)
    t, s = analysis.t, analysis.s
    n = p.n_vars
    K = precision

    window = x_window(p, t, f, K)
    if max(K, window) > DECOMPOSE_MAX:
        raise DomainError(f"precision {K} or tracked x-window {window} exceeds {DECOMPOSE_MAX}")
    # a product of two B-series below m_B^K in m = n - 1 variables pairs up
    # the terms whose degrees sum below K: C(K - 1 + 2m, 2m) pairs
    pairs = math.comb(K - 1 + 2 * (n - 1), 2 * (n - 1))
    if window * pairs > DECOMPOSE_SIZE_MAX:
        raise DomainError(
            f"tracked x-window {window} times {pairs} pairs of B-monomials "
            f"below m_B^{K} exceeds {DECOMPOSE_SIZE_MAX}"
        )
    # a product of two keys below degree K has digits under 2K, so none carries
    width = (2 * K).bit_length()

    def graded(terms: Dict[Tuple[int, ...], Fraction]) -> Dict[Tuple[int, int], Dict[int, Fraction]]:
        """The terms below B-degree K as {(x-power, B-degree): {key: c}}."""
        out: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for e, c in terms.items():
            d = sum(e) - e[0]
            if d < K:
                out.setdefault((e[0], d), {})[_pack(e[1:] + (d,), width)] = c
        return out

    # levels[d][j]: the cell [nums, den] of x-power j and B-degree d, the
    # sum of what has landed there; sweep d + 1 reads it when it visits j
    levels: List[Dict[int, List]] = [{} for _ in range(K)]
    for (j, d), terms in graded(f.terms).items():
        levels[d][j] = [*_scaled(terms)]

    # the terms x^jx * c of each a_i, over one denominator op_den:
    # {(i, jx, B-degree of c): int numerators of c}
    op_nums, op_den = _scaled({
        (i, jx, d, key): c
        for i, a in enumerate(p.coeffs)
        for (jx, d), terms in graded(a.terms).items()
        for key, c in terms.items()
    })
    parts: Dict[Tuple[int, int, int], Dict[int, int]] = {}
    for (i, jx, d, key), v in op_nums.items():
        parts.setdefault((i, jx, d), {})[key] = v
    # g(l) = g_num / g_den, with g_num an int Horner of these ascending ints
    g_ints, g_den = _scaled(dict(enumerate(analysis.g_coeffs)))
    g_ints = list(g_ints.values())[::-1]

    def generator(ell: int) -> Tuple[int, int, List[Tuple[int, int, List[Tuple[int, int]], int]]]:
        """1/g(l), for g(l) the pivot's constant term, as (numerator,
        denominator), and every other entry of the column of P(x^l) up to the
        window, negated, as (B-degree, x-power, sorted numerator items, den),
        in order."""
        weights = [math.perm(ell, i) for i in range(r + 1)]
        sums: Dict[Tuple[int, int], Dict[int, int]] = {}
        for (i, jx, d), nums in parts.items():
            m = jx + ell - i
            if m <= window:
                entry = sums.setdefault((m, d), {})
                w = weights[i]
                for key, v in nums.items():
                    entry[key] = entry.get(key, 0) - w * v
        column = {}
        for md, nums in sums.items():
            entry = _primitive(nums, op_den)
            if entry[0]:
                column[md] = entry
        low, j = ell - r, ell - r + t
        if (
            any(m < low for m, _ in column)
            or any((m, 0) in column for m in range(low, j))
            or (j, 0) not in column
        ):
            raise DomainError(
                f"operator fails its expansion conditions at generator index {ell}: "
                f"{expansion_condition_report(p, analysis, ell)}"
            )
        pivot_nums, pivot_den = column.pop((j, 0))
        g_num = 0
        for c in g_ints:
            g_num = g_num * ell + c
        # the column is negated: its pivot's constant term is -g(l)
        if -pivot_nums[0] * g_den != g_num * pivot_den:
            raise InternalCheckError(f"the pivot of generator {ell} is not g({ell})")
        # 1/g(l) = g_den / g_num in lowest terms, the sign in the numerator
        h = math.gcd(g_num, g_den) if g_num > 0 else -math.gcd(g_num, g_den)
        return g_den // h, g_num // h, sorted(
            (d, m, sorted(nums.items()), den) for (m, d), (nums, den) in column.items()
        )

    generators: Dict[int, Tuple[int, int, List[Tuple[int, int, List[Tuple[int, int]], int]]]] = {}
    e_parts: List[List[_Scaled]] = [[] for _ in range(s)]
    b_parts: Dict[int, List[_Scaled]] = {}
    sweep_vals: List[float] = []
    waiting = 0  # sweeps since the last one that found a nonzero part

    for sweep in range(1, K + 1):
        d = sweep - 1
        if d:
            for j, (nums, _) in levels[d - 1].items():
                if any(nums.values()):
                    raise InternalCheckError(
                        f"coherence failure: sweep {sweep} found valuation {d - 1} at position {j}"
                    )
        if not any(levels[d:]):
            waiting += 1
            break  # residual already empty; later sweeps are no-ops
        level = levels[d]
        found = False
        for j in range(window + 1):
            cell = level.pop(j, None)
            if cell is None:
                continue
            gamma_nums, gamma_den = gamma = _primitive(*cell)
            if not gamma_nums:
                continue
            found = True
            if j < s:
                e_parts[j].append(gamma)
                continue
            ell = j + r - t
            if ell not in generators:
                generators[ell] = generator(ell)
            inv_num, inv_den, column = generators[ell]
            # delta = gamma / g(l): the pivot's unit part clears B-degree d
            # alone, and its terms of positive degree are spilled with the rest
            delta_nums, delta_den = delta = _divide(gamma_nums, gamma_den, inv_num, inv_den)
            # delta * g(l) == gamma, by cross-multiplication
            lhs, rhs = inv_den * gamma_den, delta_den * inv_num
            if delta_nums.keys() != gamma_nums.keys() or any(
                v * lhs != gamma_nums[e] * rhs for e, v in delta_nums.items()
            ):
                raise InternalCheckError("pivot cancellation was not exact")
            b_parts.setdefault(ell, []).append(delta)
            for dc, m, c_items, c_den in column:
                deg = d + dc
                if deg >= K:
                    break
                if deg == d and m <= j:
                    raise InternalCheckError(f"a degree-{d} piece landed at position {m}, not past {j}")
                # delta * c, of B-degree deg < K, so no digit of a key sum
                # carries: summed into its cell over the cell's denominator
                cells, piece_den = levels[deg], delta_den * c_den
                cell = cells.get(m)
                if cell is None:
                    cell = cells[m] = [{}, piece_den]
                scale, nums = _cell_scale(cell, piece_den), cell[0]
                get = nums.get
                for k1, v1 in delta_nums.items():
                    v1 *= scale
                    for k2, v2 in c_items:
                        k = k1 + k2
                        nums[k] = get(k, 0) + v1 * v2
        if found:
            sweep_vals.extend([d] * (waiting + 1))
            waiting = 0
        else:
            waiting += 1
    if waiting:
        sweep_vals.append(math.inf)

    if any(any(nums.values()) for level in levels for nums, _ in level.values()):
        raise InternalCheckError("residual survived all sweeps at the stated precision")

    exps: Dict[int, Tuple[int, ...]] = {}  # each packed key unpacked once

    def series(parts: List[_Scaled]) -> TruncatedSeries:
        # one part per sweep, so the parts share no key
        return TruncatedSeries._trusted(n, K, {
            exps.get(e) or exps.setdefault(e, (0,) + _unpack(e, width, n - 1)): Fraction(v, den)
            for nums, den in parts for e, v in nums.items()
        })

    return Decomposition(
        operator=p,
        analysis=analysis,
        precision=K,
        x_window=window,
        e=tuple(series(parts) for parts in e_parts),
        b={ell: series(parts) for ell, parts in sorted(b_parts.items())},
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
