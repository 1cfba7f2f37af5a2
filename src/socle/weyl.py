"""The ring of differential operators with polynomial coefficients.

Operators are kept in normal order: every term is a monomial in the variables
times a monomial in the partials, stored as ``(x_exponent, d_exponent) ->
coefficient``.  Products are normal-ordered through the closed one-variable
formula

    d^b x^g = sum_nu  C(b, nu) * g(g-1)...(g-nu+1) * x^(g-nu) d^(b-nu)

applied componentwise, so no rewriting search is ever needed.  The integer
weights C(b, nu) * g(g-1)...(g-nu+1) are cached per (b_i, g_i), and a
coordinate with min(b_i, g_i) = 0 contributes no expansion.  Products and
the action on polynomials are fraction-free (see :mod:`socle.poly`):
coefficients are scaled to integers by the lcm of their denominators,
accumulated as ints and divided once per output term.  Results of internal
arithmetic skip re-validation; the public constructor keeps every check.

The module also carries the function space operators act on besides
polynomials: the injective hull of the residue field at the origin, spanned
by inverse monomials with all exponents >= 1.  Its sums and the operator
action run through the same kernel.  Both classes take their sums, negation,
scalar products and equality from the shell that :mod:`socle.poly` shares
among all four algebra types, and ``WeylOp.render`` follows the same
sign-and-magnitude rule as ``MultiPoly.render``.

Adjoints and the Euler identity are taken in the partial of the first
variable, the one :class:`socle.seriesdecomp.RegularOperator` differentiates
in.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, perm
from operator import add
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .errors import DimensionMismatch, DomainError
from .poly import (
    Exponent,
    MultiPoly,
    _coerce,
    _combine,
    _power,
    _power_factors,
    _render,
    _TermShell,
    default_names,
)

TermKey = Tuple[Exponent, Exponent]


@lru_cache(maxsize=4096)
def _leibniz(b: int, g: int) -> Tuple[Tuple[int, int], ...]:
    """The lower terms of d^b x^g = x^g d^b + sum_{nu >= 1} w_nu x^(g-nu) d^(b-nu),
    as (nu, w_nu) with the integer w_nu = C(b, nu) * g(g-1)...(g-nu+1)."""
    return tuple((nu, comb(b, nu) * perm(g, nu)) for nu in range(1, min(b, g) + 1))


def _normal_order(k1: TermKey, k2: TermKey):
    """The (key, int weight) terms of x^a d^b * x^g d^e in normal order."""
    (a, b), (g, e) = k1, k2
    xe = tuple(map(add, a, g))
    de = tuple(map(add, b, e))
    if not any(map(min, b, g)):
        return (((xe, de), 1),)
    spread = [(i, _leibniz(bi, gi)) for i, (bi, gi) in enumerate(zip(b, g)) if bi and gi]
    out = []
    # nu_i = 0 (weight 1) or one of the cached Leibniz terms, per coordinate
    for choice in product(*(((0, 1),) + terms for _, terms in spread)):
        x, d, w = list(xe), list(de), 1
        for (i, _), (nu, c) in zip(spread, choice):
            x[i] -= nu
            d[i] -= nu
            w *= c
        out.append(((tuple(x), tuple(d)), w))
    return out


def _apply(k1: TermKey, g: Exponent):
    """The (exponent, int weight) term of x^a d^b applied to x^g; none when
    some b_i exceeds g_i."""
    a, b = k1
    w = 1
    for gi, bi in zip(g, b):
        if bi:
            if bi > gi:
                return ()
            w *= perm(gi, bi)
    return ((tuple(ai + gi - bi for ai, gi, bi in zip(a, g, b)), w),)


def _apply_inverse(k1: TermKey, a: Exponent):
    """The (exponent, int weight) term of x^xe d^de applied to x^-a: d^de
    gives the weight (-1)^|de| prod_i a_i (a_i+1) ... (a_i+de_i-1) at
    x^-(a+de); none when multiplying by x^xe leaves some exponent below 1."""
    xe, de = k1
    final = tuple(ai + di - xi for ai, di, xi in zip(a, de, xe))
    if min(final) < 1:
        return ()
    w = 1
    for ai, di in zip(a, de):
        if di:
            w *= perm(ai + di - 1, di)
    return ((final, -w if sum(de) % 2 else w),)


class WeylOp(_TermShell):
    """A normally ordered differential operator with rational coefficients."""

    __slots__ = ()

    def __init__(self, n_vars: int, terms: Mapping[TermKey, Fraction] | None = None):
        if n_vars < 1:
            raise DomainError("need at least one variable")
        clean: Dict[TermKey, Fraction] = {}
        for (xe, de), c in (terms or {}).items():
            xe, de = tuple(xe), tuple(de)
            if len(xe) != n_vars or len(de) != n_vars:
                raise DimensionMismatch(f"exponents {xe}, {de} do not fit {n_vars} variables")
            if any(e < 0 for e in xe + de):
                raise DomainError("negative exponent in operator term")
            c = _coerce(c)
            if c:
                clean[(xe, de)] = c
        self.n_vars = n_vars
        self.terms = clean

    # ---------------------------------------------------------------- builders

    @classmethod
    def zero(cls, n_vars: int) -> "WeylOp":
        return cls(n_vars, {})

    @classmethod
    def one(cls, n_vars: int) -> "WeylOp":
        z = (0,) * n_vars
        return cls(n_vars, {(z, z): Fraction(1)})

    @classmethod
    def x_gen(cls, n_vars: int, i: int) -> "WeylOp":
        z = (0,) * n_vars
        e = tuple(1 if j == i else 0 for j in range(n_vars))
        return cls(n_vars, {(e, z): Fraction(1)})

    @classmethod
    def d_gen(cls, n_vars: int, i: int) -> "WeylOp":
        z = (0,) * n_vars
        e = tuple(1 if j == i else 0 for j in range(n_vars))
        return cls(n_vars, {(z, e): Fraction(1)})

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "WeylOp":
        """Multiplication operator by a polynomial."""
        if p.n_vars < 1:
            raise DomainError("need at least one variable")
        z = (0,) * p.n_vars
        return cls._trusted(p.n_vars, {(e, z): c for e, c in p.terms.items()})

    # ------------------------------------------------------------- arithmetic

    def _scalar(self, c) -> "WeylOp":
        return WeylOp.one(self.n_vars) * c

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            other = WeylOp.from_poly(other)
        if not isinstance(other, WeylOp):
            return super().__mul__(other)
        self._check(other)
        return WeylOp._trusted(self.n_vars, _combine({}, self.terms, other.terms, expand=_normal_order))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        if isinstance(other, MultiPoly):
            return WeylOp.from_poly(other) * self
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError("negative operator powers are not defined here")
        return _power(self, k, WeylOp.one(self.n_vars))

    # ---------------------------------------------------------------- actions

    def act_on_poly(self, p: MultiPoly) -> MultiPoly:
        if p.n_vars != self.n_vars:
            raise DimensionMismatch("polynomial lives over a different variable count")
        return MultiPoly._trusted(self.n_vars, _combine({}, self.terms, p.terms, expand=_apply))

    def act_on_e(self, v: "EElement") -> "EElement":
        if v.n_vars != self.n_vars:
            raise DimensionMismatch("element lives over a different variable count")
        return EElement._trusted(self.n_vars, _combine({}, self.terms, v.terms, expand=_apply_inverse))

    # ------------------------------------------------------------- inspection

    def order(self) -> int:
        """Total order in the partials; -1 for the zero operator."""
        if not self.terms:
            return -1
        return max(sum(de) for _, de in self.terms)

    def d_vars_used(self) -> set:
        used = set()
        for _, de in self.terms:
            for i, e in enumerate(de):
                if e:
                    used.add(i)
        return used

    def render(self, names: Sequence[str] | None = None) -> str:
        names = names or default_names(self.n_vars)
        partials = [f"d{i}" for i in range(self.n_vars)]
        return _render(
            self.terms, lambda k: _power_factors(names, k[0]) + _power_factors(partials, k[1])
        )

    def __repr__(self):
        return f"WeylOp({self.n_vars}, {self.render()!r})"


def normal_order(raw: Iterable[Tuple[Fraction, Sequence[Tuple[str, int]]]], n_vars: int) -> WeylOp:
    """Normal-order a raw word list.

    ``raw`` is a list of (coefficient, word) pairs where each word is a
    sequence of generator tokens ('x', i) or ('d', i).  The result collects
    all words into a single normally ordered operator.
    """
    total = WeylOp.zero(n_vars)
    for coeff, word in raw:
        term = WeylOp.one(n_vars) * _coerce(coeff)
        for kind, i in word:
            if kind == "x":
                term = term * WeylOp.x_gen(n_vars, i)
            elif kind == "d":
                term = term * WeylOp.d_gen(n_vars, i)
            else:
                raise DomainError(f"unknown generator kind {kind!r}")
        total = total + term
    return total


# --------------------------------------------------------------------- adjoint


def _left_coefficients(q: WeylOp) -> List[MultiPoly]:
    """Write q = sum_j c_j d^j, d the first partial, and return [c_0, ..., c_r].

    The caller checks that no other partial occurs.
    """
    terms: List[Dict[Exponent, Fraction]] = [{} for _ in range(max(0, q.order()) + 1)]
    for (xe, de), coef in q.terms.items():
        terms[de[0]][xe] = coef
    return [MultiPoly._trusted(q.n_vars, t) for t in terms]


def right_coefficients(q: WeylOp) -> List[MultiPoly]:
    """Write q = sum_i (-1)^i d^i a_i, d the first partial, and return
    [a_0, ..., a_r].

    Only powers of d may occur.  The a_i are found by descending order using
    the Leibniz expansion d^i a = sum_nu C(i, nu) a^(nu) d^(i-nu).
    """
    if any(i != 0 for i in q.d_vars_used()):
        raise DomainError("operator involves partials other than the distinguished one")
    c = _left_coefficients(q)
    r = len(c) - 1
    a: List[MultiPoly] = [MultiPoly.zero(q.n_vars) for _ in range(r + 1)]
    for j in range(r, -1, -1):
        acc = c[j]
        for i in range(j + 1, r + 1):
            deriv = a[i]
            for _ in range(i - j):
                deriv = deriv.partial_derivative(0)
            acc = acc - (-1) ** i * comb(i, i - j) * deriv
        a[j] = (-1) ** j * acc
    return a


def formal_adjoint(q: WeylOp) -> WeylOp:
    """The anti-automorphism x^a d^b -> (-1)^b d^b x^a, d the first partial.

    Applying it twice gives the operator back; on q = sum (-1)^i d^i a_i it
    returns sum a_i d^i.
    """
    if any(i != 0 for i in q.d_vars_used()):
        raise DomainError("operator involves partials other than the distinguished one")
    n = q.n_vars
    out = WeylOp.zero(n)
    for (xe, de), coef in q.terms.items():
        b = de[0]
        term = (WeylOp.d_gen(n, 0) ** b) * WeylOp.from_poly(MultiPoly.monomial(n, xe, coef))
        out = out - term if b % 2 else out + term
    return out


def check_euler_identity(q: WeylOp, b: MultiPoly):
    """Certify b * q = P(b) + d * R with P the formal adjoint of q.

    Returns (p, remainder_op, residual) where residual = b*q - P(b) - d*R as
    a normally ordered operator; the identity holds exactly iff residual is
    zero.  The remainder is built by the recursion
    R_i(f, g) = R_{i-1}(f', g) + (-1)^i f d^(i-1) g,   R_0 = 0,
    summed over the right coefficients g = a_i of q.
    """
    n = q.n_vars
    if b.n_vars != n:
        raise DimensionMismatch("test polynomial lives over a different variable count")
    a = right_coefficients(q)
    p = formal_adjoint(q)
    d = WeylOp.d_gen(n, 0)

    def remainder(i: int, f: MultiPoly, g: MultiPoly) -> WeylOp:
        if i == 0:
            return WeylOp.zero(n)
        prev = remainder(i - 1, f.partial_derivative(0), g)
        # multiplied in last and from the left, the large d-free f needs no
        # Leibniz expansion
        tail = WeylOp.from_poly(f) * ((d ** (i - 1)) * WeylOp.from_poly(g))
        return prev - tail if i % 2 else prev + tail

    r_op = WeylOp.zero(n)
    for i, g in enumerate(a):
        if g:
            r_op = r_op + remainder(i, b, g)
    pb = p.act_on_poly(b)
    residual = WeylOp.from_poly(b) * q - WeylOp.from_poly(pb) - d * r_op
    return p, r_op, residual


# ---------------------------------------------------------------- E elements


class EElement(_TermShell):
    """A finite combination of inverse monomials x^-a with every a_i >= 1.

    These span the top local cohomology of the polynomial ring at the
    maximal ideal of the origin; the socle generator is a = (1, ..., 1).
    E has no unit, so it takes no sums with scalars.
    """

    __slots__ = ()

    def __init__(self, n_vars: int, terms: Mapping[Exponent, Fraction] | None = None):
        clean: Dict[Exponent, Fraction] = {}
        for a, c in (terms or {}).items():
            a = tuple(a)
            if len(a) != n_vars or any(ai < 1 for ai in a):
                raise DomainError(f"inverse-monomial exponent {a} must have all entries >= 1")
            c = _coerce(c)
            if c:
                clean[a] = c
        self.n_vars = n_vars
        self.terms = clean

    @classmethod
    def socle(cls, n_vars: int) -> "EElement":
        return cls(n_vars, {(1,) * n_vars: Fraction(1)})

    @classmethod
    def inverse_monomial(cls, n_vars: int, a: Sequence[int], c=1) -> "EElement":
        return cls(n_vars, {tuple(a): _coerce(c)})

    @classmethod
    def zero(cls, n_vars: int) -> "EElement":
        return cls(n_vars, {})

    def render(self, names=None) -> str:
        if not self.terms:
            return "0"
        names = names or default_names(self.n_vars)
        parts = []
        for a, c in sorted(self.terms.items()):
            mono = "*".join(
                f"{names[i]}^-{ai}" if ai > 1 else f"{names[i]}^-1" for i, ai in enumerate(a)
            )
            parts.append(f"{c}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"EElement({self.n_vars}, {self.render()!r})"
