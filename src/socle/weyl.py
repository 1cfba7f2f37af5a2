"""The ring of differential operators with polynomial coefficients.

Operators are kept in normal order: every term is a monomial in the variables
times a monomial in the partials, stored as ``(x_exponent, d_exponent) ->
coefficient``.  Products are normal-ordered through the closed one-variable
formula

    d^b x^g = sum_nu  C(b, nu) * g(g-1)...(g-nu+1) * x^(g-nu) d^(b-nu)

applied componentwise, so no rewriting search is ever needed.  The integer
weights C(b, nu) * g(g-1)...(g-nu+1) are cached per (b_i, g_i), and a
coordinate with min(b_i, g_i) = 0 contributes no expansion.  Products are
the fraction-free ``_product_terms`` of :mod:`socle.poly` with
``_normal_order`` as its expansion rule: coefficients are scaled to integers
by the lcm of their denominators, accumulated as ints and divided once per
output term.  ``_act`` applies operators to polynomials with one product per
d-exponent, on that derivative of the polynomial.  Results of internal
arithmetic skip re-validation; the public constructor keeps every check.

The module also carries the function space operators act on besides
polynomials: the injective hull of the residue field at the origin, spanned
by inverse monomials with all exponents >= 1.  The operator action on it is
``_product_terms`` with ``_apply_inverse`` as the expansion rule.  Both
classes take their sums, negation, scalar products and equality from the
shell that :mod:`socle.poly` shares among all four algebra types, and
``WeylOp.render`` and ``EElement.render`` follow the same sign-and-magnitude
rule as ``MultiPoly.render``.

Adjoints and the Euler identity are taken in the partial of the first
variable, the one :class:`socle.seriesdecomp.RegularOperator` differentiates
in.  The Euler-identity certificate stays inside that d-only subalgebra:
each of its products is a plain int polynomial product graded by the power
of d, over one common denominator, and its residual is still computed term
by term, never assumed to vanish.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, lcm, perm, prod
from operator import add, sub
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .errors import DimensionMismatch, DomainError
from .poly import (
    Exponent,
    MultiPoly,
    _accumulate,
    _coerce,
    _power,
    _power_factors,
    _product_terms,
    _render,
    _scaled,
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


def _act(terms: Mapping[TermKey, int], f: Mapping[Exponent, int]) -> Dict[Exponent, int]:
    """The int terms of the operator with int ``terms`` applied to the int
    polynomial terms f (cancelled terms may be listed): one expand-free
    product per d-exponent, of that derivative of f with the x-parts."""
    groups: Dict[Exponent, Dict[Exponent, int]] = {}
    for (xe, de), c in terms.items():
        groups.setdefault(de, {})[xe] = c
    acc: Dict[Exponent, int] = {}
    for de, xs in groups.items():
        f_de = f
        if any(de):
            f_de = {tuple(map(sub, g, de)): v * w for g, v in f.items() if (w := prod(map(perm, g, de)))}
        _accumulate(f_de, xs, acc=acc)
    return acc


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
        super().__init__(n_vars, terms)

    @staticmethod
    def _key(n_vars: int, key) -> TermKey:
        xe, de = key
        xe, de = tuple(xe), tuple(de)
        if len(xe) != n_vars or len(de) != n_vars:
            raise DimensionMismatch(f"exponents {xe}, {de} do not fit {n_vars} variables")
        if any(e < 0 for e in xe + de):
            raise DomainError("negative exponent in operator term")
        return xe, de

    # ---------------------------------------------------------------- builders

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
        return WeylOp._trusted(self.n_vars, _product_terms(self.terms, other.terms, _normal_order))

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
        """The operator applied to p: ``_act`` on both scaled to integers."""
        if p.n_vars != self.n_vars:
            raise DimensionMismatch("polynomial lives over a different variable count")
        (lhs, den), (rhs, rden) = _scaled(self.terms), _scaled(p.terms)
        terms = _act(lhs, rhs)
        return MultiPoly._trusted(self.n_vars, {e: Fraction(v, den * rden) for e, v in terms.items() if v})

    def act_on_e(self, v: "EElement") -> "EElement":
        if v.n_vars != self.n_vars:
            raise DimensionMismatch("element lives over a different variable count")
        return EElement._trusted(self.n_vars, _product_terms(self.terms, v.terms, _apply_inverse))

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
    zero.  With q = sum_i (-1)^i d^i a_i, so P = sum_i a_i d^i, the remainder
    is R = sum_m R_m d^m, R_m = sum_{k-1-nu=m} (-1)^k C(k-1, nu) b^(i-k) a_i^(nu).

    Every factor lies in the d-only subalgebra, so each product is an int
    polynomial product over one denominator, graded by the power m of d (a
    last exponent): b*q - P(b) and R are one ``_act`` on b each, and (d*R)_m
    = d(R_m) + R_(m-1).  The residual is summed term by term, never assumed
    zero, and ``Fraction`` terms are built once.
    """
    n = q.n_vars
    if b.n_vars != n:
        raise DimensionMismatch("test polynomial lives over a different variable count")
    p = formal_adjoint(q)
    f0, den = _scaled({e + (0,): c for e, c in b.terms.items()})  # b, of d-grade 0
    op_den = lcm(*(c.denominator for t in (q.terms, p.terms) for c in t.values()))
    den *= op_den
    z, zz = (0,) * n, (0,) * (n + 1)
    qs, ps = ({k: c.numerator * (op_den // c.denominator) for k, c in t.items()} for t in (q.terms, p.terms))
    lhs = {(xe + de[:1], zz): v for (xe, de), v in qs.items()}  # b*q - P(b), as an operator on b
    r_terms: Dict[TermKey, int] = {}  # R, as an operator on b
    for (xe, (i, *_)), v in ps.items():  # v x^xe is a term of a_i
        key = (xe + (0,), (i,) + z)
        lhs[key] = lhs.get(key, 0) - v
        for k in range(1, i + 1):
            for nu in range(min(k, xe[0] + 1)):
                key = ((xe[0] - nu,) + xe[1:] + (k - 1 - nu,), (i - k,) + z)
                r_terms[key] = r_terms.get(key, 0) + (-1) ** k * comb(k - 1, nu) * perm(xe[0], nu) * v
    r_acc, res = _act(r_terms, f0), _act(lhs, f0)
    for key, v in r_acc.items():  # (d*R)_m = d(R_m) + R_(m-1)
        up = key[:-1] + (key[-1] + 1,)
        res[up] = res.get(up, 0) - v
        if key[0]:
            down = (key[0] - 1,) + key[1:]
            res[down] = res.get(down, 0) - v * key[0]
    r_op, residual = (
        WeylOp._trusted(n, {(k[:-1], (k[-1],) + z[1:]): Fraction(v, den) for k, v in acc.items() if v})
        for acc in (r_acc, res)
    )
    return p, r_op, residual


# ---------------------------------------------------------------- E elements


class EElement(_TermShell):
    """A finite combination of inverse monomials x^-a with every a_i >= 1.

    These span the top local cohomology of the polynomial ring at the
    maximal ideal of the origin; the socle generator is a = (1, ..., 1).
    E has no unit, so it takes no sums with scalars.
    """

    __slots__ = ()

    @staticmethod
    def _key(n_vars: int, a) -> Exponent:
        a = tuple(a)
        if len(a) != n_vars or any(ai < 1 for ai in a):
            raise DomainError(f"inverse-monomial exponent {a} must have all entries >= 1")
        return a

    @classmethod
    def socle(cls, n_vars: int) -> "EElement":
        return cls(n_vars, {(1,) * n_vars: Fraction(1)})

    @classmethod
    def inverse_monomial(cls, n_vars: int, a: Sequence[int], c=1) -> "EElement":
        return cls(n_vars, {tuple(a): _coerce(c)})

    def render(self, names: Sequence[str] | None = None) -> str:
        names = names or default_names(self.n_vars)
        return _render(self.terms, lambda a: [f"{v}^-{ai}" for v, ai in zip(names, a)])
