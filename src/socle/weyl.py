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
d-exponent, on that derivative of the polynomial, built once for all the
operators of one call, keyed by packed ints (``poly._pack``) one bit wider
than the largest digit, so that a product is one int addition and no digit
carries.  Results of internal arithmetic skip re-validation; the public
constructor keeps every check.

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
by term, never assumed to vanish.  The residual's ``Fraction`` terms are
built by the check; those of the remainder R are built on its first read
(``poly._TermShell._from_ints``), since a caller that wants only the verdict
never reads R.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, lcm, perm
from operator import add
from typing import Dict, List, Mapping, Sequence, Tuple

from .errors import DimensionMismatch, DomainError
from .poly import (
    Exponent,
    MultiPoly,
    _accumulate,
    _coerce,
    _pack,
    _power,
    _power_factors,
    _product_terms,
    _render,
    _scaled,
    _TermShell,
    _unpack,
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


def _act(f: Mapping[Exponent, int], *ops: Mapping[TermKey, int]) -> Tuple[int, List[Dict[int, int]]]:
    """(width, [the int terms of each operator with int terms in ``ops``
    applied to the int polynomial terms f]), cancelled terms listed, keyed by
    ``poly._pack`` at ``width``, one bit above the largest digit of f and of
    every x-part, so that no digit sum carries.  f is packed once; each
    operator takes one product per d-exponent, of that derivative of f, whose
    weights perm(g_i, d_i) are read off the digits.  Each derivative is
    built once and read by every operator with that d-exponent."""
    digits = [max(e) for e in f] + [max(xe) for op in ops for xe, _ in op]
    width = max(digits, default=0).bit_length() + 1
    mask, fk, out = (1 << width) - 1, {_pack(e, width): v for e, v in f.items()}, []
    derivatives: Dict[Exponent, Dict[int, int]] = {}
    for terms in ops:
        groups: Dict[Exponent, Dict[int, int]] = {}
        for (xe, de), c in terms.items():
            groups.setdefault(de, {})[_pack(xe, width)] = c
        acc: Dict[int, int] = {}
        for de, xs in groups.items():
            f_de = fk if not any(de) else derivatives.get(de)
            if f_de is None:
                step, f_de = _pack(de, width), {}
                spread = [(width * i, di) for i, di in enumerate(de) if di]
                for key, v in fk.items():
                    for shift, di in spread:
                        v *= perm(key >> shift & mask, di)  # 0 once a digit is below di
                    if v:
                        f_de[key - step] = v
                derivatives[de] = f_de
            _accumulate(f_de, xs, acc=acc, packed=True)
        out.append(acc)
    return width, out


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

    # ------------------------------------------------------------ constructors

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
        if not isinstance(other, WeylOp):
            return super().__mul__(other)
        self._check(other)
        return WeylOp._trusted(self.n_vars, _product_terms(self.terms, other.terms, _normal_order))

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
        n = self.n_vars
        width, (terms,) = _act(rhs, lhs)
        return MultiPoly._trusted(n, {_unpack(k, width, n): Fraction(v, den * rden) for k, v in terms.items() if v})

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
        return {i for _, de in self.terms for i, e in enumerate(de) if e}

    def render(self) -> str:
        names = default_names(self.n_vars)
        partials = [f"d{i}" for i in range(self.n_vars)]
        return _render(
            self.terms, lambda k: _power_factors(names, k[0]) + _power_factors(partials, k[1])
        )


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
    returns sum a_i d^i.  Each term goes to (-1)^b c times the
    ``_normal_order`` terms of d^b x^a, summed in one dict.
    """
    if any(i != 0 for i in q.d_vars_used()):
        raise DomainError("operator involves partials other than the distinguished one")
    z = (0,) * q.n_vars
    out: Dict[TermKey, Fraction] = {}
    for (xe, de), c in q.terms.items():
        if de[0] % 2:
            c = -c
        for key, w in _normal_order((z, de), (xe, z)):
            out[key] = out.get(key, 0) + c * w
    return WeylOp._trusted(q.n_vars, {k: c for k, c in out.items() if c})


def check_euler_identity(q: WeylOp, b: MultiPoly):
    """Certify b * q = P(b) + d * R with P the formal adjoint of q.

    Returns (p, remainder_op, residual) where residual = b*q - P(b) - d*R as
    a normally ordered operator; the identity holds exactly iff residual is
    zero.  With q = sum_i (-1)^i d^i a_i, so P = sum_i a_i d^i, the remainder
    is R = sum_m R_m d^m, R_m = sum_{k-1-nu=m} (-1)^k C(k-1, nu) b^(i-k) a_i^(nu).

    Every factor lies in the d-only subalgebra, so each product is an int
    polynomial product over one denominator, graded by the power m of d (a
    last exponent, the top digit of the packed keys): b*q - P(b) and R are
    one ``_act`` on b, which builds each derivative of b once for both, and
    (d*R)_m = d(R_m) + R_(m-1) is formed on packed keys.  The residual is
    summed term by term, never assumed zero, and its ``Fraction`` terms are
    built here.  R is returned pending: its int numerators become
    ``Fraction`` terms, with unpacked keys, on the first read of
    ``remainder_op.terms`` (by equality, rendering or arithmetic too), the
    same terms in the same order as an eager build.
    """
    n = q.n_vars
    if b.n_vars != n:
        raise DimensionMismatch("test polynomial lives over a different variable count")
    p = formal_adjoint(q)
    # b, of d-grade 0: a missing top digit packs as a 0
    f0, den = _scaled(b.terms)
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
    # R's last digit is below the order of q, a digit of lhs: its d-step carries nothing
    width, (r_acc, res) = _act(f0, r_terms, lhs)
    top, mask = width * n, (1 << width) - 1
    for key, v in r_acc.items():  # (d*R)_m = d(R_m) + R_(m-1), on packed keys
        res[key + (1 << top)] = res.get(key + (1 << top), 0) - v
        if key & mask:
            res[key - 1] = res.get(key - 1, 0) - v * (key & mask)
    rest = z[1:]

    def key(k):  # (x-part, d-part) of a packed key, whose top digit is the power of d
        return _unpack(k, width, n), (k >> top,) + rest

    residual = WeylOp._trusted(n, {key(k): Fraction(v, den) for k, v in res.items() if v})
    return p, WeylOp._from_ints(n, r_acc, den, key), residual


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

    def render(self) -> str:
        names = default_names(self.n_vars)
        return _render(self.terms, lambda a: [f"{v}^-{ai}" for v, ai in zip(names, a)])
