"""Sparse multivariate polynomials over exact rationals.

Terms are stored as a dict mapping exponent tuples to ``Fraction``
coefficients; zero coefficients are never stored.  Instances are treated as
immutable: no method mutates ``self``, every operation returns a fresh
polynomial.

Sums and products of polynomials, truncated series and Weyl operators all run
through one sparse-term kernel, ``_combine``.  Products are fraction-free:
each factor's terms are scaled to integers by the lcm of their denominators,
multiplied and accumulated as plain ints (``_accumulate``, which the
fraction-free sweep of :mod:`socle.seriesdecomp` also calls directly), and
each output term is divided once by the common denominator.  Sums merge the
terms as they are, with one ``Fraction`` addition per shared key.  Results of
this internal arithmetic are built by ``_trusted`` constructors that skip
re-validation, since their terms are valid by construction; the public
constructors keep every check.

Polynomials, truncated series, Weyl operators and the elements of E share one
shell, ``_TermShell``: sums, differences, negation, scalar products, equality
and the variable-count check are defined there once.  ``_render`` is the one
sign-and-magnitude text rule of polynomials and operators.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, lcm
from operator import add
from typing import Callable, Dict, Hashable, Iterable, Mapping, Sequence, Tuple

from .errors import DimensionMismatch, DomainError

Exponent = Tuple[int, ...]

#: degree reported for the zero polynomial
MINUS_INFINITY = float("-inf")


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise DomainError(f"coefficient must be an integer or Fraction, got {type(c).__name__}")


def _scaled(terms: Mapping[Hashable, Fraction]) -> Tuple[Dict[Hashable, int], int]:
    """(numerators, den) with ``terms[k] == numerators[k] / den``, where den is
    the lcm of the denominators."""
    den = 1
    for c in terms.values():
        den = lcm(den, c.denominator)
    if den == 1:
        return {k: c.numerator for k, c in terms.items()}, 1
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def _accumulate(
    lhs: Mapping[Hashable, int],
    rhs: Mapping[Hashable, int],
    expand: Callable[[Hashable, Hashable], Iterable[Tuple[Hashable, int]]] | None = None,
    below: int | None = None,
) -> Dict[Hashable, int]:
    """The int terms of the product ``lhs * rhs`` of two int term dicts; a
    term may cancel to 0 and is then still listed.

    With ``expand`` None the keys are exponent tuples that add: the right
    factor is bucketed by total degree once, and with ``below`` every bucket
    whose products would reach total degree ``below`` is skipped.  Otherwise
    ``expand(k1, k2)`` lists the (key, int weight) terms a pair of keys
    combines to, such as a normal-ordered operator product.
    """
    acc: Dict[Hashable, int] = {}
    get = acc.get
    if expand is None:
        buckets: Dict[int, list] = {}
        for e2, v2 in rhs.items():
            buckets.setdefault(sum(e2), []).append((e2, v2))
        ordered = sorted(buckets.items())
        top = inf if below is None else below
        for e1, v1 in lhs.items():
            room = top - sum(e1)
            for degree, bucket in ordered:
                if degree >= room:
                    break
                for e2, v2 in bucket:
                    e = tuple(map(add, e1, e2))
                    acc[e] = get(e, 0) + v1 * v2
    else:
        for k1, v1 in lhs.items():
            for k2, v2 in rhs.items():
                v = v1 * v2
                for k, w in expand(k1, k2):
                    acc[k] = get(k, 0) + v * w
    return acc


def _combine(
    base: Mapping[Hashable, Fraction],
    left: Mapping[Hashable, Fraction],
    right: Mapping[Hashable, Fraction] | None = None,
    sign: int = 1,
    expand: Callable[[Hashable, Hashable], Iterable[Tuple[Hashable, int]]] | None = None,
    below: int | None = None,
) -> Dict[Hashable, Fraction]:
    """The terms of ``base + sign * left * right`` (``sign`` is 1 or -1).

    A product is formed fraction-free in three steps: (1) ``left`` and
    ``right`` are scaled to integers by the lcm of their denominators; (2)
    products are accumulated as plain ints by ``_accumulate``, which takes
    ``expand`` and ``below``; (3) each accumulated term is divided once by
    the common denominator, or, where ``base`` has the key, added to it over
    that denominator with one division.

    ``right`` None stands for the unit: the sum ``base + sign * left`` has
    no product to accumulate, so its terms are merged as they are, one
    ``Fraction`` addition per shared key.  Zeros are never stored, and terms
    of ``base`` that nothing touches are kept as they are.
    """
    out = dict(base)
    if right is None:
        for k, c in left.items():
            b = out.get(k)
            if b is None:
                out[k] = c if sign == 1 else -c
            else:
                s = b + c if sign == 1 else b - c
                if s:
                    out[k] = s
                else:
                    del out[k]
        return out
    lhs, den = _scaled(left)
    rhs, rden = _scaled(right)
    den *= rden
    if sign != 1:
        lhs = {k: -v for k, v in lhs.items()}
    for k, v in _accumulate(lhs, rhs, expand, below).items():
        c = out.get(k)
        if c is None:
            if v:
                out[k] = Fraction(v, den)
        else:
            d = c.denominator
            s = Fraction(c.numerator * den + v * d, d * den)
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _power(base, k: int, result):
    """``result * base ** k`` for k >= 0, by binary exponentiation."""
    while k:
        if k & 1:
            result = result * base
        base = base * base if k > 1 else base
        k >>= 1
    return result


def _power_factors(names: Sequence[str], exp: Exponent) -> list:
    """The factors ``name`` or ``name^e`` of a monomial, zero exponents left out."""
    return [names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(exp) if e]


def _render(terms: Mapping[Hashable, Fraction], factors: Callable[[Hashable], list]) -> str:
    """Deterministic text of a term dict, in descending key order.

    Each term is its sign, then ``|c|`` unless the term has factors and
    ``|c| = 1``, then its ``factors(key)``, joined by ``*``; the first term
    shows only a minus sign.
    """
    out = ""
    for key in sorted(terms, reverse=True):
        c = terms[key]
        fs = factors(key)
        body = "*".join(fs if fs and abs(c) == 1 else [str(abs(c))] + fs)
        if out:
            out += f" {'-' if c < 0 else '+'} {body}"
        else:
            out = "-" + body if c < 0 else body
    return out or "0"


class _TermShell:
    """What polynomials, truncated series, Weyl operators and elements of E
    share: ``n_vars`` and a dict of nonzero ``Fraction`` terms, with sums,
    differences, negation, scalar products and equality.

    Sums go through ``_combine``; an int or ``Fraction`` operand is first
    turned into an element by the subclass's ``_scalar`` hook (E has none,
    so it takes no scalar sums).  Operands over different variable counts
    raise ``DimensionMismatch``.  Subclasses add their own products, and
    ``TruncatedSeries`` its precision (``_like``, ``_sum``, ``_shape``).
    """

    __slots__ = ("n_vars", "terms")

    @classmethod
    def _trusted(cls, n_vars: int, terms: Dict[Hashable, Fraction]):
        """Wrap terms that internal arithmetic produced, without the checks of
        the public constructor: keys valid for ``cls`` and ``n_vars``,
        nonzero ``Fraction`` coefficients."""
        p = object.__new__(cls)
        p.n_vars = n_vars
        p.terms = terms
        return p

    def _like(self, terms: Dict[Hashable, Fraction]):
        """An element of self's type and shape with valid ``terms``."""
        return self._trusted(self.n_vars, terms)

    def _shape(self):
        """What besides the terms two equal elements share."""
        return self.n_vars

    def _scalar(self, c):
        """The element ``c * 1`` of self's type; None where there is no 1."""
        return None

    def _check(self, other) -> None:
        if self.n_vars != other.n_vars:
            raise DimensionMismatch(
                f"mixed variable counts: {self.n_vars} vs {other.n_vars}"
            )

    def _sum(self, other, sign: int):
        return self._like(_combine(self.terms, other.terms, sign=sign))

    def _linear(self, other, sign: int):
        if isinstance(other, (int, Fraction)):
            other = self._scalar(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self._sum(other, sign)

    def __add__(self, other):
        return self._linear(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._linear(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        """The scalar product; subclasses with a ring product extend it."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        c = _coerce(other)
        return self._like({k: c * v for k, v in self.terms.items()} if c else {})

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._scalar(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._shape() == other._shape() and self.terms == other.terms

    __hash__ = None  # mutable dict inside; not intended as a dict key


class MultiPoly(_TermShell):
    """A polynomial in ``n_vars`` commuting variables with rational coefficients."""

    __slots__ = ()

    def __init__(self, n_vars: int, terms: Mapping[Exponent, Fraction] | None = None):
        if n_vars < 0:
            raise DomainError("n_vars must be nonnegative")
        clean: Dict[Exponent, Fraction] = {}
        for exp, c in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != n_vars or any(e < 0 for e in exp):
                raise DomainError(f"bad exponent {exp} for {n_vars} variables")
            c = _coerce(c)
            if c:
                clean[exp] = c
        self.n_vars = n_vars
        self.terms = clean

    # ---------------------------------------------------------------- builders

    @classmethod
    def zero(cls, n_vars: int) -> "MultiPoly":
        return cls(n_vars, {})

    @classmethod
    def constant(cls, n_vars: int, c) -> "MultiPoly":
        return cls(n_vars, {(0,) * n_vars: _coerce(c)})

    @classmethod
    def one(cls, n_vars: int) -> "MultiPoly":
        return cls.constant(n_vars, 1)

    @classmethod
    def variable(cls, n_vars: int, i: int) -> "MultiPoly":
        if not 0 <= i < n_vars:
            raise DimensionMismatch(f"variable index {i} out of range for {n_vars} variables")
        exp = tuple(1 if j == i else 0 for j in range(n_vars))
        return cls(n_vars, {exp: Fraction(1)})

    @classmethod
    def monomial(cls, n_vars: int, exp: Sequence[int], c=1) -> "MultiPoly":
        return cls(n_vars, {tuple(exp): _coerce(c)})

    # ------------------------------------------------------------- arithmetic

    def _scalar(self, c) -> "MultiPoly":
        return MultiPoly.constant(self.n_vars, c)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return super().__mul__(other)
        self._check(other)
        return MultiPoly._trusted(self.n_vars, _combine({}, self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError("negative powers are not polynomials")
        return _power(self, k, MultiPoly.one(self.n_vars))

    def partial_derivative(self, i: int) -> "MultiPoly":
        if not 0 <= i < self.n_vars:
            raise DimensionMismatch(f"variable index {i} out of range")
        out: Dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            if exp[i]:
                e = list(exp)
                e[i] -= 1
                out[tuple(e)] = c * exp[i]
        return MultiPoly._trusted(self.n_vars, out)

    # ------------------------------------------------------------- inspection

    def degree(self):
        """Total degree; ``MINUS_INFINITY`` for the zero polynomial."""
        if not self.terms:
            return MINUS_INFINITY
        return max(sum(e) for e in self.terms)

    def degree_in(self, i: int) -> int:
        """Degree in one variable; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(e[i] for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int:
        """Degree of a nonzero homogeneous polynomial; DomainError otherwise."""
        degs = {sum(e) for e in self.terms}
        if len(degs) != 1:
            raise DomainError("polynomial is zero or not homogeneous")
        return degs.pop()

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.n_vars, Fraction(0))

    def x0_slices(self) -> Dict[int, "MultiPoly"]:
        """Split along powers of the first variable.

        Returns {j: p_j} with ``self = sum_j x0^j * p_j`` and each ``p_j``
        free of the first variable (stored in the same ambient ring).
        """
        if self.n_vars == 0:
            raise DomainError("need at least one variable to slice")
        slices: Dict[int, Dict[Exponent, Fraction]] = {}
        for exp, c in self.terms.items():
            j = exp[0]
            rest = (0,) + exp[1:]
            slices.setdefault(j, {})[rest] = c
        return {j: MultiPoly._trusted(self.n_vars, t) for j, t in sorted(slices.items())}

    # -------------------------------------------------------------- rendering

    def render(self, names: Sequence[str] | None = None) -> str:
        """Deterministic text form, parseable by :mod:`socle.grammar`."""
        names = names or default_names(self.n_vars)
        return _render(self.terms, lambda exp: _power_factors(names, exp))

    def __repr__(self):
        return f"MultiPoly({self.n_vars}, {self.render()!r})"


def default_names(n_vars: int) -> Tuple[str, ...]:
    """x, y, z, w for up to four variables; x0..x9 beyond that."""
    if n_vars <= 4:
        return ("x", "y", "z", "w")[:n_vars]
    return tuple(f"x{i}" for i in range(n_vars))


def graded_piece_basis(degree: int, n_vars: int) -> list:
    """Exponent tuples of all monomials of the given total degree.

    Listed in descending lexicographic order; the count is the stars-and-bars
    binomial.  Negative degree gives the empty list.
    """
    if n_vars < 0:
        raise DomainError("n_vars must be nonnegative")
    if degree < 0:
        return []
    if n_vars == 0:
        return [()] if degree == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for first in range(remaining, -1, -1):
            rec(prefix + (first,), remaining - first, slots - 1)

    rec((), degree, n_vars)
    return out
