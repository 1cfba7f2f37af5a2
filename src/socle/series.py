"""Truncated multivariate power series over exact rationals.

A series carries a precision K and stores exactly the terms of total degree
< K.  Binary operations use the min rule on precision, so arithmetic never
invents information: ``integrate`` raises precision by one (every produced
term is determined), ``differentiate`` lowers it by one (the top slice of the
derivative would need unknown terms).

Products are fraction-free (see :mod:`socle.poly`): the terms are scaled to
integers by the lcm of their denominators, accumulated as ints and divided
once per output term.  A product buckets its right factor by total degree
and skips every bucket whose products would reach the precision; ``invert``
solves degree by degree on the same int kernel.  Results of this arithmetic
skip re-validation; the public constructor keeps every check.

Sums, negation, scalar products and equality come from the shell that
:mod:`socle.poly` shares among all four algebra types; this class adds only
its precision to it (the min rule on sums, the precision kept on copies).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Mapping

from .errors import DimensionMismatch, DomainError, NonUnitError
from .poly import (
    Exponent,
    MultiPoly,
    _accumulate,
    _coerce,
    _product_terms,
    _scaled,
    _sum_terms,
    _TermShell,
    default_names,
)

#: valuation reported for the (truncation-)zero series
INFINITY = math.inf


class TruncatedSeries(_TermShell):
    """Finitely many exact terms plus a stated precision."""

    __slots__ = ("precision",)

    def __init__(self, n_vars: int, precision: int, terms: Mapping[Exponent, Fraction] | None = None):
        if precision < 1:
            raise DomainError("precision must be at least 1")
        self.precision = precision
        super().__init__(n_vars, terms)

    def _key(self, n_vars: int, exp) -> Exponent | None:
        """A polynomial's exponent, dropped past the precision."""
        exp = MultiPoly._key(n_vars, exp)
        return exp if sum(exp) < self.precision else None

    @classmethod
    def _trusted(cls, n_vars: int, precision: int, terms: Dict[Exponent, Fraction]) -> "TruncatedSeries":
        """Wrap terms that internal arithmetic produced, without re-checking:
        exponent tuples of length n_vars and total degree below the
        precision, nonzero ``Fraction`` coefficients."""
        s = object.__new__(cls)
        s.n_vars = n_vars
        s.precision = precision
        s.terms = terms
        return s

    def _like(self, terms: Dict[Exponent, Fraction]) -> "TruncatedSeries":
        return TruncatedSeries._trusted(self.n_vars, self.precision, terms)

    def _shape(self):
        return self.n_vars, self.precision

    # ---------------------------------------------------------------- builders

    @classmethod
    def from_poly(cls, p: MultiPoly, precision: int) -> "TruncatedSeries":
        if precision < 1:
            raise DomainError("precision must be at least 1")
        return cls._trusted(p.n_vars, precision, {e: c for e, c in p.terms.items() if sum(e) < precision})

    @classmethod
    def zero(cls, n_vars: int, precision: int) -> "TruncatedSeries":
        return cls(n_vars, precision, {})

    @classmethod
    def constant(cls, n_vars: int, c, precision: int) -> "TruncatedSeries":
        return cls(n_vars, precision, {(0,) * n_vars: _coerce(c)})

    @classmethod
    def one(cls, n_vars: int, precision: int) -> "TruncatedSeries":
        return cls.constant(n_vars, 1, precision)

    def poly_part(self) -> MultiPoly:
        """The stored terms as an exact polynomial."""
        return MultiPoly._trusted(self.n_vars, dict(self.terms))

    # ------------------------------------------------------------- arithmetic

    def _terms_below(self, precision: int) -> Dict[Exponent, Fraction]:
        """The stored terms of total degree below ``precision``."""
        if precision >= self.precision:
            return self.terms
        return {e: c for e, c in self.terms.items() if sum(e) < precision}

    def _scalar(self, c) -> "TruncatedSeries":
        return TruncatedSeries.constant(self.n_vars, c, self.precision)

    def _sum(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        prec = min(self.precision, other.precision)
        terms = _sum_terms(self._terms_below(prec), other._terms_below(prec), sign)
        return TruncatedSeries._trusted(self.n_vars, prec, terms)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            other = TruncatedSeries.from_poly(other, self.precision)
        if not isinstance(other, TruncatedSeries):
            return super().__mul__(other)
        self._check(other)
        prec = min(self.precision, other.precision)
        return TruncatedSeries._trusted(self.n_vars, prec, _product_terms(self.terms, other.terms, below=prec))

    __rmul__ = __mul__

    # --------------------------------------------------------- series-specific

    def constant_coefficient(self) -> Fraction:
        return self.terms.get((0,) * self.n_vars, Fraction(0))

    def valuation(self):
        """Least total degree of a stored term; INFINITY when none remain."""
        if not self.terms:
            return INFINITY
        return min(sum(e) for e in self.terms)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse at the same precision; requires a unit
        constant term.

        Fraction-free: self is scaled once to int terms u over den.  With u_k
        the slice of total degree k, the int slices V_0 = 1 and
        V_d = -sum_{k=1..d} u_k u0^(k-1) V_(d-k) (one ``_accumulate`` per k)
        give 1/u = sum_d V_d / u0^(d+1), so each term is divided once.
        """
        nums, den = _scaled(self.terms)
        zero = (0,) * self.n_vars
        u0 = nums.get(zero)
        if not u0:
            raise NonUnitError("series has zero constant term")
        weighted: Dict[int, Dict[Exponent, int]] = {}  # k -> u_k u0^(k-1)
        for e, v in nums.items():
            k = sum(e)
            if k:
                weighted.setdefault(k, {})[e] = v * u0 ** (k - 1)
        slices, terms, power = [{zero: 1}], {zero: Fraction(den, u0)}, u0
        for d in range(1, self.precision):
            acc: Dict[Exponent, int] = {}
            for k, u_k in weighted.items():
                if k <= d:
                    _accumulate(u_k, slices[d - k], acc=acc)
            slices.append({e: -v for e, v in acc.items() if v})
            power *= u0
            terms.update((e, Fraction(den * v, power)) for e, v in slices[d].items())
        return TruncatedSeries._trusted(self.n_vars, self.precision, terms)

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term, at the same precision."""
        if self.constant_coefficient():
            raise DomainError("exp needs a zero constant term")
        K = self.precision
        result = TruncatedSeries.one(self.n_vars, K)
        power = TruncatedSeries.one(self.n_vars, K)
        fact = 1
        for k in range(1, K):
            power = power * self
            if not power.terms:
                break
            fact *= k
            result = result + power * Fraction(1, fact)
        return result

    def integrate(self, i: int) -> "TruncatedSeries":
        """Antiderivative in variable i with zero constant; precision K+1."""
        if not 0 <= i < self.n_vars:
            raise DimensionMismatch(f"variable index {i} out of range")
        out: Dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            e = list(exp)
            e[i] += 1
            out[tuple(e)] = c / e[i]
        return TruncatedSeries._trusted(self.n_vars, self.precision + 1, out)

    def differentiate(self, i: int) -> "TruncatedSeries":
        """Partial derivative in variable i; precision drops to K-1."""
        if not 0 <= i < self.n_vars:
            raise DimensionMismatch(f"variable index {i} out of range")
        if self.precision < 2:
            raise DomainError("cannot differentiate below precision 1")
        out: Dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            if exp[i]:
                e = list(exp)
                e[i] -= 1
                out[tuple(e)] = c * exp[i]
        return TruncatedSeries._trusted(self.n_vars, self.precision - 1, out)

    # ------------------------------------------------------------- inspection

    def agrees_with(self, other: "TruncatedSeries", through_degree: int | None = None) -> bool:
        """Equality of terms below a degree bound (default: the shared precision)."""
        self._check(other)
        bound = min(self.precision, other.precision)
        if through_degree is not None:
            bound = min(bound, through_degree + 1)
        for exp in set(self.terms) | set(other.terms):
            if sum(exp) < bound and self.terms.get(exp, 0) != other.terms.get(exp, 0):
                return False
        return True

    def render(self, names=None) -> str:
        body = self.poly_part().render(names or default_names(self.n_vars))
        return f"{body} + O(deg {self.precision})"

    def __repr__(self):
        return f"TruncatedSeries({self.n_vars}, K={self.precision}, {self.poly_part().render()!r})"
