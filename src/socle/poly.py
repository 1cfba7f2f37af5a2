"""Sparse multivariate polynomials over exact rationals.

Terms are stored as a dict mapping exponent tuples to ``Fraction``
coefficients; zero coefficients are never stored.  Instances are treated as
immutable: no method mutates ``self``, every operation returns a fresh
polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence, Tuple

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


class MultiPoly:
    """A polynomial in ``n_vars`` commuting variables with rational coefficients."""

    __slots__ = ("n_vars", "terms")

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

    def _check(self, other: "MultiPoly") -> None:
        if self.n_vars != other.n_vars:
            raise DimensionMismatch(
                f"mixed variable counts: {self.n_vars} vs {other.n_vars}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.n_vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp, Fraction(0)) + c
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
        return MultiPoly(self.n_vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.n_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.n_vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            return MultiPoly(self.n_vars, {e: c * v for e, v in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out: Dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MultiPoly(self.n_vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError("negative powers are not polynomials")
        result = MultiPoly.one(self.n_vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def partial_derivative(self, i: int) -> "MultiPoly":
        if not 0 <= i < self.n_vars:
            raise DimensionMismatch(f"variable index {i} out of range")
        out: Dict[Exponent, Fraction] = {}
        for exp, c in self.terms.items():
            if exp[i]:
                e = list(exp)
                e[i] -= 1
                out[tuple(e)] = c * exp[i]
        return MultiPoly(self.n_vars, out)

    # ------------------------------------------------------------- inspection

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.n_vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.n_vars == other.n_vars and self.terms == other.terms

    __hash__ = None  # mutable dict inside; not intended as a dict key

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

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.n_vars:
            raise DimensionMismatch("point has wrong number of coordinates")
        pt = [_coerce(p) for p in point]
        total = Fraction(0)
        for exp, c in self.terms.items():
            v = c
            for x, e in zip(pt, exp):
                v *= x**e
            total += v
        return total

    def sorted_terms(self):
        """Terms in descending lexicographic order of exponent (deterministic)."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

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
        return {j: MultiPoly(self.n_vars, t) for j, t in sorted(slices.items())}

    def exact_divide(self, divisor: "MultiPoly"):
        """Return ``self / divisor`` when the division is exact, else None."""
        self._check(divisor)
        if not divisor:
            raise DomainError("division by the zero polynomial")
        lead_exp, lead_c = max(divisor.terms.items(), key=lambda t: t[0])
        rem = dict(self.terms)
        quo: Dict[Exponent, Fraction] = {}
        while rem:
            exp = max(rem)
            if any(a < b for a, b in zip(exp, lead_exp)):
                return None
            q_exp = tuple(a - b for a, b in zip(exp, lead_exp))
            q_c = rem[exp] / lead_c
            quo[q_exp] = q_c
            for d_exp, d_c in divisor.terms.items():
                e = tuple(a + b for a, b in zip(q_exp, d_exp))
                s = rem.get(e, Fraction(0)) - q_c * d_c
                if s:
                    rem[e] = s
                else:
                    rem.pop(e, None)
        return MultiPoly(self.n_vars, quo)

    # -------------------------------------------------------------- rendering

    def render(self, names: Sequence[str] | None = None) -> str:
        """Deterministic text form, parseable by :mod:`socle.grammar`."""
        if not self.terms:
            return "0"
        names = names or default_names(self.n_vars)
        parts = []
        for exp, c in self.sorted_terms():
            factors = []
            if c == -1 and any(exp):
                sign, mag = "-", ""
            elif c == 1 and any(exp):
                sign, mag = "+", ""
            else:
                sign = "-" if c < 0 else "+"
                mag = str(abs(c))
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            body = "*".join(([mag] if mag else []) + factors) or mag
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

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
