"""Sparse multivariate polynomials over exact rationals.

Terms are stored as a dict mapping exponent tuples to ``Fraction``
coefficients; zero coefficients are never stored.  Instances are treated as
immutable: no method mutates ``self``, every operation returns a fresh
polynomial.

Sums and products of polynomials, truncated series and Weyl operators run
through two plain functions.  ``_sum_terms`` merges the terms as they are,
with one ``Fraction`` addition per shared key.  ``_product_terms`` is
fraction-free: each factor's terms are scaled to integers by the lcm of
their denominators (``_scaled``), multiplied and accumulated as plain ints
(``_accumulate``, which the series inverse, the operator action of
:mod:`socle.weyl` and the chain map of :mod:`socle.derham` call directly;
where the product commutes, the factor with fewer terms runs its outer
loop), and each surviving term is divided once by the denominator.  Products form
every pair of terms; a truncated series drops the terms past its precision
afterwards.  A factor of one term, such as a monomial x^l, only shifts the
other factor's keys and multiplies its coefficients, with nothing scaled or
divided.  The operator action and the sweep of :mod:`socle.seriesdecomp`
share one packed-int key layout (``_pack``), in which a product of two keys
is one int addition (``_accumulate``'s packed path).
Results of this internal arithmetic are built by ``_trusted`` constructors
that skip re-validation, since their terms are valid by construction; the
public constructors keep every check.  A result that its caller may never
read can instead be left pending (``_from_ints``): int numerators over one
denominator, whose ``Fraction`` terms are built on the first read.

Polynomials, truncated series, Weyl operators and the elements of E share one
shell, ``_TermShell``: the one validating public constructor (each type
checks its own keys in ``_key``), sums, differences, negation, scalar
products, equality and the variable-count check are defined there once.
``_render`` is the one sign-and-magnitude text rule of polynomials,
operators and E.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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
    """(numerators, den) with ``terms[k] == numerators[k] / den``, in the key
    order of ``terms``, where den is the lcm of the denominators; ``lcm`` is
    called only for a denominator that does not divide the lcm so far."""
    den = 1
    for c in terms.values():
        d = c.denominator
        if den % d:
            den = lcm(den, d)
    if den == 1:
        return {k: c.numerator for k, c in terms.items()}, 1
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def _pack(exp: Sequence[int], width: int) -> int:
    """The key of an exponent tuple: ``exp[i]`` in the ``width``-bit digit
    from bit ``width * i`` up.  Keys add and subtract as exponents do while
    every digit stays in 0..2^width - 1."""
    key = 0
    for e in reversed(exp):
        key = key << width | e
    return key


def _unpack(key: int, width: int, n_digits: int) -> Exponent:
    """The lowest ``n_digits`` digits of a key ``_pack`` made, as a tuple."""
    mask, out = (1 << width) - 1, []
    for _ in range(n_digits):
        out.append(key & mask)
        key >>= width
    return tuple(out)


def _accumulate(
    lhs: Mapping[Hashable, int],
    rhs: Mapping[Hashable, int],
    expand: Callable[[Hashable, Hashable], Iterable[Tuple[Hashable, int]]] | None = None,
    acc: Dict[Hashable, int] | None = None,
    packed: bool = False,
) -> Dict[Hashable, int]:
    """The int terms of the product ``lhs * rhs`` of two int term dicts; a
    term may cancel to 0 and is then still listed.

    With ``expand`` None the keys are exponent tuples that add, and every
    pair of terms is formed.  With ``packed`` they are instead ints that
    add, such as ``_pack`` keys whose digits never carry, and a product of
    two keys is one int addition.  In these two paths the product
    commutes, and the factor with fewer terms runs the outer loop (``lhs``
    on a tie), so both list the terms in one order.  Otherwise
    ``expand(k1, k2)`` lists the (key, int weight) terms a pair of keys
    combines to, such as a normal-ordered operator product, which does not
    commute: ``lhs`` runs the outer loop.  With ``acc`` the terms are added
    into that dict, which is returned.
    """
    acc = {} if acc is None else acc
    get = acc.get
    if expand is None and len(rhs) < len(lhs):
        lhs, rhs = rhs, lhs
    right = list(rhs.items())
    if packed:
        for k1, v1 in lhs.items():
            for k2, v2 in right:
                k = k1 + k2
                acc[k] = get(k, 0) + v1 * v2
    elif expand is None:
        for e1, v1 in lhs.items():
            for e2, v2 in right:
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + v1 * v2
    else:
        for k1, v1 in lhs.items():
            for k2, v2 in right:
                v = v1 * v2
                for k, w in expand(k1, k2):
                    acc[k] = get(k, 0) + v * w
    return acc


def _sum_terms(
    base: Mapping[Hashable, Fraction], other: Mapping[Hashable, Fraction], sign: int
) -> Dict[Hashable, Fraction]:
    """The terms of ``base + sign * other`` (``sign`` is 1 or -1): one
    ``Fraction`` addition per shared key, zeros dropped, every other term
    kept as it is."""
    out = dict(base)
    for k, c in other.items():
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


def _product_terms(
    left: Mapping[Hashable, Fraction],
    right: Mapping[Hashable, Fraction],
    expand: Callable[[Hashable, Hashable], Iterable[Tuple[Hashable, int]]] | None = None,
) -> Dict[Hashable, Fraction]:
    """The terms of ``left * right``, fraction-free: both factors are scaled
    to integers by ``_scaled``, their products accumulated as plain ints by
    ``_accumulate`` (which takes ``expand``), and each surviving term is
    divided once by the common denominator.

    A factor c*x^a of one term, with exponent keys that add (``expand``
    None), only shifts the other factor's keys by a and multiplies its
    coefficients by c, reused as they are when c = 1: the values and the
    order of the terms are those of the general path, and no term can
    cancel."""
    if expand is None and 1 in (len(left), len(right)):
        single, other = (left, right) if len(left) == 1 else (right, left)
        ((a, c),) = single.items()
        if c == 1:
            return {tuple(map(add, e, a)): v for e, v in other.items()}
        return {tuple(map(add, e, a)): c * v for e, v in other.items()}
    (lhs, den), (rhs, rden) = _scaled(left), _scaled(right)
    den *= rden
    return {k: Fraction(v, den) for k, v in _accumulate(lhs, rhs, expand).items() if v}


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
    share: ``n_vars`` and a dict of nonzero ``Fraction`` terms, with the
    public constructor, sums, differences, negation, scalar products and
    equality.

    Sums go through ``_sum_terms``; an int or ``Fraction`` operand is first
    turned into an element by the subclass's ``_scalar`` hook (E has none,
    so it takes no scalar sums).  Operands over different variable counts
    raise ``DimensionMismatch``.  Subclasses add their own products, and
    ``TruncatedSeries`` its precision (``_like``, ``_sum``, ``_shape``).

    An element may be pending (``_from_ints``): it holds int numerators,
    one denominator and a key map in ``_pending`` and leaves the ``terms``
    slot unset.  Its one producer is the remainder R of
    ``weyl.check_euler_identity``, which most callers never read.  The
    first read of ``terms`` reaches ``__getattr__``, which builds the terms
    the eager ``_trusted`` build would hold, in the same order, and stores
    them in the slot.  Python calls ``__getattr__`` only when the ordinary
    lookup fails, so every other read of ``terms`` stays a plain slot read.
    """

    __slots__ = ("n_vars", "terms", "_pending")

    def __init__(self, n_vars: int, terms: Mapping[Hashable, Fraction] | None = None):
        """The public constructor: the subclass's ``_key(n_vars, key)``
        normalizes each key, raises on an invalid one or returns None to drop
        its term; each coefficient is coerced to ``Fraction`` and zero terms
        are dropped."""
        clean: Dict[Hashable, Fraction] = {}
        for key, c in (terms or {}).items():
            key = self._key(n_vars, key)
            if key is None:
                continue
            c = _coerce(c)
            if c:
                clean[key] = c
        self.n_vars = n_vars
        self.terms = clean

    @classmethod
    def zero(cls, n_vars: int):
        return cls(n_vars, {})

    def __repr__(self):
        return f"{type(self).__name__}({self.n_vars}, {self.render()!r})"

    @classmethod
    def _trusted(cls, n_vars: int, terms: Dict[Hashable, Fraction]):
        """Wrap terms that internal arithmetic produced, without the checks of
        the public constructor: keys valid for ``cls`` and ``n_vars``,
        nonzero ``Fraction`` coefficients."""
        p = object.__new__(cls)
        p.n_vars = n_vars
        p.terms = terms
        return p

    @classmethod
    def _from_ints(
        cls,
        n_vars: int,
        nums: Mapping[Hashable, int],
        den: int,
        key: Callable[[Hashable], Hashable],
    ):
        """The pending form of ``_trusted(n_vars, {key(k): Fraction(v, den)
        for k, v in nums.items() if v})``: int numerators (zeros may stay
        listed) under the producer's keys, a positive den and a key map.
        The ``terms`` slot stays unset until its first read, which takes no
        lock: socle reads no element from two threads."""
        p = object.__new__(cls)
        p.n_vars = n_vars
        p._pending = (nums, den, key)
        return p

    def __getattr__(self, name):
        """Build the terms of the pending form on the first read of
        ``terms`` and store them in the slot.  Python calls this only when
        the ordinary lookup fails: for ``terms``, while its slot is unset."""
        if name != "terms":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        nums, den, key = self._pending
        terms = self.terms = {key(k): Fraction(v, den) for k, v in nums.items() if v}
        del self._pending
        return terms

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
        return self._like(_sum_terms(self.terms, other.terms, sign))

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
        super().__init__(n_vars, terms)

    @staticmethod
    def _key(n_vars: int, exp) -> Exponent:
        exp = tuple(exp)
        if len(exp) != n_vars or any(e < 0 for e in exp):
            raise DomainError(f"bad exponent {exp} for {n_vars} variables")
        return exp

    # ------------------------------------------------------------ constructors

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
        return MultiPoly._trusted(self.n_vars, _product_terms(self.terms, other.terms))

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

    def render(self) -> str:
        """Deterministic text form, parseable by :mod:`socle.grammar`."""
        names = default_names(self.n_vars)
        return _render(self.terms, lambda exp: _power_factors(names, exp))


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
    return graded_piece_codes(degree, n_vars, 0)[0]


def graded_piece_codes(degree: int, n_vars: int, width: int) -> Tuple[list, list]:
    """``graded_piece_basis`` together with the packed code of each exponent,
    sum_i e_i << (width * (i + 1)).

    The code is linear in the exponent, so multiplying by x^a adds the code
    of a; it is one-to-one on exponents whose entries span fewer than
    2^width values, and leaves the lowest ``width`` bits to the caller.  The
    codes are updated step by step while the exponents are enumerated.
    """
    if n_vars < 0:
        raise DomainError("n_vars must be nonnegative")
    if degree < 0 or (n_vars == 0 and degree):
        return [], []
    if n_vars == 0:
        return [()], [0]
    units = [1 << (width * (i + 1)) for i in range(n_vars)]
    last = n_vars - 1
    e = [degree] + [0] * last
    code = degree * units[0]
    exps, codes = [tuple(e)], [code]
    while True:
        # the successor in descending lex order moves one unit from the last
        # nonzero entry before the tail to its right, and the tail with it
        p = last - 1
        while p >= 0 and not e[p]:
            p -= 1
        if p < 0:
            return exps, codes
        t = e[last]
        e[last] = 0
        e[p] -= 1
        e[p + 1] = t + 1
        code += (t + 1) * units[p + 1] - t * units[last] - units[p]
        exps.append(tuple(e))
        codes.append(code)
