"""Text grammar for polynomials and differential operators.

Accepted tokens: integer and rational literals (``3``, ``3/2``), variables
``x0``..``x9`` with ``x y z w`` as aliases for the first four, partials
``d0``..``d9``, the operators ``+ - * ^`` and parentheses.  Digits are the
ASCII ``0``..``9`` only.  Juxtaposition multiplies (``2x``, ``x d0``), and in
the operator algebra multiplication is composition, so ``d0 x0``
normal-orders to ``x0 d0 + 1``.

Parse errors carry the 1-based byte offset of the offending input; every
accepted character is ASCII, so any other character is an error at its own
offset.  A power or a product whose expansion would take more than about a
second (``POWER_WORK_MAX``), or whose coefficients would pass
``COEFFICIENT_BITS_MAX`` bits, is a parse error before it is expanded: a
power at its exponent, a product at its ``*`` or, for juxtaposed factors, at
the right factor.  A right factor that is a power of a base with a known
term count is checked against the left factor before it is expanded, also
as the first factor of a parenthesized right factor.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, prod
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import ParseError
from .linalg import _reduce_into
from .poly import MultiPoly
from .weyl import WeylOp

_ALIASES = {"x": 0, "y": 1, "z": 2, "w": 3}

#: largest estimated work of one power (``_power_work``) or product
#: (``_refuse_product``), in term products weighted by coefficient size
#: (``_refuse_costly``); the inputs at the bound parse in 0.6-1.2 s:
#: (x+y)^805, (3*x+y)^805, (x+y+z)^58, (x+y+z+w)^25, (x0+...+x9)^7,
#: (x0*d0)^117, (5/7*x+11/3*y)^581, (65535*x+y)^401 and
#: (123456789*x+y)^353, where unweighted (123456789*x+y)^805 took 13 s;
#: 2-core x86-64, Python 3.11
POWER_WORK_MAX = 250_000
#: a term product of b-bit coefficients costs about 1 + b // 2048 products of
#: small ones (``_bits`` estimates b); measured on (c*x+y)^805 for c up to 3^20
_BITS_PER_PRODUCT = 2048
#: largest estimated coefficient bits of a power or a product, twice the
#: longest literal the default int/str digit limit lets through: with b about
#: log2 of the largest |numerator| * denominator (``_bits``), base^e with k
#: terms has about e * (b(base) + log2 k), lhs * rhs about b(lhs) + b(rhs) +
#: log2 of the smaller term count
COEFFICIENT_BITS_MAX = 32_768


def _degrees(op: WeylOp) -> List[Tuple[int, int]]:
    """(X_i, D_i) per variable i: the largest x_i and d_i exponents of op."""
    return [
        (max((xe[i] for xe, _ in op.terms), default=0), max((de[i] for _, de in op.terms), default=0))
        for i in range(op.n_vars)
    ]


def _refuse_product(offset: int, a: WeylOp, terms: int, degrees: List[Tuple[int, int]], bits: int) -> None:
    """A ParseError at ``offset`` when ``a * b`` costs too much, for a right
    factor b with ``terms`` terms, (X_i, D_i) = ``degrees`` and coefficients
    of ``bits`` bits (``_bits``): the work is an estimate of the term
    products, each pair of terms expanding to at most min(D_i(a), X_i(b)) + 1
    terms per variable i under normal ordering."""
    pairs = prod(min(d, x) + 1 for (_, d), (x, _) in zip(_degrees(a), degrees))
    what = f"product of a {len(a.terms)}-term and a {terms}-term factor"
    bits += _bits(a) + max(min(len(a.terms), terms) - 1, 0).bit_length()
    _refuse_costly(offset, what, len(a.terms) * terms * pairs, bits)


def _exact_power_terms(base: WeylOp) -> bool:
    """Whether every power base^e has exactly C(e+k-1, k-1) terms, k >= 2
    the terms of base: they commute (no variable has both x_i and d_i) and
    their exponent vectors are affinely independent, so distinct multisets
    of e terms give distinct monomials, each with a nonzero coefficient.
    The int steps from the first exponent vector are ranked by
    ``_reduce_into`` as they are."""
    keys = [x + d for x, d in base.terms]
    if not 2 <= len(keys) <= 2 * base.n_vars + 1 or any(x and d for x, d in _degrees(base)):
        return False
    steps = [{i: v - o for i, (v, o) in enumerate(zip(key, keys[0])) if v != o} for key in keys[1:]]
    pivots: Dict[int, Dict[int, int]] = {}
    _reduce_into(pivots, steps)
    return len(pivots) == len(steps)


def _bits(op: WeylOp) -> int:
    """About log2 of op's largest |numerator| * denominator, 0 for +-1."""
    sizes = (abs(c.numerator).bit_length() + c.denominator.bit_length() - 2 for c in op.terms.values())
    return max(sizes, default=0)


def _refuse_costly(offset: int, what: str, work: int, bits: int) -> None:
    """A ParseError at ``offset`` when a power or a product, ``what``, has
    coefficients of about ``bits`` bits past ``COEFFICIENT_BITS_MAX``, or
    ``work`` term products past ``POWER_WORK_MAX`` once each is weighted by
    the coefficient size."""
    for limit, text, estimate in (
        (COEFFICIENT_BITS_MAX, "has coefficients of about {} bits", bits),
        (POWER_WORK_MAX, "needs about {} term products, weighted by coefficient size",
         work * (1 + bits // _BITS_PER_PRODUCT)),
    ):
        if estimate > limit:
            raise ParseError(f"{what} {text.format(estimate)}, which exceeds {limit}", offset)


def _power_work(base: WeylOp, e: int) -> int:
    """An estimate of the term products that ``base ** e`` forms.

    A power base^j of a base with k terms has at most C(j+k-1, k-1) terms
    when its variables commute.  Each variable i whose x_i and d_i both
    occur, at most X_i and D_i times in a term, multiplies that by the
    j*min(X_i, D_i) + 1 lower terms that normal ordering adds, and turns each
    pair of terms of a product base^a * base^b into up to
    min(a*D_i, b*X_i) + 1 terms.  The work is the sum, over the products that
    binary powering (``poly._power``) forms, of the terms of both factors
    times the terms that one pair of them expands to.
    """
    k = max(len(base.terms), 1)
    both = [(x, d) for x, d in _degrees(base) if x and d]

    def terms(j: int) -> int:
        return comb(j + k - 1, k - 1) * prod(j * min(x, d) + 1 for x, d in both)

    def pairs(a: int, b: int) -> int:
        return terms(a) * terms(b) * prod(min(a * d, b * x) + 1 for x, d in both)

    work, done, step = 0, 0, 1
    while e:
        if e & 1:
            if done:
                work += pairs(done, step)
            done += step
        if e > 1:
            work += pairs(step, step)
            step *= 2
        e >>= 1
    return work


class _Token(NamedTuple):
    kind: str  # NUM, XVAR, DVAR, OP, END
    value: object
    offset: int  # 1-based byte offset


#: one alternative per token kind; digits are ASCII only, and the last
#: alternative takes any other character, so ``finditer`` never skips one
_SCANNER = re.compile(
    r"(?P<SPACE>[ \t\r\n]+)"
    r"|(?P<OP>[-+*^()])"
    r"|(?P<VAR>[xXyYzZwWdD][0-9]*)"
    r"|(?P<NUM>[0-9]+(?:/[0-9]+)?)"
    r"|(?P<BAD>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> List[_Token]:
    # every accepted character is ASCII and the first other one raises, so a
    # character's byte offset is its index plus one
    tokens: List[_Token] = []
    for m in _SCANNER.finditer(text):
        kind, lexeme, offset = m.lastgroup, m.group(), m.start() + 1
        if kind == "OP":
            tokens.append(_Token("OP", lexeme, offset))
        elif kind == "NUM":
            num, _, den = lexeme.partition("/")
            try:
                num, den = int(num), int(den or 1)
            except ValueError:  # past the interpreter's int/str digit limit
                raise ParseError("literal too long", offset) from None
            if not den:
                raise ParseError("zero denominator in rational literal", offset)
            tokens.append(_Token("NUM", Fraction(num, den), offset))
        elif kind == "VAR":
            ch, index = lexeme[0], lexeme[1:]
            lower = ch.lower()
            if len(index) > 1:
                raise ParseError("variable indices run 0..9", offset)
            if index and lower not in "xd":
                raise ParseError(f"indexed form is only for x/d, not {ch!r}", offset)
            if not index and lower == "d":
                raise ParseError("expected a digit after 'd'", offset)
            value = int(index) if index else _ALIASES[lower]
            tokens.append(_Token("DVAR" if lower == "d" else "XVAR", value, offset))
        elif kind == "BAD":
            raise ParseError(f"unexpected character {lexeme!r}", offset)
    tokens.append(_Token("END", None, len(text) + 1))
    return tokens


class _Parser:
    """Recursive descent over the token list, producing a WeylOp."""

    def __init__(self, tokens: List[_Token], n_vars: int, width: Optional[int] = None):
        self.tokens = tokens
        self.pos = 0
        self.n_vars, self.width = n_vars, width or n_vars  # width: variables of the built operators

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> WeylOp:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError("unexpected trailing input", tok.offset)
        return value

    def expr(self, product: Optional[Tuple[WeylOp, int]] = None) -> WeylOp:
        value = self.term(product)
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if tok.value == "+" else value - rhs
            else:
                return value

    def _starts_factor(self, tok: _Token) -> bool:
        return tok.kind in ("NUM", "XVAR", "DVAR") or (tok.kind == "OP" and tok.value == "(")

    def term(self, product: Optional[Tuple[WeylOp, int]] = None) -> WeylOp:
        value = self.factor(product)
        while True:
            # an oversized product is refused at its '*', or at the first
            # token of the right factor when the factors are juxtaposed
            tok = self.peek()
            if tok.kind == "OP" and tok.value == "*":
                self.advance()
            elif not self._starts_factor(tok):
                return value
            rhs = self.factor((value, tok.offset))
            _refuse_product(tok.offset, value, len(rhs.terms), _degrees(rhs), _bits(rhs))
            value = value * rhs

    def factor(self, product: Optional[Tuple[WeylOp, int]] = None) -> WeylOp:
        """A signed atom with its powers.  As the right factor of a product,
        given as (left factor, offset), a power with a term count known
        before expansion (``_exact_power_terms``) is checked as that
        product's right factor first, its coefficient bits counted as e
        times the base's, a lower bound (the term c x^a gives c^e).  So is
        the first factor of a parenthesized right factor's first term."""
        sign = 1
        tok = self.peek()
        while tok.kind == "OP" and tok.value == "-":
            self.advance()
            sign = -sign
            tok = self.peek()
        value = self.atom(product)
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value == "^":
                self.advance()
                etok = self.advance()
                if etok.kind != "NUM" or etok.value.denominator != 1 or etok.value < 0:
                    raise ParseError("exponent must be a nonnegative integer", etok.offset)
                e = int(etok.value)
                what = f"power {e} of a {len(value.terms)}-term base"
                bits = e * (_bits(value) + max(len(value.terms) - 1, 0).bit_length())
                _refuse_costly(etok.offset, what, _power_work(value, e), bits)
                if product is not None and _exact_power_terms(value):
                    k = len(value.terms)
                    degrees = [(e * x, e * d) for x, d in _degrees(value)]
                    _refuse_product(product[1], product[0], comb(e + k - 1, k - 1), degrees, e * _bits(value))
                value = value**e
            else:
                break
        return value * sign if sign < 0 else value

    def atom(self, product: Optional[Tuple[WeylOp, int]] = None) -> WeylOp:
        tok = self.advance()
        if tok.kind == "NUM":
            return WeylOp.one(self.width) * tok.value
        if tok.kind == "XVAR":
            if tok.value >= self.n_vars:
                raise ParseError(
                    f"variable index {tok.value} outside the declared {self.n_vars} variables",
                    tok.offset,
                )
            return WeylOp.x_gen(self.width, tok.value)
        if tok.kind == "DVAR":
            if tok.value >= self.n_vars:
                raise ParseError(
                    f"partial index {tok.value} outside the declared {self.n_vars} variables",
                    tok.offset,
                )
            return WeylOp.d_gen(self.width, tok.value)
        if tok.kind == "OP" and tok.value == "(":
            value = self.expr(product)
            closing = self.advance()
            if not (closing.kind == "OP" and closing.value == ")"):
                raise ParseError("expected ')'", closing.offset)
            return value
        raise ParseError("expected a number, variable, partial, or '('", tok.offset)


def _used_vars(tokens: List[_Token]) -> int:
    """The inferred variable count: one past the largest index used, at least 1."""
    return 1 + max((t.value for t in tokens if t.kind in ("XVAR", "DVAR")), default=0)


def _parse_tokens(tokens: List[_Token], n_vars: Optional[int]) -> WeylOp:
    """Parse a token list; infer the variable count when not given."""
    return _Parser(tokens, _used_vars(tokens) if n_vars is None else n_vars).parse()


def used_vars(*texts: str) -> int:
    """The variable count that parsing the texts together infers, without
    parsing them: tokenizing is linear, while expanding a power is not."""
    return max(_used_vars(_tokenize(text)) for text in texts)


def parse_operator(text: str, n_vars: Optional[int] = None) -> WeylOp:
    """Parse operator text; infer the variable count when not given."""
    return _parse_tokens(_tokenize(text), n_vars)


def parse_poly(text: str, n_vars: Optional[int] = None) -> MultiPoly:
    """Parse polynomial text: the operator grammar with partials rejected;
    over 0 variables a constant, parsed over one variable that no token names."""
    tokens = _tokenize(text)
    for t in tokens:
        if t.kind == "DVAR":
            raise ParseError("partials are not allowed in a polynomial", t.offset)
    n = _used_vars(tokens) if n_vars is None else n_vars
    op = _Parser(tokens, n, n or 1).parse()
    # no DVAR tokens, so every d-exponent is zero
    return MultiPoly(n, {xe[:n]: c for (xe, _), c in op.terms.items()})
