"""Text grammar for polynomials and differential operators.

Accepted tokens: integer and rational literals (``3``, ``3/2``), variables
``x0``..``x9`` with ``x y z w`` as aliases for the first four, partials
``d0``..``d9``, the operators ``+ - * ^`` and parentheses.  Juxtaposition
multiplies (``2x``, ``x d0``), and in the operator algebra multiplication is
composition, so ``d0 x0`` normal-orders to ``x0 d0 + 1``.

Parse errors carry the 1-based byte offset of the offending input.  A power
whose expansion would take more than about a second (``POWER_WORK_MAX``) is a
parse error at its exponent, before it is expanded.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod
from typing import List, NamedTuple, Optional

from .errors import ParseError
from .poly import MultiPoly
from .weyl import WeylOp

_ALIASES = {"x": 0, "y": 1, "z": 2, "w": 3}

#: largest estimated work of one power (``_power_work``); with integer
#: coefficients the inputs at the bound parse in 0.7-1.1 s: (x+y)^805,
#: (x+y+z)^58, (x+y+z+w)^25, (x0+...+x9)^7 and (x0*d0)^117 (rational
#: coefficients, (5/7*x+11/3*y)^805: 2.5 s); 2-core x86-64, Python 3.11
POWER_WORK_MAX = 250_000


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
    xs, ds = [xe for xe, _ in base.terms], [de for _, de in base.terms]
    degrees = [
        (max((e[i] for e in xs), default=0), max((e[i] for e in ds), default=0))
        for i in range(base.n_vars)
    ]
    both = [(x, d) for x, d in degrees if x and d]

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


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    i = 0
    byte_pos = 1
    n = len(text)
    while i < n:
        ch = text[i]
        start = byte_pos
        if ch in " \t\r\n":
            i += 1
            byte_pos += len(ch.encode("utf-8"))
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            den = None
            if j < n and text[j] == "/":
                k = j + 1
                if k < n and text[k].isdigit():
                    m = k
                    while m < n and text[m].isdigit():
                        m += 1
                    den = int(text[k:m])
                    j = m
            if den == 0:
                raise ParseError("zero denominator in rational literal", start)
            value = Fraction(num, den) if den is not None else Fraction(num)
            tokens.append(_Token("NUM", value, start))
            byte_pos += j - i
            i = j
            continue
        if ch in "xXyYzZwWdD":
            lower = ch.lower()
            if i + 1 < n and text[i + 1].isdigit():
                if i + 2 < n and text[i + 2].isdigit():
                    raise ParseError("variable indices run 0..9", start)
                idx = int(text[i + 1])
                if lower == "d":
                    tokens.append(_Token("DVAR", idx, start))
                elif lower == "x":
                    tokens.append(_Token("XVAR", idx, start))
                else:
                    raise ParseError(f"indexed form is only for x/d, not {ch!r}", start)
                i += 2
                byte_pos += 2
                continue
            if lower == "d":
                raise ParseError("expected a digit after 'd'", start)
            tokens.append(_Token("XVAR", _ALIASES[lower], start))
            i += 1
            byte_pos += 1
            continue
        if ch in "+-*^()":
            tokens.append(_Token("OP", ch, start))
            i += 1
            byte_pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", start)
    tokens.append(_Token("END", None, byte_pos))
    return tokens


class _Parser:
    """Recursive descent over the token list, producing a WeylOp."""

    def __init__(self, tokens: List[_Token], n_vars: int):
        self.tokens = tokens
        self.pos = 0
        self.n_vars = n_vars

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

    def expr(self) -> WeylOp:
        value = self.term()
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

    def term(self) -> WeylOp:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value == "*":
                self.advance()
                value = value * self.factor()
            elif self._starts_factor(tok):
                value = value * self.factor()
            else:
                return value

    def factor(self) -> WeylOp:
        sign = 1
        tok = self.peek()
        while tok.kind == "OP" and tok.value == "-":
            self.advance()
            sign = -sign
            tok = self.peek()
        value = self.atom()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value == "^":
                self.advance()
                etok = self.advance()
                if etok.kind != "NUM" or etok.value.denominator != 1 or etok.value < 0:
                    raise ParseError("exponent must be a nonnegative integer", etok.offset)
                e = int(etok.value)
                work = _power_work(value, e)
                if work > POWER_WORK_MAX:
                    raise ParseError(
                        f"power {e} of a {len(value.terms)}-term base needs about {work} "
                        f"term products, which exceeds {POWER_WORK_MAX}",
                        etok.offset,
                    )
                value = value**e
            else:
                break
        return value * sign if sign < 0 else value

    def atom(self) -> WeylOp:
        tok = self.advance()
        if tok.kind == "NUM":
            return WeylOp.one(self.n_vars) * tok.value
        if tok.kind == "XVAR":
            if tok.value >= self.n_vars:
                raise ParseError(
                    f"variable index {tok.value} outside the declared {self.n_vars} variables",
                    tok.offset,
                )
            return WeylOp.x_gen(self.n_vars, tok.value)
        if tok.kind == "DVAR":
            if tok.value >= self.n_vars:
                raise ParseError(
                    f"partial index {tok.value} outside the declared {self.n_vars} variables",
                    tok.offset,
                )
            return WeylOp.d_gen(self.n_vars, tok.value)
        if tok.kind == "OP" and tok.value == "(":
            value = self.expr()
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
    """Parse polynomial text: the operator grammar with partials rejected."""
    tokens = _tokenize(text)
    for t in tokens:
        if t.kind == "DVAR":
            raise ParseError("partials are not allowed in a polynomial", t.offset)
    op = _parse_tokens(tokens, n_vars)
    # no DVAR tokens, so every d-exponent is zero
    return MultiPoly(op.n_vars, {xe: c for (xe, _), c in op.terms.items()})
