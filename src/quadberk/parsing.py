"""Parsing and printing of rational-map expressions in the variable z.

Accepted grammar: integer and fraction literals in ASCII digits (``a/b``),
the variable ``z``, operators ``+ - * / ^`` with the usual precedence,
parentheses, and implicit multiplication (``3z``, ``2(z+1)``).  Exponents
must be nonnegative integer literals; parentheses nest at most 100 deep.
The expression is expanded into a single rational function on integer
lists (a/b is [a] over [b]), the primitive gcd of numerator and denominator
over Z is cancelled (exact over Z by Gauss's lemma), and the result must
have degree exactly 2; the only Fractions built are the Lift's six.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DegreeError, MapSyntaxError
from .quadmap import Lift

_MAX_DEGREE = 16  # intermediate blow-up guard
_MAX_NESTING = 100  # parenthesis depth; each level costs five Python frames
#: int() converts a digit string this long under any sys.set_int_max_str_digits
#: setting (0, or at least 640; the default is 4,300)
_INT_CHUNK = 640


def _int_from_digits(digits: str) -> int:
    """int(digits) for a run of decimal digits of any length: longer runs
    than int() accepts are converted in halves."""
    if len(digits) <= _INT_CHUNK:
        return int(digits)
    half = len(digits) // 2
    return _int_from_digits(digits[:-half]) * 10**half + _int_from_digits(digits[-half:])


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(_Token("num", _int_from_digits(text[i:j]), i))
            i = j
        elif ch == "z":
            tokens.append(_Token("z", None, i))
            i += 1
        elif ch in "+-*/^()":
            tokens.append(_Token(ch, None, i))
            i += 1
        else:
            raise MapSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", None, len(text)))
    return tokens


def _add(p: list, q: list) -> list:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _mul(p: list, q: list) -> list:
    # Z is a domain: the product of two nonzero leading coefficients is nonzero
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _primitive(p: list) -> list:
    g = gcd(*p)
    return [c // g for c in p]


def _gcd(p: list, q: list) -> list:
    """A primitive gcd of two nonzero polynomials over Z, by the primitive
    remainder sequence: each pseudo-remainder is cut to its primitive part."""
    a, b = _primitive(p), _primitive(q)
    while b:
        r, lead = a, b[-1]
        while len(r) >= len(b):
            c, shift = r[-1], len(r) - len(b)
            r = [lead * x for x in r]
            for i, y in enumerate(b):
                r[shift + i] -= c * y
            while r and r[-1] == 0:
                r.pop()
        a, b = b, _primitive(r) if r else r
    return a


def _div_exact(p: list, q: list) -> list:
    """p/q for a primitive q that divides p over Q: by Gauss's lemma the
    quotient is over Z, so every step of the long division is exact."""
    rem, dq, lead = list(p), len(q) - 1, q[-1]
    quot = [0] * (len(p) - dq)
    for shift in range(len(quot) - 1, -1, -1):
        c = quot[shift] = rem[shift + dq] // lead
        for i, y in enumerate(q):
            rem[shift + i] -= c * y
    return quot


class _RationalFunction:
    """num/den as dense low-to-high int lists, trailing zeros stripped ([] is 0)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    @classmethod
    def constant(cls, c):
        return cls([c] if c else [], [1])

    @classmethod
    def variable(cls):
        return cls([0, 1], [1])

    def _guard(self, pos):
        if len(self.num) > _MAX_DEGREE + 1 or len(self.den) > _MAX_DEGREE + 1:
            raise MapSyntaxError("intermediate degree too large", pos)
        return self

    def add(self, other, pos):
        num = _add(_mul(self.num, other.den), _mul(other.num, self.den))
        return _RationalFunction(num, _mul(self.den, other.den))._guard(pos)

    def sub(self, other, pos):
        return self.add(other.neg(), pos)

    def mul(self, other, pos):
        return _RationalFunction(_mul(self.num, other.num), _mul(self.den, other.den))._guard(pos)

    def div(self, other, pos):
        if not other.num:
            raise MapSyntaxError("division by zero", pos)
        return _RationalFunction(_mul(self.num, other.den), _mul(self.den, other.num))._guard(pos)

    def neg(self):
        return _RationalFunction([-c for c in self.num], self.den)

    def pow(self, exponent, pos):
        result = _RationalFunction.constant(1)
        for _ in range(exponent):
            result = result.mul(self, pos)
        return result


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> _RationalFunction:
        value = self.expression()
        tail = self.peek()
        if tail.kind != "end":
            raise MapSyntaxError("unexpected trailing input", tail.pos)
        return value

    def expression(self) -> _RationalFunction:
        value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            value = value.add(rhs, op.pos) if op.kind == "+" else value.sub(rhs, op.pos)
        return value

    def term(self) -> _RationalFunction:
        value = self.unary()
        while True:
            tok = self.peek()
            if tok.kind in ("*", "/"):
                self.advance()
                rhs = self.unary()
                value = value.mul(rhs, tok.pos) if tok.kind == "*" else value.div(rhs, tok.pos)
            elif tok.kind in ("num", "z", "("):
                # implicit multiplication, same precedence as *
                rhs = self.unary()
                value = value.mul(rhs, tok.pos)
            else:
                return value

    def unary(self) -> _RationalFunction:
        negate = False
        while self.peek().kind in ("+", "-"):
            negate ^= self.advance().kind == "-"
        value = self.power()
        return value.neg() if negate else value

    def power(self) -> _RationalFunction:
        base = self.atom()
        if self.peek().kind == "^":
            op = self.advance()
            exp = self.peek()
            if exp.kind != "num":
                raise MapSyntaxError("exponent must be a nonnegative integer", exp.pos)
            self.advance()
            if exp.value > _MAX_DEGREE:
                raise MapSyntaxError("exponent too large", exp.pos)
            return base.pow(exp.value, op.pos)
        return base

    def atom(self) -> _RationalFunction:
        tok = self.advance()
        if tok.kind == "num":
            return _RationalFunction.constant(tok.value)
        if tok.kind == "z":
            return _RationalFunction.variable()
        if tok.kind == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise MapSyntaxError("parentheses nested too deeply", tok.pos)
            value = self.expression()
            self.depth -= 1
            closing = self.advance()
            if closing.kind != ")":
                raise MapSyntaxError("expected ')'", closing.pos)
            return value
        raise MapSyntaxError("expected a number, 'z' or '('", tok.pos)


def parse_map(text: str) -> Lift:
    """Parse a map expression into a homogeneous lift.

    After cancellation the rational function must have degree exactly 2 in
    numerator or denominator; raises MapSyntaxError (with position),
    DegreeError, or DegenerateMapError.
    """
    rf = _Parser(_tokenize(text)).parse()
    if not rf.num:
        raise DegreeError("the zero map is not a quadratic map")
    common = _gcd(rf.num, rf.den)
    num, den = _div_exact(rf.num, common), _div_exact(rf.den, common)
    deg = max(len(num), len(den)) - 1
    if deg != 2:
        raise DegreeError(f"map has degree {deg}, expected 2")
    # canonical scaling: the degree-2 polynomial (numerator preferred) is monic
    lead = num[2] if len(num) == 3 else den[2]
    num, den = num + [0] * (3 - len(num)), den + [0] * (3 - len(den))
    return Lift(*(Fraction(c, lead) for c in (num[2], num[1], num[0], den[2], den[1], den[0])))


def _poly_to_expr(c2: Fraction, c1: Fraction, c0: Fraction) -> str:
    text = ""
    for coeff, power in ((c2, "z^2"), (c1, "z"), (c0, "")):
        if coeff == 0:
            continue
        mag = abs(coeff)
        body = f"{mag}*{power}" if power and mag != 1 else power or str(mag)
        sign = "-" if coeff < 0 else "+"
        text = f"{text} {sign} {body}" if text else sign.strip("+") + body
    return text or "0"


def lift_to_expr(lift: Lift) -> str:
    """Printable expression for the lift; parses back to the same map up to
    projective scaling."""
    num = _poly_to_expr(lift.a0, lift.a1, lift.a2)
    if lift.b0 == 0 and lift.b1 == 0:
        if lift.b2 == 1:
            return num
        return f"({num})/({lift.b2})"
    den = _poly_to_expr(lift.b0, lift.b1, lift.b2)
    return f"({num})/({den})"
