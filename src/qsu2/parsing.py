"""Recursive-descent parser for the expression grammar.

Grammar (shared by scalars and algebra elements):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (['*'] factor | '/' factor)*
    factor := atom ['^' ['-'] INT]
    atom   := INT | 'q' | NAME | '(' expr ')'

Juxtaposition multiplies.  Division requires a scalar divisor.  The printer
in ncalg emits this same grammar, so parse/print round-trips exactly.
Parentheses nesting deeper than MAX_NESTING (four frames of the descent
each) and an integer literal past Python's int-to-string digit limit are
parse errors.
"""

from __future__ import annotations

import re

from .scalars import ONE, Q, QScalar

__all__ = ["ParseError", "parse_scalar", "parse_with_context"]


class ParseError(ValueError):
    pass


MAX_NESTING = 200

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^|\+|\-|\*|/|\(|\)))")


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}")
            break
        if m.group(1) is not None:
            try:
                out.append(("int", int(m.group(1))))
            except ValueError:
                raise ParseError(f"an integer literal of {len(m.group(1))} "
                                 "digits is too long") from None
        elif m.group(2) is not None:
            out.append(("name", m.group(2)))
        else:
            out.append(("op", m.group(3)))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, atoms):
        self.toks = tokens
        self.i = 0
        self.atoms = atoms  # name -> value; must contain "q"
        self.depth = 0  # open parentheses

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, kind, val=None):
        k, v = self.take()
        if k != kind or (val is not None and v != val):
            got = "end of input" if k is None else repr(v)
            raise ParseError(f"expected {val or kind}, got {got}")
        return v

    def parse(self):
        v = self.expr()
        if self.peek()[0] is not None:
            raise ParseError(f"trailing input at {self.peek()[1]!r}")
        return v

    def expr(self):
        negate = False
        if self.peek() == ("op", "-"):
            self.take()
            negate = True
        v = self.term()
        if negate:
            v = -v
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.take()[1]
            t = self.term()
            v = v + t if op == "+" else v - t
        return v

    def term(self):
        v = self.factor()
        while True:
            k, val = self.peek()
            if k == "op" and val == "*":
                self.take()
                v = v * self.factor()
            elif k == "op" and val == "/":
                self.take()
                v = v / self.factor()
            elif k in ("int", "name") or (k == "op" and val == "("):
                v = v * self.factor()
            else:
                return v

    def factor(self):
        v = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            sign = 1
            if self.peek() == ("op", "-"):
                self.take()
                sign = -1
            k, e = self.take()
            if k != "int":
                raise ParseError("exponent must be an integer")
            v = v ** (sign * e)
        return v

    def atom(self):
        k, v = self.take()
        if k == "int":
            return self.atoms["1"] * v
        if k == "name":
            if v not in self.atoms:
                raise ParseError(f"unknown name {v!r}")
            return self.atoms[v]
        if k == "op" and v == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest over {MAX_NESTING} deep")
            self.depth += 1
            inner = self.expr()
            self.expect("op", ")")
            self.depth -= 1
            return inner
        if k is None:
            raise ParseError("unexpected end of input")
        raise ParseError(f"unexpected token {v!r}")


def parse_with_context(text: str, atoms: dict):
    """Parse with the given name->value atom table ("1" and "q" required)."""
    return _Parser(_tokenize(text), atoms).parse()


def parse_scalar(text: str) -> QScalar:
    v = parse_with_context(text, {"1": ONE, "q": Q})
    if not isinstance(v, QScalar):
        raise ParseError("expected a scalar expression")
    return v
