"""Evaluate integer arithmetic as a reader would, from the printed text alone.

The grammar has integers, parentheses, ``^``, ``*``, ``+`` and unary ``-``,
with the usual precedence: ``^`` binds tightest and to the right, then
unary ``-``, then ``*``, then ``+``.  So ``-2^10`` is -(2^10), and a
negative base has to be written ``(-2)^10``.  Nothing here comes from the
package whose output it reads.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"\s*(?:(\d+)|(.))")


def _tokens(text: str) -> list[str]:
    out = []
    for number, symbol in _TOKEN.findall(text.strip()):
        if symbol and symbol not in "()^*+-":
            raise ValueError(f"unexpected {symbol!r} in {text!r}")
        out.append(number or symbol)
    return out


def evaluate(text: str) -> int:
    """The value of one arithmetic expression; ValueError if it does not
    parse or has a negative exponent."""
    tokens = _tokens(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        token = peek()
        if token is None or (expected is not None and token != expected):
            raise ValueError(f"expected {expected or 'a token'} at {pos} in {text!r}")
        pos += 1
        return token

    def sum_():
        value = product()
        while peek() == "+":
            take()
            value += product()
        return value

    def product():
        value = signed()
        while peek() == "*":
            take()
            value *= signed()
        return value

    def signed():
        if peek() == "-":
            take()
            return -signed()
        return power()

    def power():
        base = atom()
        if peek() != "^":
            return base
        take()
        exponent = signed()
        if exponent < 0:
            raise ValueError(f"negative exponent in {text!r}")
        return base**exponent

    def atom():
        token = take()
        if token == "(":
            value = sum_()
            take(")")
            return value
        if not token.isdigit():
            raise ValueError(f"unexpected {token!r} in {text!r}")
        return int(token)

    value = sum_()
    if peek() is not None:
        raise ValueError(f"trailing {peek()!r} in {text!r}")
    return value


def equation_holds(text: str) -> bool:
    """Whether ``LHS = RHS`` holds, both sides read by ``evaluate``."""
    lhs, rhs = text.split(" = ")
    return evaluate(lhs) == evaluate(rhs)
