"""Exact rational scalars and vectors.

Scalars are ``fractions.Fraction`` (always reduced, positive denominator),
vectors are plain tuples of Fractions.  These are the types of the package's
interfaces; underneath, the engines scale by common denominators and work in
Python integers.  Nothing in this package ever touches floating point.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatch, InputError, MalformedRational

Rat = Fraction
QVec = tuple[Fraction, ...]
IntVec = tuple[int, ...]

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def rat(value) -> Fraction:
    """Coerce an int, Fraction or strict "p/q" string to a Fraction.

    String form is deliberately narrow: an optional sign, digits, and an
    optional /q part.  Decimal or float-ish spellings are rejected so that
    documents stay unambiguous, and so are digit strings longer than the
    interpreter converts to an int (``sys.get_int_max_str_digits``).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RAT_RE.match(text):
            raise MalformedRational(f"malformed rational literal: {value!r}")
        num, _, den = text.partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError as exc:
            raise MalformedRational(f"rational literal with too many digits: {exc}") from None
        if den == 0:
            raise MalformedRational(f"zero denominator: {value!r}")
        return Fraction(num, den)
    raise MalformedRational(f"cannot interpret {value!r} as a rational")


def integer(value, name: str) -> int:
    """``value`` when it is a Python int and not a bool; anything else,
    a float or a numeric string included, is an ``InputError`` rather than
    a truncated or reparsed number."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return value


def instance(value, kind: type):
    """``value`` when it is a ``kind``; anything else is an ``InputError``."""
    if not isinstance(value, kind):
        raise InputError(f"expected a {kind.__name__}, got {value!r}")
    return value


def rat_str(value: Fraction) -> str:
    """Render a Fraction as "n" or "p/q"; ``value`` is read by ``rat``."""
    value = rat(value)
    return ratio_str(value.numerator, value.denominator)


def ratio_str(num: int, den: int) -> str:
    """``rat_str`` of num / den for ints with den > 0, in integers."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def iterate(value, name: str) -> Iterator:
    """An iterator over ``value``; a value with none, or a ``str`` (never split into characters), is an ``InputError``."""
    try:
        if isinstance(value, str):
            raise TypeError
        return iter(value)
    except TypeError:
        raise InputError(f"{name} must be a collection, got {value!r}") from None


def qvec(entries: Iterable, dim: int | None = None) -> QVec:
    """Coerce an iterable of rational-like entries to a QVec."""
    vec = tuple(rat(e) for e in iterate(entries, "a vector"))
    if dim is not None and len(vec) != dim:
        raise DimensionMismatch(f"expected a vector of length {dim}, got {len(vec)}")
    return vec


def qvec_str(vec: Sequence[Fraction]) -> str:
    return "(" + ",".join(rat_str(e) for e in vec) + ")"


def row_str(row: Sequence[int], den: int) -> str:
    """``qvec_str`` of row / den for ints with den > 0, in integers: the one writer of a den-scaled row."""
    return "(" + ",".join(ratio_str(c, den) for c in row) + ")"


def common_denominator(vectors: Iterable[Sequence[Fraction]]) -> int:
    """lcm of the denominators of every entry of every vector (at least 1)."""
    den = 1
    for vec in vectors:
        for e in vec:
            den = lcm(den, Fraction(e).denominator)
    return den


def scaled_int_vector(vec: Sequence[Fraction], scale: int) -> tuple[int, ...]:
    """scale*vec as integers; raises if any entry fails to clear.

    Entries are reduced (``Fraction`` or int), so scale*e is integral exactly
    when e.denominator divides scale."""
    for e in vec:
        if scale % e.denominator:
            raise ValueError(f"{scale} does not clear the denominator of {e}")
    return tuple(e.numerator * (scale // e.denominator) for e in vec)
