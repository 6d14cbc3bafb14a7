"""Parsing and formatting of exact rational numbers.

All quantities in this package (values, costs, probabilities, welfare) are
`fractions.Fraction` instances.  JSON documents carry them either as strings
"num/den", as integers, or as decimal numbers, which are parsed with decimal
(not binary) semantics so that "0.1" means exactly 1/10.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any, Sequence


class RationalParseError(ValueError):
    """Raised when a JSON value cannot be read as an exact rational."""


def parse_rational(obj: Any) -> Fraction:
    """Read a rational from a JSON-decoded value: a Fraction (passed through), an
    int, a "num/den" or decimal string, or a float (read via its shortest decimal
    repr, so only use decimals that are exactly what you mean)."""
    x = _parse(obj)
    return Fraction(*x) if type(x) is tuple else x


def parse_ratio(obj: Any) -> tuple[int, int]:
    """``parse_rational(obj)`` as (numerator, denominator > 0), maybe not in lowest terms."""
    x = _parse(obj)
    return x if type(x) is tuple else (x.numerator, x.denominator)


def _parse(obj: Any) -> Fraction | tuple[int, int]:
    """``parse_ratio(obj)`` for an int or plain "n/d" string, else the one Fraction built."""
    if isinstance(obj, str):   # first: JSON documents carry most values as strings
        text = obj.strip()
        num, slash, den = text.partition("/")
        try:
            # Plain "n/d" (d > 0) and integer strings skip Fraction's regex;
            # ASCII only, since str.isdigit also accepts digits int() refuses.
            if text.isascii() and num.lstrip("+-").isdigit() and (
                    den.strip("0").isdigit() or not slash):
                return int(num), int(den) if slash else 1
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise RationalParseError(f"not a rational: {obj!r}") from exc
    if isinstance(obj, float):
        return Fraction(repr(obj))
    if isinstance(obj, bool) or not isinstance(obj, (int, Fraction)):
        raise RationalParseError(f"not a rational: {obj!r}")
    return obj if isinstance(obj, Fraction) else (obj, 1)


def as_fraction(x) -> Fraction:
    """``x`` itself if it is a Fraction, else ``Fraction(x)``."""
    return x if type(x) is Fraction else Fraction(x)


def scaled(x: Fraction, q: int) -> int:
    """``x * q`` as an int; ``q`` must be a multiple of x's denominator."""
    return x.numerator * (q // x.denominator)


def common_sum(fracs: Sequence[Fraction]) -> tuple[int, int]:
    """(numerator, denominator) of an exact sum, over the lcm of the denominators.

    One integer sum instead of a normalizing Fraction addition per term; the
    sum is 1 iff the two integers are equal.
    """
    den = math.lcm(*[f.denominator for f in fracs])
    return sum([f.numerator * (den // f.denominator) for f in fracs]), den


def format_rational(x: Fraction) -> str:
    """Render a Fraction as "num/den" (or "num" for integers)."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_count(n: int) -> str:
    """``n`` in decimal, or "at least 2^k" past 30 digits: a huge int is never
    converted to decimal, which Python refuses past 4,300 digits."""
    return str(n) if n < 10 ** 30 else f"at least 2^{n.bit_length() - 1}"


def as_float(x: Fraction) -> float:
    """``float(x)``, or a ValueError naming ``x`` if it is outside the float range."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{format_rational(x)} is outside the float range") from None


def rational_json(x: Fraction) -> dict:
    """JSON object carrying both the exact value and a float rendering."""
    return {"exact": format_rational(x), "float": as_float(x)}


def json_object(obj: Any) -> dict:
    """``obj`` itself if it is a JSON object, else a TypeError naming the shape."""
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def load_json(path: str) -> Any:
    """Load a JSON file, decoding numbers exactly (decimal semantics)."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_json(fh.read())


def loads_json(text: str) -> Any:
    """Decode JSON text as ``load_json`` does; nesting too deep is a ValueError."""
    try:
        return json.loads(text, parse_float=Fraction)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None
