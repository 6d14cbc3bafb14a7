from fractions import Fraction as F

import pytest

from pandora_matching.rationals import RationalParseError, parse_rational
from pandora_matching.rng import SplitMix64

from support import next_below

FIXED = ["3/4", "-3/4", "+3/4", " 3/4 ", "3 / 4", "--1", "1_0/3", "٣/4", "1/0",
         "0/5", "12", "0.1", "1e3", "", "/"]


def drawn(count: int = 200, seed: int = 19) -> list[str]:
    """Seeded "n/d" strings: a sign or none, up to seven digits over up to three."""
    rng = SplitMix64(seed)
    return [f"{('', '-', '+')[next_below(rng, 3)]}{next_below(rng, 10 ** 7)}"
            f"/{next_below(rng, 1000)}" for _ in range(count)]


def check(text: str) -> None:
    """parse_rational(text) equals Fraction(text.strip()), or both refuse it."""
    try:
        expected = F(text.strip())
    except (ValueError, ZeroDivisionError):
        with pytest.raises(RationalParseError):
            parse_rational(text)
        return
    value = parse_rational(text)
    assert type(value) is F and value == expected


@pytest.mark.parametrize("text", FIXED)
def test_parse_rational_matches_fraction(text):
    check(text)


def test_parse_rational_matches_fraction_on_drawn_strings():
    for text in drawn():
        check(text)
