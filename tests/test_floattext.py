"""`floattext.text_slots` against `repr`, the oracle it must equal value for
value: random bit patterns, every binade boundary, every power of ten, the
extremes of the format and the switches between positional and scientific
notation."""

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

import fapplab
from fapplab import floattext


def formatted(values) -> list:
    """`text_slots`' text of each value, in order, in blocks of the size that
    `QFunction.write_csv` formats."""
    values = np.asarray(values, dtype=np.float64)
    text = []
    for start in range(0, len(values), 2048):
        slots = floattext.text_slots(values[start:start + 2048])
        lines = np.hstack([slots, np.full((len(slots), 1), ord("\n"), dtype=np.uint8)])
        text += lines[lines != 0].tobytes().decode("ascii").splitlines()
    return text


def assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    want = [repr(v) for v in values.tolist()]
    got = formatted(values)
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not wrong, wrong[:10]


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


def test_random_bit_patterns():
    bits = np.random.default_rng(29).integers(0, 2**64, 1_050_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert values.size >= 10**6
    want = "\n".join(map(repr, values.tolist()))
    assert "\n".join(formatted(values)) == want


def test_every_power_of_two_and_its_neighbours():
    # 2^-1074 .. 2^1023: every binade's lopsided lower boundary, and the
    # subnormal ones, whose boundary is not lopsided
    assert_repr(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_every_power_of_ten_and_its_neighbours():
    assert_repr(with_neighbours([float(f"1e{k}") for k in range(-323, 309)]))


def test_extremes_of_the_format():
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              -1.7976931348623157e308]
    assert formatted(values) == ["0.0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308",
                                 "1.7976931348623157e+308", "-1.7976931348623157e+308"]


def test_notation_switches():
    values = [1e-4, np.nextafter(1e-4, 0.0), 1e16, 9999999999999998.0, 0.001, 123456.789,
              1e15, 1.5e16, -1e-5]
    assert formatted(values) == ["0.0001", "9.999999999999999e-05", "1e+16",
                                 "9999999999999998.0", "0.001", "123456.789",
                                 "1000000000000000.0", "1.5e+16", "-1e-05"]
    assert_repr(with_neighbours(values))


def test_integers_up_to_2_to_the_53():
    rng = np.random.default_rng(53)
    values = np.concatenate([np.arange(2**17), rng.integers(0, 2**53, 2**17, endpoint=True),
                             2**53 - np.arange(2**10)]).astype(np.float64)
    assert_repr(np.concatenate([values, -values]))


def test_ties_and_round_numbers():
    # decimal ties between two shortest candidates, and values with short exact forms
    values = [0.1, 0.2, 0.3, 1 / 3, 2 / 3, 5e-324 * 3, 9007199254740993.0, 1e23, 8.41e21,
              5.0e-310, 4.35e-321, 2.0**-1022 * 3, 0.5, 2.5, 1e22, 123e-20]
    assert_repr(with_neighbours(values))


@settings(database=None, derandomize=True, deadline=None, max_examples=500)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_property_equals_repr(value):
    assert formatted([value]) == [repr(value)]


def test_scale_table():
    # each ceiling lies in [2^127, 2^128) and exceeds 10^e 2^(127 - floor(log2 10^e)) by
    # less than 1
    g = np.zeros(floattext._G_WORDS.shape[1], dtype=object)
    for word in floattext._G_WORDS:
        g = g * 2**32 + word.astype(object)
    for e, (log2, ceiling) in enumerate(zip(floattext._LOG2_POW10.tolist(), g.tolist()),
                                        start=floattext._E_MIN):
        exact = Fraction(10)**e * Fraction(2)**(127 - log2)
        assert 2**127 <= ceiling < 2**128
        assert 0 <= ceiling - exact < 1


def test_scaled_interval_is_rounded_to_odd_exactly():
    # the 128-bit products against exact rationals: floor(x 10^-k), with the
    # lowest bit set exactly when x 10^-k is no integer, for 4v and both ends
    rng = np.random.default_rng(128)
    values = np.concatenate([
        rng.integers(1, 2**63 - 2**52, 4000, dtype=np.uint64).view(np.float64),  # positive
        np.arange(1, 2001, dtype=np.float64), np.ldexp(1.0, np.arange(-1074, 1024, 7)),
        [float(f"1e{k}") for k in range(-323, 309, 5)], [5e-324, 2.2250738585072014e-308]])
    bits = values.view(np.uint64)
    c, k, vbl, vb, vbr = (a.tolist() for a in floattext._scaled(bits))
    exact_hits = 0
    for word, c_, k_, scaled in zip(bits.tolist(), c, k, zip(vbl, vb, vbr)):
        field, fraction = word >> 52, word & (2**52 - 1)
        q = field - 1075 if field else -1074
        closer = fraction == 0 and field > 1
        for cp, got in zip((4 * c_ - 2 + closer, 4 * c_, 4 * c_ + 2), scaled):
            x = Fraction(cp) * Fraction(2)**q / Fraction(10)**k_
            assert got == x.numerator // x.denominator | (x.denominator != 1)
            exact_hits += x.denominator == 1
    assert exact_hits > 1000  # the exact case is exercised, not only the sticky one


def test_decimal_exponent_formula():
    # k = floor(log10 2^q), and floor(log10 (3/4) 2^q) where the lower boundary is
    # closer, over every binary exponent of a double
    for q in range(-1074, 972):
        for closer, scale in ((0, Fraction(1)), (1, Fraction(3, 4))):
            k = (q * 1262611 - closer * 524031) >> 22
            x = scale * Fraction(2)**q
            assert Fraction(10)**k <= x < Fraction(10)**(k + 1)
            assert floattext._E_MIN <= -k <= floattext._E_MAX


def test_cli_import_leaves_the_formatter_unloaded():
    # QFunction.write_csv imports it on its first call; without bytecode every
    # fresh process would compile it
    src = os.path.dirname(os.path.dirname(fapplab.__file__))
    code = "import sys, fapplab.cli\nprint('fapplab.floattext' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60, check=True)
    assert done.stdout.strip() == "False"
