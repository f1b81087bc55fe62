"""The power-series kernel against the paper's definitions evaluated by
enumerating pi(n, k) (see _oracles.py), on random rational and polynomial
specs, and at large N against identities that need no enumeration."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bellseq.conv import convolution_closed, shifted_convolution_closed
from bellseq.ring import Polynomial
from bellseq.seq import (
    BellSequenceSpec,
    RewrittenFormUndefined,
    bell_transform,
    bell_transform_rewritten,
    power_table,
)

from _oracles import (
    closed_form_by_enumeration,
    is_canonical,
    rewritten_by_enumeration,
    shifted_by_enumeration,
)

# denominators up to 12, so that the table's scale D is an lcm of coprime ones
scalars = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=12))
polys = st.lists(scalars, min_size=1, max_size=3).map(Polynomial)
coefficient_lists = st.one_of(
    st.lists(scalars, max_size=4), st.lists(st.one_of(scalars, polys), max_size=4)
)
specs = (
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), coefficient_lists)
    .filter(lambda abc: abc[0] != 0 or abc[1] != 0)
    .map(lambda abc: BellSequenceSpec(*abc))
)


def assert_canonical(*values):
    """Every value, and every coefficient of a Polynomial value, is an int or a
    non-integral Fraction."""
    for v in values:
        assert is_canonical(v), repr(v)


@settings(max_examples=60, deadline=None)
@given(specs, st.integers(0, 12))
def test_bell_transform(spec, N):
    expected = [closed_form_by_enumeration(spec.a, spec.b, spec.c, 1, n) for n in range(1, N + 1)]
    values = bell_transform(spec, N).values
    assert list(values) == [1] + expected
    assert_canonical(*values)


@settings(max_examples=60, deadline=None)
@given(specs, st.integers(0, 12))
def test_bell_transform_rewritten(spec, N):
    try:
        values = bell_transform_rewritten(spec, N).values
    except RewrittenFormUndefined as exc:
        assert spec.a * exc.n + spec.b * exc.k + 1 == 0
        return
    expected = [rewritten_by_enumeration(spec.a, spec.b, spec.c, n) for n in range(N + 1)]
    assert list(values) == expected
    assert_canonical(*values)


@settings(max_examples=60, deadline=None)
@given(specs, st.integers(1, 6), st.integers(1, 12))
def test_convolution_closed(spec, r, n):
    expected = closed_form_by_enumeration(spec.a, spec.b, spec.c, r, n)
    value = convolution_closed(spec, r, n)
    assert value == expected
    assert_canonical(value)


@settings(max_examples=60, deadline=None)
@given(coefficient_lists, st.integers(1, 5), st.integers(0, 12), st.integers(0, 3))
def test_shifted_convolution_closed(c, r, n, delta):
    value = shifted_convolution_closed(c, r, n, delta)
    assert value == shifted_by_enumeration(c, r, n, delta)
    assert_canonical(value)


RATIONAL_C = (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5), Fraction(1, 7))


def test_geometric_series_at_large_N():
    # a = 0, b = 1 gives y = 1/(1 - g), so y_n = sum_j c_j y_{n-j} for n >= 1
    y = bell_transform(BellSequenceSpec(0, 1, RATIONAL_C), 60).values
    assert y[0] == 1
    for n in range(1, 61):
        assert y[n] == sum(cj * y[n - j] for j, cj in enumerate(RATIONAL_C, start=1) if j <= n)


def cauchy_power(values, r):
    """The r-th power of sum_n values[n] t^n, truncated at degree len(values) - 1."""
    power = [1] + [0] * (len(values) - 1)
    for _ in range(r):
        power = [sum(power[i] * values[m - i] for i in range(m + 1)) for m in range(len(values))]
    return power


@pytest.mark.parametrize("r", [2, 5])
def test_convolution_closed_is_cauchy_power(r):
    spec = BellSequenceSpec(2, -1, (Fraction(3, 4), Fraction(-1, 6), 2, Fraction(5, 9)))
    power = cauchy_power(bell_transform(spec, 30).values, r)
    assert [convolution_closed(spec, r, n) for n in range(1, 31)] == power[1:]


def test_rational_table_is_integral():
    D, table = power_table(RATIONAL_C, 30)
    assert D == 210
    assert all(type(v) is int for row in table for v in row)


def test_polynomial_table_is_integral():
    c = (Polynomial((Fraction(1, 2), 1)), Fraction(-2, 3), Polynomial((0, Fraction(3, 4))))
    D, table = power_table(c, 20)
    assert D == 12
    for row in table:
        for v in row:
            coefficients = v.coefficients if isinstance(v, Polynomial) else (v,)
            assert all(type(x) is int for x in coefficients), repr(v)
