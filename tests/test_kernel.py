"""The power-series kernel against the paper's definitions evaluated by
enumerating pi(n, k) (see _oracles.py), on random rational and polynomial
specs, at large N against identities that need no enumeration, and, with
large coefficients, against the same table built in Polynomial arithmetic.
The rational window, which comes from the functional equation instead, is
checked against the kernel in value and type, and so are sequences of calls
that share, grow, reuse and replace the kernel's last table, in both rings,
from one thread and from three."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from bellseq.conv import convolution_closed, shifted_convolution_closed
from bellseq.ring import Polynomial, X
from bellseq.seq import (
    BellSequenceSpec,
    RewrittenFormUndefined,
    _pack,
    _powers,
    _scaled,
    bell_transform,
    bell_transform_rewritten,
    closed_row,
    fuss_catalan_closed,
    preset,
)

from _oracles import (
    closed_form_by_enumeration,
    closed_form_by_table,
    is_canonical,
    power_table,
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


rational_entries = st.one_of(
    st.just(0), st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=12)
)


@settings(max_examples=150, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5), st.lists(rational_entries, max_size=5),
       st.integers(0, 12))
# a*j + b runs through 0 (j = 1), 1 (j = 2) and 2 (j = 3)
@example(1, -1, [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 12)], 12)
def test_rational_window_equals_kernel(a, b, c, N):
    if a == 0 and b == 0:
        b = 1
    spec = BellSequenceSpec(a, b, c)
    values = list(bell_transform(spec, N).values)
    expected = closed_row(spec, 1, range(N + 1))
    assert values == expected
    assert [type(v) for v in values] == [type(e) for e in expected]
    assert_canonical(*values)


def test_catalan_window_at_large_N():
    y = bell_transform(preset("catalan")[0], 300).values
    assert list(y) == [comb(2 * n + 2, n + 1) // (n + 2) for n in range(301)]


@pytest.mark.parametrize("b", [-3, 4])
def test_fuss_catalan_window_at_large_N(b):
    # one entry, so the window needs the power y^b alone
    y = bell_transform(preset("fuss_catalan", b)[0], 150).values
    assert list(y) == [fuss_catalan_closed(b, n) for n in range(151)]


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
    D, entries = _scaled(RATIONAL_C)
    assert D == 210
    table = _powers([(j, _pack(e, 64)) for j, e in entries], 30)
    assert all(type(v) is int for row in table for v in row)


def test_polynomial_table_is_integral():
    c = (Polynomial((Fraction(1, 2), 1)), Fraction(-2, 3), Polynomial((0, Fraction(3, 4))))
    D, entries = _scaled(c)
    assert D == 12
    packed = [(j, _pack(e, 64)) for j, e in entries]
    assert all(type(e) is int for _, e in packed)
    table = _powers(packed, 20)
    assert all(type(v) is int for row in table for v in row)


def assert_matches_table(spec, r, N):
    """closed_row over 0..N equals the Polynomial-arithmetic table's column
    sums, with the same type unless the value is zero."""
    table = power_table(spec.c, N)
    expected = [closed_form_by_table(spec.a, spec.b, r, n, table) for n in range(N + 1)]
    values = closed_row(spec, r, range(N + 1))
    assert values == expected
    for v, e in zip(values, expected):
        assert type(v) is type(e) or v == 0, (v, e)
    assert_canonical(*values)


def test_empty_row_with_polynomial_entries():
    # the norm bound of no index at all; conv --n 0 --closed-only asks for it
    assert closed_row(preset("jacobsthal")[0], 2, []) == []


big_scalars = st.fractions(min_value=-10**9, max_value=10**9, max_denominator=12)
big_polys = st.lists(big_scalars, min_size=1, max_size=5).map(Polynomial)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.lists(st.one_of(big_scalars, big_polys), min_size=1, max_size=4),
    st.integers(1, 40),
    st.integers(0, 8),
)
# T[3][5] = 3 c_1^2 c_3 + 3 c_1 c_2^2 cancels to the zero Polynomial and
# T[2][5] has weight 0, so the value at n = 5 has int terms only: an int
@example(0, -2, [1, 1, Polynomial((-1,))], 5, 6)
def test_packed_kernel_matches_polynomial_table(a, b, c, r, N):
    if a == 0 and b == 0:
        b = 1
    assert_matches_table(BellSequenceSpec(a, b, c), r, N)


positive = st.fractions(min_value=Fraction(1, 12), max_value=10**9, max_denominator=12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.lists(positive, min_size=1, max_size=4),
    st.integers(1, 40),
    st.integers(1, 8),
)
def test_packed_kernel_tight_bound(a, b, q, r, N):
    # entries q_j x^j with q_j > 0 and weights binom(a n + b k + r-1, k-1) >= 0:
    # each column sum is one monomial whose coefficient is the column's norm
    # sum, and the largest of them is the bound itself, so B needs its sign bit
    if a == 0 and b == 0:
        b = 1
    c = [qj * X**j for j, qj in enumerate(q, start=1)]
    assert_matches_table(BellSequenceSpec(a, b, c), r, N)


# the one Fraction of the second and the one Polynomial of the fifth are c_4,
# past the n of many calls; the sixth equals the first in value, with a
# constant Polynomial c_1, so the slot must tell them apart by type
SHARED_C = ((2, 1), (1, 0, 0, Fraction(1, 7)), (Fraction(1, 2), -1, Fraction(2, 3)), (-1, 0, 3),
            (1, 0, 0, Fraction(1, 7) * X), (Polynomial((2,)), 1), (Fraction(1, 2), 1 + X))
table_calls = st.lists(
    st.tuples(
        st.sampled_from(("closed", "shifted", "row")),
        st.sampled_from(SHARED_C),
        st.integers(-2, 2),  # a, or delta for a shifted call
        st.integers(-2, 2),
        st.integers(1, 4),
        st.integers(0, 9),
    ),
    min_size=1,
    max_size=12,
)


def assert_exact(value, expected, typed=None):
    """value == expected in canonical form, and a Polynomial exactly when
    typed (expected by default) is one unless the value is zero, the rule of
    assert_matches_table."""
    assert value == expected
    assert_canonical(value)
    typed = expected if typed is None else typed
    assert isinstance(value, Polynomial) == isinstance(typed, Polynomial) or value == 0, (
        value, typed)


def assert_closed(value, a, b, c, r, n):
    """value is the closed form at index n >= 1: enumeration gives the value
    and the Polynomial-arithmetic table the type, because enumeration also
    adds the terms of weight zero, which are Polynomials in that ring."""
    assert_exact(value, closed_form_by_enumeration(a, b, c, r, n),
                 closed_form_by_table(a, b, r, n, power_table(c, n)))


@settings(max_examples=60, deadline=None)
@given(table_calls)
# one c under three (a, b) and two r, n rising then falling
@example([("closed", (2, 1), 1, 0, 1, n) for n in (1, 3, 6, 9)]
         + [("row", (2, 1), -1, 2, 3, 7), ("closed", (2, 1), 0, 1, 2, 4),
            ("closed", (2, 1), 1, 0, 1, 2)])
# interleaved specs, and calls at n <= 3 after the table knows c_4 = 1/7
@example([("closed", SHARED_C[1], 1, 0, 2, 8), ("closed", SHARED_C[2], 1, 1, 1, 5),
          ("closed", SHARED_C[1], 1, 0, 2, 9), ("shifted", SHARED_C[1], 0, 0, 1, 3),
          ("closed", SHARED_C[1], -1, 1, 3, 2), ("row", SHARED_C[1], 2, 0, 1, 3),
          ("shifted", SHARED_C[2], 1, 0, 2, 9), ("closed", SHARED_C[1], 1, -2, 4, 1)])
# across the rings: (2, 1) and its constant-Polynomial twin in turn, then the
# Polynomial c_4 = x/7 asked below n = 4, past it, and below it again
@example([("closed", SHARED_C[0], 1, 0, 1, 3), ("closed", SHARED_C[5], 1, 0, 1, 3),
          ("row", SHARED_C[0], 0, 1, 2, 4), ("row", SHARED_C[5], 0, 1, 2, 5),
          ("closed", SHARED_C[4], 0, 1, 1, 2), ("row", SHARED_C[4], 1, 1, 2, 6),
          ("shifted", SHARED_C[4], 1, 0, 1, 3), ("closed", SHARED_C[4], -1, 2, 3, 3),
          ("closed", SHARED_C[6], 2, -1, 2, 5), ("shifted", SHARED_C[6], 2, 0, 2, 9)])
def test_calls_sharing_a_table(calls):
    for kind, c, a, b, r, n in calls:
        if kind == "shifted":
            assert_exact(shifted_convolution_closed(c, r, n, abs(a)),
                         shifted_by_enumeration(c, r, n, abs(a)))
            continue
        b = b if a or b else 1
        spec = BellSequenceSpec(a, b, c)
        if kind == "closed":
            n = max(n, 1)
            assert_closed(convolution_closed(spec, r, n), a, b, c, r, n)
        else:
            values = closed_row(spec, r, range(n + 1))
            assert_exact(values[0], 1)
            for m, value in enumerate(values[1:], start=1):
                assert_closed(value, a, b, c, r, m)


def test_threads_sweeping_different_c():
    # the threads, more than the cores, step together and switch often, so
    # the last table changes hands, and rings, between almost every pair of
    # calls; each sweep rises and falls, twice
    specs = (preset("catalan")[0], BellSequenceSpec(1, 1, (Fraction(1, 2), 0, Fraction(-2, 3))),
             preset("jacobsthal")[0])
    expected = [cauchy_power(bell_transform(spec, 40).values, 2) for spec in specs]
    steps = 2 * (list(range(1, 41)) + list(range(40, 0, -1)))
    barrier = threading.Barrier(len(specs), timeout=30)

    def sweep(spec):
        values = []
        for n in steps:
            barrier.wait()
            values.append((n, convolution_closed(spec, 2, n)))
        return values

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(specs)) as pool:
            results = [f.result() for f in [pool.submit(sweep, spec) for spec in specs]]
    finally:
        sys.setswitchinterval(interval)
    for values, power in zip(results, expected):
        for n, value in values:
            assert_exact(value, power[n])
