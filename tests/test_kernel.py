"""The power-series kernel against the paper's definitions evaluated by
enumerating pi(n, k) (see _oracles.py), on random rational and polynomial
specs, at large N against identities that need no enumeration, and, with
large coefficients, against the same table built in Polynomial arithmetic.
The windows that come from the functional equation instead, rational ones and
those whose every alpha = a*j + b is 0 or 1, are checked against the kernel in
value and type, and so are sequences of calls
that share, grow, reuse and replace the kernel's last table, in both rings,
the packed table of Polynomial entries with its width included, from one
thread and from four.  A Polynomial window, and decompose's window, run
the recurrence twice over the row, and a call that the kept slot already
covers packs nothing."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb, lcm
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bellseq import bellpoly, conv, seq
from bellseq.conv import check_row, convolution_closed, shifted_convolution_closed
from bellseq.ring import WORK, Polynomial, X, _norm, _scale, generalized_binomial, parse_element, price
from bellseq.seq import (
    BellSequenceSpec,
    RecurrenceSpec,
    RewrittenFormUndefined,
    _pack,
    _powers,
    _scaled,
    bell_transform,
    bell_transform_rewritten,
    closed_row,
    decompose,
    fuss_catalan_closed,
    growth,
    preset,
    work,
)

from _oracles import (
    closed_form_by_enumeration,
    closed_form_by_table,
    convolution_bruteforce,
    is_canonical,
    power_table,
    rewritten_by_enumeration,
    shifted_by_enumeration,
    typed_by_degree,
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
    non-integral Fraction, and a value is a Polynomial exactly when its degree
    is at least 1."""
    for v in values:
        assert is_canonical(v) and typed_by_degree(v), repr(v)


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


@settings(max_examples=60, deadline=None)
@given(specs, st.integers(1, 4), st.integers(0, 9), st.sampled_from((1, 2)))
def test_shifted_check_row(spec, r, N, delta):
    # a shifted row of any spec: its closed side is that spec's own closed
    # form at M = n - delta r
    values = bell_transform(spec, N).values
    for rep in check_row(spec, r, N, delta):
        assert rep.lhs == convolution_bruteforce(values, r, rep.n, delta), rep
        assert rep.matched, rep


rational_entries = st.one_of(
    st.just(0), st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=12)
)


@settings(max_examples=150, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5), st.lists(rational_entries, max_size=5),
       st.integers(0, 12))
# a*j + b runs through 0 (j = 1), 1 (j = 2) and 2 (j = 3)
@example(1, -1, [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 12)], 12)
# every j shares a*j + b = 2, so one power row, and c_3 is zero
@example(0, 2, [Fraction(1, 2), -3, 0, Fraction(5, 4)], 12)
def test_rational_window_equals_kernel(a, b, c, N):
    if a == 0 and b == 0:
        b = 1
    spec = BellSequenceSpec(a, b, c)
    values = list(bell_transform(spec, N).values)
    expected = closed_row(spec, 1, range(N + 1))
    assert values == expected
    assert [type(v) for v in values] == [type(e) for e in expected]
    assert_canonical(*values)


window_entries = st.one_of(
    st.just(0), scalars, scalars.map(lambda v: Polynomial((v,))), polys,
    st.lists(st.integers(-2, 2), min_size=2, max_size=3).map(Polynomial),
)
# the (a, b) whose alpha = a*j + b is 0 or 1 at every j drawn
alpha_01_specs = st.one_of(
    st.tuples(st.just((0, 1)), st.lists(window_entries, max_size=4)),
    st.tuples(st.just((1, -1)), st.lists(window_entries, max_size=2)),
    st.tuples(st.sampled_from(((-1, 1), (1, 0))), st.lists(window_entries, max_size=1)),
)


@settings(max_examples=200, deadline=None)
@given(alpha_01_specs, st.integers(0, 12))
# the compositions of 4 through c_3 give T[4][2] = 2*c_1*c_3 + c_2^2 = 0, so
# a constant Polynomial entry's terms cancel in y_4
@example(((0, 1), [2, 2, Polynomial((-1,))]), 4)
# the same at n = 6, where the Polynomial parts cancel to a constant
@example(((0, 1), [0, 1, X, Fraction(-1, 2) * X**2]), 6)
# y_4 = 9 is a constant past the first Polynomial index that no composition
# through c_3 reaches
@example(((0, 1), [0, 3, X]), 8)
# a constant Polynomial c_2 past a scalar c_1, at a = 0 and at a != 0
@example(((0, 1), [3, Polynomial((2,))]), 6)
@example(((1, -1), [Polynomial((2,)), 3]), 6)
def test_polynomial_window_equals_kernel(ab_c, N):
    (a, b), c = ab_c
    spec = BellSequenceSpec(a, b, c)
    values = list(bell_transform(spec, N).values)
    expected = closed_row(spec, 1, range(N + 1))
    assert values == expected
    assert [type(v) for v in values] == [type(e) for e in expected]
    assert_canonical(*values)


non_negative = st.one_of(st.integers(0, 3),
                        st.fractions(min_value=0, max_value=3, max_denominator=12))
# a = 0, b = 1 and every coefficient of every entry of one sign, constant
# Polynomial entries included
one_sign_specs = st.tuples(st.sampled_from((1, -1)), st.lists(st.one_of(
    non_negative, non_negative.map(lambda v: Polynomial((v,))),
    st.lists(non_negative, min_size=1, max_size=3).map(Polynomial),
), max_size=5)).map(lambda sc: BellSequenceSpec(0, 1, tuple(sc[0] * v for v in sc[1])))


@settings(max_examples=150, deadline=None)
@given(one_sign_specs, st.integers(0, 30))
@example(BellSequenceSpec(0, 1, (1, Polynomial((1,)))), 30)
@example(BellSequenceSpec(0, 1, (0, 1, Polynomial((2,)))), 12)
def test_one_sign_window_is_typed_without_a_table(spec, N):
    # a linear recurrence, typed by degree with no table built; closed_row
    # agrees
    closed_row(preset("catalan")[0], 1, range(3))
    kept = seq._last_table
    values = list(bell_transform(spec, N).values)
    assert seq._last_table is kept
    expected = closed_row(spec, 1, range(N + 1))
    assert values == expected
    assert [type(v) for v in values] == [type(e) for e in expected]


def test_linear_recurrence_window_keeps_the_slot():
    # a linear recurrence's window comes from the recurrence alone, so it
    # neither builds nor replaces the kept slot
    closed_row(BellSequenceSpec(1, 1, (1 + X, 2)), 1, range(6))
    kept = seq._last_table
    for spec in (preset("jacobsthal")[0], BellSequenceSpec(0, 1, (3 * X, 0, Polynomial((2,)), 1))):
        bell_transform(spec, 60)
    assert seq._last_table is kept


@pytest.mark.parametrize("run, expected", [
    (lambda: bell_transform(preset("jacobsthal")[0], 40), [40, 40]),
    (lambda: decompose(RecurrenceSpec((1 + X, 2 - X, 3 * X), (1, 0, 2)), 40), [40, 40]),
    (lambda: decompose(RecurrenceSpec((Fraction(1, 2), -1, 3), (1, 0, 2)), 40), [40]),
], ids=["jacobsthal", "decompose", "decompose_rational"])
def test_two_recurrence_runs_per_polynomial_row(monkeypatch, run, expected):
    # one run on the norms, for B, and one on the entries packed at 2^B, and
    # one run alone for a rational row; decompose takes its lambdas from the
    # recurrence's own coefficients, with no window of its own
    lengths = []
    solve = seq._solve

    def counted(spec, N, E, terms):
        lengths.append(N)
        return solve(spec, N, E, terms)

    monkeypatch.setattr(seq, "_solve", counted)
    run()
    assert lengths == expected


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
    sums."""
    table = power_table(spec.c, N)
    expected = [closed_form_by_table(spec.a, spec.b, r, n, table) for n in range(N + 1)]
    values = closed_row(spec, r, range(N + 1))
    assert values == expected
    assert_canonical(*values)


# few entries, zeros among them, so that columns have gaps: c = (1, 0, 1)
# leaves every other cell zero, and a one-entry c one cell a column
sparse_entries = st.lists(st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]),
                          min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6), sparse_entries, st.integers(1, 8), st.integers(0, 40),
       st.randoms(use_true_random=False))
# binom(2k - 20, k - 1): negative, zero for k = 10..18, nonzero again from 19
@example(-1, 2, [1], 1, 40, Random(0))
@example(1, 0, [1, 0, 1], 2, 40, Random(0))
@example(0, 4, [1], 3, 40, Random(0))
@example(-6, -6, [2, 1], 8, 40, Random(0))
def test_stepped_weights_equal_binomials(a, b, c, r, N, rng):
    # every weight of _column, whether stepped along k or formed afresh,
    # equals r binom(a n + b k + r - 1, k - 1) L/k D^(n-k) from
    # generalized_binomial, cell by cell, over table columns with random
    # cells zeroed, at the kernel's own step rule and at a rule that steps
    # wherever the divisor has no zero factor; the slot's L_n is lcm(1..n)
    spec = BellSequenceSpec(a or 1, b, tuple(c))
    closed_row(spec, r, range(N + 1))
    _, D, _, _, table, _, _, lcms, powers = seq._last_table
    assert list(lcms[:N + 1]) == [lcm(*range(1, n + 1)) for n in range(N + 1)]
    assert list(powers[:N + 1]) == ([D**n for n in range(N + 1)] if D > 1 else [])
    columns = [[cell if rng.random() < 0.8 else 0 for cell in table[n]] for n in range(N + 1)]
    expected = [[(k, r * binom * (lcms[n] // k) * D ** (n - k)) for k in range(1, n + 1)
                 if column[k] and (binom := generalized_binomial(spec.a * n + b * k + r - 1, k - 1))]
                for n, column in enumerate(columns)]
    rule = seq._STEP_BITS
    try:
        for seq._STEP_BITS in (rule, -10**9):
            assert [seq._column(spec, r, n, lcms[n], powers, column)
                    for n, column in enumerate(columns)] == expected
    finally:
        seq._STEP_BITS = rule


def test_empty_row_with_polynomial_entries():
    # the norm bound of no index at all; conv --n 0 --closed-only asks for it
    assert closed_row(preset("jacobsthal")[0], 2, []) == []


def test_empty_row_keeps_the_slot():
    # a row of no index builds no table, so the kept slot of another c stays
    closed_row(preset("catalan")[0], 1, range(200))
    kept = seq._last_table
    assert closed_row(preset("motzkin")[0], 2, []) == []
    assert seq._last_table is kept and len(kept[4]) == 200


@pytest.mark.parametrize("build", [
    lambda: closed_row(preset("catalan")[0], 1, (2000,)),
], ids=["closed_row"])
def test_table_past_the_bound_is_refused_unbuilt(build):
    # the row to 2000 is priced past WORK (the row to 1801 is accepted, about
    # 8 s as conv --closed-only); the slot stays
    closed_row(preset("catalan")[0], 1, range(20))
    kept = seq._last_table
    with pytest.raises(ValueError, match=f"the closed form would take more than WORK = {WORK}"):
        build()
    assert seq._last_table is kept


def test_cancelling_recurrence_past_the_bound_builds_no_table():
    # y_n = y_(n-1) - y_(n-2) through a constant Polynomial c_2, whose terms
    # cancel: its window to 1200, where a closed row is refused, comes from
    # the recurrence, and the slot stays
    closed_row(preset("catalan")[0], 1, range(20))
    kept = seq._last_table
    values = bell_transform(BellSequenceSpec(0, 1, (1, Polynomial((-1,)))), 1200).values
    assert seq._last_table is kept
    assert list(values) == [(1, 1, 0, -1, -1, 0)[n % 6] for n in range(1201)]
    assert_canonical(*values)


def test_warm_slot_packs_nothing(monkeypatch):
    # per-index calls whose columns and width the kept slot already holds
    # build no entry list, so no entry is normed or packed again
    spec = BellSequenceSpec(1, 1, (1 + X, Fraction(2, 3) * X))
    closed_row(spec, 3, range(17))
    kept = seq._last_table
    calls = []
    for name in ("_pack", "_norm"):
        original = getattr(seq, name)
        monkeypatch.setattr(seq, name, lambda *args, f=original: calls.append(args) or f(*args))
    for n in range(1, 17):
        closed_row(spec, 3, (n,))
    assert calls == []
    assert seq._last_table[4] is kept[4] and seq._last_table[5][1] is kept[5][1]


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
# past the n of many calls; the sixth equals the first, with a constant
# Polynomial c_1, so it shares the first's slot, and each must still equal a
# call from an empty slot
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


def assert_exact(value, expected):
    """value == expected in canonical form, typed by its degree."""
    assert value == expected
    assert_canonical(value)


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
# per-index calls on the two Polynomial c's in turn, n rising then falling
# and r stepping up, so the packed table is reused, extended, rebuilt wider
# and handed from one c to the other
@example([("closed", c, a, b, r, n)
          for r, n in ((1, 2), (1, 5), (2, 6), (2, 9), (3, 9), (4, 8), (4, 5), (2, 3), (1, 1))
          for c, a, b in ((SHARED_C[4], 0, 1), (SHARED_C[6], 1, 0))])
def test_calls_sharing_a_table(calls):
    for kind, c, a, b, r, n in calls:
        if kind == "shifted":
            value = shifted_convolution_closed(c, r, n, abs(a))
            assert_same(value, fresh(shifted_convolution_closed, c, r, n, abs(a)))
            assert_exact(value, shifted_by_enumeration(c, r, n, abs(a)))
            continue
        b = b if a or b else 1
        spec = BellSequenceSpec(a, b, c)
        if kind == "closed":
            n = max(n, 1)
            value = convolution_closed(spec, r, n)
            assert_same(value, fresh(convolution_closed, spec, r, n))
            assert_exact(value, closed_form_by_enumeration(a, b, c, r, n))
        else:
            values = closed_row(spec, r, range(n + 1))
            assert_same(values, fresh(closed_row, spec, r, range(n + 1)))
            assert_exact(values[0], 1)
            for m, value in enumerate(values[1:], start=1):
                assert_exact(value, closed_form_by_enumeration(a, b, c, r, m))


def fresh(fn, *args):
    """fn(*args) from an empty slot, which is then put back as it was, so the
    calls around it see the slot they would have seen."""
    kept = seq._last_table
    seq._last_table = None
    try:
        return fn(*args)
    finally:
        seq._last_table = kept


def assert_same(value, expected):
    """Equal values of the same type, element by element for a row."""
    assert value == expected
    values, expected = (value, expected) if isinstance(value, list) else ([value], [expected])
    assert [type(v) for v in values] == [type(e) for e in expected], (value, expected)


def test_kept_packed_table_widens():
    # a per-index row whose n and r rise, then fall: every call equals a call
    # from an empty slot, and the kept width doubles when it must grow
    spec = BellSequenceSpec(1, 0, (1 + X, Fraction(-1, 2) * X**2, 3))
    calls = [(r, n) for r in (1, 2, 4) for n in range(1, 21)] + [(3, n) for n in range(20, 0, -3)]
    seq._last_table = None
    widths = []
    for r, n in calls:
        expected = fresh(convolution_closed, spec, r, n)
        assert_same(convolution_closed(spec, r, n), expected)
        widths.append(seq._last_table[5][0])
    assert widths == sorted(widths)
    grown = [w for w, previous in zip(widths[1:], widths) if w != previous]
    assert all(w >= 2 * previous for w, previous in zip(grown, widths))
    assert len(set(widths)) < len(calls) // 4


def test_threads_sweeping_different_c():
    # the threads, more than the cores, step together and switch often, so
    # the last table changes hands, and rings, between almost every pair of
    # calls; each sweep rises and falls in n, at r = 1, 2 and 3 in turn, so
    # the packed tables of the two Polynomial c's must grow their width
    specs = (preset("catalan")[0], BellSequenceSpec(1, 1, (Fraction(1, 2), 0, Fraction(-2, 3))),
             preset("jacobsthal")[0], BellSequenceSpec(0, 1, (1 + X, -3 * X)))
    rs = (1, 2, 3)
    windows = [bell_transform(spec, 40).values for spec in specs]
    expected = [{r: cauchy_power(window, r) for r in rs} for window in windows]
    steps = [(r, n) for r in rs for n in list(range(1, 41)) + list(range(40, 0, -1))]
    barrier = threading.Barrier(len(specs), timeout=30)

    def sweep(spec):
        values = []
        for r, n in steps:
            barrier.wait()
            values.append((r, n, convolution_closed(spec, r, n)))
        return values

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(specs)) as pool:
            results = [f.result() for f in [pool.submit(sweep, spec) for spec in specs]]
    finally:
        sys.setswitchinterval(interval)
    for values, powers in zip(results, expected):
        for r, n, value in values:
            assert_exact(value, powers[r][n])


def test_long_linear_window_is_refused():
    # fibonacci to 200,000 would hold gigabytes of ints and format them in
    # time quadratic in their digits; the price refuses it before the window
    with pytest.raises(ValueError, match=f"the functional equation would take more than WORK = {WORK}"):
        bell_transform(preset("fibonacci")[0], 200000)


def test_wide_packed_row_is_never_kept():
    # check_row(jacobsthal, 2, 300) once left a 111 MiB packed table in the
    # slot; its row is priced past WORK, so it builds no table and the slot
    # stays
    closed_row(preset("catalan")[0], 1, range(20))
    kept = seq._last_table
    with pytest.raises(ValueError, match=f"WORK = {WORK}"):
        next(check_row(preset("jacobsthal")[0], 2, 300))
    assert seq._last_table is kept


# the sizes the benchmark draws, with room for its widened coefficients
bench_scalars = st.fractions(min_value=-20, max_value=20, max_denominator=3)
bench_entries = st.one_of(bench_scalars, st.lists(bench_scalars, min_size=1, max_size=3).map(Polynomial))


@settings(max_examples=60, deadline=None)
@given(st.integers(-8, 8), st.integers(-8, 8), st.lists(bench_entries, min_size=1, max_size=4),
       st.integers(0, 30), st.integers(1, 8), st.integers(1, 13), st.integers(0, 2))
# its check row was once priced past WORK by the walk's bound, at 0.3 s of work
@example(0, 6, [4 * X], 30, 8, 13, 0)
# growth's sizes price these two rows past WORK, and the window's accept them
@example(-8, -3, [Fraction(15, 2), Polynomial((Fraction(5, 3), -7, -6)),
                  Polynomial((Fraction(-11, 2), Fraction(15, 2), Fraction(19, 2)))], 30, 8, 13, 0)
@example(6, -3, [Polynomial((6, Fraction(-19, 3), -14)), Fraction(15, 2)], 30, 8, 13, 0)
def test_benchmark_sizes_are_never_refused(a, b, c, N, r, n, delta):
    # every route at the sizes of the four workloads' requests stays far
    # inside WORK, so the price can never fail a benchmark job
    spec = BellSequenceSpec(a or 1, b, tuple(c))
    assert price(lambda parts: work(spec, N, 0, parts))
    assert price(lambda parts: work(spec, N, r, parts))
    next(check_row(BellSequenceSpec(0, 1, spec.c) if delta else spec, r, n, delta))
    decompose(RecurrenceSpec(spec.c, tuple(range(len(c)))), N + len(c))
    for xs in ([parse_element(str(v)) for v in c] * 12, ()):
        # bell's full model, p(n, k) terms, by each route: the enumeration,
        # the recurrence and the pair
        for k in range(1, 13):
            for route in ((True, False), (False, True), (True, True)):
                groups = bellpoly._bell_products(12, k, xs, *route)(1)
                assert price(lambda parts: groups)


growth_scalars = st.one_of(st.just(0), st.fractions(min_value=-6, max_value=6, max_denominator=4))
growth_entries = st.one_of(growth_scalars, st.lists(growth_scalars, min_size=1, max_size=3).map(Polynomial))


@settings(max_examples=100, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6), st.lists(growth_entries, max_size=4), st.integers(0, 30))
def test_growth_bounds_the_window(a, b, c, N):
    # seq.growth's bound prices every Miller row, and through
    # conv._growth_sizes every check row's walk before its window is built
    assume(a or b)
    spec = BellSequenceSpec(a, b, tuple(c))
    E, q, h, (dp, dq), _ = grown = growth(spec, N)
    (b0, bp, bq), (d0, ep, eq) = conv._growth_sizes(N, grown)
    values = bell_transform(spec, N).values
    for m, (y, Dy) in enumerate(zip(values, _scale(values)[1])):
        for coefficient in getattr(y, "coefficients", (y,)):
            z = E**m * coefficient
            assert z.denominator == 1 and abs(z) < 2 ** (-(-m * q // 16) + h), (m, z)
        degree = getattr(y, "degree", 0)
        assert degree * dq <= m * dp and degree * eq <= d0 * eq + m * ep, (m, degree)
        assert _norm(Dy).bit_length() * bq <= b0 * bq + m * bp, (m, Dy)
