"""The power-series kernel against the paper's definitions evaluated by
enumerating pi(n, k) (see _oracles.py), on random rational and polynomial
specs."""

from hypothesis import given, settings, strategies as st

from bellseq.conv import convolution_closed, shifted_convolution_closed
from bellseq.ring import Polynomial
from bellseq.seq import (
    BellSequenceSpec,
    RewrittenFormUndefined,
    bell_transform,
    bell_transform_rewritten,
)

from _oracles import closed_form_by_enumeration, rewritten_by_enumeration, shifted_by_enumeration

scalars = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4))
polys = st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(Polynomial)
coefficient_lists = st.one_of(
    st.lists(scalars, max_size=4), st.lists(st.one_of(scalars, polys), max_size=4)
)
specs = (
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), coefficient_lists)
    .filter(lambda abc: abc[0] != 0 or abc[1] != 0)
    .map(lambda abc: BellSequenceSpec(*abc))
)


@settings(max_examples=60, deadline=None)
@given(specs, st.integers(0, 10))
def test_bell_transform(spec, N):
    expected = [closed_form_by_enumeration(spec.a, spec.b, spec.c, 1, n) for n in range(1, N + 1)]
    assert list(bell_transform(spec, N).values) == [1] + expected


@settings(max_examples=60, deadline=None)
@given(specs, st.integers(0, 10))
def test_bell_transform_rewritten(spec, N):
    try:
        values = bell_transform_rewritten(spec, N).values
    except RewrittenFormUndefined as exc:
        assert spec.a * exc.n + spec.b * exc.k + 1 == 0
        return
    expected = [rewritten_by_enumeration(spec.a, spec.b, spec.c, n) for n in range(N + 1)]
    assert list(values) == expected


@settings(max_examples=60, deadline=None)
@given(specs, st.integers(1, 6), st.integers(1, 10))
def test_convolution_closed(spec, r, n):
    expected = closed_form_by_enumeration(spec.a, spec.b, spec.c, r, n)
    assert convolution_closed(spec, r, n) == expected


@settings(max_examples=60, deadline=None)
@given(coefficient_lists, st.integers(1, 5), st.integers(0, 10), st.integers(0, 3))
def test_shifted_convolution_closed(c, r, n, delta):
    assert shifted_convolution_closed(c, r, n, delta) == shifted_by_enumeration(c, r, n, delta)
