"""The crude first run of the price: each route's parts = 0 run is one
ring.crude triple at least the route's one-run total, so price accepts at
once only what one run would accept, and small requests of every command
are accepted by it alone, while a request near the limits still runs the
full model."""

import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bellseq import cli, conv, ring, seq
from bellseq.ring import WORK, Polynomial, X, parse_element, price, units
from bellseq.seq import BellSequenceSpec, _scaled, growth, preset, work

from _oracles import iterative_partition_count


def total(products) -> int:
    """The weight of every triple, summed with no early exit."""
    return sum(units(*triple) for triple in products)


scalars = st.one_of(st.just(0), st.integers(-20, 20), st.fractions(min_value=-20, max_value=20, max_denominator=6))
entries = st.one_of(scalars, st.lists(scalars, min_size=1, max_size=3).map(Polynomial))
affine = st.tuples(st.integers(0, 300), st.integers(0, 200), st.integers(1, 16))


def check_spec_models(a, b, c, N, r, delta, lambdas=0, room=0, sizes=((0, 0, 1), (0, 0, 1))):
    spec = BellSequenceSpec(a, b, tuple(c))
    # the functional equation, the closed form, and work's choice between them
    assert total(seq._solve_work(spec, N, lambdas, room, 0)) >= total(seq._solve_work(spec, N, lambdas, room, 1))
    D, scaled = _scaled(spec.c)
    assert total(seq._closed_work(spec, r, N, D, scaled, 0)) >= total(seq._closed_work(spec, r, N, D, scaled, 1))
    for rr in (0, r):
        assert total(work(spec, N, rr, 0)) >= total(work(spec, N, rr, 1))
    # the walk of a check row, from growth's sizes as the check row takes
    # them (its rough bound in the crude run), and from given sizes
    rough, grown = seq._rough_growth(spec, N), growth(spec, N)
    for crude_sizes, full_sizes in ((conv._growth_sizes(N, rough), conv._growth_sizes(N, grown)), (sizes, sizes)):
        crude = total(conv._walk_work(N, r, delta, rough[3], crude_sizes, 0))
        assert crude >= total(conv._walk_work(N, r, delta, grown[3], full_sizes, 1))


def check_bell_model(n, k, xs, cross_check):
    each, once = cli._bell_work(n, k, xs, cross_check)
    terms = iterative_partition_count(n, k)
    assert total([cli._bell_bound(n, k, xs, cross_check)]) >= total(
        once + [(terms * count, a, b) for count, a, b in each])


@settings(max_examples=300, deadline=None)
@given(st.integers(-8, 8), st.integers(-8, 8), st.lists(entries, max_size=4), st.integers(0, 60),
       st.integers(1, 8), st.integers(0, 2), st.integers(0, 3), st.integers(0, 64), st.tuples(affine, affine))
# the smallest rows, where a crude bound is tightest
@example(0, 1, [1], 1, 1, 0, 0, 0, ((0, 0, 1), (0, 0, 1)))
@example(1, 0, [1], 1, 2, 0, 0, 0, ((0, 0, 1), (0, 0, 1)))
@example(0, 1, [1, 1], 2, 2, 1, 0, 0, ((0, 0, 1), (0, 0, 1)))
def test_crude_run_bounds_every_spec_model(a, b, c, N, r, delta, lambdas, room, sizes):
    assume(a or b)
    check_spec_models(a, b, c, N, r, delta, lambdas, room, sizes)


@pytest.mark.parametrize("a, b, c", [
    (0, 6, [4 * X]),
    (-8, -3, [Fraction(15, 2), Polynomial((Fraction(5, 3), -7, -6)),
              Polynomial((Fraction(-11, 2), Fraction(15, 2), Fraction(19, 2)))]),
    (6, -3, [Polynomial((6, Fraction(-19, 3), -14)), Fraction(15, 2)]),
])
def test_crude_run_bounds_the_benchmark_examples(a, b, c):
    # the examples of test_benchmark_sizes_are_never_refused, at the sizes
    # it prices: a window and a closed row to 30, a check row to 13 at r = 8,
    # and bell at n = 12, every k
    for N in (13, 30):
        check_spec_models(a, b, c, N, 8, 0)
    for xs in ([parse_element(str(v)) for v in c] * 12, ()):
        for k in range(0, 14):
            check_bell_model(12, k, xs, False)
            if xs:
                check_bell_model(12, k, xs, True)


bell_lists = st.one_of(
    st.lists(st.integers(-20, 20), min_size=41, max_size=41),
    st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=6), min_size=41, max_size=41),
    st.lists(entries, min_size=41, max_size=41),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n + 1))), bell_lists,
       st.booleans(), st.booleans())
@example((1, 1), [1] * 41, False, False)
@example((8, 8), [1] * 41, False, True)
def test_crude_run_bounds_the_bell_model(nk, xs, symbolic, cross_check):
    n, k = nk
    if symbolic:
        xs, cross_check = (), False
    check_bell_model(n, k, xs, cross_check)


@pytest.fixture
def runs(monkeypatch):
    """The largest parts that each price() call of a request asked for."""
    asked = []

    def recording(products, what=""):
        parts_asked = []
        try:
            return ring.price(lambda parts: parts_asked.append(parts) or products(parts), what)
        finally:
            asked.append(max(parts_asked))

    for module in (seq, conv, cli):
        monkeypatch.setattr(module, "price", recording)
    return asked


def run_main(argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("argv", [
    ["seq", "--a=1", "--b=1", "--c=1/2,-2/3,3/2", "--n=8"],
    ["seq", "--a=1", "--b=0", "--c=2+x,-1+3x", "--n=8"],
    ["conv", "--preset=catalan", "--r=3", "--n=7", "--check"],
    ["conv", "--a=0", "--b=1", "--c=1,1/2", "--r=2", "--n=7", "--delta=1"],
    ["conv", "--a=1", "--b=1", "--c=1/3,2", "--r=3", "--n=8", "--closed-only"],
    ["decompose", "--coeffs=1,-1/2,1+x", "--init=0,1,2", "--n=10"],
    ["bell", "--n=8", "--k=3", "--x=1,-2,1/3,x,2,3"],
    ["bell", "--n=8", "--k=3", "--x=1,-2,1/3,x,2,3", "--cross-check"],
    ["bell", "--n=12", "--k=5", "--symbolic"],
])
def test_small_requests_take_the_crude_run_alone(runs, monkeypatch, argv):
    # no full model runs: growth, bell's work and its partition count are
    # never reached
    for module, name in ((seq, "growth"), (conv, "growth"), (cli, "_bell_work"), (cli, "_partition_count")):
        monkeypatch.setattr(module, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
    assert run_main(argv) == 0
    assert runs and set(runs) == {0}


def test_requests_near_the_limits_run_the_full_model(runs):
    # README, Limits: catalan's closed row to 1801 is accepted by 16 runs,
    # and its check row to 2000 refused past them
    catalan = preset("catalan")[0]
    assert seq.price(partial(seq._closed_work, catalan, 1, 1801, *_scaled(catalan.c)), "the closed form")
    assert runs == [16]
    runs.clear()
    assert run_main(["conv", "--preset=catalan", "--r=1", "--n=2000", "--check"]) == 2
    assert runs[0] == 16


def test_crude_bound_is_capped_past_work():
    # where a bound would form an int of the request's size, it stops at a
    # weight past WORK: a walk of 100 parts and bell past n - k = 40
    spec = preset("catalan")[0]
    sizes = conv._growth_sizes(10**6, seq._rough_growth(spec, 10**6))
    assert total(conv._walk_work(10**6, 100, 0, (0, 1), sizes, 0)) > WORK
    assert total([cli._bell_bound(100, 10, [1] * 91)]) > WORK
