import random
import subprocess
import sys
from fractions import Fraction
from itertools import zip_longest
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

import bellseq
from bellseq import conv, seq
from bellseq.conv import (
    ConvolutionReport,
    LemmaGuardError,
    check_row,
    compositions,
    convolution_closed,
    convolution_closed_specialized,
    convolution_oracle,
    lemma_identity_check,
    shifted_convolution_closed,
    verify_theorem,
)
from bellseq.ring import WORK, Polynomial, X, generalized_binomial
from bellseq.seq import BellSequenceSpec, SequenceWindow, bell_transform, closed_row, preset

from _oracles import (
    compositions_bruteforce,
    compositions_in_order,
    convolution_bruteforce,
    is_canonical,
    random_fraction,
    random_ring_spec,
    typed_by_degree,
)


def test_package_exports_conv_names():
    # the package lists conv's names itself, and loads conv on first use
    assert bellseq.__all__[-len(conv.__all__):] == conv.__all__
    namespace = {}
    exec("from bellseq import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(bellseq.__all__)
    for name in conv.__all__:
        assert namespace[name] is getattr(bellseq, name) is getattr(conv, name)
    with pytest.raises(AttributeError):
        bellseq.no_such_name


class TestCompositions:
    def test_matches_bruteforce_enumeration(self):
        for n in range(7):
            for r in range(1, 5):
                got = list(compositions(n, r))
                expected = compositions_bruteforce(n, r)
                assert sorted(got) == sorted(expected)
                assert len(got) == comb(n + r - 1, r - 1)
                assert len(set(got)) == len(got)

    def test_deterministic_order(self):
        got = list(compositions(2, 3))
        assert got == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]

    def test_edge_cases(self):
        assert list(compositions(0, 3)) == [(0, 0, 0)]
        assert list(compositions(5, 1)) == [(5,)]
        with pytest.raises(ValueError):
            list(compositions(-1, 2))
        with pytest.raises(ValueError):
            list(compositions(3, 0))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12).flatmap(lambda r: st.tuples(st.integers(0, 24 - r), st.just(r))))
# tails of three parts (r = 5) and of four (r = 6, 8); the tails stay within
# 4096 tuples, so r = 6 takes four-part tails up to n = 15 (3876 tuples) and
# three-part ones at n = 16, and r = 5 three-part tails up to n = 27 (4060)
# and the odometer at n = 28
@example((13, 5))
@example((13, 6))
@example((13, 8))
@example((15, 6))
@example((16, 6))
@example((27, 5))
@example((28, 5))
def test_compositions_in_order(case):
    n, r = case
    count = 0
    for count, (got, expected) in enumerate(
        zip_longest(compositions(n, r), compositions_in_order(n, r)), start=1
    ):
        assert got == expected, (count, got, expected)
    assert count == comb(n + r - 1, r - 1)


def test_first_composition_comes_at_once():
    # 2000 into 6 parts: tails of two parts or more would hold millions of
    # tuples, so the walk starts on the odometer; the child's memory is capped,
    # so tails built past the cap fail it at once instead of filling the host
    code = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))\n"
        "from bellseq.conv import compositions; print(next(compositions(2000, 6)))"
    )
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "(2000, 0, 0, 0, 0, 0)\n"


class TestOracle:
    def test_catalan_two_fold(self):
        spec, _ = preset("catalan")
        w = bell_transform(spec, 4)
        assert convolution_oracle(w, 2, 2) == 14  # 5 + 4 + 5

    def test_single_factor_is_the_sequence(self):
        spec = BellSequenceSpec(2, -1, (1, -2, 1))
        w = bell_transform(spec, 6)
        for n in range(7):
            assert convolution_oracle(w, 1, n) == w.value_at(n)

    def test_n_zero(self):
        spec, _ = preset("motzkin")
        w = bell_transform(spec, 2)
        assert convolution_oracle(w, 2, 0) == 1
        assert convolution_oracle(w, 4, 0) == 1

    def test_window_too_short(self):
        spec, _ = preset("catalan")
        w = bell_transform(spec, 3)
        with pytest.raises(ValueError):
            convolution_oracle(w, 2, 4)

    def test_bad_arguments(self):
        spec, _ = preset("catalan")
        w = bell_transform(spec, 3)
        with pytest.raises(ValueError):
            convolution_oracle(w, 0, 2)
        with pytest.raises(ValueError):
            convolution_oracle(w, 2, 2, delta=-1)

    def test_self_consistency_recursion(self):
        # r-fold sum equals sum_m y_m * (r-1)-fold sum at n-m
        rng = random.Random(99)
        a, b, c = random_ring_spec(rng)
        w = bell_transform(BellSequenceSpec(a, b, c), 8)
        for r in (2, 3, 4):
            for n in range(9):
                direct = convolution_oracle(w, r, n)
                via_recursion = sum(
                    w.value_at(m) * convolution_oracle(w, r - 1, n - m) for m in range(n + 1)
                )
                assert direct == via_recursion


scalars = st.one_of(st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=12))
polys = st.one_of(st.just(Polynomial()), st.lists(scalars, min_size=1, max_size=3).map(Polynomial))
window_values = st.one_of(
    st.lists(st.integers(-4, 4), min_size=1, max_size=8),
    st.lists(scalars, min_size=1, max_size=8),
    st.lists(polys, min_size=1, max_size=8),
    st.lists(st.one_of(scalars, polys), min_size=1, max_size=8),
)
spec_windows = st.builds(
    lambda a, b, c, N: bell_transform(BellSequenceSpec(a, b if a or b else 1, c), N),
    st.integers(-2, 2), st.integers(-2, 2), st.lists(st.one_of(scalars, polys), max_size=3),
    st.integers(0, 7),
)
# spec-less windows may start anywhere, y_0 != 1 included
windows = st.one_of(window_values.map(SequenceWindow), spec_windows)

# y_i = -q x^i: every product with parts >= delta is the monomial -q^r x^M or
# q^r x^M, so the sum's one coefficient is the whole norm bound, r-fold
# power, with the sign of (-1)^r
MONOMIALS = SequenceWindow([-(7**9) * X**i for i in range(8)])
RATIONAL_WITH_ZERO = SequenceWindow(
    [Fraction(1, 2), -1, 3, 0, Fraction(-2, 3), 1, 2, Fraction(5, 4), -3, 1, Fraction(1, 6), 2]
)
POLYNOMIAL_WITH_ZERO = SequenceWindow(
    [1 + X, 2, X, Polynomial(), X**2 - 1, 3, -X, 1, 2 * X + 1, Fraction(1, 2), X, 1 - X]
)


@settings(max_examples=120, deadline=None)
@given(windows, st.integers(1, 5), st.integers(0, 7), st.integers(0, 3))
# r = 1 reads y_(n - delta) alone: a scalar there gives a scalar, a Polynomial
# elsewhere notwithstanding, and the other way round
@example(SequenceWindow([X, 2, Fraction(1, 2)]), 1, 2, 0)
@example(SequenceWindow([X, 2, Fraction(1, 2)]), 1, 2, 1)
@example(SequenceWindow([3, X + 1, 2]), 1, 2, 1)
# n < r*delta: no product survives, and the zero is an int
@example(SequenceWindow([X, X, X, X]), 2, 3, 2)
@example(SequenceWindow([X, X, X, X]), 1, 1, 2)
# a zero Polynomial value among the factors, and a zero sum
@example(SequenceWindow([Polynomial(), 1]), 2, 1, 0)
# Polynomial values whose products cancel to a constant
@example(SequenceWindow([1 + X, 1 - X]), 2, 1, 0)
@example(MONOMIALS, 3, 7, 0)
@example(MONOMIALS, 2, 7, 0)
@example(MONOMIALS, 4, 7, 1)
# delta = 0 with zero values inside: the short-circuit fold
@example(SequenceWindow([1, 0, 2, 0, 3]), 3, 4, 0)
# delta = 0, no zero value: the fold with no branch
@example(SequenceWindow([1, 1 + X, 2 * X, 3]), 3, 3, 0)
# walks of runs of tails, three parts at r = 5 and four at r = 6 and 8, in
# both rings, with a zero y among the values
@example(RATIONAL_WITH_ZERO, 5, 11, 2)
@example(RATIONAL_WITH_ZERO, 6, 8, 1)
@example(RATIONAL_WITH_ZERO, 6, 7, 0)
@example(RATIONAL_WITH_ZERO, 8, 4, 0)
@example(POLYNOMIAL_WITH_ZERO, 5, 11, 2)
@example(POLYNOMIAL_WITH_ZERO, 6, 8, 1)
@example(POLYNOMIAL_WITH_ZERO, 6, 7, 0)
@example(POLYNOMIAL_WITH_ZERO, 8, 4, 0)
def test_oracle_matches_bruteforce(window, r, n, delta):
    n = min(n, window.last_index)
    values = window.values
    value = convolution_oracle(window, r, n, delta)
    assert value == convolution_bruteforce(values, r, n, delta)
    assert is_canonical(value) and typed_by_degree(value), repr(value)


@pytest.mark.parametrize(
    "window, r, n, delta",
    [
        (SequenceWindow([1, 2, 3, 4, 5, 6]), 4, 5, 0),
        (SequenceWindow([Fraction(1, 2), -1, Fraction(2, 3), 0, 1, 1]), 3, 5, 1),
        (SequenceWindow([X, 1 + X, Polynomial(), 2, X, 1]), 3, 5, 1),
        (SequenceWindow([X, 1 + X, Fraction(1, 3), 2, X, 1]), 3, 5, 2),  # n < r*delta
        (SequenceWindow([X, 1 + X, Fraction(1, 3), 2, X, 1]), 1, 5, 0),
    ],
)
def test_oracle_visits_every_composition(monkeypatch, window, r, n, delta):
    # the benchmark counts the oracle's work through conv.compositions, so
    # every composition goes through that name, whatever the ring
    visited = []
    original = conv.compositions

    def counted(n, r):
        for comp in original(n, r):
            visited.append(comp)
            yield comp

    monkeypatch.setattr(conv, "compositions", counted)
    convolution_oracle(window, r, n, delta)
    assert sorted(visited) == sorted(compositions_bruteforce(n, r))


class TestClosedForm:
    def test_r1_reduces_to_sequence(self):
        rng = random.Random(5)
        for _ in range(5):
            a, b, c = random_ring_spec(rng)
            spec = BellSequenceSpec(a, b, c)
            w = bell_transform(spec, 8)
            for n in range(1, 9):
                assert convolution_closed(spec, 1, n) == w.value_at(n)

    def test_catalan_example(self):
        spec, _ = preset("catalan")
        assert convolution_closed(spec, 2, 2) == 14

    def test_motzkin_example_oracle_first(self):
        spec, _ = preset("motzkin")
        w = bell_transform(spec, 3)
        oracle = convolution_oracle(w, 2, 3)
        assert oracle == 12  # M0*M3 + M1*M2 + M2*M1 + M3*M0 = 4+2+2+4
        assert convolution_closed(spec, 2, 3) == oracle
        assert convolution_closed_specialized("motzkin", 2, 3) == oracle

    def test_n_zero_is_out_of_domain(self):
        spec, _ = preset("catalan")
        with pytest.raises(ValueError, match="n >= 1"):
            convolution_closed(spec, 2, 0)

    def test_matches_oracle_on_random_specs(self):
        rng = random.Random(31337)
        for _ in range(6):
            a, b, c = random_ring_spec(rng)
            spec = BellSequenceSpec(a, b, c)
            w = bell_transform(spec, 8)
            for r in range(1, 4):
                for n in range(1, 9):
                    assert convolution_closed(spec, r, n) == convolution_oracle(w, r, n)

    def test_polynomial_spec(self):
        spec, _ = preset("jacobsthal")
        w = bell_transform(spec, 6)
        for r in (1, 2, 3):
            for n in range(1, 7):
                assert convolution_closed(spec, r, n) == convolution_oracle(w, r, n)


class TestSpecializedFamilies:
    def test_catalan(self):
        assert convolution_closed_specialized("catalan", 3, 2) == 27
        spec, _ = preset("catalan")
        w = bell_transform(spec, 10)
        for r in range(1, 5):
            for n in range(11):
                assert convolution_closed_specialized("catalan", r, n) == convolution_oracle(
                    w, r, n
                )

    def test_fuss_catalan(self):
        assert convolution_closed_specialized("fuss_catalan", 2, 1, b=2) == 2
        for b in (2, 3):
            spec, _ = preset("fuss_catalan", b=b)
            w = bell_transform(spec, 8)
            for r in range(1, 4):
                for n in range(9):
                    assert convolution_closed_specialized(
                        "fuss_catalan", r, n, b=b
                    ) == convolution_oracle(w, r, n)

    def test_fibonacci(self):
        assert convolution_closed_specialized("fibonacci", 2, 2) == 1
        spec, _ = preset("fibonacci")
        w = bell_transform(spec, 12)
        for r in range(1, 5):
            for n in range(13):
                assert convolution_closed_specialized("fibonacci", r, n) == convolution_oracle(
                    w, r, n, delta=1
                )

    def test_tribonacci(self):
        spec, _ = preset("tribonacci")
        w = bell_transform(spec, 12)
        for r in range(1, 4):
            for n in range(13):
                assert convolution_closed_specialized("tribonacci", r, n) == convolution_oracle(
                    w, r, n, delta=2
                )

    def test_jacobsthal(self):
        spec, _ = preset("jacobsthal")
        w = bell_transform(spec, 10)
        for r in range(1, 4):
            for n in range(11):
                assert convolution_closed_specialized("jacobsthal", r, n) == convolution_oracle(
                    w, r, n, delta=1
                )

    def test_motzkin_grid(self):
        spec, _ = preset("motzkin")
        w = bell_transform(spec, 10)
        for r in range(1, 5):
            for n in range(11):
                assert convolution_closed_specialized("motzkin", r, n) == convolution_oracle(
                    w, r, n
                )

    def test_two_term(self):
        rng = random.Random(808)
        for _ in range(4):
            c1 = random_fraction(rng)
            c2 = random_fraction(rng)
            if c1 == 0 and c2 == 0:
                continue
            spec = BellSequenceSpec(1, 0, (c1, c2))
            w = bell_transform(spec, 8)
            for r in range(1, 4):
                for n in range(1, 9):
                    assert convolution_closed_specialized(
                        "two_term", r, n, c1=c1, c2=c2
                    ) == convolution_oracle(w, r, n)

    def test_two_term_polynomial_coefficients(self):
        c1, c2 = 1 + X, 2 * X
        spec = BellSequenceSpec(1, 0, (c1, c2))
        w = bell_transform(spec, 5)
        for n in range(1, 6):
            assert convolution_closed_specialized(
                "two_term", 2, n, c1=c1, c2=c2
            ) == convolution_oracle(w, 2, n)

    def test_shift_cutoff_returns_zero(self):
        assert convolution_closed_specialized("fibonacci", 3, 2) == 0
        assert convolution_closed_specialized("tribonacci", 2, 3) == 0
        assert convolution_closed_specialized("jacobsthal", 4, 3) == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            convolution_closed_specialized("golden", 1, 1)
        with pytest.raises(ValueError):
            convolution_closed_specialized("fuss_catalan", 1, 1)
        with pytest.raises(ValueError):
            convolution_closed_specialized("fuss_catalan", 1, 1, b=0)
        with pytest.raises(ValueError):
            convolution_closed_specialized("two_term", 1, 1)
        with pytest.raises(ValueError, match="n >= 1"):
            convolution_closed_specialized("two_term", 1, 0, c1=1, c2=1)
        with pytest.raises(ValueError):
            convolution_closed_specialized("catalan", 0, 1)


class TestShiftedClosedForm:
    def test_fibonacci_example(self):
        spec, _ = preset("fibonacci")
        w = bell_transform(spec, 4)
        assert convolution_oracle(w, 2, 4, delta=1) == 5
        assert shifted_convolution_closed((1, 1), 2, 4, 1) == 5

    def test_shifted_row_of_another_spec(self):
        # y = 1 + t y + t^2 y^2 is Motzkin's 1, 1, 2, 4, 9, ..., and [t^n]
        # (t y)^2 = [t^(n-2)] y^2 is 0, 1, 2, 5, 12, 30 at n = 1..6: the closed
        # side is this spec's own closed form at M = n - 2, not that of the
        # a=0, b=1 family with the same c (10 at n = 5)
        reports = list(check_row(BellSequenceSpec(1, 0, (1, 1)), 2, 6, delta=1))
        assert [(rep.n, rep.lhs, rep.rhs) for rep in reports] == [
            (1, 0, 0), (2, 1, 1), (3, 2, 2), (4, 5, 5), (5, 12, 12), (6, 30, 30)]

    def test_below_shift_cutoff(self):
        assert shifted_convolution_closed((1, 1), 3, 2, 1) == 0
        assert shifted_convolution_closed((1, 1, 1), 2, 3, 2) == 0

    def test_matches_oracle_across_deltas(self):
        for c in ((1, 1), (1, 1, 1), (2, -1)):
            spec = BellSequenceSpec(0, 1, c)
            w = bell_transform(spec, 10)
            for delta in (0, 1, 2):
                for r in range(1, 4):
                    for n in range(11):
                        assert shifted_convolution_closed(c, r, n, delta) == convolution_oracle(
                            w, r, n, delta
                        )

    def test_delta_zero_matches_general_form(self):
        spec = BellSequenceSpec(0, 1, (1, -2, 3))
        for r in range(1, 4):
            for n in range(1, 8):
                assert shifted_convolution_closed(spec.c, r, n, 0) == convolution_closed(
                    spec, r, n
                )

    def test_polynomial_coefficients(self):
        spec, _ = preset("jacobsthal")
        w = bell_transform(spec, 8)
        for delta in (0, 1, 2):
            for r in (1, 2):
                for n in range(9):
                    assert shifted_convolution_closed(spec.c, r, n, delta) == convolution_oracle(
                        w, r, n, delta
                    )


class TestLemmaCheck:
    def test_degenerate_k_zero(self):
        assert lemma_identity_check((1, 1, 1), 7, 4, 0, [1, 2, 3, 4, 5])
        assert lemma_identity_check((0, 2, 3), -4, 0, 0, [7])

    def test_constant_alpha(self):
        assert lemma_identity_check((0, 0, 2), 5, 4, 2, [1, 1, 1, 1, 1])
        assert lemma_identity_check((0, 0, -3), -7, 5, 3, [2, 1, 1, 2, 1, 1])

    def test_known_nonzero_instance(self):
        assert lemma_identity_check((3, 0, -1), 1, 4, 1, [1, 2, 3, 4, 5])

    def test_polynomial_arguments(self):
        xs = [1 + X, 2 * X, 1, X, 1]
        assert lemma_identity_check((0, 0, 2), 5, 4, 2, xs)

    def test_random_admissible_instances(self):
        rng = random.Random(606)
        checked = 0
        while checked < 40:
            p, q, s = (rng.randint(-3, 3) for _ in range(3))
            tau = rng.randint(-6, 6)
            if tau == 0:
                continue
            n = rng.randint(0, 7)
            k = rng.randint(0, n)
            if not all(
                (p * l + q * m + s) != 0 and tau != (p * l + q * m + s)
                for l in range(k + 1)
                for m in range(l, n + 1)
            ):
                continue
            xs = [rng.randint(1, 4) for _ in range(n + 1)]
            assert lemma_identity_check((p, q, s), tau, n, k, xs)
            checked += 1

    def test_guard_violation_names_pair(self):
        # alpha(l, m) = m - 1 vanishes at (0, 1)
        with pytest.raises(LemmaGuardError) as excinfo:
            lemma_identity_check((0, 1, -1), 5, 3, 2, [1, 1, 1, 1])
        assert (excinfo.value.l, excinfo.value.m) == (0, 1)
        assert "l=0, m=1" in str(excinfo.value)

    def test_tau_hit_also_guarded(self):
        # tau - alpha vanishes at (0, 2) for alpha = m + 1, tau = 3
        with pytest.raises(LemmaGuardError) as excinfo:
            lemma_identity_check((0, 1, 1), 3, 3, 1, [1, 1, 1, 1])
        assert (excinfo.value.l, excinfo.value.m) == (0, 2)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            lemma_identity_check((1, 1, 1), 0, 2, 1, [1, 1, 1])
        with pytest.raises(ValueError):
            lemma_identity_check((1, 1, 1), 5, 2, 3, [1, 1, 1])
        with pytest.raises(ValueError):
            lemma_identity_check((1, 1, 1), 5, 2, 1, [1, 1])


class TestVerifyTheorem:
    def test_catalan_grid(self):
        spec, _ = preset("catalan")
        reports = verify_theorem(spec, 3, 6)
        assert len(reports) == 18
        assert all(rep.matched for rep in reports)
        assert [(rep.r, rep.n) for rep in reports] == [
            (r, n) for r in (1, 2, 3) for n in range(1, 7)
        ]

    def test_r1_reports_reduce_to_sequence(self):
        spec = BellSequenceSpec(0, 1, (1, 2))
        w = bell_transform(spec, 5)
        for rep in verify_theorem(spec, 1, 5):
            assert rep.lhs == rep.rhs == w.value_at(rep.n)

    def test_report_record_fields(self):
        spec, _ = preset("catalan")
        rec = verify_theorem(spec, 1, 2)[1].to_record()
        assert rec == {
            "kind": "verification",
            "r": 1,
            "n": 2,
            "lhs": "5",
            "rhs": "5",
            "matched": True,
        }

    def test_inconsistent_flag_rejected(self):
        # matched is derived from lhs and rhs, so no flag can be passed in
        with pytest.raises(TypeError):
            ConvolutionReport(1, 1, Fraction(1), Fraction(1), False)
        assert ConvolutionReport(1, 1, Fraction(1), Fraction(1)).matched is True
        assert ConvolutionReport(1, 1, Fraction(1), Fraction(2)).matched is False
        assert ConvolutionReport(1, 1, 1 + X, 1 + X).matched is True
        assert ConvolutionReport(1, 1, 1 + X, 1 + 2 * X).matched is False

    def test_bad_bounds(self):
        spec, _ = preset("catalan")
        with pytest.raises(ValueError):
            verify_theorem(spec, 0, 3)

    @pytest.mark.parametrize("name", ["catalan", "jacobsthal", "motzkin"])
    def test_grid_is_the_check_rows(self, name):
        spec, _ = preset(name)
        reports = verify_theorem(spec, 4, 7)
        assert reports == [rep for r in range(1, 5) for rep in check_row(spec, r, 7)]
        assert all(typed_by_degree(rep.lhs) and typed_by_degree(rep.rhs) for rep in reports)

    @pytest.mark.parametrize("c", [(1, 2 * X), (Polynomial((1,)), Polynomial((-1,)))])
    def test_shifted_row_is_typed_by_degree(self, c):
        # delta = 1 on the a=0, b=1 family: y_1 = c_1 is a constant, so both
        # sides at n = r + 1, r y_1, are too
        for r in (1, 2, 3):
            reports = list(check_row(BellSequenceSpec(0, 1, c), r, 8, 1))
            assert all(rep.matched for rep in reports)
            assert all(typed_by_degree(rep.lhs) and typed_by_degree(rep.rhs) for rep in reports)

    def test_row_past_the_price_is_refused_unbuilt(self, monkeypatch):
        # catalan r = 30, n = 60 is refused on its walk's C(89, 60) compositions
        # at the first next(), before the closed side builds or replaces any
        # table
        closed_row(preset("motzkin")[0], 1, range(5))
        kept = seq._last_table
        row = check_row(preset("catalan")[0], 30, 60)
        with pytest.raises(ValueError, match=f"the check row would take more than WORK = {WORK}"):
            next(row)
        assert seq._last_table is kept
        # a grid is refused on its rows' prices before its window is built and
        # before any row's walk or closed side runs, so no stub is reached:
        # row r = 30 of the first, and every row of the second, whose window
        # alone takes seconds

        def unreached(*args, **kwargs):
            raise AssertionError("a row ran before the grid was priced")

        monkeypatch.setattr(conv, "bell_transform", unreached)
        monkeypatch.setattr(conv, "convolution_oracle", unreached)
        monkeypatch.setattr(conv, "convolution_closed", unreached)
        for r_max, n_max in ((30, 60), (3, 2000)):
            with pytest.raises(ValueError, match=f"WORK = {WORK}"):
                verify_theorem(preset("catalan")[0], r_max, n_max)
