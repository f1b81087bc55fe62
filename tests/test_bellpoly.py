import gc
import random
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from bellseq import bellpoly
from bellseq.bellpoly import (
    bell_closed_three_term,
    bell_closed_two_term,
    bell_eval,
    bell_eval_recurrence,
    bell_symbolic,
    enumerate_pi,
)
from bellseq.ring import WORK, Polynomial, X, normalized

from _oracles import (
    bell_numbers,
    is_canonical,
    iterative_partition_count,
    partition_count,
    random_fraction,
    stirling2,
)


def search_depth(n, k):
    """(most frames of enumerate_pi's inner search open at once, its result)."""
    inner = {c for c in enumerate_pi.__code__.co_consts if isinstance(c, types.CodeType)}
    deepest = 0

    def profile(frame, event, arg):
        nonlocal deepest
        if event == "call" and frame.f_code in inner:
            depth = 0
            while frame is not None:
                depth += frame.f_code in inner
                frame = frame.f_back
            deepest = max(deepest, depth)

    sys.setprofile(profile)
    try:
        indices = enumerate_pi(n, k)
    finally:
        sys.setprofile(None)
    return deepest, indices


class TestEnumeratePi:
    def test_known_values(self):
        assert enumerate_pi(3, 2) == [(1, 1)]
        assert enumerate_pi(4, 2) == [(1, 0, 1), (0, 2, 0)]
        for n in range(7):
            assert enumerate_pi(n, n) == [(n,)]

    def test_k_greater_than_n_is_empty(self):
        assert enumerate_pi(3, 5) == []
        assert enumerate_pi(0, 1) == []

    def test_result_is_freed_with_its_last_reference(self):
        # the search leaves no reference cycle behind, so repeated calls
        # (lemma_identity_check makes hundreds) do not hold every past result
        # until a full collection (33 MB a call at bell_eval(157, 4))
        gc.collect()
        enumerate_pi(30, 5)
        assert gc.collect() == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            enumerate_pi(-1, 0)
        with pytest.raises(ValueError):
            enumerate_pi(3, -2)

    def test_indices_satisfy_constraints(self):
        for n in range(13):
            for k in range(n + 1):
                for alpha in enumerate_pi(n, k):
                    assert len(alpha) == n - k + 1
                    assert sum(alpha) == k
                    assert sum(i * a for i, a in enumerate(alpha, 1)) == n

    def test_count_matches_partition_recurrence(self):
        for n in range(16):
            for k in range(n + 2):
                assert len(enumerate_pi(n, k)) == partition_count(n, k)

    def test_descending_lexicographic_order(self):
        for n in range(12):
            for k in range(n + 1):
                vecs = enumerate_pi(n, k)
                assert vecs == sorted(vecs, reverse=True)
                assert len(set(vecs)) == len(vecs)

    def test_search_depth_is_distinct_part_sizes(self):
        # one frame per distinct part size and 1 + 2 + ... + d <= n, so the
        # search never holds more than isqrt(2n) + 1 frames
        for n in range(25):
            for k in range(n + 2):
                deepest, indices = search_depth(n, k)
                assert deepest <= isqrt(2 * n) + 1, (n, k)
                assert len(indices) == partition_count(n, k)
        # 21 = 1 + 2 + ... + 6 reaches the bound
        assert search_depth(21, 6)[0] == isqrt(42) + 1

    @pytest.mark.parametrize("k", [1, 2, 1160, 1190, 1199, 1200])
    def test_n_1200_under_tight_recursion_limit(self, k):
        # 60 frames hold the isqrt(2400) + 1 = 49 search frames, not a search
        # over n - k + 1 positions
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            indices = enumerate_pi(1200, k)
        finally:
            sys.setrecursionlimit(limit)
        assert len(indices) == iterative_partition_count(1200, k)
        assert indices == sorted(indices, reverse=True)


class TestSymbolic:
    def test_known_values(self):
        assert str(bell_symbolic(3, 2)) == "3*x1*x2"
        assert str(bell_symbolic(4, 2)) == "4*x1*x3 + 3*x2^2"
        assert str(bell_symbolic(5, 5)) == "x1^5"
        assert str(bell_symbolic(3, 5)) == "0"

    def test_single_term_families(self):
        for n in range(1, 8):
            poly = bell_symbolic(n, 1)
            assert len(poly.terms) == 1
            coeff, alpha = poly.terms[0]
            assert coeff == 1
            assert alpha[-1] == 1 and sum(alpha) == 1

    def test_coefficients_positive_integers(self):
        for n in range(13):
            for k in range(n + 1):
                for coeff, _ in bell_symbolic(n, k).terms:
                    assert isinstance(coeff, int) and coeff > 0


# ints, Fractions and small Polynomials, zeros of each drawn often: the
# recurrence skips the terms whose table cell is zero
ring_elements = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.fractions(-3, 3, max_denominator=4).map(normalized),
    st.lists(st.integers(-2, 2), max_size=3).map(Polynomial),
)


class TestEvaluation:
    def test_stirling_example(self):
        assert bell_eval(4, 2, [1, 1, 1]) == 7
        assert bell_eval_recurrence(4, 2, [1, 1, 1]) == 7
        assert bell_eval_recurrence(5, 3, [1, 1, 1]) == 25

    def test_monomial_case(self):
        assert bell_eval(6, 6, [Fraction(2, 3)]) == Fraction(64, 729)

    def test_polynomial_arguments(self):
        assert bell_eval(3, 2, [1, 4 * X]) == 12 * X

    def test_each_power_taken_once(self, monkeypatch):
        poly = bell_symbolic(12, 5)
        xs = [i + X for i in range(1, 9)]
        expected = bell_eval_recurrence(12, 5, xs)
        calls = []
        power = Polynomial.__pow__
        monkeypatch.setattr(Polynomial, "__pow__", lambda p, e: calls.append(e) or power(p, e))
        assert poly.evaluate(xs) == expected
        used = [(i, a) for _, exponents in poly.terms for i, a in enumerate(exponents) if a]
        assert len(calls) == len(set(used)) < len(used)

    def test_recurrence_base_cases(self):
        assert bell_eval_recurrence(0, 0, [0]) == 1
        for n in range(1, 6):
            assert bell_eval_recurrence(n, 0, [1] * (n + 1)) == 0

    def test_short_argument_list_rejected(self):
        with pytest.raises(ValueError):
            bell_eval(4, 2, [1, 1])
        with pytest.raises(ValueError):
            bell_eval_recurrence(4, 2, [1, 1])
        with pytest.raises(ValueError):
            bell_eval(0, 0, [])

    def test_extra_arguments_ignored(self):
        assert bell_eval(4, 2, [1, 1, 1, 99, -5]) == bell_eval(4, 2, [1, 1, 1])

    def test_k_above_n_evaluates_to_zero(self):
        assert bell_eval(2, 4, []) == 0
        assert bell_eval_recurrence(2, 4, []) == 0

    def test_dual_algorithms_agree_on_random_integers(self):
        rng = random.Random(1001)
        for _ in range(4):
            xs = [rng.randint(-4, 4) for _ in range(16)]
            for n in range(13):
                for k in range(n + 1):
                    assert bell_eval(n, k, xs) == bell_eval_recurrence(n, k, xs)

    @settings(max_examples=40)
    @given(st.integers(0, 8), st.data())
    def test_dual_algorithms_agree_property(self, n, data):
        k = data.draw(st.integers(0, n))
        xs = data.draw(st.lists(ring_elements, min_size=n - k + 1, max_size=n - k + 1))
        value = bell_eval_recurrence(n, k, xs)
        assert bell_eval(n, k, xs) == value
        assert is_canonical(value)

    def test_all_ones_gives_stirling_and_bell_triangles(self):
        S = stirling2(15)
        B = bell_numbers(15)
        ones = [1] * 16
        for n in range(16):
            assert sum(bell_eval(n, k, ones) for k in range(n + 1)) == B[n]
            for k in range(n + 1):
                assert bell_eval(n, k, ones) == S[n][k]


class TestClosedForms:
    def test_two_term_examples(self):
        assert bell_closed_two_term(4, 3, 1, 1) == 12
        assert bell_closed_two_term(4, 3, 1, 1) == bell_eval(4, 3, [1, 2, 0])
        assert bell_closed_two_term(5, 2, Fraction(7, 3), -4) == 0
        assert bell_closed_two_term(2, 1, 2, 1) == 2

    def test_two_term_matches_eval_on_random_rationals(self):
        rng = random.Random(77)
        for n in range(16):
            for k in range(n + 1):
                c1 = random_fraction(rng)
                c2 = random_fraction(rng)
                args = [c1, 2 * c2] + [0] * n
                assert bell_closed_two_term(n, k, c1, c2) == bell_eval(n, k, args)

    def test_two_term_polynomial_ring(self):
        assert bell_closed_two_term(3, 2, 1, 2 * X) == bell_eval(3, 2, [1, 4 * X, 0])

    def test_three_term_examples(self):
        assert bell_closed_three_term(3, 1) == 1
        assert bell_closed_three_term(4, 2) == 3
        for n in range(8):
            assert bell_closed_three_term(n, n) == 1

    def test_three_term_matches_eval(self):
        from math import factorial

        for n in range(16):
            for k in range(n + 1):
                args = [1, 2, 6] + [0] * n
                lhs = factorial(n) // factorial(k) * bell_closed_three_term(n, k)
                assert lhs == bell_eval(n, k, args)


scalars = st.integers(-20, 20) | st.fractions(min_value=-20, max_value=20, max_denominator=6)
# int, Fraction and Polynomial entries, mixed in one list
entries = scalars | st.lists(scalars, min_size=1, max_size=3).map(Polynomial)


class TestPrice:
    @pytest.mark.parametrize("call", [
        "bell_eval(200, 100, [1] * 101)",
        "bell_symbolic(200, 100)",
        "bell_eval_recurrence(3000, 1500, [1] * 1501)",
    ])
    def test_call_past_work_is_refused_at_once(self, call):
        # before each route priced itself, the first two ran out of 1 GiB in
        # seconds and the third ran for minutes; the child's memory is
        # capped, so a route that built its work fails the cap, not the host
        code = (
            "import resource; resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))\n"
            "from time import perf_counter\n"
            "from bellseq.bellpoly import *\n"
            "start = perf_counter()\n"
            "try:\n"
            f"    {call}\n"
            "except ValueError as exc:\n"
            "    print(perf_counter() - start, exc)\n"
        )
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30)
        assert child.returncode == 0, child.stderr
        seconds, _, message = child.stdout.partition(" ")
        assert f"would take more than WORK = {WORK} units of work" in message
        assert float(seconds) < 1

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 40).flatmap(lambda n: st.integers(0, n + 1).flatmap(lambda k: st.tuples(
        st.just(n), st.just(k), st.lists(entries, min_size=n - k + 1, max_size=n - k + 1)))))
    def test_each_route_prices_a_part_of_the_pair(self, request):
        # bell --cross-check prices the pair before either route prices
        # itself, so a route's groups must be among the pair's: then a route
        # never refuses what the pair accepted
        n, k, xs = request
        pair = Counter(bellpoly._bell_products(n, k, xs, True, True)(1))
        for route in ((True, False), (False, True)):
            assert Counter(bellpoly._bell_products(n, k, xs, *route)(1)) <= pair
