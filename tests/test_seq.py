import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bellseq.ring import Polynomial, X, generalized_binomial
from bellseq.seq import (
    BellSequenceSpec,
    RecurrenceSpec,
    RewrittenFormUndefined,
    SequenceWindow,
    bell_transform,
    bell_transform_rewritten,
    binomial_double_sum_tribonacci,
    binomial_sum_fibonacci,
    decompose,
    fuss_catalan_closed,
    jacobsthal_closed,
    preset,
)

from _oracles import (
    catalan_list,
    decompose_by_ring,
    fibonacci_list,
    first_vanishing_pair,
    is_canonical,
    jacobsthal_polys,
    lucas_list,
    motzkin_list,
    random_ring_spec,
    run_recurrence,
    tribonacci_list,
    typed_by_degree,
    window_by_ring,
)


class TestSpecAndWindow:
    def test_a_b_both_zero_rejected(self):
        with pytest.raises(ValueError):
            BellSequenceSpec(0, 0, (1, 1))

    def test_inexact_fields_rejected(self):
        with pytest.raises(TypeError):
            BellSequenceSpec(1.5, 0, (1,))
        with pytest.raises(TypeError):
            BellSequenceSpec(1, 0, (0.5,))

    @pytest.mark.parametrize("bad", ["1/2", Decimal("0.25"), 1.5, True, None])
    def test_inexact_values_rejected(self, bad):
        with pytest.raises(TypeError):
            Polynomial((1, bad))
        with pytest.raises(TypeError):
            BellSequenceSpec(0, 1, (1, bad))
        with pytest.raises(TypeError):
            RecurrenceSpec((1, bad), (0, 1))
        with pytest.raises(TypeError):
            RecurrenceSpec((1, 1), (0, bad))

    def test_entries_canonical(self):
        c = (Fraction(4, 2), Fraction(2, 4), Polynomial((Fraction(3, 1), 1)))
        spec = BellSequenceSpec(0, 1, c)
        rec = RecurrenceSpec((Fraction(6, 3), Fraction(1, 3)), (Fraction(0), 2 * X))
        for v in spec.c + rec.coefficients + rec.initial:
            assert is_canonical(v), repr(v)
        assert spec.c == (2, Fraction(1, 2), 3 + X)

    def test_ring_tag_derivation(self):
        assert BellSequenceSpec(0, 1, (1, Fraction(1, 2))).ring == "rational"
        assert BellSequenceSpec(0, 1, (1, 2 * X)).ring == "polynomial"

    def test_window_negative_index_is_zero(self):
        w = bell_transform(BellSequenceSpec(0, 1, (1, 1)), 4)
        assert w.value_at(-1) == 0
        assert w.value_at(-3) == 0
        with pytest.raises(IndexError):
            w.value_at(5)

    def test_window_requires_leading_one(self):
        spec = BellSequenceSpec(0, 1, (1,))
        with pytest.raises(ValueError):
            SequenceWindow((2, 1), spec)
        SequenceWindow((2, 1))  # spec-less windows may start anywhere

    def test_shifted(self):
        w = bell_transform(BellSequenceSpec(0, 1, (1, 1)), 5)
        assert w.shifted(1, 6) == [0, 1, 1, 2, 3, 5]
        assert w.shifted(0, 6) == list(w.values)
        assert w.shifted(-1, 5) == list(w.values[1:])
        with pytest.raises(IndexError):
            w.shifted(-1, 6)


class TestBellTransform:
    def test_catalan_values(self):
        spec, offset = preset("catalan")
        assert offset == -1
        C = catalan_list(9)
        w = bell_transform(spec, 8)
        assert list(w.values) == C[1:10]
        assert list(bell_transform(spec, 3).values) == [1, 2, 5, 14]

    def test_fibonacci_values(self):
        spec, offset = preset("fibonacci")
        assert (spec.a, spec.b, spec.c, offset) == (0, 1, (1, 1), 1)
        f = fibonacci_list(13)
        w = bell_transform(spec, 12)
        for n in range(13):
            assert f[n] == w.value_at(n - offset)

    def test_motzkin_values(self):
        spec, offset = preset("motzkin")
        assert offset == 0
        assert list(bell_transform(spec, 5).values) == [1, 1, 2, 4, 9, 21]
        assert list(bell_transform(spec, 12).values) == motzkin_list(12)

    def test_tribonacci_values(self):
        spec, offset = preset("tribonacci")
        assert (spec.a, spec.b, spec.c, offset) == (0, 1, (1, 1, 1), 2)
        t = tribonacci_list(12)
        w = bell_transform(spec, 10)
        for n in range(13):
            assert t[n] == w.value_at(n - offset)

    def test_jacobsthal_values(self):
        spec, offset = preset("jacobsthal")
        assert spec.ring == "polynomial" and offset == 1
        J = jacobsthal_polys(11)
        w = bell_transform(spec, 10)
        for n in range(12):
            assert J[n] == w.value_at(n - offset)

    def test_window_at_zero(self):
        assert list(bell_transform(BellSequenceSpec(2, -1, (1, 1, 1)), 0).values) == [1]

    def test_values_can_be_non_integral(self):
        # nothing forces integrality for arbitrary coefficients
        w = bell_transform(BellSequenceSpec(1, 1, (Fraction(1, 2),)), 3)
        assert any(isinstance(v, Fraction) for v in w.values)


class TestRewrittenForm:
    def test_matches_primary_form_on_presets(self):
        for name in ("catalan", "motzkin", "fibonacci", "tribonacci"):
            spec, _ = preset(name)
            assert bell_transform_rewritten(spec, 8).values == bell_transform(spec, 8).values

    def test_matches_primary_form_on_random_specs(self):
        rng = random.Random(4242)
        checked = 0
        while checked < 25:
            a, b, c = random_ring_spec(rng)
            spec = BellSequenceSpec(a, b, c)
            try:
                rewritten = bell_transform_rewritten(spec, 12)
            except RewrittenFormUndefined:
                continue
            assert rewritten.values == bell_transform(spec, 12).values
            assert all(map(typed_by_degree, rewritten.values))
            checked += 1

    def test_zero_denominator_reported_with_pair(self):
        spec = BellSequenceSpec(-1, 0, (1, 1))
        with pytest.raises(RewrittenFormUndefined) as excinfo:
            bell_transform_rewritten(spec, 3)
        assert (excinfo.value.n, excinfo.value.k) == (1, 0)
        assert "(n=1, k=0)" in str(excinfo.value)

    def test_defined_at_n0(self):
        spec = BellSequenceSpec(-1, 1, (1, 1))
        assert bell_transform_rewritten(spec, 0).values == (1,)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(0, 40))
    @example(-1, 0, 3)  # b = 0: every k of n = 1 vanishes, k = 0 is reported
    @example(0, -1, 5)  # a = 0: (1, 1), k = n
    @example(-2, 3, 40)  # 3k = 2n - 1 first at (2, 1), 0 < k < n
    def test_guard_matches_scan(self, a, b, N):
        assume(a or b)
        try:
            bell_transform_rewritten(BellSequenceSpec(a, b, (1,)), N)
            reported = None
        except RewrittenFormUndefined as exc:
            reported = exc.n, exc.k
        assert reported == first_vanishing_pair(a, b, N)


class TestPresets:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            preset("lucas")

    def test_fuss_catalan_parameter_required_and_nonzero(self):
        with pytest.raises(ValueError):
            preset("fuss_catalan")
        with pytest.raises(ValueError):
            preset("fuss_catalan", b=0)

    def test_parameter_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            preset("catalan", b=2)

    def test_fuss_catalan_b2_is_catalan(self):
        spec, offset = preset("fuss_catalan", b=2)
        assert offset == 0
        assert list(bell_transform(spec, 8).values) == catalan_list(8)

    def test_jacobsthal_coefficients(self):
        spec, _ = preset("jacobsthal")
        assert spec.c == (Polynomial((1,)), 2 * X)


class TestFussCatalanClosed:
    def test_examples(self):
        assert fuss_catalan_closed(2, 3) == 5
        assert fuss_catalan_closed(7, 0) == 1
        assert fuss_catalan_closed(3, 2) == 3

    def test_equals_alternative_form(self):
        for b in (2, 3, 4, -1, -2):
            for n in range(11):
                if (b - 1) * n + 1 == 0:
                    continue
                assert fuss_catalan_closed(b, n) == Fraction(
                    generalized_binomial(b * n, n), (b - 1) * n + 1
                )

    def test_matches_transform(self):
        for b in (-2, -1, 2, 3, 4):
            spec, _ = preset("fuss_catalan", b=b)
            w = bell_transform(spec, 10)
            for n in range(11):
                assert fuss_catalan_closed(b, n) == w.value_at(n)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            fuss_catalan_closed(0, 3)
        with pytest.raises(ValueError):
            fuss_catalan_closed(2, -1)


class TestCatalanClosedForm:
    def test_window_matches_central_binomial_form(self):
        spec, _ = preset("catalan")
        w = bell_transform(spec, 20)
        for n in range(21):
            assert w.value_at(n) == Fraction(generalized_binomial(2 * (n + 1), n), n + 1)


class TestGouldIdentity:
    def test_holds_on_integer_grid(self):
        for x in range(16):
            for n in range(16):
                lhs = sum(
                    generalized_binomial(x, k) * generalized_binomial(k, n - k) * 4 ** k
                    for k in range((n + 1) // 2, n + 1)
                )
                assert lhs == 2 ** n * generalized_binomial(2 * x, n)


scalars = st.one_of(st.just(0), st.integers(-4, 4),
                    st.fractions(min_value=-4, max_value=4, max_denominator=12))
entries = st.one_of(scalars, scalars.map(lambda v: Polynomial((v,))),
                    st.lists(scalars, min_size=1, max_size=3).map(Polynomial))
# (coefficients, initial values), each of length d = 1..4
recurrences = st.integers(1, 4).flatmap(
    lambda d: st.tuples(*[st.lists(entries, min_size=d, max_size=d).map(tuple)] * 2))


class TestDecompose:
    def test_fibonacci(self):
        lambdas, window = decompose(RecurrenceSpec((1, 1), (0, 1)), 8)
        assert lambdas == (0, 1)
        assert list(window.values) == fibonacci_list(8)

    def test_lucas(self):
        lambdas, window = decompose(RecurrenceSpec((1, 1), (2, 1)), 10)
        assert lambdas == (2, -1)
        assert list(window.values) == lucas_list(10)

    def test_identity_decomposition(self):
        spec = BellSequenceSpec(0, 1, (3, -2))
        y = bell_transform(spec, 6)
        rec = RecurrenceSpec((3, -2), (1, y.value_at(1)))
        lambdas, window = decompose(rec, 6)
        assert lambdas == (1, 0)
        assert window.values == y.values

    def test_geometric_order_one(self):
        lambdas, window = decompose(RecurrenceSpec((5,), (1,)), 4)
        assert lambdas == (1,)
        assert list(window.values) == [5 ** n for n in range(5)]

    def test_polynomial_recurrence(self):
        lambdas, window = decompose(RecurrenceSpec((1, 2 * X), (0, 1)), 9)
        assert lambdas == (0, 1)
        assert list(window.values) == jacobsthal_polys(9)

    def test_random_reconstructions_satisfy_recurrence(self):
        rng = random.Random(2025)
        for _ in range(12):
            d = rng.randint(1, 4)
            coeffs = tuple(rng.randint(-3, 3) for _ in range(d))
            init = tuple(rng.randint(-4, 4) for _ in range(d))
            lambdas, window = decompose(RecurrenceSpec(coeffs, init), 30)
            assert list(window.values) == run_recurrence(coeffs, init, 30)
            assert len(lambdas) == d

    @settings(max_examples=300, deadline=None)
    @given(recurrences, st.integers(0, 20))
    # a constant Polynomial lambda_0 over an int window: every value is a
    # constant, so a scalar
    @example(((2,), (Polynomial((3,)),)), 4)
    # a constant Polynomial c_1 makes lambda_1 = 1 - c_1 * 0 a Polynomial,
    # and the constant a_1 = 1 a scalar
    @example(((Polynomial((1,)), 2 * X), (0, 1)), 6)
    # zero entries and Fractions in both rings
    @example(((Fraction(1, 2), 0, X), (0, Polynomial((Fraction(-2, 3), 1)), 0)), 9)
    # a zero Polynomial c_1 counts as the int 0 in the lambdas: (2, 0), not
    # (2, Polynomial())
    @example(((Polynomial(), -2), (2, 0)), 3)
    def test_equals_ring_reference(self, rec_lists, extra):
        coeffs, init = rec_lists
        N = len(coeffs) - 1 + extra
        rec = RecurrenceSpec(coeffs, init)
        lambdas, window = decompose(rec, N)
        # the lambdas take their types from ring arithmetic, so the solve runs
        # over y in ring arithmetic, which equals the package's window
        y = window_by_ring(rec.coefficients, N)
        assert y == list(bell_transform(BellSequenceSpec(0, 1, coeffs), N).values)
        expected_lambdas, expected = decompose_by_ring(rec.initial, y)
        # repr tells a constant Polynomial from its scalar, and an int from a Fraction
        assert list(map(repr, lambdas)) == list(map(repr, expected_lambdas))
        assert list(window.values) == expected
        assert all(is_canonical(v) and typed_by_degree(v) for v in window.values)

    def test_ring_products_do_not_grow_with_N(self, monkeypatch):
        calls = []
        multiply = Polynomial.__mul__

        def counted(self, other):
            calls.append(other)
            return multiply(self, other)

        monkeypatch.setattr(Polynomial, "__mul__", counted)
        monkeypatch.setattr(Polynomial, "__rmul__", counted)
        rec = RecurrenceSpec((1 + X, 2 - X, 3 * X), (1, 0, 2))
        counts = []
        for N in (30, 90):
            del calls[:]
            lambdas, window = decompose(rec, N)
            counts.append(len(calls))
        assert counts[0] == counts[1]
        assert list(window.values) == run_recurrence(rec.coefficients, rec.initial, 90)

    def test_window_too_short_rejected(self):
        with pytest.raises(ValueError):
            decompose(RecurrenceSpec((1, 1), (0, 1)), 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RecurrenceSpec((1, 1), (0,))
        with pytest.raises(ValueError):
            RecurrenceSpec((), ())


class TestBinomialSums:
    def test_fibonacci_sum(self):
        f = fibonacci_list(25)
        assert binomial_sum_fibonacci(6) == 8
        for n in range(1, 26):
            assert binomial_sum_fibonacci(n) == f[n]
        with pytest.raises(ValueError):
            binomial_sum_fibonacci(0)

    def test_tribonacci_double_sum(self):
        t = tribonacci_list(25)
        assert binomial_double_sum_tribonacci(2) == 1
        assert binomial_double_sum_tribonacci(7) == 13
        for n in range(2, 26):
            assert binomial_double_sum_tribonacci(n) == t[n]
        with pytest.raises(ValueError):
            binomial_double_sum_tribonacci(1)

    def test_jacobsthal_closed(self):
        J = jacobsthal_polys(25)
        assert jacobsthal_closed(1) == 1
        assert jacobsthal_closed(3) == 1 + 2 * X
        assert jacobsthal_closed(5) == 1 + 6 * X + 4 * X ** 2
        for n in range(1, 26):
            assert jacobsthal_closed(n) == J[n]
        with pytest.raises(ValueError):
            jacobsthal_closed(0)

    def test_jacobsthal_at_one_gives_jacobsthal_numbers(self):
        # J_n(1): 1, 1, 3, 5, 11, 21, ...
        assert [jacobsthal_closed(n)(1) for n in range(1, 7)] == [1, 1, 3, 5, 11, 21]
