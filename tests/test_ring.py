import copy
import doctest
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import bellseq.ring
from bellseq.bellpoly import bell_symbolic
from bellseq.conv import ConvolutionReport
from bellseq.ring import (
    Polynomial,
    X,
    _pack,
    _scale,
    _unpack,
    format_element,
    generalized_binomial,
    normalized,
    parse_element,
)
from bellseq.seq import BellSequenceSpec, RecurrenceSpec, SequenceWindow, preset

from _oracles import falling_factorial_binomial, is_canonical, typed_by_degree

fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=20)
polys_st = st.lists(fractions_st, max_size=6).map(Polynomial)


class TestRational:
    def test_textbook_sum(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_canonical_invariants(self):
        for num, den in [(2, 4), (-3, 6), (0, 7), (5, -10)]:
            q = Fraction(num, den)
            assert q.denominator > 0
            assert math.gcd(abs(q.numerator), q.denominator) == 1
        assert Fraction(0, 3) == Fraction(0, 1)

    @given(fractions_st, fractions_st, fractions_st)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + 0 == a
        assert a * 1 == a
        assert a + (-a) == 0


class TestPolynomial:
    def test_monomial_product(self):
        assert (2 * X) * (2 * X) == Polynomial((0, 0, 4))

    def test_additive_identity(self):
        p = Polynomial((1, Fraction(2, 3), 5))
        assert p + 0 == p
        assert p + Polynomial() == p

    def test_trailing_zeros_trimmed(self):
        assert Polynomial((1, 2, 0, 0)).coefficients == (Fraction(1), Fraction(2))
        assert Polynomial((0, 0)).coefficients == ()

    def test_degree(self):
        assert Polynomial().degree == -1
        assert Polynomial((7,)).degree == 0
        assert (X ** 3 + 1).degree == 3

    def test_subtraction_and_negation(self):
        p = 1 + 2 * X
        q = X
        assert p - q == 1 + X
        assert -(p - p) == Polynomial()
        assert 3 - p == 2 - 2 * X

    def test_pow(self):
        assert (1 + X) ** 2 == 1 + 2 * X + X ** 2
        assert (2 * X) ** 0 == 1
        with pytest.raises(ValueError):
            (1 + X) ** -1

    def test_evaluation_and_composition(self):
        p = 1 + 6 * X + 4 * X ** 2
        assert p(1) == 11
        assert p(Fraction(1, 2)) == 5 and type(p(Fraction(1, 2))) is int
        assert p(X + 1) == 11 + 14 * X + 4 * X ** 2

    def test_scalar_equality_and_hash(self):
        assert Polynomial((5,)) == 5
        assert Polynomial() == 0
        assert Polynomial((0, 1)) != 1
        assert hash(Polynomial((5,))) == hash(5)
        assert hash(Polynomial()) == hash(0)

    def test_scalar_division(self):
        assert (2 + 4 * X) / 2 == 1 + 2 * X
        assert (3 * X) / Fraction(3, 2) == 2 * X
        with pytest.raises(ZeroDivisionError):
            X / 0

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Polynomial((0.5,))

    @pytest.mark.parametrize("bad", [True, False, 0.5, 2.0])
    def test_bool_and_float_rejected(self, bad):
        with pytest.raises(TypeError):
            Polynomial((1, bad))
        with pytest.raises(TypeError):
            (1 + X) * bad
        with pytest.raises(TypeError):
            bad * (1 + X)

    @given(
        st.lists(st.one_of(st.integers(-50, 50), fractions_st), max_size=6).map(Polynomial),
        st.one_of(st.just(0), st.integers(-50, 50), fractions_st),
    )
    def test_scalar_product(self, p, s):
        products = (p * s, s * p, p * Polynomial((s,)))
        assert products[0] == products[1] == products[2]
        for q in (p, Polynomial((s,))) + products:
            assert is_canonical(q), repr(q)

    def test_polynomial_coefficient_rejected(self):
        with pytest.raises(TypeError):
            Polynomial((1, X))

    def test_denominator(self):
        assert Polynomial().denominator == 1
        assert (1 + 4 * X).denominator == 1
        assert Polynomial((Fraction(1, 4), 0, Fraction(-5, 6))).denominator == 12

    @given(polys_st, polys_st, polys_st)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert p + Polynomial() == p
        assert p * Polynomial((1,)) == p


class TestGeneralizedBinomial:
    @pytest.mark.parametrize(
        "t,k,expected",
        [(5, 2, 10), (7, 0, 1), (-4, 0, 1), (0, 0, 1), (-1, 2, 1), (-3, 3, -10), (3, 5, 0)],
    )
    def test_examples(self, t, k, expected):
        assert generalized_binomial(t, k) == expected

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            generalized_binomial(5, -1)

    def test_matches_math_comb_for_nonnegative_t(self):
        for t in range(26):
            for k in range(26):
                assert generalized_binomial(t, k) == math.comb(t, k)

    def test_upper_negation(self):
        for t in range(-20, 21):
            for k in range(11):
                assert generalized_binomial(t, k) == (-1) ** k * generalized_binomial(
                    k - t - 1, k
                )

    def test_pascal_rule(self):
        for t in range(-15, 16):
            for k in range(1, 11):
                assert generalized_binomial(t, k) == generalized_binomial(
                    t - 1, k
                ) + generalized_binomial(t - 1, k - 1)

    def test_absorption_rule(self):
        for t in range(-15, 16):
            for k in range(1, 11):
                assert k * generalized_binomial(t, k) == t * generalized_binomial(t - 1, k - 1)

    @given(st.integers(-200, 200), st.integers(0, 60))
    def test_matches_falling_factorial(self, t, k):
        assert generalized_binomial(t, k) == falling_factorial_binomial(t, k)


def test_docstring_examples():
    result = doctest.testmod(bellseq.ring)
    assert result.attempted > 0 and result.failed == 0


class TestTextForm:
    @pytest.mark.parametrize(
        "value,text",
        [
            (Fraction(14), "14"),
            (Fraction(-1, 2), "-1/2"),
            (Polynomial(), "0"),
            (1 + 4 * X, "1+4x"),
            (X ** 2 - X, "-x+x^2"),
            (Fraction(3, 2) * X ** 2, "3/2x^2"),
            (1 - 2 * X, "1-2x"),
        ],
    )
    def test_format(self, value, text):
        assert format_element(value) == text

    @pytest.mark.parametrize(
        "text,value",
        [
            ("14", Fraction(14)),
            ("-3/4", Fraction(-3, 4)),
            ("0", Fraction(0)),
            ("x", X),
            ("2x", 2 * X),
            ("-x^3", -(X ** 3)),
            ("(1+2x)", 1 + 2 * X),
            ("3*x^2", 3 * X ** 2),
            ("1/2x", Fraction(1, 2) * X),
        ],
    )
    def test_parse(self, text, value):
        assert parse_element(text) == value

    @pytest.mark.parametrize("bad", ["", "()", "x^", "2//3", "1++2", "y", "1.5", "1/0", "1+3/0x^2"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_element(bad)

    @given(polys_st)
    def test_round_trip_polynomials(self, p):
        parsed = parse_element(format_element(p))
        assert parsed == p and is_canonical(parsed)

    @given(fractions_st)
    def test_round_trip_rationals(self, q):
        parsed = parse_element(format_element(q))
        assert parsed == q and is_canonical(parsed)

    def test_normalized(self):
        assert normalized(Fraction(4, 2)) == 2 and isinstance(normalized(Fraction(4, 2)), int)
        assert normalized(Fraction(1, 2)) == Fraction(1, 2)
        assert normalized(1 + X) == 1 + X
        for bad in (True, 0.5, "1", None):
            with pytest.raises(TypeError):
                normalized(bad)


# the five records, their fields in order, and the repr a frozen dataclass
# gave them
RECORDS = [
    (preset("catalan")[0], ("a", "b", "c"), "BellSequenceSpec(a=1, b=0, c=(2, 1))"),
    (SequenceWindow((1, 2 * X), BellSequenceSpec(0, 1, (2 * X,))), ("values", "spec"),
     "SequenceWindow(values=(1, Polynomial((0, 2))), "
     "spec=BellSequenceSpec(a=0, b=1, c=(Polynomial((0, 2)),)))"),
    (RecurrenceSpec((1, Fraction(1, 2)), (0, 1)), ("coefficients", "initial"),
     "RecurrenceSpec(coefficients=(1, Fraction(1, 2)), initial=(0, 1))"),
    (ConvolutionReport(2, 3, Fraction(1, 2), 1 + X), ("r", "n", "lhs", "rhs"),
     "ConvolutionReport(r=2, n=3, lhs=Fraction(1, 2), rhs=Polynomial((1, 1)))"),
    (bell_symbolic(4, 2), ("n", "k", "terms"),
     "SymbolicBellPolynomial(n=4, k=2, terms=((4, (1, 0, 1)), (3, (0, 2, 0))))"),
]


@pytest.mark.parametrize("record, fields, text", RECORDS,
                         ids=[type(record).__name__ for record, _, _ in RECORDS])
def test_records_are_immutable_values(record, fields, text):
    values = tuple(getattr(record, name) for name in fields)
    assert repr(record) == text
    # a frozen dataclass hashes the tuple of its fields
    assert hash(record) == hash(values)
    assert record != values
    twins = [
        type(record)(**dict(zip(fields, values))),
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ]
    for twin in twins:
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record) and repr(twin) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in fields) == values


# the exact-int layer: scaling by a common denominator, packing at x = 2^B
# and the one decode

@st.composite
def packed_values(draw):
    """(p, B): an int at B = 0, else an int-coefficient Polynomial whose every
    coefficient lies in [-2^(B-1), 2^(B-1)), the two ends of it drawn often."""
    B = draw(st.integers(0, 80))
    if not B:
        return draw(st.integers(-10**30, 10**30)), 0
    half = 1 << (B - 1)
    digits = st.one_of(st.sampled_from((-half, half - 1)), st.integers(-half, half - 1))
    return Polynomial(draw(st.lists(digits, max_size=8))), B


@settings(max_examples=200, deadline=None)
@given(packed_values(), st.integers(1, 10**6))
@example((Polynomial(), 1), 3)  # the zero polynomial at B = 1
@example((Polynomial((-1, 0, -1)), 1), 2)
@example((Polynomial((-2**63, 2**63 - 1, -2**63)), 64), 6)
@example((12, 0), 4)  # exact
@example((-12, 0), 4)  # exact and negative
@example((7, 0), 4)  # inexact
@example((-7, 0), 4)  # inexact and negative
# one digit at either end of its range, and the least two-digit values
@example((Polynomial((-8,)), 4), 3)
@example((Polynomial((7,)), 4), 3)
@example((Polynomial((-8, 1)), 4), 3)
@example((Polynomial((7, -1)), 4), 3)
def test_unpack_inverts_pack(packed, d):
    p, B = packed
    value = _unpack(_pack(p, B), B, d)
    assert value == normalized(p * Fraction(1, d))
    assert is_canonical(value) and typed_by_degree(value), repr(value)


@st.composite
def long_packed_values(draw):
    """(p, B): an int-coefficient Polynomial of 33 to 300 coefficients in
    [-2^(B-1), 2^(B-1)), made of runs of either end of that range, of zeros
    and of random digits, its top coefficient nonzero, and B from 1 to 80."""
    B = draw(st.integers(1, 80))
    half = 1 << (B - 1)
    digits = st.one_of(st.sampled_from((-half, half - 1, 0)), st.integers(-half, half - 1))
    runs = draw(st.lists(st.tuples(digits, st.integers(1, 60)), min_size=1, max_size=20))
    pattern = [v for v, count in runs for _ in range(count)]
    coefficients = (pattern * (300 // len(pattern) + 1))[:draw(st.integers(33, 300))]
    coefficients[-1] = coefficients[-1] or -half
    return Polynomial(coefficients), B


@settings(max_examples=200, deadline=None)
@given(long_packed_values(), st.integers(1, 10**6))
def test_unpack_inverts_pack_long(packed, d):
    p, B = packed
    assert p.degree >= 32
    value = _unpack(_pack(p, B), B, d)
    expected = normalized(p * Fraction(1, d))
    assert value == expected
    assert type(value) is type(expected)
    assert is_canonical(value), repr(value)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(fractions_st.map(normalized), polys_st, st.just(0)), max_size=5))
@example([Fraction(-7, 12)])
@example([Polynomial((Fraction(1, 2), 3)), 0])  # D = 2 > 1
@example([Polynomial((1, -3)), 5, Polynomial()])  # D = 1: no product
@example([Polynomial((Fraction(4, 2),)), Fraction(1, 6), Polynomial()])
@example([])
def test_scale_is_the_scaled_product(values):
    D, scaled = _scale(values)
    coefficients = [c for v in values for c in (v.coefficients if isinstance(v, Polynomial) else (v,))]
    assert D == math.lcm(*(Fraction(c).denominator for c in coefficients))
    assert len(scaled) == len(values)
    for v, value in zip(values, scaled):
        expected = normalized(D * v)
        assert value == expected
        assert type(value) is type(expected)
        assert is_canonical(value), repr(value)
        if D == 1 and isinstance(v, Polynomial):
            assert value is v
