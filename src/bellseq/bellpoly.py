"""Partial Bell polynomials B_{n,k}.

B_{n,k}(x_1, ..., x_{n-k+1}) sums n!/(alpha_1! alpha_2! ...) (x_1/1!)^alpha_1
(x_2/2!)^alpha_2 ... over the multi-indices alpha with sum(alpha_i) = k and
sum(i alpha_i) = n.  Two independent routes, enumeration of the index set and
the binomial recurrence, cross-check each other, and each route is priced
before it builds anything (the primitives :func:`enumerate_pi` and
:meth:`SymbolicBellPolynomial.evaluate` are not); closed forms cover the
argument patterns (c1, 2c2, 0, ...) and (1!, 2!, 3!, 0, ...)."""

from __future__ import annotations

from math import comb, factorial, isqrt

from .ring import Record, RingElement, _norm, _rough, _scale, crude, generalized_binomial, normalized, price

# one exponent of a term costs about 10 products of one digit, 170 ns: the
# steps that enumerate it, weigh it, and write or read it (README, "Limits")
PASSES = 10
# a coefficient product in Fraction arithmetic costs about 60 more products
# of one digit, the gcds that reduce it: bell_eval_recurrence at n = 200,
# k = 100 and every entry 1/3 took 3.5 s (README, "Limits")
RING = 60

__all__ = [
    "SymbolicBellPolynomial",
    "enumerate_pi",
    "bell_symbolic",
    "bell_eval",
    "bell_eval_recurrence",
    "bell_closed_two_term",
    "bell_closed_three_term",
]


def _check_nk(n: int, k: int) -> None:
    if n < 0 or k < 0:
        raise ValueError(f"n and k must be non-negative, got n={n}, k={k}")


def _check_args(n: int, k: int, xs) -> None:
    _check_nk(n, k)
    if k <= n and len(xs) < n - k + 1:
        raise ValueError(f"argument list too short: B_({n},{k}) needs {n - k + 1} entries, got {len(xs)}")


def enumerate_pi(n: int, k: int) -> list:
    """All exponent tuples alpha, of length n-k+1, with sum(alpha) = k and
    sum(i*alpha_i) = n: alpha_i parts of size i, bijective with the partitions
    of n into exactly k parts.  Returned in descending lexicographic order;
    k > n yields the empty list.  Unpriced."""
    _check_nk(n, k)
    if k > n:
        return []
    length = n - k + 1
    out = []
    expo = [0] * length

    # one frame per distinct part size s on the current path, taken upward
    # from low: s is the smallest of the parts still to place and none
    # exceeds length; as 1 + 2 + ... + d <= n, at most sqrt(2n) + 1 frames
    def fill(low, parts, weight):
        if parts == 0:
            # untouched positions are still zero
            if weight == 0:
                out.append(tuple(expo))
            return
        for s in range(max(low, weight - (parts - 1) * length), weight // parts + 1):
            for a in range(min(parts, weight // s), 0, -1):
                rest = parts - a
                if rest * (s + 1) <= weight - a * s <= rest * length:
                    expo[s - 1] = a
                    fill(s + 1, rest, weight - a * s)
            expo[s - 1] = 0

    fill(1, k, n)
    del fill  # fill's cell holds fill, a cycle that would keep out alive until a full collection
    return out


class SymbolicBellPolynomial(Record):
    """B_{n,k} as (integer coefficient, exponent tuple) terms."""

    __slots__ = ("n", "k", "terms")

    def __init__(self, n: int, k: int, terms: tuple):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "terms", terms)

    def evaluate(self, xs) -> RingElement:
        """Substitute xs[i-1] for x_i; extra entries beyond n-k+1 are ignored.
        Each power xs[i-1]^a that a term uses is computed once per call.  Unpriced."""
        _check_args(self.n, self.k, xs)
        powers = {}  # (i, a) -> xs[i] ** a
        total = 0
        for coeff, exponents in self.terms:
            monomial = coeff
            for i, a in enumerate(exponents):
                if a:
                    power = powers.get((i, a))
                    if power is None:
                        power = powers[i, a] = xs[i] ** a
                    monomial = monomial * power
            total = total + monomial
        return normalized(total)

    def __str__(self):
        rendered = []
        for coeff, exponents in self.terms:
            factors = [] if coeff == 1 else [str(coeff)]
            factors += [f"x{i}" if a == 1 else f"x{i}^{a}" for i, a in enumerate(exponents, start=1) if a]
            rendered.append("*".join(factors) if factors else "1")
        return " + ".join(rendered) or "0"


def _partition_count(n: int, k: int) -> int:
    """p(n, k), the partitions of n into exactly k parts: those of n - k into
    parts of size at most k."""
    if k > n:
        return 0
    ways = [1] + [0] * (n - k)
    for size in range(1, min(k, n - k) + 1):
        for w in range(size, n - k + 1):
            ways[w] += ways[w - size]
    return ways[n - k]


def _bell_work(n: int, k: int, xs) -> tuple:
    """(each, once, recurrence): the products of B_{n,k}(xs) by enumeration,
    as price() reads them, for each term and once, and those of
    :func:`bell_eval_recurrence`; no xs for :func:`bell_symbolic`.  Once: n + 1
    steps, over the multiplicities and powers to k <= n; PASSES for each of a
    term's n - k + 1 exponents; per term, its coefficient, a set-partition
    count, at most S(n, k) <= binom(n, k) k^(n-k), times its nz <= sqrt(2 n)
    + 1 nonzero powers (distinct part sizes sum to n at most); each power
    x_i^a by squaring, at most 8/3 of a product of its halves, a_1 <= k of
    n - k + 1 values at most and, for i >= 2, a <= k and a (i - 1) <= n - k;
    and the value.  With D x_i = u of int coefficients and v = max(D,
    ||u||_1), u^a and D^a are below 2^(a b_i + 1), b_i = bits(v - 1), and as
    a_1 + sum_{i>=2} a_i = k and sum_{i>=2} (i - 1) a_i = n - k, a term's
    sum_i a_i b_i <= k b_1 + (n - k) max_{i>=2} b_i/(i - 1), its degree
    likewise.  Degrees d_1 + d_2 <= e take (d_1 + 1)(d_2 + 1) <= (e/2 + 1)^2
    coefficient products, a term's nz products of degree d at most d^2 (nz -
    1)/(2 nz) + nz (d + 1).  The recurrence: k (n - k + 1)^2 loop steps at
    most, and where a value B_{m-i,k'-1} is nonzero, n - k + 1 at the first
    level (B_{m,0} is zero but at m = 0) and at the last (m = n alone) and
    (n - k + 1)^2 at each other, a binomial binom(m - 1, i - 1), i <= n - k +
    1, below 2^min(n, (n - k) bits(n)), and where x_i is nonzero that times
    x_i and times the value, m - k' <= n - k and k' <= k, whose bits and
    degree are at most those of B_{n,k}, in ring arithmetic: a coefficient
    product per pair of coefficients, and RING more for each when an entry
    has a Fraction."""
    slots = n - k + 1 if k <= n else 0
    each, once = [(slots * PASSES, 0, 0)], [(n + 1, 0, 0)]
    if not slots or not k:
        return each, once, []
    D, us = _scale(list(xs[:slots])) if xs else (1, [0])
    # of the bits b_i, then of the degrees: x_1's, the most of a power x_i^a,
    # i >= 2, and the most of a term
    sizes = []
    for column in ([(max(D, _norm(u)) - 1).bit_length() for u in us],
                   [max(getattr(u, "degree", 0), 0) for u in us]):
        rest = column[1:]
        most = any(rest) and min(k * max(rest), max(-(-(n - k) * b // j)
                                                    for j, b in enumerate(rest, 1)))
        sizes.append((k * column[0], most, min(k * column[0] + most, k * max(column)), max(column)))
    (b1, b_most, bits, widest), (d1, d_most, d, deepest) = sizes
    nz = min(k, slots, isqrt(2 * n) + 1)
    value = min(n, min(k, n - k) * n.bit_length()) + (n - k) * (k - 1).bit_length() + bits + 2
    each.append((d * d * (nz - 1) // (2 * nz) + nz * (d + 1), value, value))
    once.append((d + 1, value, value))
    for count, b, e in ((min(k, slots), b1, d1),
                        (min(k * (slots - 1), (n - k) * (n - k).bit_length()), b_most, d_most)):
        once.append((3 * count * (e // 2 + 1) ** 2, b // 2 + 1, b // 2 + 1))
    # rows (k', m) whose cells are read with B_{m-i,k'-1} nonzero
    rows, binom = max(k - 2, 0) * slots + 2, min(n, (n - k) * n.bit_length())
    pairs = rows * sum(map(bool, us)) * (deepest + 1) * (d + 1)
    return each, once, [(k * slots * slots, 0, 0), (rows * slots, binom, binom),
                        (rows * slots * (deepest + 1), binom, widest), (pairs, binom + widest, value),
                        (pairs * (1 + RING * (D > 1)), 0, 0)]


def _bell_bound(n: int, k: int, xs, enumeration: bool = True, recurrence: bool = False) -> tuple:
    """One :func:`~bellseq.ring.crude` triple at least the price of the
    routes' groups of :func:`_bell_work`, with p(n, k) terms, by bit counts:
    p(n, k), the partitions of n - k into at most k parts, is at most 2^(n -
    k) (each is a composition, and n - k has 2^(n - k - 1) of them), taken as
    2^40 past n - k = 40, where it passes WORK; by :func:`~bellseq.ring._rough`
    on the n - k + 1 entries, every b_i is at most W = e + s, as max(D,
    ||u_i||_1) < 2^(e + s), and every degree at most g, so a term's bits are
    at most k W and its degree d at most k g; the enumeration's counts of
    each term sum to at most (n - k + 1) PASSES + (k g)^2/2 + nz (k g + 1),
    those once to n + k g + 2 + 3 (k + k (n - k)) (k g/2 + 1)^2, and the
    recurrence's to k (n - k + 1)^2 + rows (n - k + 1) (g + 2) + pairs (RING
    + 2), pairs = rows t (g + 1) (k g + 1), t the nonzero entries; every
    operand has at most the value's bits, and the recurrence's the
    binomial's and W more."""
    if k > n:
        return crude(n + 1, 0)
    slots = n - k + 1
    e, s, g, t, _, _ = _rough(xs[:slots])
    W, d = e + s, k * g
    count = 0
    bits = min(n, min(k, n - k) * n.bit_length()) + (n - k) * (k - 1).bit_length() + k * W + 2
    if enumeration:
        terms = 1 << min(n - k, 40)
        nz = min(k, slots, isqrt(2 * n) + 1)
        count = terms * (slots * PASSES + d * d // 2 + nz * (d + 1)) + n + d + 2
        count += 3 * (k + k * slots) * (d // 2 + 1) ** 2
    if recurrence:
        rows = max(k - 2, 0) * slots + 2
        count += k * slots * slots + rows * slots * (g + 2) + rows * t * (g + 1) * (d + 1) * (RING + 2)
        bits += min(n, (n - k) * n.bit_length()) + W
    return crude(count, bits)


def _bell_products(n: int, k: int, xs, enumeration: bool = True, recurrence: bool = False):
    """price()'s products of B_{n,k}(xs) by the enumeration, the recurrence
    or both, the pair: :func:`_bell_bound` at parts = 0, past it the routes'
    groups of :func:`_bell_work`, those of each term p(n, k) times.  A route's
    groups are a sub-multiset of the pair's, so it accepts what the pair did."""
    full = []

    def products(parts):
        if not parts:
            return [_bell_bound(n, k, xs, enumeration, recurrence)]
        if not full:
            each, once, rec = _bell_work(n, k, xs)
            each, once = (each, once) if enumeration else ([], [])
            once += rec if recurrence else []
            # the lower bound p(n, k) >= floor((n - k)/2) + 1 first, so that
            # a request it refuses is not counted
            terms = (n - k) // 2 + 1 if 2 <= k <= n else 1
            if each and price(lambda parts: once + [(terms * count, a, b) for count, a, b in each]):
                terms = _partition_count(n, k)
            full.extend(once + [(terms * count, a, b) for count, a, b in each])
        return full

    return products


class _Factorials(dict):
    """m -> m!, each computed on first use."""

    def __missing__(self, m):
        return self.setdefault(m, factorial(m))


def _symbolic(n: int, k: int) -> SymbolicBellPolynomial:
    """:func:`bell_symbolic` with no price.  A term's coefficient n!/prod_i
    a_i! (i!)^(a_i) is binom(n, a_1) times, for each class i >= 2 peeled off
    the rest, binom(rest, i a_i) (i a_i)!/(a_i! (i!)^(a_i)), the fraction 1
    at a_i = 1: as i a_i <= 2 (i - 1) a_i, no factorial above 2 (n - k) is
    formed, each once, on first use."""
    fact = _Factorials()
    terms = []
    for exponents in enumerate_pi(n, k):
        rest = n - exponents[0]
        coefficient = comb(n, rest)
        for i, a in enumerate(exponents[1:], start=2):
            if a:
                coefficient *= comb(rest, i * a)
                rest -= i * a
                if a > 1:
                    coefficient *= fact[i * a] // (fact[a] * fact[i] ** a)
        terms.append((coefficient, exponents))
    return SymbolicBellPolynomial(n, k, tuple(terms))


def bell_symbolic(n: int, k: int) -> SymbolicBellPolynomial:
    """Symbolic B_{n,k}, priced first; term order follows :func:`enumerate_pi`."""
    _check_nk(n, k)
    price(_bell_products(n, k, ()), f"B_({n},{k})")
    return _symbolic(n, k)


def bell_eval(n: int, k: int, xs) -> RingElement:
    """B_{n,k}(xs) by direct enumeration of the index set, checked and priced
    first.  xs must supply at least n-k+1 entries (extra ones are ignored):
    ints, Fractions, or Polynomials."""
    _check_args(n, k, xs)
    price(_bell_products(n, k, xs), f"B_({n},{k})")
    return _symbolic(n, k).evaluate(xs)


def bell_eval_recurrence(n: int, k: int, xs) -> RingElement:
    """B_{n,k}(xs) via B_{n,k} = sum_i binom(n-1, i-1) x_i B_{n-i,k-1},
    independent of :func:`bell_eval`: one row of B_{m,k'} per k' < k, for the
    m that B_{n,k} reaches, then B_{n,k} alone, skipping zero cells.  Priced
    before the first row."""
    _check_args(n, k, xs)
    price(_bell_products(n, k, xs, enumeration=False, recurrence=True), f"B_({n},{k})")
    if k > n:
        return 0
    row = [1] + [0] * n  # B_{m,0} = [m = 0]
    for kk in range(1, k + 1):
        prev, row = row, [0] * (n + 1)
        for m in range(kk if kk < k else n, n - k + kk + 1):
            total = 0
            for i in range(1, m - kk + 2):
                if prev[m - i]:
                    total = total + generalized_binomial(m - 1, i - 1) * xs[i - 1] * prev[m - i]
            row[m] = total
    return normalized(row[n])


def bell_closed_two_term(n: int, k: int, c1: RingElement, c2: RingElement) -> RingElement:
    """B_{n,k}(c1, 2*c2, 0, ...) = (n!/k!) * binom(k, n-k) * c1^(2k-n) * c2^(n-k),
    zero whenever n - k > k, so no negative power of c1 is ever formed."""
    _check_nk(n, k)
    if k > n or n - k > k:
        return 0
    scale = (factorial(n) // factorial(k)) * generalized_binomial(k, n - k)
    return normalized(scale * c1 ** (2 * k - n) * c2 ** (n - k))


def bell_closed_three_term(n: int, k: int) -> int:
    """(k!/n!) * B_{n,k}(1!, 2!, 3!, 0, ...) as the closed binomial sum
    sum_l binom(k, l) * binom(l, n-k-l)."""
    _check_nk(n, k)
    return sum(generalized_binomial(k, l) * generalized_binomial(l, n - k - l)
               for l in range(min(k, n - k) + 1))
