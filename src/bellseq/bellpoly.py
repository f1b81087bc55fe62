"""Partial Bell polynomials B_{n,k}.

B_{n,k}(x_1, ..., x_{n-k+1}) sums n!/(alpha_1! alpha_2! ...) (x_1/1!)^alpha_1
(x_2/2!)^alpha_2 ... over the multi-indices alpha with sum(alpha_i) = k and
sum(i alpha_i) = n.  Two independent routes, enumeration of the index set and
the binomial recurrence, cross-check each other; closed forms cover the
argument patterns (c1, 2c2, 0, ...) and (1!, 2!, 3!, 0, ...)."""

from __future__ import annotations

from math import comb, factorial

from .ring import Record, RingElement, generalized_binomial, normalized

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
    needed = n - k + 1
    if k <= n and len(xs) < needed:
        raise ValueError(
            f"argument list too short: B_({n},{k}) needs {needed} entries, got {len(xs)}"
        )


def enumerate_pi(n: int, k: int) -> list:
    """All exponent tuples alpha, of length n-k+1, with sum(alpha) = k and
    sum(i*alpha_i) = n: alpha_i parts of size i.

    Bijective with the partitions of n into exactly k parts.  Returned in
    descending lexicographic order; k > n yields the empty list.
    """
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
        Each power xs[i-1]^a that a term uses is computed once per call."""
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
        if not self.terms:
            return "0"
        rendered = []
        for coeff, exponents in self.terms:
            factors = [] if coeff == 1 else [str(coeff)]
            for i, a in enumerate(exponents, start=1):
                if a == 0:
                    continue
                factors.append(f"x{i}" if a == 1 else f"x{i}^{a}")
            rendered.append("*".join(factors) if factors else "1")
        return " + ".join(rendered)


class _Factorials(dict):
    """m -> m!, each computed on first use."""

    def __missing__(self, m):
        self[m] = value = factorial(m)
        return value


def bell_symbolic(n: int, k: int) -> SymbolicBellPolynomial:
    """Symbolic B_{n,k}; term order follows :func:`enumerate_pi`.  A term's
    coefficient n!/prod_i a_i! (i!)^(a_i) is binom(n, a_1) times, for each
    class i >= 2 peeled off the rest, binom(rest, i a_i) (i a_i)!/(a_i! (i!)^(a_i)),
    the fraction 1 at a_i = 1: as i a_i <= 2 (i - 1) a_i, no factorial
    above 2 (n - k) is formed, each once, on first use."""
    _check_nk(n, k)
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


def bell_eval(n: int, k: int, xs) -> RingElement:
    """B_{n,k}(xs) by direct enumeration of the index set.

    xs must supply at least n-k+1 entries (extra ones are ignored); the
    entries may be ints, Fractions, or Polynomials.  Both are checked before
    the index set is enumerated.
    """
    _check_nk(n, k)
    _check_args(n, k, xs)
    return bell_symbolic(n, k).evaluate(xs)


def bell_eval_recurrence(n: int, k: int, xs) -> RingElement:
    """B_{n,k}(xs) via B_{n,k} = sum_i binom(n-1, i-1) x_i B_{n-i,k-1},
    independent of :func:`bell_eval`: one row of B_{m,k'} per k' < k, for the
    m that B_{n,k} reaches, then B_{n,k} alone, skipping zero cells."""
    _check_nk(n, k)
    _check_args(n, k, xs)
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
    """B_{n,k}(c1, 2*c2, 0, ...) = (n!/k!) * binom(k, n-k) * c1^(2k-n) * c2^(n-k).

    Zero whenever n - k > k, so no negative power of c1 is ever formed.
    """
    _check_nk(n, k)
    if k > n or n - k > k:
        return 0
    scale = (factorial(n) // factorial(k)) * generalized_binomial(k, n - k)
    return normalized(scale * c1 ** (2 * k - n) * c2 ** (n - k))


def bell_closed_three_term(n: int, k: int) -> int:
    """(k!/n!) * B_{n,k}(1!, 2!, 3!, 0, ...) as the closed binomial sum
    sum_l binom(k, l) * binom(l, n-k-l)."""
    _check_nk(n, k)
    total = 0
    for l in range(k + 1):
        j = n - k - l
        if j < 0:
            continue
        total += generalized_binomial(k, l) * generalized_binomial(l, j)
    return total
