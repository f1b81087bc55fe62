"""Multifold convolutions of Bell-transform sequences.

The r-fold convolution sum_{m_1+...+m_r=n} y_{m_1} ... y_{m_r} has, for
n >= 1, the closed form r sum_k binom(a*n + b*k + r-1, k-1) (k-1)!/n!
B_{n,k}(1!c_1, ...).  Here are the composition oracle, the closed form and
its delta-shifted variant (calls into :func:`~bellseq.seq.closed_row`),
per-family formulas coded apart from it, and a checker for the two-index
Bell identity they rest on; :func:`check_row` pairs oracle and closed form,
priced as one request, for ``conv --check`` and :func:`verify_theorem`."""


from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import comb

from .bellpoly import bell_closed_three_term, bell_eval
from .ring import (WORK, Polynomial, Record, RingElement, X, _norm, _pack, _scale, _unpack,
                   blocks, crude, format_element, generalized_binomial, normalized, price)
from .seq import (BellSequenceSpec, SequenceWindow, _rough_growth, bell_transform, closed_row, growth,
                  work)

__all__ = [
    "ConvolutionReport",
    "LemmaGuardError",
    "SPECIALIZED_FAMILIES",
    "compositions",
    "convolution_oracle",
    "convolution_closed",
    "convolution_closed_specialized",
    "shifted_convolution_closed",
    "lemma_identity_check",
    "check_row",
    "verify_theorem",
]

class LemmaGuardError(ValueError):
    """A summand of the convolution lemma divides by zero at (l, m)."""

    def __init__(self, l: int, m: int):
        super().__init__(f"lemma summand undefined at (l={l}, m={m})")
        self.l = l
        self.m = m


class ConvolutionReport(Record):
    """Oracle vs closed form at one (r, n) cell."""

    __slots__ = ("r", "n", "lhs", "rhs")

    def __init__(self, r: int, n: int, lhs: RingElement, rhs: RingElement):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    @property
    def matched(self) -> bool:
        """Exact lhs == rhs."""
        return self.lhs == self.rhs

    def to_record(self) -> dict:
        return {
            "kind": "verification",
            "r": self.r,
            "n": self.n,
            "lhs": format_element(self.lhs),
            "rhs": format_element(self.rhs),
            "matched": self.matched,
        }


def compositions(n: int, r: int):
    """All r-tuples of non-negative integers summing to n, in reverse-
    lexicographic order from (n, 0, ..., 0), as an iterator.

    Past three parts the tuples come in runs: for the last t parts, the
    compositions of every s <= n into t parts are built once, and each head
    (the first r - t parts and the slack s they leave) is joined to the tails
    of s by C-level iteration, so the interpreter steps once a head, not once
    a tuple.  The tails hold at most _TAIL_CAP tuples, whatever n and r.

    >>> list(compositions(2, 3))
    [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    """
    if n < 0 or r < 1:
        raise ValueError(f"need n >= 0 and r >= 1, got n={n}, r={r}")
    t = 0
    while t < min(r - 2, _TAIL_PARTS) and comb(n + t + 1, t + 1) <= _TAIL_CAP:
        t += 1
    if t < 3:
        return _odometer(n, r)
    tails = [list(_odometer(s, t)) for s in range(n + 1)]
    return chain.from_iterable(map(head[:-1].__add__, tails[head[-1]]) for head in _odometer(n, r - t + 1))


# Tails of t = 3 or 4 parts, at most 4096 tuples in all (C(n + t, t) for the
# compositions of every s <= n).  Measured in process on catalan oracle cells
# (2-vCPU VM, Python 3.11.7), odometer against runs: r = 8, n = 13 (t = 4)
# 34 -> 24 ms, r = 5, n = 13 (t = 3) 0.85 -> 0.69 ms.  Tails of two parts made
# r = 4 cells slower (n = 8: 0.063 -> 0.075 ms), their runs too short to repay
# a head's slice and map, so no runs below three parts; five parts were no
# faster than four.  The cap keeps the tails' build, paid once a call, small
# against the walk, and their memory under a megabyte at any n.
_TAIL_PARTS = 4
_TAIL_CAP = 4096


def _odometer(n: int, r: int):
    """The compositions of n into r >= 1 parts, one interpreter step each."""
    comp = [n] + [0] * (r - 1)
    while True:
        yield tuple(comp)
        if comp[-1] == n:
            return
        j = r - 2
        while comp[j] == 0:
            j -= 1
        comp[j] -= 1
        moved = comp[-1] + 1
        if j + 1 == r - 1:
            comp[-1] = moved
        else:
            comp[j + 1] = moved
            comp[-1] = 0


def convolution_oracle(window: SequenceWindow, r: int, n: int, delta: int = 0) -> RingElement:
    """Brute-force sum of products y_{m_1-delta} ... y_{m_r-delta} over all
    compositions m_1 + ... + m_r = n, y at negative index 0.  Only y_0..y_M
    count, M = n - r*delta (y_M alone for r = 1), scaled by D, the lcm of their
    denominators, and with a Polynomial among them packed at x = 2^B, B from
    the norm bound [t^M] (sum_i ||D*y_i||_1 t^i)^r, into one list indexed by
    the part, 0 where the product vanishes: a part is one lookup and one int
    product, and the total is decoded once, by D^r:

    >>> from bellseq.seq import preset
    >>> convolution_oracle(bell_transform(preset("jacobsthal")[0], 5), 2, 5)
    Polynomial((6, 40, 48))"""
    if r < 1:
        raise ValueError("r must be at least 1")
    if n < 0 or delta < 0:
        raise ValueError("n and delta must be non-negative")
    if window.last_index < n:
        raise ValueError(f"window covers 0..{window.last_index}, need 0..{n}")
    M = n - r * delta
    low = M if r == 1 else 0
    used = window.values[low:M + 1] if M >= 0 else ()
    D, scaled = _scale(used)
    B = 0
    if any(isinstance(y, Polynomial) for y in used):
        B = _norm_power(list(map(_norm, scaled)), r).bit_length() + 1
        scaled = [_pack(e, B) for e in scaled]
    # values[m] is the factor of a part m: zero below delta, and past y_M,
    # where some other part is below delta
    values = [0] * (delta + low) + scaled + [0] * (n - M)
    total = 0
    if 0 in values:
        for comp in compositions(n, r):
            product = 1
            for m in comp:
                product *= values[m]
                if not product:
                    break
            total += product
    else:
        for comp in compositions(n, r):
            product = 1
            for m in comp:
                product *= values[m]
            total += product
    return _unpack(total, B, D**r)


def _norm_power(norms: list, r: int) -> int:
    """[t^M] (sum_i norms[i] t^i)^r, M = len(norms) - 1, for r >= 2; the one
    norm for r = 1."""
    if r == 1:
        return norms[0]
    M = len(norms) - 1
    power = norms
    for _ in range(r - 2):
        power = [sum(power[i] * norms[m - i] for i in range(m + 1)) for m in range(M + 1)]
    return sum(power[i] * norms[M - i] for i in range(M + 1))


def convolution_closed(spec: BellSequenceSpec, r: int, n: int) -> RingElement:
    """Closed form of the r-fold convolution at index n >= 1."""
    if r < 1:
        raise ValueError("r must be at least 1")
    if n < 1:
        raise ValueError(
            "closed convolution form is stated for n >= 1 only; the n = 0 sum is 1"
        )
    return closed_row(spec, r, (n,))[0]


def shifted_convolution_closed(c, r: int, n: int, delta: int) -> RingElement:
    """Closed form for the a=0, b=1 family with every factor shifted by
    delta, sum_{k=0..m} binom(k+r-1, k) k!/m! B_{m,k}(1!c_1, ...), m = n -
    delta*r: the unshifted closed form at index m, 1 at m = 0, 0 below it."""
    if r < 1:
        raise ValueError("r must be at least 1")
    if n < 0 or delta < 0:
        raise ValueError("n and delta must be non-negative")
    m = n - delta * r
    if m < 0:
        return 0
    if m == 0:
        return 1
    return convolution_closed(BellSequenceSpec(0, 1, c), r, m)


SPECIALIZED_FAMILIES = (
    "fibonacci",
    "tribonacci",
    "jacobsthal",
    "catalan",
    "motzkin",
    "fuss_catalan",
    "two_term",
)


def convolution_closed_specialized(
    family: str,
    r: int,
    n: int,
    *,
    b: int | None = None,
    c1: RingElement | None = None,
    c2: RingElement | None = None,
) -> RingElement:
    """Per-family convolution formulas, coded apart from
    :func:`convolution_closed` so that tests compare two routes with the oracle:
    fibonacci, tribonacci and jacobsthal sum over the shifted index range (0
    below it); catalan, motzkin and fuss_catalan (parameter b) are product
    formulas; two_term (c1, c2) is the a=1, b=0 two-coefficient family, n >= 1."""
    if r < 1:
        raise ValueError("r must be at least 1")
    if n < 0:
        raise ValueError("n must be non-negative")

    if family == "fibonacci":
        return sum(
            generalized_binomial(k + r - 1, k) * generalized_binomial(k, n - r - k)
            for k in range(n - r + 1)
        )
    if family == "tribonacci":
        return sum(
            generalized_binomial(k + r - 1, k) * bell_closed_three_term(n - 2 * r, k)
            for k in range(n - 2 * r + 1)
        )
    if family == "jacobsthal":
        total = 0
        two_x = 2 * X
        for k in range(n - r + 1):
            scale = generalized_binomial(k + r - 1, k) * generalized_binomial(k, n - r - k)
            if scale:
                total = total + scale * two_x ** (n - r - k)
        return total
    if family == "catalan":
        return normalized(Fraction(r, n + r) * generalized_binomial(2 * (n + r), n))
    if family == "motzkin":
        inner = sum(
            generalized_binomial(n + r, k) * generalized_binomial(k, n - k)
            for k in range(n + 1)
        )
        return normalized(Fraction(r, n + r) * inner)
    if family == "fuss_catalan":
        if b is None or b == 0:
            raise ValueError("fuss_catalan requires parameter b != 0")
        if b * n + r == 0:
            raise ValueError(f"fuss_catalan form undefined at b*n + r == 0 (b={b}, n={n}, r={r})")
        return normalized(Fraction(r, b * n + r) * generalized_binomial(b * n + r, n))
    if family == "two_term":
        if c1 is None or c2 is None:
            raise ValueError("two_term requires parameters c1 and c2")
        if n < 1:
            raise ValueError("two_term form is stated for n >= 1 only; the n = 0 sum is 1")
        total = 0
        for k in range((n + 1) // 2, n + 1):
            binoms = generalized_binomial(n + r - 1, k - 1) * generalized_binomial(k, n - k)
            total = total + Fraction(r * binoms, k) * c1 ** (2 * k - n) * c2 ** (n - k)
        return normalized(total)
    raise ValueError(f"unknown family {family!r}; choose from {', '.join(SPECIALIZED_FAMILIES)}")


def lemma_identity_check(alpha_coeffs, tau: int, n: int, k: int, xs) -> bool:
    """Verify the two-index Bell convolution identity exactly on xs: with
    alpha(l, m) = p*l + q*m + s (alpha_coeffs = (p, q, s)) and tau != 0,

        sum_{l=0..k} sum_{m=l..n} binom(alpha, k-l) binom(tau-alpha, l) binom(n, m)
            / (alpha (tau-alpha) binom(k, l)) * B_{m,l}(xs) B_{n-m,k-l}(xs)
        == (tau - alpha(0,0) + alpha(k,n)) / (tau alpha(k,n) (tau - alpha(0,0)))
            * binom(tau, k) * B_{n,k}(xs).

    A summand denominator that vanishes raises :class:`LemmaGuardError`."""
    p, q, s = alpha_coeffs
    if tau == 0:
        raise ValueError("tau must be nonzero")
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if len(xs) < n + 1:
        raise ValueError(f"need at least n+1 = {n + 1} arguments, got {len(xs)}")

    def alpha(l, m):
        return p * l + q * m + s

    lhs = 0
    for l in range(k + 1):
        choose_l = generalized_binomial(k, l)
        for m in range(l, n + 1):
            a = alpha(l, m)
            if a == 0 or tau - a == 0:
                raise LemmaGuardError(l, m)
            numer = (
                generalized_binomial(a, k - l)
                * generalized_binomial(tau - a, l)
                * generalized_binomial(n, m)
            )
            if numer == 0:
                continue
            left = bell_eval(m, l, xs)
            right = bell_eval(n - m, k - l, xs)
            lhs = lhs + Fraction(numer, a * (tau - a) * choose_l) * left * right

    akn = alpha(k, n)
    a00 = alpha(0, 0)
    rhs = (
        Fraction(tau - a00 + akn, tau * akn * (tau - a00))
        * generalized_binomial(tau, k)
        * bell_eval(n, k, xs)
    )
    return lhs == rhs


def _affine(values: list) -> tuple:
    """(v_0, p, q): v_m <= v_0 + m p/q for every m, p/q the least such slope,
    0 at least, found by comparing products of ints."""
    v0, p, q = values[0], 0, 1
    for m, v in enumerate(values):
        if (v - v0) * q > p * m:
            p, q = v - v0, m
    return v0, p, q


def check_row(spec: BellSequenceSpec, r: int, N: int, delta: int = 0):
    """Oracle-vs-closed-form reports at (r, n), n = 1..N, one at a time.  For
    delta > 0, of any spec, the closed side is [t^n] (t^delta y)^r = [t^M]
    y^r, M = n - delta r: :func:`convolution_closed` at M > 0, 1 at M = 0 and
    0 below.  The row is priced at the first next(), before its window, walk
    or closed side is built (:func:`_price_rows`)."""
    yield from _reports(spec, r, N, delta, _price_rows(spec, (r,), N, delta))


def _price_rows(spec: BellSequenceSpec, rs, N: int, delta: int) -> SequenceWindow:
    """The window of the check rows r in rs to N, built once, with every row
    priced alone as one request, the window, the closed side to N - r delta
    and the walk (:func:`_walk_work`): ValueError past WORK before any walk
    or closed side runs, and before the window is built unless a row needs
    the window's sizes.

    One model prices every row, its majorants from three sources, each row
    priced by the next only where the one before refused it: first those of
    :func:`_growth_sizes`, from :func:`~bellseq.seq.growth` past the crude
    run and from its rough bound in it; then zero sizes, below any window's,
    so a row they refuse is refused unbuilt; then, the window built, its
    own, by :func:`_affine`."""
    known = {}

    def grown(parts):
        key = parts > 0
        if key not in known:
            known[key] = (growth if key else _rough_growth)(spec, N)
        return known[key]

    def sides(r, parts):
        if (r, parts) not in known:
            known[r, parts] = list(chain(work(spec, N, 0, parts, grown(parts)),
                                         work(spec, max(N - delta * r, 0), r, parts)))
        return known[r, parts]

    def refused(rows, sizes, what=""):
        return [r for r in rows if not price(
            lambda parts: chain(sides(r, parts), _walk_work(N, r, delta, grown(parts)[3], sizes(parts), parts)),
            what)]

    loose = refused(rs, lambda parts: _growth_sizes(N, grown(parts)))
    refused(loose, lambda parts: ((0, 0, 1), (0, 0, 1)), "the check row")
    window = bell_transform(spec, N)
    if loose:
        scaled = _scale(window.values)[1]
        bits = [_norm(v).bit_length() for v in scaled]
        sizes = _affine(bits), _affine([getattr(v, "degree", 0) for v in scaled])
        refused(loose, lambda parts: sizes, "the check row")
    return window


def _walk_work(N: int, r: int, delta: int, slope: tuple, sizes: tuple, parts: int):
    """The products of the oracle's walk over the check row r to N, shift
    delta, as :func:`price` reads them, for Polynomial values of degree at
    most m slope at m, with sizes the affine majorants (v_0, p, q) of the
    bits and of the degree of the factors.

    At index n the walk visits C(n + r - 1, r - 1) compositions of r parts
    (past n r = WORK the binomial is taken as max(n, r)), each r products of
    the running product by a factor D y_m, D the lcm of the window's
    denominators, whose parts m sum to M = n - r delta where no factor is
    zero.  A product of the running product by the j-th factor takes, as by
    schoolbook, the digits of the factors before it times the factor's, so a
    composition at most sum_{i<j} s_i s_j / 900 for factors of s_m bits.
    Packed at B (0 for scalars), D y_m has at most s_m = deg(y_m) B +
    bits(||D y_m||_1) + 31 bits, top coefficient, carry and a digit's
    rounding included, and s_m <= s_0 + slope m by affine majorants (v_0, p,
    q), v_m <= v_0 + m p/q, of the degrees and the bits, so the sum over the
    compositions of M has a closed form, as those of sum_i m_i and sum_{i<j}
    m_i m_j do (coefficients of x/(1-x)^(r+1) and x^2/(1-x)^(r+2)).  B =
    bits(sum_comp prod_i ||D y_(m_i)||_1) + 1 is below r bits_0 + slope M +
    bits(C(M + r - 1, r - 1)) + 1 by the bits' majorant, and a product has at
    most M d + 1 coefficients, decoded as in seq.

    parts = 0 is one :func:`~bellseq.ring.crude` triple.  The count at n = N
    is at most K = (L + 1)^t, t = min(N, r - 1) and L = max(N, r - 1), as
    C(L + t, t) is a product of t ratios (L + i)/i <= L + 1; past t = 33, K
    >= C(2t, t) >= 2^34 passes WORK, and K is taken as 2^34.  The pairs sum
    to C(r, 2) C(M + r - 1, M) (s_0 + slope M)^2 at most, as C(M + r - 1, r)
    and C(M + r - 1, r + 1) are C(M + r - 1, M) times M/r and M (M - 1)/(r
    (r + 1)); so with a = s_M // 30 + 1 digits a factor, the r products and
    the pairs of the N K compositions weigh at most N K (C(r, 2) + r + 2)
    (a^2 + 32), and the packed products add N (r - 1) M^2 + 3 N (M d + 1)
    of at most (M d + 1) B bits."""
    (b0, bp, bq), (d0, ep, eq) = sizes
    dp, dq = slope
    if not parts:
        t, L = min(N, r - 1), max(N, r - 1)
        K = (L + 1) ** max(t, 1) if t < 34 else 1 << 34
        M = max(N - r * delta, 0)
        B = -(-(r * b0 * bq + bp * M) // bq) + K.bit_length() + 1 if dp else 0
        s = -(-((B * d0 + b0 + 31) * bq * eq + (B * ep * bq + bp * eq) * M) // (bq * eq))
        count = N * K * (r * (r - 1) // 2 + r + 2)
        if dp:
            count += N * (r - 1) * M * M + 3 * N * (M * dp // dq + 1)
            s = max(s, 30, (M * dp // dq + 1) * B)
        yield crude(count, s)
        return
    for n, size in blocks(N, parts):
        count = comb(n + r - 1, n) if n * r <= WORK else max(n, r)
        yield size * r * count, 0, 0
        M = max(n - r * delta, 0)
        B = 0
        if dp:
            B = -(-(r * b0 * bq + bp * M) // bq) + comb(M + r - 1, M).bit_length() + 1
            yield size * (r - 1) * M * M, B, B
            yield 3 * size * (M * dp // dq + 1), 30, (M * dp // dq + 1) * B
        # s_0 and the slope, both times bq eq
        s0, step = (B * d0 + b0 + 31) * bq * eq, B * ep * bq + bp * eq
        pairs = comb(r, 2) * (s0 * s0 * comb(M + r - 1, M) + 2 * s0 * step * comb(M + r - 1, r)
                              + step * step * comb(M + r - 1, r + 1))
        yield size * count, 0, 30 * -(-pairs // (900 * count * (bq * eq) ** 2))


def _growth_sizes(N: int, grown: tuple) -> tuple:
    """Affine majorants (v_0, p, q) of bits(||D y_m||_1) and of deg y_m, m <=
    N, D the lcm of y_0..y_N's denominators, from grown = (E, q, h, d, rows)
    of :func:`~bellseq.seq.growth` on (spec, N): every coefficient of z_m =
    E^m y_m is below 2^(ceil(m q/16) + h), and deg y_m <= m d.  As y_m = z_m
    / E^m, D divides E^N <= 2^(N bits(E - 1)), and D y_m = (D / E^m) z_m has
    at most N d + 1 coefficients, each at most E^N times one of z_m's, so
    ||D y_m||_1 < 2^(N bits(E - 1) + bits(N d + 1) + m q/16 + 1 + h), and
    bits(||D y_m||_1) <= N bits(E - 1) + h + 2 + bits(N d + 1) + m q/16."""
    E, q, h, (dp, dq), _ = grown
    return (N * (E - 1).bit_length() + h + 2 + (N * dp // dq + 1).bit_length(), q, 16), (0, dp, dq)


def _reports(spec: BellSequenceSpec, r: int, N: int, delta: int, window: SequenceWindow):
    """The reports of a priced check row, the closed side of index N first."""
    def closed(n):
        M = n - delta * r
        return convolution_closed(spec, r, M) if M > 0 else int(M == 0)

    last = closed(N) if N else None
    for n in range(1, N + 1):
        lhs = convolution_oracle(window, r, n, delta)
        yield ConvolutionReport(r, n, lhs, last if n == N else closed(n))


def verify_theorem(spec: BellSequenceSpec, r_max: int, n_max: int) -> list:
    """The reports of :func:`check_row` for every (r, n) in [1, r_max] x
    [1, n_max], r outermost.  Every row is priced as check_row prices it
    before the window is built, once, and before any row's walk or closed
    side runs, so a grid is refused, unbuilt, exactly when one of its rows
    is."""
    if r_max < 1 or n_max < 1:
        raise ValueError("r_max and n_max must be at least 1")
    window = _price_rows(spec, range(1, r_max + 1), n_max, 0)
    return [report for r in range(1, r_max + 1) for report in _reports(spec, r, n_max, 0, window)]
