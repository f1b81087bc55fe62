"""Sequences built from partial Bell polynomials: y_0 = 1, y_n =
sum_{k=1..n} binom(a*n + b*k, k-1) (k-1)!/n! B_{n,k}(1!c_1, 2!c_2, ...), for
integers (a, b) not both zero and a finite list c, with presets and
:func:`decompose` of a linear recurrence into shifted y (a = 0, b = 1).

As B_{n,k}(1!c_1, ...) = n!/k! [t^n] g^k, g = sum_j c_j t^j (Comtet, 1974,
3.3), the r-fold convolution is a column sum over one table of powers of
D*g: :func:`closed_row`.  By Lagrange-Buermann inversion y is also the one
series with y = 1 + sum_j c_j t^j y^(a*j + b), solved a coefficient at a
time, each power extended by J. C. P. Miller's recurrence (Knuth, TAOCP 2,
4.7): :func:`bell_transform`, for rational c and linear recurrences.
Polynomials are packed at x = 2^B (Kronecker substitution), so both routes
are int arithmetic, decoded once by :mod:`.ring`: a Polynomial exactly when
its degree is at least 1.  Each route is priced (ring.price) before it works."""


from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import accumulate, repeat
from math import gcd, lcm, prod
from operator import mul

from .bellpoly import bell_eval  # noqa: F401  unused; bench/tracing.py wraps seq.bell_eval by name
from .bellpoly import bell_closed_three_term
from .ring import (Polynomial, Record, RingElement, X, _norm, _pack, _rough, _scale, _unpack, blocks,
                   crude, generalized_binomial, normalized, price)

__all__ = [
    "BellSequenceSpec",
    "SequenceWindow",
    "RecurrenceSpec",
    "RewrittenFormUndefined",
    "PRESET_NAMES",
    "bell_transform",
    "bell_transform_rewritten",
    "preset",
    "fuss_catalan_closed",
    "decompose",
    "binomial_sum_fibonacci",
    "binomial_double_sum_tribonacci",
    "jacobsthal_closed",
]


class RewrittenFormUndefined(ValueError):
    """The k-indexed rewrite of y_n divides by a*n + b*k + 1, which vanished."""

    def __init__(self, n: int, k: int):
        super().__init__(f"rewritten form undefined at (n={n}, k={k}): a*n + b*k + 1 == 0")
        self.n = n
        self.k = k


class BellSequenceSpec(Record):
    """The triple (a, b, c) defining one sequence of the family.

    c is 1-indexed and finite; entries past the end are zero.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: tuple):
        if not isinstance(a, int) or not isinstance(b, int):
            raise TypeError("a and b must be integers")
        if a == 0 and b == 0:
            raise ValueError("a and b must not both be zero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", tuple(map(normalized, c)))

    @property
    def ring(self) -> str:
        """"polynomial" when any entry of c is a Polynomial, else "rational"."""
        return "polynomial" if any(isinstance(cj, Polynomial) for cj in self.c) else "rational"


class SequenceWindow(Record):
    """Values y_0..y_N with the convention y_n = 0 for n < 0."""

    __slots__ = ("values", "spec")

    def __init__(self, values: tuple, spec: BellSequenceSpec | None = None):
        values = tuple(values)
        if not values:
            raise ValueError("window must contain at least y_0")
        if spec is not None and values[0] != 1:
            raise ValueError("y_0 must be 1")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "spec", spec)

    def __len__(self):
        return len(self.values)

    @property
    def last_index(self) -> int:
        return len(self.values) - 1

    def value_at(self, n: int) -> RingElement:
        """y_n, with y at negative index equal to 0."""
        if n < 0:
            return 0
        if n > self.last_index:
            raise IndexError(f"window covers 0..{self.last_index}, asked for {n}")
        return self.values[n]

    def shifted(self, offset: int, count: int) -> list:
        """The count values y_{n-offset} for n = 0..count-1."""
        if count - 1 - offset > self.last_index:
            raise IndexError(
                f"window covers 0..{self.last_index}, shift by {offset} needs {count - 1 - offset}"
            )
        return [self.value_at(n - offset) for n in range(count)]


class RecurrenceSpec(Record):
    """a_n = c_1 a_{n-1} + ... + c_d a_{n-d} with initial values a_0..a_{d-1}."""

    __slots__ = ("coefficients", "initial")

    def __init__(self, coefficients: tuple, initial: tuple):
        coefficients = tuple(map(normalized, coefficients))
        initial = tuple(map(normalized, initial))
        if len(coefficients) < 1:
            raise ValueError("recurrence order d must be at least 1")
        if len(coefficients) != len(initial):
            raise ValueError(
                f"coefficients and initial values must have equal length, "
                f"got {len(coefficients)} and {len(initial)}"
            )
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "initial", initial)

    @property
    def order(self) -> int:
        return len(self.coefficients)


def _scaled(c) -> tuple:
    """(D, entries): D of :func:`_scale` on c, entries the (j, D*c_j), c_j != 0."""
    D, scaled = _scale(c)
    return D, [(j, e) for j, e in enumerate(scaled, start=1) if e]


_UNIT = ((1,),)  # the table to N = 0


def _slope(entries) -> tuple:
    """(p, q), p/q = max deg(e_j)/j: entries whose indices sum to n multiply
    to degree n p // q at most."""
    p, q = 0, 1
    for j, e in entries:
        if isinstance(e, Polynomial) and e.degree * q > p * j:
            p, q = e.degree, j
    return p, q


def _powers(entries, N: int, columns=_UNIT) -> list:
    """Columns T[n][k] = [t^n] (sum_j e_j t^j)^k, 0 <= k <= n <= N, entries
    the (j, e_j), j >= 1 ascending, e_j an int.  columns holds T[0..M]; the
    columns M+1..N are appended to a copy, T[n][k] = sum_j e_j T[n-j][k-1],
    O((N^2 - M^2) len(entries)) int operations, and columns is returned as it
    is when M >= N."""
    if len(columns) > N:
        return columns
    columns = list(columns)
    for n in range(len(columns), N + 1):
        column = [0] * (n + 1)
        for j, e in entries:
            if j > n:
                break
            for k, power in enumerate(columns[n - j], start=1):
                if power:
                    column[k] += e * power
        columns.append(column)
    return columns


# (c, D, entries, poly, T, (B, P), (N, r), L, powers) of the last table, (B,
# P) its packed table or (0, _UNIT), priced as a row to index N at r, L the
# lcm(1..n) and powers the D^n as far as T at least, () for D = 1: replaced,
# never changed
_last_table = None


def _bits(spec: BellSequenceSpec, r: int, n: int, wide: int) -> tuple:
    """(binom, lcm, B) at index n of :func:`closed_row`, max(1, D, S)^n <
    2^(n wide/16), S = sum_j ||D c_j||_1: |binom(t, k-1)| < 2^binom, t = a n +
    b k + r - 1, |t| <= T = (|a| + |b|) n + r, as it is at most 2^t for t >= 0,
    2^(|t| + k) for t < 0 and (T + n)^n; L = lcm(1..n) < 3^n < 2^lcm (Hanson,
    1972); so a column sum, n terms r binom (L/k) D^(n-k) T[n][k], |T[n][k]|
    <= S^k, packs at x = 2^B."""
    t = (abs(spec.a) + abs(spec.b)) * n + r
    binom = min(t + n * (spec.a < 0 or spec.b < 0), n * (t + n).bit_length())
    lcm_bits = -(-8 * n // 5)
    return binom, lcm_bits, (n * r).bit_length() + binom + lcm_bits + -(-n * wide // 16) + 1


def _closed_work(spec: BellSequenceSpec, r: int, N: int, D: int, entries, parts: int = 16):
    """The products of closed_row(spec, r, range(N + 1)) from no table, as
    :func:`price` reads them, by :func:`_bits` and :func:`_slope`.  As the
    entries' indices j_1 < ... lie in [j_min, j_max], T[n][k] is zero but for
    k j_min <= n <= k j_max, at most n (j_max - j_min)/(j_min j_max) + 1
    cells, k apart by multiples of d = g/gcd(g, j_min), g = gcd(j - j_min),
    as k j_min = n mod g.  Column n takes a loop step per entry and per k, and
    per cell a product per entry, of T[n][k] <= max(1, S)^n, and in P, of
    degree n d, at most twice as wide as the B of index N; then per cell a
    weight: at most two cells of a column (its first, and the first after the
    one run of k with 0 <= t < k - 1, where the binomial is zero) form the
    binomial by math.comb, about bits(n) products as it works by halves,
    times r L/k; any other steps from the cell before, F = d (|b| + |b - 1| +
    1) factors below 2^bits(T + n) multiplied up and a product and a division
    of the weight by them, or else forms a binomial below 2^(_STEP_BITS + 16
    F) by comb; then D^(n-k) and one product for the sum; each value is held,
    formatted and decoded as in :func:`_solve_work`.

    parts = 0 is one :func:`~bellseq.ring.crude` triple from
    :func:`~bellseq.ring._rough` on c alone, D and entries unread: D <= 2^e
    and S < t 2^(e + s), so q and wide are at most 16 max(1, e + s +
    bits(t)); the slope is at most g, F at most max(1, high - low) (|b| +
    |b - 1| + 1); and the one run's counts, at n = N of size N, sum to at
    most N (N (t + 1) + cells (2 t + bits(N) + F + 5) + 4 (N g + 1)), as
    falls + steps = cells, its operands' bits to at most the largest of the
    weight, the factors, 30 and (max(N, len(c)) g + 1) twice B."""
    if not parts:
        e, s, g, t, low, high = _rough(spec.c)
        wide = 16 * max(1, e + s + t.bit_length())
        binom, lcm_bits, B = _bits(spec, r, N, wide)
        F = max(1, high - low) * (abs(spec.b) + abs(spec.b - 1) + 1)
        cells = min(N, N * (high - low) // (low * high) + 1) if t else 0
        weight = r.bit_length() + binom + lcm_bits + N * e + 1
        count = N * (N * (t + 1) + cells * (2 * t + N.bit_length() + F + 5) + 4 * (N * g + 1))
        factors = F * ((abs(spec.a) + abs(spec.b) + 1) * N + r).bit_length()
        yield crude(count, max(weight, factors, 30, 2 * B * (max(N, len(spec.c)) * g + 1)))
        return
    S = sum(_norm(e) for _, e in entries)
    q, wide = (max(1, S) ** 16).bit_length(), (max(1, D, S) ** 16).bit_length()  # S^n < 2^(n q/16)
    (dp, dq), width = _slope(entries), 0
    low, high = entries[0][0] if entries else 1, entries[-1][0] if entries else 1
    g = gcd(*(j - low for j, _ in entries))
    F = (g // gcd(g, low) or 1) * (abs(spec.b) + abs(spec.b - 1) + 1)
    for n, size in blocks(N, parts):
        binom, lcm_bits, B = _bits(spec, r, n, wide)
        width = width or 2 * B  # P's at most: the first block ends at N
        powers, cell = n * (D - 1).bit_length() + 1, -(-n * q // 16)  # D^(n-k), T[n][k]
        cells = min(n, n * (high - low) // (low * high) + 1) if entries else 0
        falls, narrow = min(cells, 2), min(binom, _STEP_BITS + 16 * F)
        steps, weight = cells - falls, r.bit_length() + binom + lcm_bits + powers
        factors = F * ((abs(spec.a) + abs(spec.b) + 1) * n + r).bit_length()
        yield size * n * (len(entries) + 1), 0, 0
        yield size * cells * len(entries), q // 16 + 1, cell
        if dp:
            cell = (n * dp // dq + 1) * width
            yield size * cells * len(entries), (len(spec.c) * dp // dq + 1) * width, cell
        yield size * falls * n.bit_length(), binom, binom
        yield size * steps * n.bit_length(), narrow, narrow
        yield size * cells, binom, lcm_bits
        yield size * steps * F, factors, 30
        yield size * steps * 2, weight, factors
        if D > 1:
            yield size * cells, binom + lcm_bits, powers
        yield size * cells, weight, cell
        yield size * (n * dp // dq + 1), width, width
        yield 3 * size * (n * dp // dq + 1), 30, cell


def _table(spec: BellSequenceSpec, r: int, N: int, B: int = 0) -> tuple:
    """The kept slot for c = spec.c (see _last_table): D and entries of
    :func:`_scaled`, poly, T the columns of :func:`_powers` to N or beyond for
    the entries, or their norms when poly, P for the entries packed at 2^B',
    and, as far as T at least, L_n = lcm(1..n) carried as lcm(L_(n-1), n)
    and D^n as D D^(n-1) (none for D = 1), shared by an equal c, a constant
    Polynomial's scalar included.  B = 0 extends T, L and the powers; B > 0 extends P, rebuilt below B' >= B at max(B, 2 B'),
    O(log B) times, never wider than twice the B of the priced row.  A B = 0
    call past the index or r priced first prices a row by
    :func:`_closed_work`, to twice that index (32 at least), or else to N, at
    the largest r asked: per-index calls price O(log N) times, and a call the
    slot covers never."""
    global _last_table
    c = spec.c
    last = _last_table
    if last is None or last[0] != c:
        D, entries = _scaled(c)
        poly = any(isinstance(e, Polynomial) for _, e in entries)
        last = c, D, entries, poly, _UNIT, (0, _UNIT), (-1, 0), (1,), (1,) if D > 1 else ()
    _, D, entries, poly, table, (width, packed), (paid, paid_r), lcms, powers = last
    grow = not B and (N > paid or r > paid_r)
    if grow:
        paid_r = max(r, paid_r)
        for paid in (max(N, 2 * paid, 32), N):
            if price(partial(_closed_work, spec, paid_r, paid, D, entries),
                     "the closed form" * (paid == N)):
                break
    if B:
        if width >= B and len(packed) > N:
            return last
        if width < B:
            width, packed = max(B, 2 * width), _UNIT
        packed = _powers([(j, _pack(e, width)) for j, e in entries], N, packed)
    elif len(table) > N and not grow:
        return last
    else:
        table = _powers([(j, _norm(e)) for j, e in entries] if poly else entries, N, table)
        if len(lcms) < len(table):
            # to twice their length at least, so that per-index calls carry O(log N) times
            size = max(len(table), 2 * len(lcms))
            lcms = _carry(lcms, range(len(lcms), size), lcm)
            if powers:
                powers = _carry(powers, repeat(D, size - len(powers)), mul)
    last = _last_table = c, D, entries, poly, table, (width, packed), (paid, paid_r), lcms, powers
    return last


def _carry(values: tuple, steps, step) -> tuple:
    """values extended by step(last, s) for each s of steps, from its last entry."""
    return values + tuple(accumulate(steps, step, initial=values[-1]))[1:]


# A step of d cells along a column takes F = d (|b| + |b - 1| + 1) small
# factors, one int product and one exact division by their product; a fallback
# forms the binomial afresh by math.comb, in time that grows faster than its
# bits, and multiplies it by r L/k D^(n-k).  A cell steps from a weight of more
# than _STEP_BITS + 16 F bits.  Measured in CPython 3.11 (2-vCPU VM) over the
# weights of 30 random rows, |a|, |b| <= 6 and up to four entries: at N 40-80
# every threshold from 0 to no stepping at all took 27-28 ms, so small rows
# neither gain nor lose; at N 150-250 16 bits a factor took 271 ms, 64 bits
# 408 ms and no stepping 783 ms.
_STEP_BITS = 128


def _column(spec: BellSequenceSpec, r: int, n: int, L: int, powers, column: list) -> list:
    """The pairs (k, w_k), w_k = r binom(a*n + b*k + r-1, k-1) L/k D^(n-k),
    for index n, L = lcm(1..n), powers[i] = D^i or () for D = 1, and column
    T[n], over the k with T[n][k] and the binomial nonzero.  r L is formed
    once.  A weight steps from the last one, w at k0 = k - d with binom(u0,
    k0 - 1), to u = u0 + d b, m = k - 1: the falling factorial u(u-1)...(u-m+1)
    is that of u0 with the factors between the old and the new bottom and top
    put in (num) or taken out (den), d |b| + d |b - 1| of them, so w_k = w num
    / (den (k0 + 1)...k D^d), an exact division.  A cell falls back to
    generalized_binomial where the step costs more than that call (see
    _STEP_BITS) and where a factor of den is zero."""
    rL, b, base = r * L, spec.b, spec.a * n + r - 1
    least, per_cell = _STEP_BITS, 16 * (abs(b) + abs(b - 1) + 1)  # bits a step needs
    weights = []
    weight, k0, u0 = 0, 0, 0
    for k in range(1, n + 1):
        if not column[k]:
            continue
        u = base + b * k
        if 0 <= u < k - 1:
            continue  # u(u-1)...(u-k+2) has the factor 0
        if k0 and weight.bit_length() > least + per_cell * (k - k0):
            # the bottom factor u - k + 2 moves by (k - k0) (b - 1), the top u by (k - k0) b
            if b > 0:
                num, den = prod(range(u0 + 1, u + 1)), prod(range(u0 - k0 + 2, u - k + 2))
            else:
                num, den = prod(range(u - k + 2, u0 - k0 + 2)), prod(range(u + 1, u0 + 1))
            if den:
                den *= prod(range(k0 + 1, k + 1))
                weight = weight * num // (den * powers[k - k0] if powers else den)
                k0, u0 = k, u
                weights.append((k, weight))
                continue
        weight = generalized_binomial(u, k - 1) * (rL // k)
        if powers:
            weight *= powers[n - k]
        k0, u0 = k, u
        weights.append((k, weight))
    return weights


def closed_row(spec: BellSequenceSpec, r: int, indices) -> list:
    """r sum_{k=1..n} binom(a*n + b*k + r-1, k-1)/k [t^n] g^k (1 at n = 0) for
    each n of indices, increasing non-negative ints: y_n at r = 1, the r-fold
    convolution at n for r >= 1.  One table T[n][k] = [t^n] (D*g)^k serves
    every index: each value is the int sum_k r binom (L/k) D^(n-k) T[n][k], L =
    lcm(1..n), unpacked at B = bits(bound) + 1 from the same sums over the norm
    table, and divided once by L D^n.  The weights come from carried state:
    L and the powers of D from the kept slot, and each binomial stepped along
    k from the one before it (see :func:`_column`).
    The table is kept for its c, for both rings (see :func:`_table`), so
    per-index calls or calls over r build one between them; a row priced past
    WORK is refused before its table is built."""
    if not indices:
        # no table either, so the kept slot of another c stays
        return []
    N = indices[-1]
    _, D, _, poly, table, _, _, lcms, powers = _table(spec, r, N)
    weights = ((n, _column(spec, r, n, lcms[n], powers, table[n])) for n in indices)
    B = 0
    if poly:
        weights = list(weights)
        bound = max(sum(abs(w) * table[n][k] for k, w in ws) for n, ws in weights)
        B, table = _table(spec, r, N, bound.bit_length() + 1)[5]
    values = []
    for n, ws in weights:
        if n == 0:
            values.append(1)
            continue
        column = table[n]
        total = 0
        for k, w in ws:
            total += w * column[k]
        values.append(_unpack(total, B, lcms[n] * powers[n] if powers else lcms[n]))
    return values


def _solve(spec: BellSequenceSpec, N: int, E: int, terms) -> list:
    """z_0..z_N of z = 1 + sum_j v_j E^(j-1) t^j z^(a*j + b), terms the int
    pairs (j, v_j) ascending in j: with v_j = E c_j this is y(E t), z_m = E^m
    y_m.  z_m reads z_0..z_(m-1) through one row P = z^alpha per distinct
    alpha = a*j + b: the series 1, z itself, or a row extended by Miller's
    recurrence m P_m = sum_{i=1..m} ((alpha+1) i - m) z_i P_(m-i), exact in
    ints as z_0 = 1."""
    z = [1]
    powers = {0: [1] + [0] * N, 1: z}
    terms = [(j, v * E ** (j - 1), powers.setdefault(spec.a * j + spec.b, [1])) for j, v in terms]
    # the rows past the first two: z and the series 1 need no recurrence
    rows = list(powers.items())[2:]
    for m in range(1, N + 1):
        total = 0
        for j, e, P in terms:
            if j > m:
                break
            total += e * P[m - j]
        z.append(total)
        if m == N:
            break
        for alpha, P in rows:
            s = 0
            for i in range(1, m + 1):
                s += ((alpha + 1) * i - m) * z[i] * P[m - i]
            P_m, rest = divmod(s, m)
            assert not rest, "Miller's recurrence must divide exactly"
            P.append(P_m)
    return z


def growth(spec: BellSequenceSpec, N: int, scaled=None) -> tuple:
    """(E, q, h, d, rows) for c_1..c_N: E that of :func:`_scaled`, rows the
    Miller rows of :func:`_solve`, d = :func:`_slope`, and every coefficient
    of each z_m = E^m y_m and row entry P_m below 2^(ceil(m q/16) + h).

    With S = sum_j ||E^j c_j||_1, the norm of g(E t), and M = max(1, S) <
    2^(q'/16), q' = bits(M^16): with no Miller row, |z_m| <= sum_j |E^j c_j|
    M^(m-j) <= M^m by induction.  Otherwise the closed form, a polynomial
    identity in alpha and so true for every integer power, gives
    |[t^m] z^alpha| <= |alpha| sum_{k<=m} |binom(t, k-1)| S^k/k, t = a m +
    b k + alpha - 1, with |binom| <= 2^|t|, or 2^(|t| + k) for t < 0 (a, b
    or alpha negative), and S^k <= M^m: below |alpha| m 2^((|a| + |b| + s)
    m + |alpha| + 1) M^m, s = 1 in that case, z itself at alpha = 1."""
    E, entries = scaled or _scaled(spec.c[:N])
    alphas = {spec.a * j + spec.b for j, _ in entries} - {0, 1}
    S = sum(_norm(e) * E ** (j - 1) for j, e in entries)
    q, h = (max(1, S) ** 16).bit_length(), 1
    if alphas:
        A = max(map(abs, alphas))
        q += 16 * (abs(spec.a) + abs(spec.b) + (min(spec.a, spec.b, *alphas) < 0))
        h = A + 2 + (A * N).bit_length()
    return E, q, h, _slope(entries), len(alphas)


def _rough_growth(spec: BellSequenceSpec, N: int) -> tuple:
    """(E', q', h', (g, 1), rows') at least each term of :func:`growth` of
    (spec, N), by :func:`~bellseq.ring._rough` on c, whose bit counts take
    no product, so every bound proved from growth's terms holds from these:
    E' = 2^e >= E; S = sum_j ||E^j c_j||_1 < t 2^(e high + s), so q <=
    16 max(1, e high + s + bits(t)), and 16 (|a| + |b| + 1) more where a
    Miller row may be; rows' = t, or for a = 0, the one exponent b, 1 unless
    b is 0 or 1; A <= |a| high + |b|; and the slope is at most g."""
    e, s, g, t, low, high = _rough(spec.c)
    rows = t if spec.a else int(bool(t) and spec.b not in (0, 1))
    q, h = 16 * max(1, e * high + s + t.bit_length()), 1
    if rows:
        A = abs(spec.a) * high + abs(spec.b)
        q += 16 * (abs(spec.a) + abs(spec.b) + 1)
        h = A + 2 + (A * N).bit_length()
    return 1 << e, q, h, (g, 1), rows


def _solve_work(spec: BellSequenceSpec, N: int, lambdas=0, room=0, parts=16, grown=None):
    """The products of :func:`_functional_ints` to N as :func:`price` reads
    them, by :func:`growth`: at each m a product per entry and per lambda;
    per Miller row m products by a factor below (alpha + 2) N and m of
    z_i P_(m-i), whose bits sum to those of z_m and 2 h more; the decode by
    E^m < 2^(m bits(E - 1) + 1); and one product of the value with itself,
    to hold and to format it, as CPython converts an int to text in time
    quadratic in its digits.  Polynomial entries run once on the norms and
    once packed at B <= bits(M^N) + 2 + room, degree m d, decoded a digit at
    a time, three full-size steps a digit.

    parts = 0 is one :func:`~bellseq.ring.crude` triple, from grown or
    else :func:`_rough_growth`: the one run's counts, at m = N of size N,
    sum to at most N (terms + 2 rows N + 2), or with Polynomial entries N
    (2 terms + 2 rows N + 2 + 4 degree), degree = max(N, len(c)) d + 1 at
    least the coefficients of any operand; its operands' bits are at most
    max(q/16 + 1, N bits(E - 1) + 1, B + h), times degree with Polynomial
    entries, and 30."""
    E, q, h, (dp, dq), rows = grown or (growth if parts else _rough_growth)(spec, N)
    B = -(-N * q // 16) + h + 1 + room
    terms = min(len(spec.c), N) + lambdas
    if not parts:
        degree = max(N, len(spec.c)) * dp // dq + 1 if dp else 0
        bits = max(q // 16 + 1, N * (E - 1).bit_length() + 1, B + h) * (degree or 1)
        yield crude(N * (terms + 2 * rows * N + 2 + (terms + 4 * degree) * (dp > 0)), max(bits, 30 * (dp > 0)))
        return
    for m, size in blocks(N, parts):
        top = -(-m * q // 16) + h
        yield size * (terms + rows * m + 1), max(h, q // 16 + 1, m * (E - 1).bit_length() + 1), top
        yield size * rows * m, top // 2 + h + 1, top // 2 + h + 1
        if not dp:
            yield size, top, top
        else:
            degree = m * dp // dq
            yield size * terms, (len(spec.c) * dp // dq + 1) * B, (degree + 1) * B
            yield 3 * size * (degree + 1), 30, (degree + 1) * B
            yield size * (degree + 1), B, B


def work(spec: BellSequenceSpec, N: int, r: int = 0, parts: int = 16, grown=None):
    """The products of bell_transform(spec, N) (r = 0), or of
    closed_row(spec, r, range(N + 1)) from no table, as :func:`price` reads
    them; grown is :func:`growth` of (spec, N), if known."""
    if r or _closed_window(spec, N):
        return _closed_work(spec, r or 1, N, *(_scaled(spec.c) if parts else (1, ())), parts)
    return _solve_work(spec, N, parts=parts, grown=grown)


def _closed_window(spec: BellSequenceSpec, N: int) -> bool:
    """A Polynomial entry, and an alpha = a*j + b not 0 or 1 of a nonzero c_j, j <= N."""
    return spec.ring == "polynomial" and not {
        spec.a * j + spec.b for j, cj in enumerate(spec.c[:N], start=1) if cj} <= {0, 1}


def _functional_ints(spec: BellSequenceSpec, N: int, lambdas=()) -> tuple:
    """(E, B, z) for y_0..y_N from y = 1 + sum_j c_j t^j y^(a*j + b), unless
    :func:`_closed_window`: E of :func:`_scaled` on c_1..c_N, z_m = E^m y_m from
    :func:`_solve`, packed at x = 2^B for Polynomial entries, whose norm run
    bounds B, which also packs sum_j l_j E^j z_(n-j) for the lambdas l_j (ints
    or int Polynomials).  _unpack(z_m, B, E^m) is y_m.  Priced first."""
    E, entries = _scaled(spec.c[:N])
    room = sum(_norm(v) * E**j for j, v in enumerate(lambdas)).bit_length()
    price(partial(_solve_work, spec, N, len(lambdas), room), "the functional equation")
    if not any(isinstance(e, Polynomial) for _, e in entries):
        z = _solve(spec, N, E, entries)
        return E, max(map(abs, z)).bit_length() + 1 + room, z
    norms = _solve(spec, N, E, [(j, _norm(e)) for j, e in entries])
    B = max(norms).bit_length() + 1 + room
    return E, B, _solve(spec, N, E, [(j, _pack(e, B)) for j, e in entries])


def bell_transform(spec: BellSequenceSpec, N: int) -> SequenceWindow:
    """y_0..y_N of the family defined by spec, exactly: from the functional
    equation, which includes every linear recurrence (a = 0, b = 1), unless
    :func:`_closed_window` sends it to :func:`closed_row` at r = 1.  Either
    way a value is a Polynomial exactly when its degree is at least 1, so
    jacobsthal's constant y_1 is the int 1:

    >>> bell_transform(preset("jacobsthal")[0], 4).values
    (1, 1, Polynomial((1, 2)), Polynomial((1, 4)), Polynomial((1, 6, 4)))
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    if _closed_window(spec, N):
        values = closed_row(spec, 1, range(N + 1))
    else:
        E, B, z = _functional_ints(spec, N)
        values = [_unpack(z_m, B, E**m) for m, z_m in enumerate(z)]
    return SequenceWindow(tuple(values), spec)


def bell_transform_rewritten(spec: BellSequenceSpec, N: int) -> SequenceWindow:
    """The k-from-0 rewrite, y_n = sum_{k=0..n} binom(a*n+b*k+1, k) /
    (a*n+b*k+1) k!/n! B_{n,k}(...), defined only when a*n + b*k + 1 != 0 for
    0 <= k <= n <= N; the first offending pair is reported otherwise.  Where
    defined it is :func:`bell_transform`, as binom(t, k)/t = binom(t-1, k-1)/k
    for k >= 1.  The guard solves b*k = -(a*n + 1) once per n; for b = 0 the
    first k is 0."""
    for n in range(N + 1):
        t = spec.a * n + 1
        if not spec.b:
            if not t:
                raise RewrittenFormUndefined(n, 0)
            continue
        k, rest = divmod(-t, spec.b)
        if not rest and 0 <= k <= n:
            raise RewrittenFormUndefined(n, k)
    return bell_transform(spec, N)


PRESET_NAMES = ("fibonacci", "tribonacci", "jacobsthal", "catalan", "motzkin", "fuss_catalan")


def preset(name: str, b: int | None = None) -> tuple:
    """Named (spec, offset) pairs for the classical sequences.

    The offset relates the classical sequence to y (classical_n = y_{n-offset}
    with zeros at negative index); fuss_catalan takes the required integer
    parameter b != 0.
    """
    if name == "fuss_catalan":
        if b is None:
            raise ValueError("fuss_catalan requires parameter b")
        if b == 0:
            raise ValueError("fuss_catalan requires b != 0")
        return BellSequenceSpec(0, b, (1,)), 0
    if b is not None:
        raise ValueError(f"preset {name!r} takes no parameter")
    if name == "fibonacci":
        return BellSequenceSpec(0, 1, (1, 1)), 1
    if name == "tribonacci":
        return BellSequenceSpec(0, 1, (1, 1, 1)), 2
    if name == "jacobsthal":
        return BellSequenceSpec(0, 1, (Polynomial((1,)), 2 * X)), 1
    if name == "catalan":
        return BellSequenceSpec(1, 0, (2, 1)), -1
    if name == "motzkin":
        return BellSequenceSpec(1, 0, (1, 1)), 0
    raise ValueError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")


def fuss_catalan_closed(b: int, n: int) -> RingElement:
    """binom(b*n, n-1) * (n-1)!/n!, the closed form of the fuss_catalan preset."""
    if b == 0:
        raise ValueError("b must be nonzero")
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1
    return normalized(Fraction(generalized_binomial(b * n, n - 1), n))


def decompose(rec: RecurrenceSpec, N: int) -> tuple:
    """Express the recurrence sequence as sum_j lambda_j y_{n-j}, y the a=0,
    b=1 transform of its coefficients, Y(t) = 1/(1 - C(t)): the lambdas are
    A(t) (1 - C(t)) mod t^d, lambda_i = a_i - sum_{j=1..i} c_j a_(i-j) in ring
    arithmetic (a zero Polynomial c_j as the int 0), equal, types included, to
    the triangular solve in ring arithmetic.  Returns (lambdas, window 0..N).
    The window is summed in ints: with z_m = E^m y_m from
    :func:`_functional_ints`, given the L lambda_j (L the lcm of their
    denominators) for its B, L E^n a_n = sum_{j <= min(n, d-1)} L lambda_j E^j
    z_(n-j), one int per n, decoded once."""
    d = rec.order
    if N < d - 1:
        raise ValueError(f"N must be at least d-1 = {d - 1}")
    c, a = rec.coefficients, rec.initial
    lambdas = []
    for i in range(d):
        acc = a[i]
        for j in range(1, i + 1):
            acc = acc - (c[j - 1] or 0) * a[i - j]
        lambdas.append(normalized(acc))
    L, scaled = _scale(lambdas)
    E, B, z = _functional_ints(BellSequenceSpec(0, 1, c), N, scaled)
    packed = [_pack(v, B) * E**j for j, v in enumerate(scaled)]
    values = []
    for n in range(N + 1):
        total = 0
        for j, v in enumerate(packed[:n + 1]):
            total += v * z[n - j]
        values.append(_unpack(total, B, L * E**n))
    return tuple(lambdas), SequenceWindow(tuple(values))


def binomial_sum_fibonacci(n: int) -> int:
    """f_n as the closed sum of binom(k, n-1-k) over k = 0..n-1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return sum(generalized_binomial(k, n - 1 - k) for k in range(n))


def binomial_double_sum_tribonacci(n: int) -> int:
    """t_n as the closed double sum over binom(k, l) * binom(l, n-2-k-l)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return sum(bell_closed_three_term(n - 2, k) for k in range(n - 1))


def jacobsthal_closed(n: int) -> Polynomial:
    """J_n(x) as the closed sum of binom(k, n-1-k) * (2x)^(n-1-k)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    total = Polynomial()
    two_x = 2 * X
    for k in range(n):
        binom = generalized_binomial(k, n - 1 - k)
        if binom:
            total = total + binom * two_x ** (n - 1 - k)
    return total
