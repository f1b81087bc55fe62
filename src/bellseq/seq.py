"""Sequences built from partial Bell polynomials.

The central object is the family

    y_0 = 1,
    y_n = sum_{k=1..n} binom(a*n + b*k, k-1) * (k-1)!/n! * B_{n,k}(1!c_1, 2!c_2, ...)

parameterized by integers (a, b), not both zero, and a finite coefficient
list c.  Named presets cover Fibonacci, Tribonacci, Jacobsthal (polynomial
ring), Catalan, Motzkin, and the Fuss-Catalan family, and `decompose`
expresses an arbitrary constant-coefficient linear recurrence sequence as a
fixed linear combination of shifted y values (the a=0, b=1 member).

Two routes evaluate the family.  With g(t) = sum_j c_j t^j,
B_{n,k}(1!c_1, 2!c_2, ...) = n!/k! * [t^n] g(t)^k (Comtet, Advanced
Combinatorics, 1974, section 3.3), so y_n and its r-fold convolution are
column sums over one table of truncated powers of D*g:

    r * sum_{k=1..n} binom(a*n + b*k + r-1, k-1) / k * [t^n] g(t)^k

and y is r = 1.  By Lagrange-Buermann inversion (Comtet, section 3.8;
Graham, Knuth and Patashnik, Concrete Mathematics, section 5.4) y is also
the one power series with

    y = 1 + sum_j c_j t^j y^(a*j + b),

whose coefficients come one at a time, each power of y extended by
J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, section 4.7) in
O(N^2) int products per distinct exponent a*j + b, with no binomial.
:func:`bell_transform` takes that route for rational c, and for
Polynomial entries when every a*j + b of a nonzero c_j is 0 or 1: then there
is no power to extend, y_n = sum_j c_j [y^(a*j+b)]_(n-j) is a linear
recurrence (for a = 0, b = 1 the recurrence whose coefficients are c), and
it runs over the entries' norms for B, then over ints packed at x = 2^B.
So do the rewritten form and the oracle's window.  :func:`decompose` takes
its lambdas from the recurrence itself, A(t) (1 - C(t)) mod t^d, and sums
sum_j lambda_j y_(n-j) in the same ints, the lambdas scaled to ints, so
its ring products do not grow with N.
:func:`closed_row` computes every convolution closed form and the other
windows with Polynomial entries.  Every value either route decodes is a
Polynomial exactly when its degree is at least 1, and an int or a Fraction
otherwise, whatever the types of the entries it came from.

In :func:`closed_row`, D, the common denominator of c, makes every D*c_j
an int or a Polynomial with int coefficients.  Polynomials are packed into
one int each at x = 2^B (Kronecker substitution, as in Schoenhage 1982 and Harvey,
J. Symbolic Comput. 44, 2009), so the table and the weighted column sums
are plain int arithmetic for both rings.  B comes from a norm pass, the
same sums over the table of ||D*c_j||_1 with |binom| weights, which bound
every coefficient; each sum is unpacked once, as balanced base-2^B digits,
and divided once, by the exact-int layer of :mod:`.ring`, which the
functional equation and the composition oracle end in too.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .bellpoly import bell_eval  # noqa: F401  unused; bench/tracing.py wraps seq.bell_eval by name
from .bellpoly import bell_closed_three_term
from .ring import (Polynomial, Record, RingElement, X, _norm, _pack, _scale, _unpack,
                   generalized_binomial, normalized)

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


def _powers(entries, N: int, columns=_UNIT) -> list:
    """Columns T[n][k] = [t^n] (sum_j e_j t^j)^k for 0 <= k <= n <= N (the
    cells with k > n are zero), entries the (j, e_j) with j >= 1 and e_j an
    int, ascending in j.

    columns holds T[0..M] for some M; the columns M+1..N are appended to a
    copy, each from the ones before it, T[n][k] = sum_j e_j T[n-j][k-1], so
    the given columns are never changed, and returned as they are when
    M >= N.  That is O((N^2 - M^2) * len(entries)) int operations.
    """
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


# largest table T[n][k], 0 <= k <= n <= N, that _table builds, in cells,
# (N + 1)(N + 2)/2 of them: N = 1000 is 501,501 cells, and the largest N
# accepted is 1093; each cell's int grows with N, so such a row takes
# seconds (README)
MAX_TABLE_CELLS = 6 * 10**5

# (c, D, entries, poly, T, (B, P)) of the last table, (B, P) its packed
# table or (0, _UNIT): replaced, never changed
_last_table = None


def _table(c, N: int, B: int = 0) -> tuple:
    """The kept slot (c, D, entries, poly, T, (B', P)) for c: D and entries
    those of :func:`_scaled` on the whole of c, poly whether an entry is a
    Polynomial, T the columns of :func:`_powers` to N or beyond for the
    entries, or for their norms ||e_j||_1 when poly, and P those for the
    entries packed at x = 2^B'.  The slot is kept from now on: calls with an
    equal c reuse it, or append the columns past its N, so D never changes
    for a given c.  A constant Polynomial entry equals its scalar, so its c
    shares the slot of the scalar's c, and either slot gives equal values.

    B = 0 extends T.  B > 0 extends P instead, reused whenever B' >= B (a
    larger B' still packs exactly) and otherwise rebuilt at max(B, 2 B'),
    so calls whose B rises rebuild it O(log B) times; a first call packs at
    B.  The entries are normed or packed only when T or P must grow, so a
    call that the slot already covers computes nothing."""
    global _last_table
    cells = (N + 1) * (N + 2) // 2
    if cells > MAX_TABLE_CELLS:
        raise ValueError(
            f"the closed form would build a table of {cells} cells, more than "
            f"MAX_TABLE_CELLS = {MAX_TABLE_CELLS}"
        )
    last = _last_table
    if last is None or last[0] != c:
        D, entries = _scaled(c)
        poly = any(isinstance(e, Polynomial) for _, e in entries)
        last = c, D, entries, poly, _UNIT, (0, _UNIT)
    _, D, entries, poly, table, (width, packed) = last
    if not B:
        if len(table) <= N:
            table = _powers([(j, _norm(e)) for j, e in entries] if poly else entries, N, table)
    else:
        if width < B:
            width, packed = max(B, 2 * width), _UNIT
        if len(packed) <= N:
            packed = _powers([(j, _pack(e, width)) for j, e in entries], N, packed)
    last = _last_table = c, D, entries, poly, table, (width, packed)
    return last


def _column(spec: BellSequenceSpec, r: int, n: int, D: int, column: list) -> tuple:
    """(L, weights) for index n >= 1 and column T[n]: L = lcm(1..n) and the
    pairs (k, r * binom(a*n + b*k + r-1, k-1) * L/k * D^(n-k)) over the k
    with T[n][k] and the binomial nonzero."""
    L = lcm(*range(1, n + 1))
    weights = []
    for k in range(1, n + 1):
        if column[k]:
            binom = generalized_binomial(spec.a * n + spec.b * k + r - 1, k - 1)
            if binom:
                weights.append((k, r * binom * (L // k) * D ** (n - k)))
    return L, weights


def closed_row(spec: BellSequenceSpec, r: int, indices) -> list:
    """r * sum_{k=1..n} binom(a*n + b*k + r-1, k-1) / k * [t^n] g^k (1 at n = 0)
    for each n of indices, an increasing sequence of non-negative ints.

    At r = 1 this is y_n, for r >= 1 the r-fold convolution of y at index n.
    One table T[n][k] = [t^n] (D*g)^k serves every index; with L = lcm(1..n)
    each value is the int sum_k r * binom * (L/k) * D^(n-k) * T[n][k],
    unpacked when c has Polynomial entries and divided once by L * D^n.  The
    norm pass bounds every coefficient of every sum, so B = bits(bound) + 1,
    the +1 for the sign, keeps the packing exact, and each sum is decoded
    with that B: a Polynomial exactly when its degree is at least 1.

    The table depends on c alone, so the last one is kept for both rings
    (see :func:`_table`): calls that walk n one index at a time, or r, build
    one table between them, not one each.  One slot at most is kept, up to
    the largest N asked of its c; it is replaced, never changed, so threads
    may share it.  With Polynomial entries the slot holds the norm table and
    the packed table with its B; the sums are unpacked with that B.  A table
    of more than MAX_TABLE_CELLS cells is refused, by _table, before it is
    built, whoever asks: a caller or bell_transform.
    """
    if not indices:
        # no table either, so the kept slot of another c stays
        return []
    N = indices[-1]
    _, D, _, poly, table, _ = _table(spec.c, N)
    weights = [_column(spec, r, n, D, table[n]) for n in indices]
    B = 0
    if poly:
        bound = max((sum(abs(w) * table[n][k] for k, w in ws)
                     for n, (_, ws) in zip(indices, weights)))
        B, table = _table(spec.c, N, bound.bit_length() + 1)[5]
    values = []
    for n, (L, ws) in zip(indices, weights):
        if n == 0:
            values.append(1)
            continue
        column = table[n]
        total = 0
        for k, w in ws:
            total += w * column[k]
        values.append(_unpack(total, B, L * D**n))
    return values


# largest Miller work _solve accepts, in products: N(N + 1)/2 for each row
# it extends, and the ints grow with N, so catalan at N = 1999 (one row,
# 1,999,000 products) takes 4-5 s as a subprocess, no longer than the
# largest table MAX_TABLE_CELLS accepts (README)
MAX_MILLER_PRODUCTS = 2 * 10**6


def _solve(spec: BellSequenceSpec, N: int, E: int, terms) -> list:
    """z_0..z_N of z = 1 + sum_j v_j E^(j-1) t^j z^(a*j + b), terms the pairs
    (j, v_j) of ints, ascending in j: with v_j = E c_j this is y(E t), so
    z_m = E^m y_m.  Each z_m reads only z_0..z_(m-1), in one row per distinct
    alpha = a*j + b, the row P = z^alpha: alpha = 0 is the series 1, alpha = 1
    is z itself, and every other row is extended by Miller's recurrence
    m P_m = sum_{i=1..m} ((alpha+1) i - m) z_i P_(m-i), exact in ints as z_0 = 1.
    More than MAX_MILLER_PRODUCTS products over those rows are refused
    before anything is built.
    """
    products = len({spec.a * j + spec.b for j, _ in terms} - {0, 1}) * N * (N + 1) // 2
    if products > MAX_MILLER_PRODUCTS:
        raise ValueError(
            f"the functional equation would take {products} products in its power rows, "
            f"more than MAX_MILLER_PRODUCTS = {MAX_MILLER_PRODUCTS}"
        )
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


def _functional_ints(spec: BellSequenceSpec, N: int, lambdas=()) -> tuple:
    """(E, B, z) for y_0..y_N from y = 1 + sum_j c_j t^j y^(a*j + b), for
    rational c, and for Polynomial entries when every alpha = a*j + b of a
    nonzero c_j is 0 or 1: E that of :func:`_scaled` on c_1..c_N, and z_m =
    E^m y_m from :func:`_solve` as an int, packed at x = 2^B when y has
    Polynomial entries; B leaves room for the sign of every z_m, so
    _unpack(z_m, B, E^m) is y_m.

    lambdas are ints or int-coefficient Polynomials l_j, j from 0: B leaves
    room for every sum sum_j l_j E^j z_(n-j) packed at x = 2^B, as
    bits(max ||z_m||_1) + 1 + bits(sum_j ||l_j||_1 E^j), the +1 for the sign.

    With Polynomial entries there are no Miller rows, and z is linear in the
    entries: the same recurrence on the norms ||E^j c_j||_1 bounds every
    coefficient of every z_m, so one B serves the row, and it is run again on
    the entries packed at x = 2^B.  No table is built.
    """
    E, entries = _scaled(spec.c[:N])
    room = sum(_norm(v) * E**j for j, v in enumerate(lambdas)).bit_length()
    if not any(isinstance(e, Polynomial) for _, e in entries):
        z = _solve(spec, N, E, entries)
        return E, max(map(abs, z)).bit_length() + 1 + room, z
    norms = _solve(spec, N, E, [(j, _norm(e)) for j, e in entries])
    B = max(norms).bit_length() + 1 + room
    return E, B, _solve(spec, N, E, [(j, _pack(e, B)) for j, e in entries])


def bell_transform(spec: BellSequenceSpec, N: int) -> SequenceWindow:
    """y_0..y_N of the family defined by spec, exactly: from the functional
    equation for rational c and wherever every alpha = a*j + b of a nonzero
    c_j (j <= N) is 0 or 1, which includes every linear recurrence (a = 0,
    b = 1); from :func:`closed_row` at r = 1 otherwise.  Either way a value is
    a Polynomial exactly when its degree is at least 1, so the constant y_1
    of jacobsthal is the int 1:

    >>> bell_transform(preset("jacobsthal")[0], 4).values
    (1, 1, Polynomial((1, 2)), Polynomial((1, 4)), Polynomial((1, 6, 4)))
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    if spec.ring == "polynomial" and not {
            spec.a * j + spec.b for j, cj in enumerate(spec.c[:N], start=1) if cj} <= {0, 1}:
        values = closed_row(spec, 1, range(N + 1))
    else:
        E, B, z = _functional_ints(spec, N)
        values = [_unpack(z_m, B, E**m) for m, z_m in enumerate(z)]
    return SequenceWindow(tuple(values), spec)


def bell_transform_rewritten(spec: BellSequenceSpec, N: int) -> SequenceWindow:
    """The k-from-0 rewrite of the same family:

        y_n = sum_{k=0..n} binom(a*n+b*k+1, k) / (a*n+b*k+1) * k!/n! * B_{n,k}(...)

    Defined only when a*n + b*k + 1 != 0 on the whole 0 <= k <= n <= N range;
    the first offending pair (in lexicographic order) is reported otherwise.
    Where defined it is :func:`bell_transform`: with t = a*n + b*k + 1 != 0,
    binom(t, k)/t = binom(t-1, k-1)/k for k >= 1, and the k = 0 term is [n = 0].
    The guard solves b*k = -(a*n + 1) for k once per n, so it is O(N); for
    b = 0 every k vanishes with a*n + 1, and the first is k = 0.
    """
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
    """Express the recurrence sequence as sum_j lambda_j * y_{n-j}.

    y is the a=0, b=1 transform of the recurrence coefficients, so
    Y(t) = 1/(1 - C(t)) and the lambdas are the coefficients of
    A(t) (1 - C(t)) mod t^d: lambda_i = a_i - sum_{j=1..i} c_j a_(i-j) in
    ring arithmetic, a zero Polynomial c_j taken as the int 0 (c =
    (Polynomial(), -2), a = (2, 0) give (2, 0)), so they equal, types
    included, the triangular solve over y_n = sum_j c_j y_(n-j) run in ring
    arithmetic.  Returns (lambdas, reconstruction window over 0..N).

    The window is summed in ints: with z_m = E^m y_m from
    :func:`_functional_ints`, L the lcm of the denominators of the lambdas
    and lambda'_j = L lambda_j E^j, L E^n a_n = sum_{j <= min(n, d-1)}
    lambda'_j z_(n-j), one int per n, decoded once.  The scaled lambdas
    L lambda_j are passed to _functional_ints, whose B then packs every
    such sum exactly, so z is solved once at that width, and each sum is
    decoded with that B: a_n is a Polynomial exactly when its degree is at
    least 1.  Only the lambdas take ring products, so their number does not
    grow with N.
    """
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
