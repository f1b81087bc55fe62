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
:func:`bell_transform` takes that route for rational c (and so do the
rewritten form, :func:`decompose` with rational coefficients, and the
oracle's window); :func:`closed_row` computes every convolution closed form
and the windows with Polynomial entries.

In :func:`closed_row`, D, the common denominator of c, makes every D*c_j
an int or a Polynomial with int coefficients.  Polynomials are packed into
one int each at x = 2^B (Kronecker substitution, as in Schoenhage 1982 and Harvey,
J. Symbolic Comput. 44, 2009), so the table and the weighted column sums
are plain int arithmetic for both rings.  B comes from a norm pass, the
same sums over the table of ||D*c_j||_1 with |binom| weights, which bound
every coefficient; each sum is unpacked once, as balanced base-2^B digits,
and divided once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .bellpoly import bell_eval  # noqa: F401  unused; bench/tracing.py wraps seq.bell_eval by name
from .bellpoly import bell_closed_three_term
from .ring import Polynomial, RingElement, X, generalized_binomial, normalized

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


@dataclass(frozen=True)
class BellSequenceSpec:
    """The triple (a, b, c) defining one sequence of the family.

    c is 1-indexed and finite; entries past the end are zero.
    """

    a: int
    b: int
    c: tuple

    def __post_init__(self):
        if not isinstance(self.a, int) or not isinstance(self.b, int):
            raise TypeError("a and b must be integers")
        if self.a == 0 and self.b == 0:
            raise ValueError("a and b must not both be zero")
        object.__setattr__(self, "c", tuple(map(normalized, self.c)))

    @property
    def ring(self) -> str:
        """"polynomial" when any entry of c is a Polynomial, else "rational"."""
        return "polynomial" if any(isinstance(cj, Polynomial) for cj in self.c) else "rational"


@dataclass(frozen=True)
class SequenceWindow:
    """Values y_0..y_N with the convention y_n = 0 for n < 0."""

    values: tuple
    spec: BellSequenceSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("window must contain at least y_0")
        if self.spec is not None and self.values[0] != 1:
            raise ValueError("y_0 must be 1")

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


@dataclass(frozen=True)
class RecurrenceSpec:
    """a_n = c_1 a_{n-1} + ... + c_d a_{n-d} with initial values a_0..a_{d-1}."""

    coefficients: tuple
    initial: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(map(normalized, self.coefficients)))
        object.__setattr__(self, "initial", tuple(map(normalized, self.initial)))
        if len(self.coefficients) < 1:
            raise ValueError("recurrence order d must be at least 1")
        if len(self.coefficients) != len(self.initial):
            raise ValueError(
                f"coefficients and initial values must have equal length, "
                f"got {len(self.coefficients)} and {len(self.initial)}"
            )

    @property
    def order(self) -> int:
        return len(self.coefficients)


def _scaled(c) -> tuple:
    """(D, entries): D the lcm of the denominators in c (of the coefficients,
    for Polynomial entries) and entries the pairs (j, D*c_j) with c_j != 0,
    each an int or a Polynomial with int coefficients."""
    D = lcm(*(cj.denominator for cj in c))
    return D, [(j, normalized(D * cj)) for j, cj in enumerate(c, start=1) if cj]


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


# ((c, the types of its entries), D, entries, poly, T) of the last table:
# replaced, never changed
_last_table = None


def _table(c, N: int) -> tuple:
    """(D, entries, poly, T): D and entries those of :func:`_scaled` on the
    whole of c, poly the j with a Polynomial entry, and T the columns of
    :func:`_powers` to N or beyond for the entries, or for their norms
    ||e_j||_1 when poly is not empty.  T is kept from now on: calls with the
    same c, types included (a constant Polynomial equals its scalar), reuse
    it, or append the columns past its N, so D never changes for a given c."""
    global _last_table
    key = c, tuple(map(type, c))
    last = _last_table
    if last is None or last[0] != key:
        D, entries = _scaled(c)
        last = key, D, entries, [j for j, e in entries if isinstance(e, Polynomial)], _UNIT
    _, D, entries, poly, table = last
    table = _powers([(j, _norm(e)) for j, e in entries] if poly else entries, N, table)
    _last_table = key, D, entries, poly, table
    return D, entries, poly, table


def _column(spec: BellSequenceSpec, r: int, n: int, D: int, column: list) -> tuple:
    """(L, weights) for index n >= 1 and column T[n]: L = lcm(1..n) and the
    pairs (k, binom(a*n + b*k + r-1, k-1) * L/k * D^(n-k)) over the k with
    T[n][k] and the binomial nonzero."""
    L = lcm(*range(1, n + 1))
    weights = []
    for k in range(1, n + 1):
        if column[k]:
            binom = generalized_binomial(spec.a * n + spec.b * k + r - 1, k - 1)
            if binom:
                weights.append((k, binom * (L // k) * D ** (n - k)))
    return L, weights


def _pack(entry: RingElement, B: int) -> int:
    """An int or int-coefficient Polynomial entry at x = 2^B; the identity on ints."""
    return entry(1 << B) if isinstance(entry, Polynomial) else entry


def _norm(entry: RingElement) -> int:
    """||entry||_1, the sum of the absolute values of its coefficients."""
    return sum(map(abs, entry.coefficients)) if isinstance(entry, Polynomial) else abs(entry)


def _digits(value: int, B: int) -> list:
    """The balanced base-2^B digits of value, lowest first, each in
    [-2^(B-1), 2^(B-1)): the coefficients of the polynomial packed into value
    at x = 2^B when they all lie in that range.  For B >= 2 there are at most
    bits(value)/B + 2 of them (zeros may trail), and for B = 1 value is 0."""
    digits = []
    half = 1 << (B - 1)
    for _ in range(value.bit_length() // B + 2):
        digit = ((value + half) & ((1 << B) - 1)) - half
        digits.append(digit)
        value = (value - digit) >> B
    return digits


def closed_row(spec: BellSequenceSpec, r: int, indices) -> list:
    """r * sum_{k=1..n} binom(a*n + b*k + r-1, k-1) / k * [t^n] g^k (1 at n = 0)
    for each n of indices, an increasing sequence of non-negative ints.

    At r = 1 this is y_n, for r >= 1 the r-fold convolution of y at index n.
    One table T[n][k] = [t^n] (D*g)^k serves every index; with L = lcm(1..n)
    each value is the int sum_k binom * (L/k) * D^(n-k) * T[n][k], unpacked
    when c has Polynomial entries, divided once by L * D^n.  The norm pass
    bounds every coefficient of every sum, so B = bits(bound) + 1, the +1
    for the sign, keeps the packing exact.

    The table depends on c alone, so the last one is kept for both rings
    (see :func:`_table`): calls that walk n one index at a time, or r, build
    one table between them, not one each.  One table at most is kept, up to
    the largest N asked of its c; it is replaced, never changed, so threads
    may share it.  With Polynomial entries the kept table is the norm table;
    the packed one stays per call, as B depends on the indices and on r.
    """
    N = max(indices, default=0)
    D, entries, poly, table = _table(spec.c, N)
    weights = [_column(spec, r, n, D, table[n]) for n in indices]
    if poly:
        norms = table
        bound = max((sum(abs(w) * norms[n][k] for k, w in ws)
                     for n, (_, ws) in zip(indices, weights)), default=0)
        B = bound.bit_length() + 1
        table = _powers([(j, _pack(e, B)) for j, e in entries], N)
    values = []
    for n, (L, ws) in zip(indices, weights):
        if n == 0:
            values.append(1)
            continue
        column = table[n]
        total = 0
        for k, w in ws:
            total += w * column[k]
        denominator = L * D**n
        # a Polynomial, as Polynomial arithmetic would give it, exactly when
        # some nonzero term of the sum has a Polynomial factor c_j (B bounds
        # the coefficients of every T[n][k] with a weight, so its packed
        # value is 0 only when it is)
        if poly and any(column[k] and any(norms[n - j][k - 1] for j in poly if j <= n - k + 1)
                        for k, _ in ws):
            digits = _digits(total, B)
            values.append(Polynomial([Fraction(r * digit, denominator) for digit in digits]))
        else:
            values.append(normalized(Fraction(r * total, denominator)))
    return values


def _functional_row(spec: BellSequenceSpec, N: int) -> list:
    """y_0..y_N for rational c, from y = 1 + sum_j c_j t^j y^(a*j + b).

    With E the common denominator of c, the series y(E t) has the int
    coefficients z_m = E^m y_m and satisfies the same equation with the int
    entries E^j c_j.  Each z_m reads only z_0..z_(m-1): alpha = a*j + b = 0 gives
    [m = j], alpha = 1 gives z_(m-j), and every other distinct alpha keeps
    the row P = z^alpha, extended by Miller's recurrence
    m P_m = sum_{i=1..m} ((alpha+1) i - m) z_i P_(m-i), exact in ints as z_0 = 1.
    """
    E, entries = _scaled(spec.c[:N])
    terms = [(j, e * E ** (j - 1), spec.a * j + spec.b) for j, e in entries]
    powers = {alpha: [1] for _, _, alpha in terms if alpha not in (0, 1)}
    z = [1]
    for m in range(1, N + 1):
        total = 0
        for j, e, alpha in terms:
            if j > m:
                break
            if alpha == 1:
                total += e * z[m - j]
            elif alpha:
                total += e * powers[alpha][m - j]
            elif j == m:
                total += e
        z.append(total)
        if m == N:
            break
        for alpha, P in powers.items():
            s = 0
            for i in range(1, m + 1):
                s += ((alpha + 1) * i - m) * z[i] * P[m - i]
            P_m, rest = divmod(s, m)
            assert not rest, "Miller's recurrence must divide exactly"
            P.append(P_m)
    values, scale = [], 1
    for z_m in z:
        values.append(normalized(Fraction(z_m, scale)))
        scale *= E
    return values


def bell_transform(spec: BellSequenceSpec, N: int) -> SequenceWindow:
    """y_0..y_N of the family defined by spec, exactly: from the functional
    equation for rational c, from :func:`closed_row` at r = 1 otherwise."""
    if N < 0:
        raise ValueError("N must be non-negative")
    if spec.ring == "rational":
        values = _functional_row(spec, N)
    else:
        values = closed_row(spec, 1, range(N + 1))
    return SequenceWindow(tuple(values), spec)


def bell_transform_rewritten(spec: BellSequenceSpec, N: int) -> SequenceWindow:
    """The k-from-0 rewrite of the same family:

        y_n = sum_{k=0..n} binom(a*n+b*k+1, k) / (a*n+b*k+1) * k!/n! * B_{n,k}(...)

    Defined only when a*n + b*k + 1 != 0 on the whole 0 <= k <= n <= N range;
    the first offending pair (in lexicographic order) is reported otherwise.
    Where defined it is :func:`bell_transform`: with t = a*n + b*k + 1 != 0,
    binom(t, k)/t = binom(t-1, k-1)/k for k >= 1, and the k = 0 term is [n = 0].
    """
    for n in range(N + 1):
        for k in range(n + 1):
            if spec.a * n + spec.b * k + 1 == 0:
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

    y is the a=0, b=1 transform of the recurrence coefficients; the lambdas
    solve the unit-lower-triangular system a_i = sum_j lambda_j y_{i-j} for
    i < d.  Returns (lambdas, reconstruction window over 0..N).
    """
    d = rec.order
    if N < d - 1:
        raise ValueError(f"N must be at least d-1 = {d - 1}")
    y = bell_transform(BellSequenceSpec(0, 1, rec.coefficients), N)
    lambdas = []
    for i in range(d):
        acc = rec.initial[i]
        for j in range(i):
            acc = acc - lambdas[j] * y.value_at(i - j)
        lambdas.append(normalized(acc))
    values = []
    for n in range(N + 1):
        acc = 0
        for j in range(d):
            if n - j >= 0:
                acc = acc + lambdas[j] * y.value_at(n - j)
        values.append(normalized(acc))
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
