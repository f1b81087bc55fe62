"""Reference values for the benchmark, computed by routes that share no code
with bellseq.

- Sequence values use the power-series form of the partial Bell polynomial,
  B_{n,k}(1!c_1, 2!c_2, ...) = n!/k! [t^n] g(t)^k with g(t) = sum_j c_j t^j,
  so y_n = sum_k binom(a n + b k, k - 1) / k * [t^n] g^k.  bellseq instead
  enumerates the partitions of n.
- Convolutions are Cauchy powers of the window's generating series, which is
  the composition sum collected by prefix; bellseq walks every composition.
- Recurrence sequences come from their defining recurrence, Stirling numbers
  and partition counts from their triangle recurrences.

A ring element is a tuple of Fractions: the ascending coefficients of a
polynomial in x with no trailing zero.  () is zero and (q,) the rational q.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

ONE = (Fraction(1),)


def _trim(coeffs: list) -> tuple:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def elem(value) -> tuple:
    """Reference form of an int, a Fraction or an ascending coefficient list."""
    if isinstance(value, (int, Fraction)):
        return _trim([Fraction(value)])
    return _trim([Fraction(c) for c in value])


def add(p: tuple, q: tuple) -> tuple:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def mul(p: tuple, q: tuple) -> tuple:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def scale(p: tuple, s) -> tuple:
    return _trim([c * s for c in p])


def text(p: tuple) -> str:
    """The canonical text form bellseq documents: ``p/q`` for rationals and
    ascending powers of x for polynomials, e.g. ``1+4x`` or ``-3/2x^2``."""
    if not p:
        return "0"
    parts = []
    for i, c in enumerate(p):
        if not c:
            continue
        mag = -c if c < 0 else c
        if i == 0:
            body = str(mag)
        else:
            body = ("" if mag == 1 else str(mag)) + ("x" if i == 1 else f"x^{i}")
        parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts)


def bits(p: tuple) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in p), default=0)


def gbinom(t: int, k: int) -> int:
    """t choose k for any integer t and k >= 0, by the falling factorial."""
    num = 1
    for i in range(k):
        num *= t - i
    return num // factorial(k)


def series_mul(a: list, b: list, n_max: int) -> list:
    """Product of two series truncated after t^n_max; pass the sparser first."""
    out = [()] * (n_max + 1)
    for i, x in enumerate(a[: n_max + 1]):
        if x:
            for j in range(n_max + 1 - i):
                if b[j]:
                    out[i + j] = add(out[i + j], mul(x, b[j]))
    return out


def bell_sequence(a: int, b: int, c, n_max: int) -> list:
    """y_0..y_n_max of the family (a, b, c); c holds reference elements."""
    g = [()] + list(c[:n_max]) + [()] * max(0, n_max - len(c))
    power = [ONE] + [()] * n_max
    y = [ONE] + [()] * n_max
    for k in range(1, n_max + 1):
        power = series_mul(g, power, n_max)
        for n in range(k, n_max + 1):
            if power[n]:
                y[n] = add(y[n], scale(power[n], Fraction(gbinom(a * n + b * k, k - 1), k)))
    return y


def convolution(y: list, r: int, n_max: int, delta: int = 0) -> list:
    """[t^n] (t^delta Y(t))^r for n = 0..n_max: the r-fold convolution of
    the window y with every index shifted by delta."""
    shifted = ([()] * delta + list(y))[: n_max + 1]
    out = [ONE] + [()] * n_max
    for _ in range(r):
        out = series_mul(shifted, out, n_max)
    return out


def recurrence(coeffs, init, n_max: int) -> list:
    """a_0..a_n_max of a_n = c_1 a_{n-1} + ... + c_d a_{n-d}."""
    vals = list(init)
    for n in range(len(init), n_max + 1):
        acc = ()
        for i, ci in enumerate(coeffs, start=1):
            acc = add(acc, mul(ci, vals[n - i]))
        vals.append(acc)
    return vals[: n_max + 1]


def decomposition_lambdas(coeffs, init) -> list:
    """lambda_j = [t^j] (1 - g(t)) A(t) for j < d: with y = 1/(1 - g), the
    weights that make sum_j lambda_j y_{n-j} reproduce the initial values."""
    lambdas = []
    for j in range(len(init)):
        acc = init[j]
        for i in range(1, j + 1):
            acc = add(acc, scale(mul(coeffs[i - 1], init[j - i]), -1))
        lambdas.append(acc)
    return lambdas


def stirling2(n: int, k: int) -> int:
    row = [1]
    for m in range(1, n + 1):
        row = [0] + [j * (row[j] if j < m else 0) + row[j - 1] for j in range(1, m + 1)]
    return row[k] if k <= n else 0


def bell_value(n: int, k: int, xs) -> tuple:
    """B_{n,k}(x_1, x_2, ...) as n!/k! [t^n] (sum_j x_j t^j / j!)^k."""
    if k > n:
        return ()
    if all(x == ONE for x in xs[: n - k + 1]):
        return elem(stirling2(n, k))
    g = [()] + [scale(x, Fraction(1, factorial(j))) for j, x in enumerate(xs[:n], start=1)]
    g += [()] * (n + 1 - len(g))
    power = [ONE] + [()] * n
    for _ in range(k):
        power = series_mul(g, power, n)
    return scale(power[n], Fraction(factorial(n), factorial(k)))


_PARTITION_COUNTS: dict = {}


def partition_count(n: int, k: int) -> int:
    """Partitions of n into exactly k parts: p(n,k) = p(n-1,k-1) + p(n-k,k)."""
    if n == 0 and k == 0:
        return 1
    if n <= 0 or k <= 0 or k > n:
        return 0
    if (n, k) not in _PARTITION_COUNTS:
        _PARTITION_COUNTS[n, k] = partition_count(n - 1, k - 1) + partition_count(n - k, k)
    return _PARTITION_COUNTS[n, k]


def _partitions(n: int, k: int, largest: int):
    if k == 0:
        if n == 0:
            yield []
        return
    for part in range(min(largest, n - k + 1), 0, -1):
        for rest in _partitions(n - part, k - 1, part):
            yield [part] + rest


def bell_symbolic_text(n: int, k: int) -> str:
    """B_{n,k} rendered as bellseq documents it: one term per exponent vector
    alpha, in descending lexicographic order, with coefficient
    n! / prod_i(alpha_i! i!^alpha_i)."""
    if k > n:
        return "0"
    vectors = []
    for parts in _partitions(n, k, n):
        alpha = [0] * (n - k + 1)
        for part in parts:
            alpha[part - 1] += 1
        vectors.append(alpha)
    terms = []
    for alpha in sorted(vectors, reverse=True):
        denom = 1
        for i, a in enumerate(alpha, start=1):
            denom *= factorial(a) * factorial(i) ** a
        coeff = factorial(n) // denom
        factors = [] if coeff == 1 else [str(coeff)]
        factors += [f"x{i}" if a == 1 else f"x{i}^{a}" for i, a in enumerate(alpha, start=1) if a]
        terms.append("*".join(factors) or "1")
    return " + ".join(terms)
