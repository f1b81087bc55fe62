"""Independent oracles used across the test suite.

Everything here is computed by a different route than the code under test:
triangle recurrences, defining sequence recurrences, exhaustive enumeration
via itertools, the paper's partial-Bell-polynomial definitions evaluated
by enumerating the index set pi(n, k) (``bell_eval``) instead of through the
power-series kernel, and that kernel's table of truncated powers built in
``Polynomial`` arithmetic, with no packing into ints, ``decompose``'s
reconstruction summed in ring arithmetic over a given window, and the CLI's
check of a recurrence over a window, in ring arithmetic too.  Only the
exact-arithmetic substrate (Fraction, Polynomial, generalized_binomial) and
``bell_eval`` are shared with the package.

The CLI's argparse parser (``build_parser``) and the split-and-check
``parse_element_by_split`` are the implementations the one-pass parsers in
``cli`` and ``ring`` replaced, kept as the references they are tested against;
the parser shares the CLI's converters and handlers.
"""

import argparse
import itertools
import re
from fractions import Fraction
from math import factorial, lcm

from bellseq.bellpoly import bell_eval
from bellseq.cli import (
    _cmd_bell,
    _cmd_conv,
    _cmd_decompose,
    _cmd_seq,
    _element_list,
    _non_negative,
    _param_pair,
    _positive,
)
from bellseq.ring import Polynomial, X, generalized_binomial, normalized
from bellseq.seq import PRESET_NAMES


def falling_factorial_binomial(t, k):
    """binom(t, k) as t(t-1)...(t-k+1) / k!, dividing by i at step i so every
    intermediate stays integral; any integer t, k >= 0."""
    result = 1
    for i in range(1, k + 1):
        result = result * (t - i + 1) // i
    return result


def is_canonical(value):
    """The package's canonical form: an int or a Fraction with denominator > 1,
    or a Polynomial whose coefficients all are."""
    scalars = value.coefficients if isinstance(value, Polynomial) else (value,)
    return all(type(v) is int or (type(v) is Fraction and v.denominator > 1) for v in scalars)


def typed_by_degree(value):
    """The type rule of every value the exact-int layer decodes: a Polynomial
    exactly when its degree is at least 1, else an int or a Fraction."""
    return not isinstance(value, Polynomial) or value.degree >= 1


def stirling2(n_max):
    """Triangle S(n, k) via S(n,k) = k*S(n-1,k) + S(n-1,k-1)."""
    table = [[1]]
    for n in range(1, n_max + 1):
        row = [0] * (n + 1)
        prev = table[n - 1]
        for k in range(1, n + 1):
            row[k] = k * (prev[k] if k < n else 0) + prev[k - 1]
        table.append(row)
    return table


def bell_numbers(n_max):
    """Bell numbers via the Bell triangle."""
    out = [1]
    row = [1]
    for _ in range(n_max):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        out.append(new[0])
        row = new
    return out


def partition_count(n, k, _memo={}):
    """Partitions of n into exactly k parts: p(n,k) = p(n-1,k-1) + p(n-k,k)."""
    if n == 0 and k == 0:
        return 1
    if n <= 0 or k <= 0 or k > n:
        return 0
    key = (n, k)
    if key not in _memo:
        _memo[key] = partition_count(n - 1, k - 1) + partition_count(n - k, k)
    return _memo[key]


def iterative_partition_count(n, k):
    """p(n, k) with no recursion: taking one from each of the k parts leaves
    a partition of n - k into parts of size at most k."""
    if k > n:
        return 0
    ways = [1] + [0] * (n - k)  # ways[w]: partitions of w into parts <= size
    for size in range(1, k + 1):
        for w in range(size, n - k + 1):
            ways[w] += ways[w - size]
    return ways[n - k]


def run_recurrence(coeffs, init, n_max):
    """a_n = sum_i coeffs[i-1] * a_{n-i} from the given initial values."""
    vals = list(init)
    d = len(coeffs)
    for n in range(d, n_max + 1):
        vals.append(sum(coeffs[i] * vals[n - 1 - i] for i in range(d)))
    return vals[: n_max + 1]


def recurrence_holds_by_ring(coeffs, values):
    """Whether values[n] = sum_i coeffs[i-1] * values[n-i] for every n >= d,
    each sum accumulated from 0 in ring arithmetic with no scaling: the
    reference for the int check ``cli._recurrence_holds``."""
    ok = True
    for n in range(len(coeffs), len(values)):
        expected = 0
        for i, ci in enumerate(coeffs, start=1):
            expected = expected + ci * values[n - i]
        ok &= values[n] == expected
    return ok


def window_by_ring(coeffs, n_max):
    """y_0..y_n_max of y_n = sum_j c_j y_(n-j), y_0 = 1, in ring arithmetic, a
    zero c_j skipped: a value is a Polynomial exactly when some term has a
    Polynomial factor, whatever its degree."""
    y = [1]
    for n in range(1, n_max + 1):
        acc = 0
        for j, cj in enumerate(coeffs[:n], start=1):
            if cj:
                acc = acc + cj * y[n - j]
        y.append(normalized(acc))
    return y


def decompose_by_ring(initial, y):
    """(lambdas, values) of a recurrence with the given initial values as
    sum_j lambda_j y_(n-j) over the window values y, in ring arithmetic: the
    lambdas solve a_i = sum_{j<=i} lambda_j y_(i-j) for i < d, and each value
    is 0 + lambda_0 y_n + lambda_1 y_(n-1) + ..., so it is a Polynomial
    exactly when some product has a Polynomial factor, 0 * Polynomial
    included."""
    lambdas = []
    for i, a_i in enumerate(initial):
        acc = a_i
        for j in range(i):
            acc = acc - lambdas[j] * y[i - j]
        lambdas.append(normalized(acc))
    values = []
    for n in range(len(y)):
        acc = 0
        for j, lam in enumerate(lambdas[: n + 1]):
            acc = acc + lam * y[n - j]
        values.append(normalized(acc))
    return tuple(lambdas), values


def first_vanishing_pair(a, b, N):
    """The first (n, k) in lexicographic order, 0 <= k <= n <= N, with
    a*n + b*k + 1 == 0, by scanning every pair; None when there is none."""
    for n in range(N + 1):
        for k in range(n + 1):
            if a * n + b * k + 1 == 0:
                return n, k
    return None


def fibonacci_list(n_max):
    return run_recurrence([1, 1], [0, 1], n_max)


def lucas_list(n_max):
    return run_recurrence([1, 1], [2, 1], n_max)


def tribonacci_list(n_max):
    return run_recurrence([1, 1, 1], [0, 0, 1], n_max)


def jacobsthal_polys(n_max):
    """J_0 = 0, J_1 = 1, J_n = J_{n-1} + 2x * J_{n-2}."""
    vals = [Polynomial(), Polynomial((1,))]
    for n in range(2, n_max + 1):
        vals.append(vals[n - 1] + 2 * X * vals[n - 2])
    return vals[: n_max + 1]


def motzkin_list(n_max):
    """M_0 = 1, M_{n+1} = M_n + sum_{k=0..n-1} M_k M_{n-1-k}."""
    vals = [1]
    for n in range(n_max):
        vals.append(vals[n] + sum(vals[k] * vals[n - 1 - k] for k in range(n)))
    return vals


def catalan_list(n_max):
    """C_0 = 1, C_{m+1} = sum_{i=0..m} C_i C_{m-i}."""
    vals = [1]
    for m in range(n_max):
        vals.append(sum(vals[i] * vals[m - i] for i in range(m + 1)))
    return vals


def compositions_bruteforce(n, r):
    """All r-part compositions of n, by filtering the full product grid."""
    return [c for c in itertools.product(range(n + 1), repeat=r) if sum(c) == n]


def compositions_in_order(n, r):
    """The r-part compositions of n in reverse-lexicographic order, one at a
    time: the first part runs from n down to 0, each followed by the
    compositions of the rest into r - 1 parts."""
    if r == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in compositions_in_order(n - first, r - 1):
            yield (first,) + rest


def convolution_bruteforce(values, r, n, delta=0):
    """Independent composition-sum oracle over an index->value list."""
    total = 0
    for comp in compositions_bruteforce(n, r):
        product = 1
        for m in comp:
            product = product * (values[m - delta] if m - delta >= 0 else 0)
        total += product
    return total


def random_ring_spec(rng):
    """One random (a, b, c) draw matching the acceptance distribution."""
    while True:
        a = rng.randint(-3, 3)
        b = rng.randint(-3, 3)
        if a != 0 or b != 0:
            break
    c = tuple(rng.randint(-2, 2) for _ in range(4))
    return a, b, c


def random_fraction(rng, max_num=6, max_den=4):
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def _bell_args(c, n):
    """The Bell-polynomial arguments (1!c_1, 2!c_2, ...), zero-padded to n+1."""
    args = [factorial(j) * cj for j, cj in enumerate(c, start=1)]
    return args + [0] * max(0, n + 1 - len(args))


def closed_form_by_enumeration(a, b, c, r, n):
    """r * sum_{k=1..n} binom(a n + b k + r-1, k-1) (k-1)!/n! B_{n,k}(1!c_1, ...);
    y_n at r = 1 and the r-fold convolution of y at index n >= 1."""
    args = _bell_args(c, n)
    total = 0
    for k in range(1, n + 1):
        binom = generalized_binomial(a * n + b * k + r - 1, k - 1)
        weight = Fraction(r * binom * factorial(k - 1), factorial(n))
        total = total + weight * bell_eval(n, k, args)
    return total


def rewritten_by_enumeration(a, b, c, n):
    """sum_{k=0..n} binom(t, k)/t k!/n! B_{n,k}(1!c_1, ...) with t = a n + b k + 1."""
    args = _bell_args(c, n)
    total = 0
    for k in range(n + 1):
        t = a * n + b * k + 1
        weight = Fraction(generalized_binomial(t, k) * factorial(k), t * factorial(n))
        total = total + weight * bell_eval(n, k, args)
    return total


def shifted_by_enumeration(c, r, n, delta):
    """sum_{k=0..m} binom(k+r-1, k) k!/m! B_{m,k}(1!c_1, ...), m = n - delta r; 0 for m < 0."""
    m = n - delta * r
    if m < 0:
        return 0
    args = _bell_args(c, m)
    total = 0
    for k in range(m + 1):
        weight = Fraction(generalized_binomial(k + r - 1, k) * factorial(k), factorial(m))
        total = total + weight * bell_eval(m, k, args)
    return total


def power_table(c, N):
    """(D, T) with T[k][n] = [t^n] (D*g(t))^k for 0 <= k, n <= N, where
    g(t) = sum_j c_j t^j and D is the lcm of the denominators in c_1..c_N (of
    the coefficients, for Polynomial entries), row by row in ring arithmetic:
    each entry is an int, or a Polynomial with int coefficients."""
    D = lcm(*(cj.denominator for cj in c[:N]))
    terms = [(j, normalized(D * cj)) for j, cj in enumerate(c[:N], start=1) if cj]
    table = [[1] + [0] * N]
    for k in range(1, N + 1):
        prev = table[-1]
        row = [0] * (N + 1)
        for i in range(k - 1, N):
            if prev[i]:
                for j, cj in terms:
                    if i + j > N:
                        break
                    row[i + j] = row[i + j] + prev[i] * cj
        table.append(row)
    return D, table


def closed_form_by_table(a, b, r, n, table):
    """r * sum_{k=1..n} binom(a n + b k + r-1, k-1)/k [t^n] g^k over a
    :func:`power_table` (D, T), as sum_k binom (L/k) D^(n-k) T[k][n] divided
    once by L D^n, L = lcm(1..n); 1 at n = 0."""
    if n == 0:
        return 1
    D, rows = table
    L = lcm(*range(1, n + 1))
    total = 0
    for k in range(1, n + 1):
        power = rows[k][n]
        if not power:
            continue
        binom = generalized_binomial(a * n + b * k + r - 1, k - 1)
        if binom:
            total = total + binom * (L // k) * D ** (n - k) * power
    return normalized(total * Fraction(r, L * D**n))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellseq",
        description="Exact Bell-polynomial sequence families and their convolution identities.",
    )
    parser.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    parser.add_argument("--quiet", action="store_true", help="suppress output, keep exit code")
    # accepted before or after the subcommand; SUPPRESS keeps the subparser
    # from clobbering a value given up front
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "csv", "json"), default=argparse.SUPPRESS)
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(p):
        p.add_argument("--a", type=int, default=None)
        p.add_argument("--b", type=int, default=None)
        p.add_argument("--c", type=_element_list, default=None, metavar="LIST")
        p.add_argument("--preset", choices=PRESET_NAMES, default=None)
        p.add_argument("--param", type=_param_pair, action="append", default=[], metavar="KEY=INT")

    p_seq = sub.add_parser("seq", parents=[common],
                         help="print y_0..y_N (or the offset-adjusted classical sequence)")
    add_spec_flags(p_seq)
    p_seq.add_argument("--n", type=_non_negative, required=True)
    p_seq.add_argument("--apply-offset", action="store_true")
    p_seq.set_defaults(handler=_cmd_seq)

    p_conv = sub.add_parser("conv", parents=[common],
                          help="r-fold convolution: verify closed form against the oracle")
    add_spec_flags(p_conv)
    p_conv.add_argument("--n", type=_non_negative, required=True)
    p_conv.add_argument("--r", type=_positive, required=True)
    p_conv.add_argument("--delta", type=_non_negative, default=0)
    group = p_conv.add_mutually_exclusive_group()
    group.add_argument("--check", action="store_true", default=True,
                       help="compare against the composition oracle (default)")
    group.add_argument("--closed-only", action="store_true",
                       help="print closed-form values without the oracle")
    p_conv.set_defaults(handler=_cmd_conv)

    p_dec = sub.add_parser("decompose", parents=[common],
                         help="express a linear recurrence via shifted y values")
    p_dec.add_argument("--coeffs", type=_element_list, required=True, metavar="LIST")
    p_dec.add_argument("--init", type=_element_list, required=True, metavar="LIST")
    p_dec.add_argument("--n", type=_non_negative, required=True)
    p_dec.set_defaults(handler=_cmd_decompose)

    p_bell = sub.add_parser("bell", parents=[common],
                          help="partial Bell polynomial, symbolic or evaluated")
    p_bell.add_argument("--n", type=_non_negative, required=True)
    p_bell.add_argument("--k", type=_non_negative, required=True)
    p_bell.add_argument("--symbolic", action="store_true")
    p_bell.add_argument("--x", type=_element_list, default=None, metavar="LIST")
    p_bell.add_argument("--cross-check", action="store_true")
    p_bell.set_defaults(handler=_cmd_bell)

    return parser


_TERM_RE = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)(?:\*(?=x))?)?(x(?:\^(\d+))?)?")


def parse_element_by_split(text):
    """ring.parse_element's text form, read by splitting the text into terms
    with ``re.findall``, checking that they join back to it, and matching
    each term whole."""
    s = text.strip().replace(" ", "")
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s:
        raise ValueError(f"empty ring element in {text!r}")
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ValueError(f"malformed ring element {text!r}")
    coeffs: dict = {}
    saw_x = False
    for term in terms:
        m = _TERM_RE.fullmatch(term)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"malformed term {term!r} in {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        try:
            coeff = Fraction(m.group(2)) if m.group(2) else 1
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
        if m.group(3):
            saw_x = True
            exponent = int(m.group(4)) if m.group(4) else 1
        else:
            exponent = 0
        coeffs[exponent] = coeffs.get(exponent, 0) + sign * coeff
    if not saw_x:
        return normalized(coeffs.get(0, 0))
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return Polynomial(out)
