"""Command-line front end: sequence generation, convolution verification,
recurrence decomposition, and Bell-polynomial inspection.

Output is plain text, CSV, or one JSON object per line; exit 0 on success
or all checks matched, 1 on a failed check, 2 on a usage error.  argv is
parsed in one pass by each command's table of long options (``_COMMANDS``):
``--opt value`` or ``--opt=value``, unique prefixes, the last of repeated
options, ``--param`` appended, a value begun by ``-`` taken unless ``--``;
``--format``, ``--quiet`` and ``-h`` go anywhere.  Every usage error, a
request that memory or ``ring.WORK`` refuses included (`bell` is priced
here), exits 2 with one ``usage:`` and one ``error:`` line.  A response is
rendered whole and written to stdout at once after its handler returns, so
such a request, or a value past the digit limit for int-to-text conversion,
leaves stdout empty; a reader that closes stdout early ends it with exit 0.
``decompose`` checks its recurrence over ints (:func:`_recurrence_holds`).
``json`` and :mod:`.conv` load where used."""


from __future__ import annotations

import os
import sys
from math import isqrt
from operator import mul
from types import SimpleNamespace

from . import seq
from .bellpoly import _check_args, bell_eval, bell_eval_recurrence, bell_symbolic
from .ring import _norm, _rough, _scale, crude, format_element, parse_element, price
from .seq import PRESET_NAMES, BellSequenceSpec, RecurrenceSpec

# one exponent of a term costs about 10 products of one digit, 170 ns: the
# steps that enumerate it, weigh it, and write or read it (README, "Limits")
PASSES = 10
# a coefficient product in Fraction arithmetic costs about 60 more products
# of one digit, the gcds that reduce it: bell_eval_recurrence at n = 200,
# k = 100 and every entry 1/3 took 3.5 s (README, "Limits")
RING = 60


def _element_list(text: str) -> list:
    try:
        return [parse_element(atom) for atom in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"in list {text!r}: {exc}") from None


def _non_negative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise ValueError(f"must be non-negative, got {n}")
    return n


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(f"must be positive, got {n}")
    return n


def _param_pair(text: str) -> tuple:
    key, sep, value = text.partition("=")
    if not sep:
        raise ValueError(f"expected KEY=INT, got {text!r}")
    return key.strip(), int(value)


def _choice(*choices):
    def check(text: str) -> str:
        if text not in choices:
            raise ValueError(f"invalid choice {text!r} (choose from {', '.join(choices)})")
        return text
    return check


def _resolve_spec(args) -> tuple:
    """(spec, offset) from --preset or from --a/--b/--c."""
    params = dict(args.param)
    if args.preset is not None:
        if args.a is not None or args.b is not None or args.c is not None:
            raise ValueError("--preset conflicts with --a/--b/--c")
        b = params.pop("b", None)
        if params:
            raise ValueError(f"unknown --param keys: {', '.join(sorted(params))}")
        return seq.preset(args.preset, b=b)
    if args.a is None or args.b is None or args.c is None:
        raise ValueError("either --preset or all of --a, --b, --c are required")
    if params:
        raise ValueError("--param is only meaningful with --preset fuss_catalan")
    return BellSequenceSpec(args.a, args.b, tuple(args.c)), 0


class _Emitter:
    """Renders kind-tagged records in one format and keeps each rendered
    line, newline included, in lines."""

    _CSV_FIELDS = {
        "sequence": ("n", "value"),
        "convolution": ("r", "n", "value"),
        "verification": ("r", "n", "lhs", "rhs", "matched"),
        "decomposition": ("lambdas", "values", "recurrence_ok"),
        "bellpoly": ("n", "k", "terms", "value", "cross_check"),
    }

    def __init__(self, fmt: str, quiet: bool):
        self.fmt = fmt
        self.quiet = quiet
        self.lines = []

    def emit(self, record: dict, plain: str):
        if self.quiet:
            return
        if self.fmt == "plain":
            self.lines.append(plain + "\n")
        elif self.fmt == "json":
            import json

            self.lines.append(json.dumps(record) + "\n")
        else:
            fields = self._CSV_FIELDS[record["kind"]]
            if not self.lines:
                self.lines.append(",".join(("kind",) + fields) + "\n")
            cells = [record["kind"]]
            for f in fields:
                v = record.get(f, "")
                if isinstance(v, bool):
                    v = "true" if v else "false"
                elif isinstance(v, (list, tuple)):
                    v = ";".join(str(item) for item in v)
                cells.append(str(v))
            self.lines.append(",".join(cells) + "\n")


def _cmd_seq(args, emitter) -> int:
    spec, offset = _resolve_spec(args)
    N = args.n + max(0, -offset) if args.apply_offset else args.n
    window = seq.bell_transform(spec, N)
    values = window.shifted(offset, args.n + 1) if args.apply_offset else window.values
    for i, text in enumerate(map(format_element, values)):
        emitter.emit({"kind": "sequence", "n": i, "value": text}, text)
    return 0


def _cmd_conv(args, emitter) -> int:
    from . import conv

    spec, _ = _resolve_spec(args)
    if args.delta > 0 and (spec.a != 0 or spec.b != 1):
        raise ValueError("shift formula stated for a=0, b=1 family")

    if args.closed_only:
        # the shifted row is the a=0, b=1 row at m = n - delta*r: 0 below
        # m = 0, and closed_row gives the 1 at m = 0
        ms = range(1 - args.delta * args.r, args.n + 1 - args.delta * args.r)
        row = seq.closed_row(spec, args.r, range(max(ms.start, 0), ms.stop))
        values = [0] * (len(ms) - len(row)) + row
        for n, text in enumerate(map(format_element, values), start=1):
            emitter.emit(
                {"kind": "convolution", "r": args.r, "n": n, "value": text},
                f"r={args.r} n={n} {text}",
            )
        return 0

    records = [report.to_record() for report in conv.check_row(spec, args.r, args.n, args.delta)]
    for rec in records:
        emitter.emit(
            rec,
            f"r={rec['r']} n={rec['n']} lhs={rec['lhs']} rhs={rec['rhs']} "
            + ("ok" if rec["matched"] else "MISMATCH"),
        )
    return 0 if all(rec["matched"] for rec in records) else 1


def _recurrence_holds(coefficients, values) -> bool:
    """Whether a_n = sum_{i=1..d} c_i a_(n-i) for every n >= d of the values
    a_0, a_1, ..., over ints: with C and D the lcm of the denominators of
    the c_i and of the a_n (of their coefficients, for a Polynomial), as C D
    is nonzero, whether C D a_n = sum_i (C c_i)(D a_(n-i)), with no product
    by C = 1.  A Polynomial entry is scaled to int coefficients, and its
    products and sums are the Polynomial's own; nothing is packed, as
    packing at x = 2^B is quadratic in the degree."""
    C, c = _scale(coefficients)
    D, a = _scale(values)
    d = len(c)
    c.reverse()
    return all(sum(map(mul, c, a[n - d:n])) == (C * a[n] if C > 1 else a[n])
               for n in range(d, len(a)))


def _cmd_decompose(args, emitter) -> int:
    rec_spec = RecurrenceSpec(tuple(args.coeffs), tuple(args.init))
    lambdas, window = seq.decompose(rec_spec, args.n)
    ok = _recurrence_holds(rec_spec.coefficients, window.values)
    record = {
        "kind": "decomposition",
        "lambdas": [format_element(v) for v in lambdas],
        "values": [format_element(v) for v in window.values],
        "recurrence_ok": ok,
    }
    plain = "\n".join(
        [
            "lambdas: " + ",".join(record["lambdas"]),
            "sequence: " + ",".join(record["values"]),
            "recurrence: " + ("ok" if ok else "MISMATCH"),
        ]
    )
    emitter.emit(record, plain)
    return 0 if ok else 1


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


def _bell_work(n: int, k: int, xs, cross_check: bool = False) -> tuple:
    """(each, once): the products of `bell` at (n, k) with --x xs, as price()
    reads them, for each term of B_{n,k} and once: n + 1 steps, over the
    multiplicities and powers to k <= n; PASSES for each of a term's n - k + 1
    exponents; per term, its coefficient, a set-partition count, at most
    S(n, k) <= binom(n, k) k^(n-k), times its nz <= sqrt(2 n) + 1 nonzero
    powers (distinct part sizes sum to n at most); each power x_i^a by
    squaring, at most 8/3 of a product of its halves, a_1 <= k of n - k + 1
    values at most and, for i >= 2, a <= k and a (i - 1) <= n - k; and the
    value.  With D x_i = u of int coefficients and v = max(D, ||u||_1), u^a
    and D^a are below 2^(a b_i + 1), b_i = bits(v - 1), and as a_1 +
    sum_{i>=2} a_i = k and sum_{i>=2} (i - 1) a_i = n - k, a term's sum_i a_i
    b_i <= k b_1 + (n - k) max_{i>=2} b_i/(i - 1), its degree likewise.
    Degrees d_1 + d_2 <= e take (d_1 + 1)(d_2 + 1) <= (e/2 + 1)^2 coefficient
    products, a term's nz products of degree d at most d^2 (nz - 1)/(2 nz) +
    nz (d + 1).  With cross_check, once more the recurrence of
    bellpoly.bell_eval_recurrence: k (n - k + 1)^2 loop steps at most, and
    where a value B_{m-i,k'-1} is nonzero, n - k + 1 at the first level
    (B_{m,0} is zero but at m = 0) and at the last (m = n alone) and (n - k +
    1)^2 at each other, a binomial binom(m - 1, i - 1), i <= n - k + 1, below
    2^min(n, (n - k) bits(n)), and where x_i is nonzero that times x_i and
    times the value, m - k' <= n - k and k' <= k, whose bits and degree are
    at most those of B_{n,k}, in ring arithmetic: a coefficient product per
    pair of coefficients, and RING more for each when an entry has a
    Fraction."""
    slots = n - k + 1 if k <= n else 0
    each, once = [(slots * PASSES, 0, 0)], [(n + 1, 0, 0)]
    if not slots or not k:
        return each, once
    D, us = _scale(list(xs[:slots])) if xs else (1, [0])
    # of the bits b_i, then of the degrees: x_1's, the most of a power x_i^a,
    # i >= 2, and the most of a term
    sizes = []
    for column in ([(max(D, _norm(u)) - 1).bit_length() for u in us],
                   [getattr(u, "degree", 0) for u in us]):
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
    if cross_check:
        # rows (k', m) whose cells are read with B_{m-i,k'-1} nonzero
        rows, binom = max(k - 2, 0) * slots + 2, min(n, (n - k) * n.bit_length())
        pairs = rows * sum(map(bool, us)) * (deepest + 1) * (d + 1)
        once += [(k * slots * slots, 0, 0), (rows * slots, binom, binom),
                 (rows * slots * (deepest + 1), binom, widest), (pairs, binom + widest, value),
                 (pairs * (1 + RING * (D > 1)), 0, 0)]
    return each, once


def _bell_bound(n: int, k: int, xs, cross_check: bool = False) -> tuple:
    """One :func:`~bellseq.ring.crude` triple at least the price of
    :func:`_bell_work` with p(n, k) terms, by bit counts: p(n, k), the
    partitions of n - k into at most k parts, is at most 2^(n - k) (each is
    a composition, and n - k has 2^(n - k - 1) of them), taken as 2^40 past
    n - k = 40, where it passes WORK; by :func:`~bellseq.ring._rough` on the
    n - k + 1 entries, every b_i is at most W = e + s, as max(D, ||u_i||_1)
    < 2^(e + s), and every degree at most g, so a term's bits are at most k
    W and its degree d at most k g; the counts of each term sum to at most
    (n - k + 1) PASSES + (k g)^2/2 + nz (k g + 1), those once to n + k g + 2
    + 3 (k + k (n - k)) (k g/2 + 1)^2, and with cross_check k (n - k + 1)^2
    + rows (n - k + 1) (g + 2) + pairs (RING + 2), pairs = rows t (g + 1)
    (k g + 1), t the nonzero entries; every operand has at most the value's
    bits, and with cross_check the binomial's and W more."""
    if k > n:
        return crude(n + 1, 0)
    slots = n - k + 1
    e, s, g, t, _, _ = _rough(xs[:slots])
    W, d = e + s, k * g
    terms = 1 << min(n - k, 40)
    nz = min(k, slots, isqrt(2 * n) + 1)
    count = terms * (slots * PASSES + d * d // 2 + nz * (d + 1)) + n + d + 2
    count += 3 * (k + k * slots) * (d // 2 + 1) ** 2
    bits = min(n, min(k, n - k) * n.bit_length()) + (n - k) * (k - 1).bit_length() + k * W + 2
    if cross_check:
        rows = max(k - 2, 0) * slots + 2
        count += k * slots * slots + rows * slots * (g + 2) + rows * t * (g + 1) * (d + 1) * (RING + 2)
        bits += min(n, (n - k) * n.bit_length()) + W
    return crude(count, bits)


def _cmd_bell(args, emitter) -> int:
    n, k = args.n, args.k
    if args.symbolic and args.x is not None:
        raise ValueError("--symbolic conflicts with --x")
    if args.symbolic and args.cross_check:
        raise ValueError("--symbolic conflicts with --cross-check")
    if not args.symbolic and args.x is None:
        raise ValueError("either --symbolic or --x is required")
    xs = args.x or ()
    if not args.symbolic:
        _check_args(n, k, xs)
    full = []

    def products(parts):
        if not parts:
            return [_bell_bound(n, k, xs, args.cross_check)]
        if not full:
            each, once = _bell_work(n, k, xs, args.cross_check)
            # the lower bound p(n, k) >= floor((n - k)/2) + 1 first, so that
            # a request it refuses is not counted
            terms = (n - k) // 2 + 1 if 2 <= k <= n else 1
            if price(lambda parts: once + [(terms * count, a, b) for count, a, b in each]):
                terms = _partition_count(n, k)
            full.extend(once + [(terms * count, a, b) for count, a, b in each])
        return full

    price(products, f"B_({n},{k})")
    if args.symbolic:
        text = str(bell_symbolic(n, k))
        emitter.emit({"kind": "bellpoly", "n": n, "k": k, "terms": text}, text)
        return 0
    value = bell_eval(n, k, args.x)
    record = {"kind": "bellpoly", "n": n, "k": k, "value": format_element(value)}
    plain = record["value"]
    ok = True
    if args.cross_check:
        ok = value == bell_eval_recurrence(n, k, args.x)
        record["cross_check"] = "ok" if ok else "mismatch"
        plain += f" (cross-check: {record['cross_check']})"
    emitter.emit(record, plain)
    return 0 if ok else 1


# The long options of each command: name -> (converter, default, metavar).
# A None converter marks a flag, _REQUIRED an option that must be given, and a
# list default an option whose values are appended to it; any other option
# keeps its last value.
_REQUIRED = object()
_GLOBAL_OPTIONS = {
    "--format": (_choice("plain", "csv", "json"), "plain", "{plain,csv,json}"),
    "--quiet": (None, False, ""),
}
_SPEC_OPTIONS = {
    "--a": (int, None, "A"),
    "--b": (int, None, "B"),
    "--c": (_element_list, None, "LIST"),
    "--preset": (_choice(*PRESET_NAMES), None, "{" + ",".join(PRESET_NAMES) + "}"),
    "--param": (_param_pair, [], "KEY=INT"),
}
# The handlers look up the library functions they call at call time, so a
# patched conv.convolution_closed or bell_eval_recurrence is seen.
_COMMANDS = {
    "seq": (_cmd_seq, "print y_0..y_N (or the offset-adjusted classical sequence)", {
        **_SPEC_OPTIONS, "--n": (_non_negative, _REQUIRED, "N"), "--apply-offset": (None, False, ""),
    }),
    "conv": (_cmd_conv, "r-fold convolution: verify closed form against the oracle", {
        **_SPEC_OPTIONS,
        "--n": (_non_negative, _REQUIRED, "N"),
        "--r": (_positive, _REQUIRED, "R"),
        "--delta": (_non_negative, 0, "DELTA"),
        # --check is the default; --closed-only skips the oracle
        "--check": (None, True, ""),
        "--closed-only": (None, False, ""),
    }),
    "decompose": (_cmd_decompose, "express a linear recurrence via shifted y values", {
        "--coeffs": (_element_list, _REQUIRED, "LIST"),
        "--init": (_element_list, _REQUIRED, "LIST"),
        "--n": (_non_negative, _REQUIRED, "N"),
    }),
    "bell": (_cmd_bell, "partial Bell polynomial, symbolic or evaluated", {
        "--n": (_non_negative, _REQUIRED, "N"),
        "--k": (_non_negative, _REQUIRED, "K"),
        "--symbolic": (None, False, ""),
        "--x": (_element_list, None, "LIST"),
        "--cross-check": (None, False, ""),
    }),
}
# a request may give at most one of these
_EXCLUSIVE = {"--check", "--closed-only"}


class _Scope:
    """What the parser accepts before a command (command None) or after one:
    the command's options, the global ones and -h/--help."""

    def __init__(self, command, handler, description, options):
        self.command = command
        self.handler = handler
        self.description = description
        self.prog = "bellseq" if command is None else f"bellseq {command}"
        every = {**options, **_GLOBAL_OPTIONS, "--help": (None, False, "")}
        self.names = list(every)
        # each name and each prefix of one with at least one letter ->
        # (name, dest, converter, appends); an ambiguous prefix -> None
        entries = {name: (name, name[2:].replace("-", "_"), convert, type(default) is list)
                   for name, (convert, default, _) in every.items()}
        self.lookup = {}
        for name, entry in entries.items():
            for end in range(3, len(name)):
                self.lookup[name[:end]] = None if name[:end] in self.lookup else entry
        self.lookup.update(entries)
        self.lookup["-h"] = entries["--help"]
        self.defaults = {entries[name][1]: default for name, (_, default, _) in options.items()
                         if default is not _REQUIRED}
        self.required = [name for name, option in options.items() if option[1] is _REQUIRED]
        words = ["usage:", self.prog]
        for name, (_, default, metavar) in every.items():
            word = f"{name} {metavar}" if metavar else name
            words.append(word if default is _REQUIRED else f"[{word}]")
        if command is None:
            words.append("{" + ",".join(_COMMANDS) + "} ...")
        self.usage = " ".join(words)

    def help(self) -> str:
        """The usage line, the description and, before a command, the commands."""
        lines = [self.usage, "", self.description]
        if self.command is None:
            lines += ["", "commands:"]
            lines += [f"  {name:11}{entry[1]}" for name, entry in _COMMANDS.items()]
            lines += ["", "--format and --quiet are accepted before or after the command."]
        return "\n".join(lines)


_TOP = _Scope(None, None, "Exact Bell-polynomial sequence families and their convolution "
              "identities.", _GLOBAL_OPTIONS)
_SCOPES = {name: _Scope(name, *entry) for name, entry in _COMMANDS.items()}


def _parse(argv, args) -> bool:
    """Set the fields of args from argv in one pass; False when help was asked
    for, and printed.  The first token that is no option names the command.
    An option's value is the rest of its token after "=", or else the next
    token unless that begins with "--", so a value may begin with "-"."""
    fields = args.__dict__
    fields.update(_TOP.defaults)
    scope = _TOP
    given = set()
    tokens = iter(argv)
    for token in tokens:
        if token[:2] != "--" and token != "-h":
            if scope is not _TOP:
                raise ValueError(f"unrecognized argument {token!r}")
            scope = _SCOPES.get(token)
            if scope is None:
                raise ValueError(f"invalid command {token!r} (choose from {', '.join(_COMMANDS)})")
            fields["command"] = token
            fields.update(scope.defaults)
            continue
        name, eq, value = token.partition("=")
        entry = scope.lookup.get(name)
        if entry is None:
            if name in scope.lookup:
                matches = ", ".join(option for option in scope.names if option.startswith(name))
                raise ValueError(f"ambiguous option {name} could match {matches}")
            raise ValueError(f"unrecognized option {name!r}")
        name, dest, convert, appends = entry
        given.add(name)
        if convert is None:
            if eq:
                raise ValueError(f"argument {name}: ignored explicit argument {value!r}")
            if name == "--help":
                print(scope.help())
                return False
            fields[dest] = True
            continue
        if not eq:
            # past the last token, the value is missing as before an option
            value = next(tokens, "--")
            if value[:2] == "--":
                raise ValueError(f"argument {name}: expected one argument")
        try:
            value = convert(value)
        except ValueError as exc:
            raise ValueError(f"argument {name}: {exc}") from None
        fields[dest] = fields[dest] + [value] if appends else value
    if scope is _TOP:
        raise ValueError(f"a command is required, one of {', '.join(_COMMANDS)}")
    missing = [name for name in scope.required if name not in given]
    if missing:
        raise ValueError(f"the following options are required: {', '.join(missing)}")
    if _EXCLUSIVE <= given:
        raise ValueError(f"the options {' and '.join(sorted(_EXCLUSIVE))} exclude each other")
    return True


def main(argv=None) -> int:
    args = SimpleNamespace(command=None)
    try:
        # inside the try: parsing a list of ring elements allocates too
        if not _parse(sys.argv[1:] if argv is None else argv, args):
            return 0
        emitter = _Emitter(args.format, args.quiet)
        code = _SCOPES[args.command].handler(args, emitter)
    except ValueError as exc:
        message = str(exc)
    except (MemoryError, OverflowError):
        # OverflowError: a list longer than sys.maxsize, which CPython refuses
        # to build as it refuses one that does not fit in memory
        message = "the request needs more memory than can be allocated"
    else:
        sys.stdout.writelines(emitter.lines)
        return code
    scope = _SCOPES.get(args.command, _TOP)
    print(f"{scope.usage}\n{scope.prog}: error: {message}", file=sys.stderr)
    return 2


def run():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, which is no error of the request:
        # exit 0, with stdout on the null device for the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    run()
