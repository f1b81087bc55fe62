"""Command-line front end: sequence generation, convolution verification,
recurrence decomposition, and Bell-polynomial inspection.

Output goes to stdout as plain text, CSV, or one JSON object per line.
Exit codes: 0 success / all checks matched, 1 a verification check failed,
2 usage error.  Every usage error, whether argparse or the library rejects
the request, exits 2 with one ``error:`` line on stderr; so does a
``conv --check`` request whose oracle would build more than
MAX_ORACLE_PARTS composition parts, and a ``bell`` request whose B_{n,k}
has more than MAX_BELL_EXPONENTS exponents over all its terms, and a
request whose memory cannot be allocated.  A reader
that closes stdout early ends the command quietly, with exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import comb

from . import conv, seq
from .bellpoly import bell_eval, bell_eval_recurrence, bell_symbolic
from .ring import format_element, parse_element
from .seq import PRESET_NAMES, BellSequenceSpec, RecurrenceSpec

# largest oracle cost `conv --check` accepts, in composition parts (each
# visit builds and multiplies out an r-tuple, one lookup and one int product
# a part): well under a second of work for int, small rational and
# low-degree Polynomial values, far more for wide Polynomial ones (README)
MAX_ORACLE_PARTS = 2 * 10**6
# largest enumeration `bell` accepts, in exponents written (p(n, k) terms of
# n - k + 1 exponents each): about a second of work
MAX_BELL_EXPONENTS = 2 * 10**6


def _element_list(text: str) -> list:
    try:
        return [parse_element(atom) for atom in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"in list {text!r}: {exc}") from None


def _non_negative(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {n}")
    return n


def _param_pair(text: str) -> tuple:
    key, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected KEY=INT, got {text!r}")
    return key.strip(), int(value)


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
    """Collects kind-tagged records and renders them in one format."""

    _CSV_FIELDS = {
        "sequence": ("n", "value"),
        "convolution": ("r", "n", "value"),
        "verification": ("r", "n", "lhs", "rhs", "matched"),
        "decomposition": ("lambdas", "values", "recurrence_ok"),
        "bellpoly": ("n", "k", "terms", "value", "cross_check"),
    }

    def __init__(self, fmt: str, quiet: bool, out):
        self.fmt = fmt
        self.quiet = quiet
        self.out = out
        self._csv_header_done = False

    def emit(self, record: dict, plain: str):
        if self.quiet:
            return
        if self.fmt == "plain":
            print(plain, file=self.out)
        elif self.fmt == "json":
            print(json.dumps(record), file=self.out)
        else:
            fields = self._CSV_FIELDS[record["kind"]]
            if not self._csv_header_done:
                print(",".join(("kind",) + fields), file=self.out)
                self._csv_header_done = True
            cells = [record["kind"]]
            for f in fields:
                v = record.get(f, "")
                if isinstance(v, bool):
                    v = "true" if v else "false"
                elif isinstance(v, (list, tuple)):
                    v = ";".join(str(item) for item in v)
                cells.append(str(v))
            print(",".join(cells), file=self.out)


def _cmd_seq(args, emitter) -> int:
    spec, offset = _resolve_spec(args)
    if args.apply_offset:
        window = seq.bell_transform(spec, args.n + max(0, -offset))
        values = window.shifted(offset, args.n + 1)
    else:
        values = list(seq.bell_transform(spec, args.n).values)
    for i, v in enumerate(values):
        text = format_element(v)
        emitter.emit({"kind": "sequence", "n": i, "value": text}, text)
    return 0


def _cmd_conv(args, emitter) -> int:
    spec, _ = _resolve_spec(args)
    if args.delta > 0 and (spec.a != 0 or spec.b != 1):
        raise ValueError("shift formula stated for a=0, b=1 family")

    if args.closed_only:
        # the shifted row is the a=0, b=1 row at m = n - delta*r: 0 below
        # m = 0, and closed_row gives the 1 at m = 0
        ms = range(1 - args.delta * args.r, args.n + 1 - args.delta * args.r)
        row = seq.closed_row(spec, args.r, range(max(ms.start, 0), ms.stop))
        values = [0] * (len(ms) - len(row)) + row
        for n, v in enumerate(values, start=1):
            text = format_element(v)
            emitter.emit(
                {"kind": "convolution", "r": args.r, "n": n, "value": text},
                f"r={args.r} n={n} {text}",
            )
        return 0

    # r parts for each of the C(N + r, r) - 1 compositions over n = 1..N;
    # that is at least N * r^2, which spares computing a huge binomial
    parts = args.n * args.r**2
    if parts <= MAX_ORACLE_PARTS:
        parts = args.r * (comb(args.n + args.r, args.r) - 1)
    if parts > MAX_ORACLE_PARTS:
        raise ValueError(
            f"--check would build at least {parts} composition parts, more than "
            f"MAX_ORACLE_PARTS = {MAX_ORACLE_PARTS}; use --closed-only"
        )
    # the closed side stays one library call per index, so that a patched
    # conv.convolution_closed is what the check compares with
    def closed(r, n):
        if args.delta > 0:
            return conv.shifted_convolution_closed(spec.c, r, n, args.delta)
        return conv.convolution_closed(spec, r, n)

    window = seq.bell_transform(spec, args.n)
    all_matched = True
    for n in range(1, args.n + 1):
        lhs = conv.convolution_oracle(window, args.r, n, args.delta)
        rhs = closed(args.r, n)
        report = conv.ConvolutionReport(args.r, n, lhs, rhs)
        all_matched &= report.matched
        rec = report.to_record()
        emitter.emit(
            rec,
            f"r={rec['r']} n={rec['n']} lhs={rec['lhs']} rhs={rec['rhs']} "
            + ("ok" if rec["matched"] else "MISMATCH"),
        )
    return 0 if all_matched else 1


def _cmd_decompose(args, emitter) -> int:
    rec_spec = RecurrenceSpec(tuple(args.coeffs), tuple(args.init))
    lambdas, window = seq.decompose(rec_spec, args.n)
    ok = True
    for n in range(rec_spec.order, len(window)):
        expected = 0
        for i, ci in enumerate(rec_spec.coefficients, start=1):
            expected = expected + ci * window.value_at(n - i)
        ok &= window.value_at(n) == expected
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


def _cmd_bell(args, emitter) -> int:
    n, k = args.n, args.k
    if args.symbolic and args.x is not None:
        raise ValueError("--symbolic conflicts with --x")
    if args.symbolic and args.cross_check:
        raise ValueError("--symbolic conflicts with --cross-check")
    if not args.symbolic and args.x is None:
        raise ValueError("either --symbolic or --x is required")
    exponents = _partition_count(n, k) * (n - k + 1)
    if exponents > MAX_BELL_EXPONENTS:
        raise ValueError(
            f"B_({n},{k}) has {exponents} exponents over its terms, more than "
            f"MAX_BELL_EXPONENTS = {MAX_BELL_EXPONENTS}"
        )
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


# built once; the handlers look up the library functions they call at call
# time, so a patched conv.convolution_closed or bell_eval_recurrence is seen
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        # inside the try: parsing a list of ring elements allocates too
        args = _PARSER.parse_args(argv)
        return args.handler(args, _Emitter(args.format, args.quiet, sys.stdout))
    except ValueError as exc:
        _PARSER.error(str(exc))
    except MemoryError:
        _PARSER.error("the request needs more memory than can be allocated")


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
