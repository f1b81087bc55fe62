"""Command-line front end: sequence generation, convolution verification,
recurrence decomposition, and Bell-polynomial inspection.

Output is plain text, CSV, or one JSON object per line; exit 0 on success
or all checks matched, 1 on a failed check, 2 on a usage error.  argv is
parsed in one pass by each command's table of long options (``_COMMANDS``):
``--opt value`` or ``--opt=value``, unique prefixes, the last of repeated
options, ``--param`` appended, a value begun by ``-`` taken unless ``--``;
``--format``, ``--quiet`` and ``-h`` go anywhere.  Every usage error, a
request that memory or ``ring.WORK`` refuses included, exits 2 with one
``usage:`` and one ``error:`` line.  A response is rendered whole and
written to stdout at once after its handler returns, so such a request, or
a value past the digit limit for int-to-text conversion, leaves stdout
empty; a reader that closes stdout early ends it with exit 0.
``decompose`` checks its recurrence over ints (:func:`_recurrence_holds`).
``json`` and :mod:`.conv` load where used."""


from __future__ import annotations

import os
import sys
from operator import mul
from types import SimpleNamespace

from . import seq
from .bellpoly import _bell_products, _check_args, bell_eval, bell_eval_recurrence, bell_symbolic
from .ring import _scale, format_element, parse_element, price
from .seq import PRESET_NAMES, BellSequenceSpec, RecurrenceSpec


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


def _cmd_bell(args, emitter) -> int:
    n, k = args.n, args.k
    if args.symbolic and args.x is not None:
        raise ValueError("--symbolic conflicts with --x")
    if args.symbolic and args.cross_check:
        raise ValueError("--symbolic conflicts with --cross-check")
    if not args.symbolic and args.x is None:
        raise ValueError("either --symbolic or --x is required")
    if args.symbolic:
        text = str(bell_symbolic(n, k))
        emitter.emit({"kind": "bellpoly", "n": n, "k": k, "terms": text}, text)
        return 0
    if args.cross_check:
        # the pair as one request, before either route prices and runs alone
        _check_args(n, k, args.x)
        price(_bell_products(n, k, args.x, recurrence=True), f"B_({n},{k})")
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
