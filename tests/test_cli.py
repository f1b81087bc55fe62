import ast
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from bellseq import cli
from bellseq.conv import check_row, shifted_convolution_closed
from bellseq.ring import WORK, Polynomial, format_element, parse_element, price
from bellseq.seq import BellSequenceSpec, bell_transform, preset

from _oracles import (
    build_parser,
    fibonacci_list,
    iterative_partition_count,
    jacobsthal_polys,
    parse_element_by_split,
    run_recurrence,
)


# y_n = y_(n-1) - y_(n-2) from y_0 = y_1 = 1
PERIOD_6 = (1, 1, 0, -1, -1, 0)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "bellseq", *argv], capture_output=True, text=True, timeout=60
    )


class TestSeqCommand:
    def test_catalan_plain(self, capsys):
        code, out = run_cli(capsys, "seq", "--preset", "catalan", "--n", "3")
        assert code == 0
        assert out.splitlines() == ["1", "2", "5", "14"]

    def test_explicit_spec_n0(self, capsys):
        code, out = run_cli(capsys, "seq", "--a", "0", "--b", "1", "--c", "1,1", "--n", "0")
        assert code == 0
        assert out.splitlines() == ["1"]

    def test_jacobsthal_with_offset(self, capsys):
        code, out = run_cli(
            capsys, "seq", "--preset", "jacobsthal", "--n", "4", "--apply-offset"
        )
        assert code == 0
        assert out.splitlines() == ["0", "1", "1", "1+2x", "1+4x"]

    def test_fuss_catalan_param(self, capsys):
        code, out = run_cli(
            capsys, "seq", "--preset", "fuss_catalan", "--param", "b=2", "--n", "4"
        )
        assert code == 0
        assert out.splitlines() == ["1", "1", "2", "5", "14"]

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "seq", "--preset", "motzkin", "--n", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["kind,n,value", "sequence,0,1", "sequence,1,1", "sequence,2,2"]

    def test_quiet(self, capsys):
        code, out = run_cli(capsys, "seq", "--preset", "motzkin", "--n", "3", "--quiet")
        assert code == 0
        assert out == ""

    def test_unique_prefix_stands_for_its_option(self, capsys):
        assert run_cli(capsys, "seq", "--pre", "catalan", "--n", "3") == run_cli(
            capsys, "seq", "--preset", "catalan", "--n", "3"
        )

    @pytest.mark.parametrize("c, expected", [
        ("-1/2,3", ["1", "-1/2", "13/4", "-37/8"]),
        ("-1,2", ["1", "-1", "3", "-7"]),
    ])
    def test_list_value_may_begin_with_minus(self, capsys, c, expected):
        # the value after a space is the next token unless it begins with
        # "--", so it reads as the "=" form does
        argv = ["seq", "--a", "1", "--b", "0", "--n", "3"]
        spaced = run_cli(capsys, *argv, "--c", c)
        joined = run_cli(capsys, *argv, f"--c={c}")
        assert spaced == joined == (0, "\n".join(expected) + "\n")


    def test_deep_one_sign_recurrence(self):
        # y_n = F_(n+1), from the recurrence with no table, so past the
        # table's bound of N = 1093 too
        result = run_subprocess("seq", "--a", "0", "--b", "1", "--c", "1,0x+1", "--n", "1500")
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == list(map(str, fibonacci_list(1501)[1:]))

    def test_deep_cancelling_recurrence(self):
        # y_n = y_(n-1) - y_(n-2), its Polynomial entry a constant and its
        # terms cancelling, from the recurrence with no table past N = 1093
        result = run_subprocess("seq", "--a", "0", "--b", "1", "--c", "1,0x-1", "--n", "1500")
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [str(PERIOD_6[n % 6]) for n in range(1501)]

    def test_deep_jacobsthal(self):
        # y_n = J_(n+1), each a Polynomial, the constant y_0 and y_1 included
        result = run_subprocess("seq", "--preset", "jacobsthal", "--n", "300")
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == list(map(format_element, jacobsthal_polys(301)[1:]))


# imports bellseq after a snapshot of sys.modules, runs the request given in
# argv, and prints the modules it added, then every module loaded at the end
STARTUP = """
import sys
before = set(sys.modules)
from bellseq import cli
cli.main(sys.argv[1:])
print(sorted(set(sys.modules) - before))
print(sorted(sys.modules))
"""


class TestStartup:
    @staticmethod
    def modules(*argv):
        result = subprocess.run([sys.executable, "-c", STARTUP, *argv], capture_output=True,
                                text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        added, loaded = result.stdout.splitlines()[-2:]
        return set(ast.literal_eval(added)), set(ast.literal_eval(loaded))

    def test_plain_seq_loads_only_what_it_uses(self):
        added, _ = self.modules("seq", "--preset", "catalan", "--n", "1")
        assert "bellseq.seq" in added
        assert not {"dataclasses", "inspect", "json", "bellseq.conv"} & added

    def test_json_and_conv_load_on_demand(self):
        added, loaded = self.modules("--format", "json", "seq", "--preset", "catalan", "--n", "1")
        assert "json" in loaded and "bellseq.conv" not in added
        added, _ = self.modules("conv", "--preset", "catalan", "--r", "2", "--n", "3")
        assert "bellseq.conv" in added and "json" not in added


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("seq", "--a", "0", "--b", "0", "--c", "1,1", "--n", "3"),
            ("seq", "--a", "1", "--c", "1,1", "--n", "3"),
            ("seq", "--a", "1", "--b", "0", "--c", "1,,oops", "--n", "3"),
            ("seq", "--preset", "nothere", "--n", "3"),
            ("seq", "--preset", "fuss_catalan", "--n", "3"),
            ("seq", "--preset", "fuss_catalan", "--param", "b=0", "--n", "3"),
            ("seq", "--preset", "catalan", "--a", "1", "--n", "3"),
            ("conv", "--preset", "catalan", "--r", "2", "--delta", "1", "--n", "4"),
            ("conv", "--preset", "catalan", "--r", "0", "--n", "4"),
            ("decompose", "--coeffs", "1,1", "--init", "0,1,2", "--n", "8"),
            ("bell", "--n", "4", "--k", "2", "--x", "1,1"),
            ("bell", "--n", "4", "--k", "2"),
            ("bell", "--n", "4", "--k", "2", "--symbolic", "--x", "1,1,1"),
            ("seq", "--a", "1", "--b", "0", "--c", "1/0", "--n", "3"),
            ("seq", "--a", "1", "--b", "0", "--c", "1,,2", "--n", "3"),
            # a "*" stands only between a coefficient and x
            ("seq", "--a", "1", "--b", "0", "--c", "3*", "--n", "2"),
            ("seq", "--a", "1", "--b", "0", "--c", "*x", "--n", "2"),
            ("seq", "--a", "1", "--b", "0", "--c", "2*+1", "--n", "2"),
            ("decompose", "--coeffs", "1,1", "--init", "1/0,1", "--n", "3"),
            ("bell", "--n", "4", "--k", "2", "--x", "1,,2"),
            ("decompose", "--coeffs", "1,1,1", "--init", "0,1,2", "--n", "1"),
            ("seq", "--preset", "catalan", "--param", "b=2", "--n", "3"),
            ("conv", "--preset", "catalan", "--r", "30", "--n", "60"),
            ("conv", "--preset", "catalan", "--r", "100000", "--n", "1"),
            ("bell", "--n", "120", "--k", "30", "--symbolic"),
            ("bell", "--n", "4", "--k", "2", "--symbolic", "--cross-check"),
            # lists longer than CPython allows: MemoryError before any memory
            # is touched, in parsing c, in the window, and in the sum
            ("seq", "--a", "1", "--b", "0", "--c", "x^2000000000000000000", "--n", "2"),
            ("decompose", "--coeffs", "1,1", "--init", "0,1", "--n", "2000000000000000000"),
            ("bell", "--n", "3", "--k", "1", "--x", "x^2000000000000000000,1,1"),
            # lists and exponents past sys.maxsize, which CPython refuses with
            # OverflowError
            ("seq", "--a", "1", "--b", "0", "--c", "x^99999999999999999999", "--n", "2"),
            ("bell", "--n", "99999999999999999999", "--k", "1", "--symbolic"),
            # requests that would allocate step by step, refused by their
            # price: the closed form's table, the functional equation's power
            # rows (before any list of n values is asked for), and n for bell
            ("conv", "--preset", "catalan", "--r", "1", "--n", "100000000000", "--closed-only"),
            ("seq", "--preset", "catalan", "--n", "6000"),
            ("seq", "--preset", "catalan", "--n", "2000000000000000000"),
            ("seq", "--preset", "catalan", "--n", "99999999999999999999"),
            ("seq", "--a", "1", "--b", "1", "--c", "1+x", "--n", "100000000000"),
            ("bell", "--n", "100000000000", "--k", "100000000000", "--x", "1"),
            # refused by a lower bound on p(n, k), before the partitions are
            # counted
            ("bell", "--n", "20000", "--k", "10000", "--symbolic"),
            # the parser's own refusals
            (),
            ("--quiet",),
            ("frob", "--n", "3"),
            ("seq", "--preset", "catalan", "--n", "3", "--zz", "1"),
            ("seq", "--preset", "catalan", "--n"),
            ("seq", "--preset", "catalan", "--n", "3", "--quiet=1"),
            ("--format=xml", "seq", "--preset", "catalan", "--n", "3"),
            # a request that --param b=2 would run
            ("seq", "--preset", "fuss_catalan", "--p", "b=2", "--n", "3"),
            ("conv", "--preset", "catalan", "--r", "2", "--n", "3", "--check", "--closed-only"),
            ("conv", "--preset", "catalan", "--r", "2", "--n", "3", "--closed-only", "--check"),
            ("seq", "--preset", "catalan", "--n", "3", "conv"),
        ],
    )
    def test_exit_code_2(self, argv):
        result = run_subprocess(*argv)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        lines = result.stderr.splitlines()
        assert sum("error:" in line for line in lines) == 1
        assert sum(line.startswith("usage:") for line in lines) == 1

    def test_check_refused_before_any_output(self):
        # the window, the walk and the closed side are priced together at the
        # first report, before any of them is built and before the first row
        result = run_subprocess("conv", "--preset", "catalan", "--r", "1", "--n", "2000", "--check")
        assert result.returncode == 2
        assert result.stdout == ""
        assert f"WORK = {WORK}" in result.stderr

    @pytest.mark.parametrize("argv", [
        ("seq", "--a", "1", "--b", "0", "--c", "99999999999999999999999999999999999999,1", "--n", "500",
         "--quiet"),
        ("seq", "--a", "1", "--b", "0", "--c", "99999999999999999999999999999999999999,1", "--n", "1000",
         "--quiet"),
        ("bell", "--n", "4000", "--k", "4000", "--x", "1+x", "--quiet"),
        ("bell", "--n", "1999999", "--k", "1999999", "--x", "12345678901234567890"),
    ], ids=["miller_500", "miller_1000", "bell_power", "bell_scalar_power"])
    def test_hang_class_is_refused_by_the_price(self, argv):
        # each ran for half a minute or more before it was priced in bits;
        # now the price refuses it before any work
        result = run_subprocess(*argv)
        assert result.returncode == 2
        assert result.stdout == ""
        errors = [line for line in result.stderr.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"more than WORK = {WORK} units of work" in errors[0]

    def test_cross_check_is_priced(self):
        # --cross-check runs bellpoly's recurrence, k (n - k + 1)^2 ring
        # products: here 19 s before it was priced, against 0.6 s for the
        # value alone, which stays accepted
        argv = ("bell", "--n", "20000", "--k", "19960", "--x", ",".join(["1"] * 41))
        assert run_subprocess(*argv, "--quiet").returncode == 0
        result = run_subprocess(*argv, "--cross-check")
        assert result.returncode == 2
        assert result.stdout == ""
        assert f"B_(20000,19960) would take more than WORK = {WORK} units of work" in result.stderr

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this interpreter converts ints of any length to text")
    @pytest.mark.parametrize("argv", [
        ("seq", "--preset", "fibonacci", "--n", "30000"),
        ("seq", "--a", "0", "--b", "1", "--c", "99999999999999999999", "--n", "300"),
    ], ids=["fibonacci", "big_coefficient"])
    def test_value_past_the_digit_limit_is_refused_before_any_output(self, argv):
        result = run_subprocess(*argv)
        assert result.returncode == 2
        assert result.stdout == ""
        assert f"more than {sys.get_int_max_str_digits()} digits" in result.stderr

    def test_bell_refused_by_a_lower_bound(self, capsys, monkeypatch):
        # p(n, k) >= floor((n - k)/2) + 1 = 5001 terms already pass WORK, so
        # the partitions are never counted
        monkeypatch.setattr(cli, "_partition_count", lambda n, k: pytest.fail("counted"))
        assert cli.main(["bell", "--n", "20000", "--k", "10000", "--symbolic"]) == 2
        assert f"B_(20000,10000) would take more than WORK = {WORK}" in capsys.readouterr().err

    def test_short_argument_list_is_refused_before_the_price(self, capsys, monkeypatch):
        # a list too short for B_(n,k) is the usage error, whatever n costs
        monkeypatch.setattr(cli, "price", lambda *args: pytest.fail("priced"))
        assert cli.main(["bell", "--n", "200000", "--k", "2", "--x", "1,2"]) == 2
        assert "argument list too short: B_(200000,2) needs 199999 entries, got 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, shows", [
        (("-h",), ["seq", "conv", "decompose", "bell", "--format", "--quiet"]),
        (("seq", "--help"), ["--preset", "--param", "--n N", "--apply-offset", "--format"]),
        (("conv", "--preset", "catalan", "--he"), ["--r R", "--delta DELTA", "--closed-only"]),
    ])
    def test_help_exits_0(self, argv, shows):
        result = run_subprocess(*argv)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert result.stdout.startswith("usage: bellseq")
        assert all(word in result.stdout for word in shows)


digits = st.integers(0, 9).map(str)
numbers = st.integers(0, 99).map(str)
# a run of digits, "/", "*", "x", "^" with one digit, signs and parentheses;
# the empty run is the empty atom
garbled_atoms = st.lists(
    st.one_of(digits, st.sampled_from(list("/*x+-()")), digits.map("^".__add__)), max_size=6
).map("".join)
# sums of signed p/q x^e terms, each part optional, so that near-misses such
# as "3/0x" are drawn often, which a run of loose characters seldom spells
terms = st.tuples(
    st.sampled_from(["", "+", "-"]),
    st.one_of(st.just(""), numbers),
    st.one_of(st.just(""), numbers.map("/".__add__)),
    st.one_of(st.just(""), st.just("x"), digits.map("x^".__add__)),
).map("".join)
sums = st.lists(terms, min_size=1, max_size=3).map("".join)
c_atoms = st.one_of(garbled_atoms, sums, sums.map("({})".format))


# the fuzzed atoms mixed with well-formed ones, so that lists of several
# atoms still parse often enough to reach the library
well_formed = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=3).map(Polynomial),
).map(format_element)


def list_atoms(size: int):
    """Comma-joined lists of exactly size atoms."""
    return st.lists(st.one_of(c_atoms, well_formed), min_size=size, max_size=size).map(",".join)


def assert_exits_0_or_2(argv):
    """cli.main in-process with JSON output exits 0 or 2, and on 0 every ring
    element printed (the "value", "lambdas" and "values" fields) round-trips
    through parse_element and format_element."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main([*argv, "--format", "json"])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), err.getvalue()
    if code == 0:
        printed = []
        for rec in map(json.loads, out.getvalue().splitlines()):
            printed += [rec["value"]] if "value" in rec else []
            printed += rec.get("lambdas", []) + rec.get("values", [])
        assert printed
        for value in printed:
            assert format_element(parse_element(value)) == value


class TestCoefficientFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(c_atoms, min_size=1, max_size=3).map(",".join))
    @pytest.mark.parametrize(
        "argv",
        [
            ("seq", "--a", "1", "--b", "0", "--n", "3"),
            ("conv", "--a", "0", "--b", "1", "--r", "2", "--n", "3", "--closed-only"),
        ],
    )
    def test_exits_0_or_2(self, argv, c):
        assert_exits_0_or_2([*argv, f"--c={c}"])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(*[list_atoms(d)] * 2)))
    def test_decompose_lists_exit_0_or_2(self, lists):
        coeffs, init = lists
        assert_exits_0_or_2(["decompose", f"--coeffs={coeffs}", f"--init={init}", "--n", "4"])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(3, 4).flatmap(list_atoms))
    def test_bell_x_exits_0_or_2(self, x):
        assert_exits_0_or_2(["bell", "--n", "4", "--k", "2", f"--x={x}", "--cross-check"])


@settings(max_examples=500, deadline=None)
@given(st.one_of(c_atoms, well_formed, well_formed.map("({})".format)))
def test_parse_element_matches_split_reference(atom):
    def parsed(parse):
        try:
            return repr(parse(atom))
        except ValueError:
            return "refused"

    # repr shows the types as well: int or Fraction, and each coefficient's
    assert parsed(parse_element) == parsed(parse_element_by_split)


REFERENCE_PARSER = build_parser()
# values drawn for each converter: valid ones first, then negative, garbled
# and empty ones
VALUES = {
    int: ["3", "0", "-2", "x", "1.5", ""],
    cli._non_negative: ["4", "0", "-1", "x"],
    cli._positive: ["2", "0", "-3", "1/2"],
    cli._element_list: ["1,1", "1/2,-3", "x,(1+2x)", "-1", "-1/2,3", "-x", "1,,2", "3/0", ""],
    cli._param_pair: ["b=2", "b=0", "-b=2", "b", "b=x"],
}
UNKNOWN_NAMES = ["--zz", "--nn", "--cc", "--presets", "--n-", "-n"]


def reference_fields(argv):
    """The fields the argparse reference parses from argv, None if it refuses."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            fields = vars(REFERENCE_PARSER.parse_args(argv))
        except SystemExit:
            return None
    del fields["handler"]
    return fields


def one_pass_fields(argv):
    args = SimpleNamespace(command=None)
    try:
        assert cli._parse(argv, args)
    except ValueError:
        return None
    return vars(args)


class TestParserAgainstArgparse:
    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_same_refusals_and_fields(self, data):
        """Draw argv lists from each command's option names, exact, as
        prefixes (unique or ambiguous) or unknown, with valid, negative,
        garbled or missing values in the "=" and the space form: the one-pass
        parser refuses what the argparse reference refuses, and parses the
        same fields from the rest.  The one exception is a value after a
        space that begins with one "-", which argparse takes for an option:
        the one-pass parser reads it as the "=" form, so it is compared with
        the reference on that form."""
        command = data.draw(st.sampled_from(list(cli._COMMANDS)))
        options = {**cli._COMMANDS[command][2], **cli._GLOBAL_OPTIONS}
        # how often, in tenths, an option is garbled: left out, given an
        # unknown name or its shortest prefix (ambiguous for --p), or given
        # any drawn value; a clean request parses unless it gives both
        # --check and --closed-only
        noise = data.draw(st.sampled_from([0, 1, 3]))
        rewritten = False

        def item(name, values):
            """The tokens of one option, and those the reference reads."""
            nonlocal rewritten
            value = values[0]
            garble = data.draw(st.integers(0, 3)) if data.draw(st.integers(0, 9)) < noise else None
            if garble == 0:
                return [], []
            if garble == 1:
                name = data.draw(st.sampled_from(UNKNOWN_NAMES))
            elif garble == 2:
                name = name[:3]
            elif garble == 3:
                value = data.draw(st.sampled_from(values))
            elif len(name) > 4 and data.draw(st.booleans()):
                # a prefix of four or more characters is unique
                name = name[:data.draw(st.integers(4, len(name)))]
            if value is None:
                return [name], [name]
            if data.draw(st.booleans()):
                return [f"{name}={value}"], [f"{name}={value}"]
            if value[:1] == "-" and value[:2] != "--":
                rewritten = True
                return [name, value], [f"{name}={value}"]
            return [name, value], [name, value]

        def values(name):
            """The values drawn for an option, a valid one first."""
            convert, _, metavar = options[name]
            if convert is None:
                return [None, "1"]
            if metavar.startswith("{"):
                return metavar.strip("{}").split(",") + ["xml", "-x", ""]
            return VALUES[convert] + [None, "--n"]

        before = [item(name, values(name))
                  for name in data.draw(st.lists(st.sampled_from(list(cli._GLOBAL_OPTIONS)),
                                                 max_size=2))]
        required = [item(name, values(name)) for name, option in options.items()
                    if option[1] is cli._REQUIRED]
        # each option given no, one or two more times, so that pairs such as
        # --check --closed-only and repeats such as --param b=2 --param b=0
        # are drawn often
        others = [item(name, values(name)) for name in options
                  for _ in range(data.draw(st.sampled_from([0, 0, 0, 1, 1, 2])))]
        after = data.draw(st.permutations(required + others))
        # no command, an unknown one, or a second command token at the end
        kind = data.draw(st.integers(0, 19)) if noise else 2
        token = "frob" if kind == 1 else command
        commands = [] if kind == 0 else [([token], [token])]
        if kind == 19:
            after.append(([command], [command]))
        argv, reference_argv = [], []
        for ours, theirs in before + commands + after:
            argv += ours
            reference_argv += theirs
        fields = one_pass_fields(argv)
        assert fields == reference_fields(reference_argv)
        if rewritten:
            assert fields == one_pass_fields(reference_argv)


class TestBellSizeFuzz:
    # every request either runs within the enumeration bound or is refused
    # up front, so no example may hang
    @settings(max_examples=60, deadline=timedelta(seconds=10))
    @given(
        st.integers(0, 1500).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
        st.booleans(),
    )
    @example((1200, 1), True)
    @example((1200, 2), True)
    @example((1200, 1200), False)
    @example((120, 30), True)
    # at k = 2 the lower bound that refuses first equals p(n, k): the largest
    # n the price accepts, and the next n
    @example((7670, 2), True)
    @example((7671, 2), True)
    def test_exits_0_or_2(self, nk, symbolic):
        n, k = nk
        xs = [["1", "-2", "1/3", "x"][i % 4] for i in range(n - k + 1)]
        argv = ["bell", "--n", str(n), "--k", str(k)]
        argv += ["--symbolic"] if symbolic else [f"--x={','.join(xs)}"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        # refused exactly when the price of the exact p(n, k) terms is past WORK
        entries = [] if symbolic else list(map(parse_element, xs))
        terms = iterative_partition_count(n, k)
        each, once = cli._bell_work(n, k, entries)
        refused = not price(lambda parts: once + [(terms * c, a, b) for c, a, b in each])
        assert (code == 2) == refused


class TestConvCommand:
    def test_catalan_check(self, capsys):
        code, out = run_cli(capsys, "conv", "--preset", "catalan", "--r", "2", "--n", "6", "--check")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert all(line.endswith("ok") for line in lines)

    def test_fibonacci_shifted(self, capsys):
        code, out = run_cli(
            capsys, "conv", "--preset", "fibonacci", "--r", "2", "--delta", "1", "--n", "4",
            "--format", "json",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert all(rec["matched"] for rec in records)
        assert records[-1] == {
            "kind": "verification", "r": 2, "n": 4, "lhs": "5", "rhs": "5", "matched": True,
        }

    def test_r1_reports_equal_sequence(self, capsys):
        code, out = run_cli(
            capsys, "conv", "--a", "1", "--b", "0", "--c", "1,1", "--r", "1", "--n", "5",
            "--format", "json",
        )
        assert code == 0
        spec, _ = preset("motzkin")
        window = bell_transform(spec, 5)
        for rec in map(json.loads, out.splitlines()):
            assert parse_element(rec["lhs"]) == window.value_at(rec["n"])

    def test_closed_only(self, capsys):
        code, out = run_cli(
            capsys, "conv", "--preset", "catalan", "--r", "2", "--n", "3", "--closed-only",
            "--format", "json",
        )
        assert code == 0
        values = [json.loads(line)["value"] for line in out.splitlines()]
        assert values == ["4", "14", "48"]

    @pytest.mark.parametrize("name", ["fibonacci", "jacobsthal"])
    # m = n - delta*r runs below 0 (zeros), through 0 (the 1) and above; n = 0
    # is the empty row, and (3, 1, 2) asks the kernel for no m >= 0
    @pytest.mark.parametrize("r, delta, n", [(2, 1, 0), (2, 1, 6), (3, 2, 9), (1, 3, 2), (3, 1, 2)])
    def test_closed_only_shifted(self, capsys, name, r, delta, n):
        code, out = run_cli(capsys, "conv", "--preset", name, "--r", str(r), "--delta",
                            str(delta), "--n", str(n), "--closed-only")
        assert code == 0
        c = preset(name)[0].c
        assert out.splitlines() == [
            f"r={r} n={i} {format_element(shifted_convolution_closed(c, r, i, delta))}"
            for i in range(1, n + 1)
        ]

    def test_deep_closed_only_row(self):
        # one kernel call for the whole row; y_n is the Catalan number C_(n+1)
        result = run_subprocess("conv", "--preset", "catalan", "--r", "1", "--n", "600",
                                "--closed-only")
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            f"r=1 n={n} {comb(2 * n + 2, n + 1) // (n + 2)}" for n in range(1, 601)
        ]

    @pytest.mark.parametrize("argv, r, n_max, expected", [
        # y_n is the Catalan number C_(n+1)
        (("--preset", "catalan"), 1, 1000, lambda n: comb(2 * n + 2, n + 1) // (n + 2)),
        # [t^n] (t y)^2 with y_m = F_(m+1)
        (("--preset", "fibonacci", "--delta", "1"), 2, 200,
         lambda n, F=fibonacci_list(201): sum(F[i + 1] * F[n - 1 - i] for i in range(n - 1))),
    ], ids=["catalan", "fibonacci_shifted"])
    def test_deep_check_row(self, argv, r, n_max, expected):
        # one closed call per index, and all of them share one table
        result = run_subprocess("conv", *argv, "--r", str(r), "--n", str(n_max), "--check")
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            f"r={r} n={n} lhs={expected(n)} rhs={expected(n)} ok" for n in range(1, n_max + 1)
        ]

    @pytest.mark.parametrize("argv, spec, r, n_max, delta", [
        (("--preset", "jacobsthal"), preset("jacobsthal")[0], 3, 9, 0),
        (("--a", "1", "--b", "-1", "--c", "1/2,-2/3,3"),
         BellSequenceSpec(1, -1, (Fraction(1, 2), Fraction(-2, 3), 3)), 3, 8, 0),
        (("--preset", "fibonacci"), preset("fibonacci")[0], 2, 10, 1),
    ], ids=["jacobsthal", "rational", "fibonacci_shifted"])
    def test_check_renders_the_library_row(self, capsys, argv, spec, r, n_max, delta):
        code, out = run_cli(capsys, "conv", *argv, "--r", str(r), "--n", str(n_max),
                            "--delta", str(delta), "--format", "json")
        assert code == 0
        assert [json.loads(line) for line in out.splitlines()] == [
            rep.to_record() for rep in check_row(spec, r, n_max, delta)
        ]

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("bellseq.conv.convolution_closed", lambda spec, r, n: 424242)
        code, out = run_cli(capsys, "conv", "--preset", "catalan", "--r", "2", "--n", "3")
        assert code == 1
        assert "MISMATCH" in out


@pytest.mark.parametrize("argv, size", [
    (("seq", "--preset", "catalan", "--n", "1200", "--format", "json"), None),
    (("bell", "--n", "1200", "--k", "2", "--symbolic"), 100),
], ids=["seq_one_line", "bell_100_bytes"])
def test_reader_closing_stdout_early(argv, size):
    # each output is far larger than a pipe holds, so the command is still
    # writing when its reader stops: it ends quietly, with exit 0
    child = subprocess.Popen([sys.executable, "-m", "bellseq", *argv],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = child.stdout.readline() if size is None else child.stdout.read(size)
    child.stdout.close()
    stderr = child.stderr.read()
    assert child.wait(timeout=60) == 0, stderr
    assert stderr == b""
    assert head


class TestDecomposeCommand:
    def test_fibonacci(self, capsys):
        code, out = run_cli(capsys, "decompose", "--coeffs", "1,1", "--init", "0,1", "--n", "8")
        assert code == 0
        assert out.splitlines() == [
            "lambdas: 0,1",
            "sequence: 0,1,1,2,3,5,8,13,21",
            "recurrence: ok",
        ]

    def test_lucas(self, capsys):
        code, out = run_cli(capsys, "decompose", "--coeffs", "1,1", "--init", "2,1", "--n", "5")
        assert code == 0
        assert out.splitlines()[0] == "lambdas: 2,-1"

    def test_geometric_order_one(self, capsys):
        code, out = run_cli(capsys, "decompose", "--coeffs", "3", "--init", "1", "--n", "3")
        assert code == 0
        assert out.splitlines() == ["lambdas: 1", "sequence: 1,3,9,27", "recurrence: ok"]

    def test_polynomial_recurrence_json(self, capsys):
        code, out = run_cli(
            capsys, "decompose", "--coeffs", "1,2x", "--init", "0,1", "--n", "4",
            "--format", "json",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["kind"] == "decomposition"
        assert rec["lambdas"] == ["0", "1"]
        assert rec["values"] == ["0", "1", "1", "1+2x", "1+4x"]
        assert rec["recurrence_ok"] is True


    def test_deep_polynomial_recurrence(self):
        coeffs = (Polynomial((1, 1)), Polynomial((2, -1)), Polynomial((0, 3)))
        init = (1, 0, 2)
        result = run_subprocess("decompose", "--coeffs", "1+x,2-x,3x", "--init", "1,0,2",
                                "--n", "200")
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert lines[1:] == [
            "sequence: " + ",".join(map(format_element, run_recurrence(coeffs, init, 200))),
            "recurrence: ok",
        ]
    def test_deep_cancelling_recurrence(self):
        # the seq request of the same recurrence, as a decomposition
        result = run_subprocess("decompose", "--coeffs", "1,0x-1", "--init", "1,1", "--n", "1500")
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "lambdas: 1,0",
            "sequence: " + ",".join(str(PERIOD_6[n % 6]) for n in range(1501)),
            "recurrence: ok",
        ]


class TestBellCommand:
    def test_symbolic(self, capsys):
        code, out = run_cli(capsys, "bell", "--n", "4", "--k", "2", "--symbolic")
        assert code == 0
        assert out.strip() == "4*x1*x3 + 3*x2^2"

    def test_symbolic_monomial(self, capsys):
        code, out = run_cli(capsys, "bell", "--n", "5", "--k", "5", "--symbolic")
        assert code == 0
        assert out.strip() == "x1^5"

    def test_k_above_n_prints_zero(self, capsys):
        code, out = run_cli(capsys, "bell", "--n", "4", "--k", "6", "--symbolic")
        assert code == 0
        assert out.strip() == "0"

    def test_eval_with_cross_check(self, capsys):
        code, out = run_cli(
            capsys, "bell", "--n", "4", "--k", "2", "--x", "1,1,1", "--cross-check"
        )
        assert code == 0
        assert out.strip() == "7 (cross-check: ok)"

    def test_polynomial_arguments_json(self, capsys):
        code, out = run_cli(
            capsys, "bell", "--n", "3", "--k", "2", "--x", "1,4x", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"kind": "bellpoly", "n": 3, "k": 2, "value": "12x"}

    def test_deep_symbolic(self):
        # pi(n, 1) is searched over n - k + 1 = n positions; its one term's
        # coefficient is binom(n, n) for the class of size n, with no n!
        for n in (1200, 1000000):
            result = run_subprocess("bell", "--n", str(n), "--k", "1", "--symbolic")
            assert result.returncode == 0, result.stderr
            assert result.stdout.strip() == f"x{n}"

    def test_deep_symbolic_large_coefficients(self):
        # p(1500, 1460) = p(40) terms of 41 exponents; the first has 1459 parts
        # of size 1 and one of size 41, so its coefficient is 1500!/(1459! 41!)
        result = run_subprocess("bell", "--n", "1500", "--k", "1460", "--symbolic")
        assert result.returncode == 0, result.stderr
        terms = result.stdout.strip().split(" + ")
        assert len(terms) == iterative_partition_count(1500, 1460) == 37338
        assert len(terms) * 41 == 1_530_858
        assert terms[0] == f"{comb(1500, 41)}*x1^1459*x41"

    @pytest.mark.parametrize(
        "n, k, xs, value",
        [
            # one term, a_1 = n: binom(n, n) 0! = 1, with no n!
            (1000000, 1000000, "1", "1"),
            # a_1 = n - 2 and a_2 = 1: binom(n, n - 2) 2!/2!
            (1999999, 1999998, "1,1", "1999997000001"),
        ],
        ids=["1000000-1000000", "1999999-1999998"],
    )
    def test_top_of_range_needs_no_factorial_of_n(self, n, k, xs, value):
        result = run_subprocess("bell", "--n", str(n), "--k", str(k), "--x", xs)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == value

    @pytest.mark.parametrize(
        "n, k, xs, value",
        [
            # the recurrence descends k = 1200 levels
            (1200, 1200, "1", "1"),
            # B_{n,1} = x_n and B_{n,2}(1, 1, ...) = S(n, 2) = 2^(n-1) - 1: the
            # recurrence reads one nonzero cell of B_{m,0} per m
            (1500, 1, ",".join(map(str, range(1, 1501))), "1500"),
            (2000, 2, ",".join(["1"] * 1999), str(2**1999 - 1)),
        ],
        ids=["1200-1200", "1500-1", "2000-2"],
    )
    def test_deep_cross_check(self, n, k, xs, value):
        result = run_subprocess("bell", "--n", str(n), "--k", str(k), "--x", xs, "--cross-check")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == f"{value} (cross-check: ok)"

    def test_cross_check_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("bellseq.cli.bell_eval_recurrence", lambda n, k, xs: -1)
        code, out = run_cli(
            capsys, "bell", "--n", "4", "--k", "2", "--x", "1,1,1", "--cross-check"
        )
        assert code == 1
        assert "mismatch" in out


class TestJsonRoundTripAndDeterminism:
    def test_preset_matrix_round_trip(self):
        cases = [("fibonacci", None), ("tribonacci", None), ("jacobsthal", None),
                 ("catalan", None), ("motzkin", None), ("fuss_catalan", 2), ("fuss_catalan", 3)]
        for name, b in cases:
            argv = ["seq", "--preset", name, "--n", "10", "--format", "json"]
            if b is not None:
                argv += ["--param", f"b={b}"]
            result = run_subprocess(*argv)
            assert result.returncode == 0
            spec, _ = preset(name, b=b)
            window = bell_transform(spec, 10)
            for rec in map(json.loads, result.stdout.splitlines()):
                value = parse_element(rec["value"])
                assert value == window.value_at(rec["n"])
                assert format_element(value) == rec["value"]

    def test_byte_identical_reruns(self):
        argv = ("conv", "--preset", "jacobsthal", "--r", "2", "--n", "6", "--format", "json")
        first = run_subprocess(*argv)
        second = run_subprocess(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.encode() == second.stdout.encode()
