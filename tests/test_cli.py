import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from bellseq import cli
from bellseq.conv import shifted_convolution_closed
from bellseq.ring import Polynomial, format_element, parse_element
from bellseq.seq import bell_transform, preset

from _oracles import fibonacci_list, iterative_partition_count


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
            ("decompose", "--coeffs", "1,1", "--init", "1/0,1", "--n", "3"),
            ("bell", "--n", "4", "--k", "2", "--x", "1,,2"),
            ("decompose", "--coeffs", "1,1,1", "--init", "0,1,2", "--n", "1"),
            ("seq", "--preset", "catalan", "--param", "b=2", "--n", "3"),
            ("conv", "--preset", "catalan", "--r", "30", "--n", "60"),
            ("conv", "--preset", "catalan", "--r", "100000", "--n", "1"),
            ("bell", "--n", "120", "--k", "30", "--symbolic"),
            ("bell", "--n", "4", "--k", "2", "--symbolic", "--cross-check"),
        ],
    )
    def test_exit_code_2(self, argv):
        result = run_subprocess(*argv)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert sum("error:" in line for line in result.stderr.splitlines()) == 1


digits = st.integers(0, 9).map(str)
numbers = st.integers(0, 99).map(str)
# a run of digits, "/", "x", "^" with one digit, signs and parentheses; the
# empty run is the empty atom
garbled_atoms = st.lists(
    st.one_of(digits, st.sampled_from(list("/x+-()")), digits.map("^".__add__)), max_size=6
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
    def test_exits_0_or_2(self, nk, symbolic):
        n, k = nk
        xs = ",".join(["1", "-2", "1/3", "x"][i % 4] for i in range(n - k + 1))
        argv = ["bell", "--n", str(n), "--k", str(k)]
        argv += ["--symbolic"] if symbolic else [f"--x={xs}"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        refused = iterative_partition_count(n, k) * (n - k + 1) > cli.MAX_BELL_EXPONENTS
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
    # is the empty row
    @pytest.mark.parametrize("r, delta, n", [(2, 1, 0), (2, 1, 6), (3, 2, 9), (1, 3, 2)])
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
        # pi(1200, 1) is searched over n - k + 1 = 1200 positions
        result = run_subprocess("bell", "--n", "1200", "--k", "1", "--symbolic")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "x1200"

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
