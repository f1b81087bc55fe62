"""Seeded workloads of bellseq requests.

A workload is an endless stream of rounds.  A round is a fixed list of job
slots (kind, spec class, N, r); the seed fills each slot with a spec, its
coefficients and the smaller parameters, then shuffles the round.  Fixing
the slots keeps the cost of a round nearly the same for every seed, so runs
with different seeds measure one mix; drawing the contents keeps every job
of a run a distinct request, so a cache keyed on the whole request never
hits.  A slot whose draws keep repeating earlier requests first widens the
range of its coefficients, one step every WIDEN_EVERY repeats, and a slot of
a finite family (the presets, the specialized families, `bell --symbolic`)
falls back to a random request of the same arithmetic and command.  A slot
that still finds no new request is dropped from its round and counted in
``Workload.dropped``, which makes the run incorrect.  Drawn requests are
remembered in a Bloom filter of fixed size, so the benchmark's memory does
not grow with the length of a run.

Every job carries a check that compares its output with a value from
``reference``, computed after the timed call returns.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from bellseq import cli, conv, ring, seq

import reference as ref

WORKLOADS = ("series_rational", "series_poly", "oracle_grid", "cli_mix")

RATIONAL_PRESETS = (
    ("catalan", None), ("motzkin", None), ("fibonacci", None), ("tribonacci", None),
    ("fuss_catalan", 2), ("fuss_catalan", 3), ("fuss_catalan", 4),
    ("fuss_catalan", -2), ("fuss_catalan", -3),
)
# family -> (preset, delta) whose oracle the specialized formula must match
SPECIALIZED = {
    "fibonacci": ("fibonacci", 1), "tribonacci": ("tribonacci", 2),
    "jacobsthal": ("jacobsthal", 1), "catalan": ("catalan", 0),
    "motzkin": ("motzkin", 0), "fuss_catalan": (None, 0), "two_term": (None, 0),
}
PRESET_TRIES = 8  # draws from a finite family before a slot falls back
WIDEN_EVERY = 4  # repeated draws per step of a widening coefficient range
ATTEMPTS = 64  # draws before a slot is dropped from its round


@dataclass
class Job:
    key: tuple
    run: Callable[[], object]  # the timed request
    # the output check: the largest value bit length, or None on a mismatch
    check: Callable[[object], "int | None"]
    n: int = 0
    r: int = 0
    ring: str = "rational"
    malformed: bool = False  # a request the CLI must refuse with exit 2
    compositions: int = 0  # compositions the oracle must visit


def value(v) -> tuple:
    """Reference form of a bellseq ring element; anything else is an error."""
    if isinstance(v, ring.Polynomial):
        return ref.elem(v.coefficients)
    if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
        return ref.elem(v)
    raise TypeError(f"not an exact ring element: {v!r}")


def _match(got, want) -> "int | None":
    if [value(v) for v in got] != list(want):
        return None
    return max(map(ref.bits, want), default=0)


def _spec_key(spec) -> tuple:
    return spec.a, spec.b, tuple(ref.text(value(cj)) for cj in spec.c)


def _sequence(spec, n_max: int) -> list:
    return ref.bell_sequence(spec.a, spec.b, [value(cj) for cj in spec.c], n_max)


def _rewritten_defined(spec, n_max: int) -> bool:
    return all(spec.a * n + spec.b * k + 1 for n in range(n_max + 1) for k in range(n + 1))


class SeenKeys:
    """Request keys in a Bloom filter of fixed size (1 MiB, allocated and
    written up front).  A false positive only makes a slot draw again."""

    BITS = 1 << 23
    HASHES = 4

    def __init__(self):
        self.bits = bytearray(self.BITS // 8)

    def _positions(self, key):
        digest = hashlib.blake2b(repr(key).encode(), digest_size=4 * self.HASHES).digest()
        return [int.from_bytes(digest[4 * i:4 * i + 4], "little") % self.BITS for i in range(self.HASHES)]

    def add(self, key) -> bool:
        """Remember the key; False if it (probably) was seen before."""
        positions = self._positions(key)
        if all(self.bits[p >> 3] & (1 << (p & 7)) for p in positions):
            return False
        for p in positions:
            self.bits[p >> 3] |= 1 << (p & 7)
        return True


class Workload:
    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.rng = random.Random(f"{name}:{seed}")
        self.seen = SeenKeys()
        self.dropped = 0  # slots that found no new request in ATTEMPTS draws
        self.late = 0  # jobs drawn after PRESET_TRIES or more repeats
        self.slots = getattr(self, "_" + name)()

    def rounds(self):
        while True:
            jobs = [job for job in map(self._unique, self.slots) if job is not None]
            self.dropped += len(self.slots) - len(jobs)
            self.rng.shuffle(jobs)
            yield jobs

    def _unique(self, slot):
        for attempt in range(ATTEMPTS):
            job = slot(attempt)
            if job is not None and self.seen.add(job.key):
                self.late += attempt >= PRESET_TRIES
                return job
        return None

    # ---- workloads: one round each -------------------------------------

    # Each round is built in tiers of similar cost, so that job_p50_ms and
    # job_p90_ms fall inside a tier rather than on a step between two.

    def _series_rational(self):
        # N 18..30, Fraction scalars: bellpoly's partition enumeration does
        # most of the work.
        r = lambda: self.rng.randint(2, 6)
        return [
            # about 40-75 ms
            lambda t: self.decomposition(self.recurrence(2, "rational", t), 18),
            lambda t: self.window(self.spec("rational", t), 18),
            lambda t: self.rewritten(self.spec("rational", t), 20),
            lambda t: self.window(self.spec("preset", t), 22),
            lambda t: self.closed_row(self.spec("rational", t), r(), 20),
            # about 180-220 ms: holds the median
            lambda t: self.window(self.spec("preset", t), 26),
            lambda t: self.rewritten(self.spec("preset", t), 26),
            lambda t: self.closed_row(self.spec("preset", t), r(), 26),
            lambda t: self.window(self.spec("rational", t), 24),
            lambda t: self.window(self.spec("rational", t), 24),
            lambda t: self.closed_row(self.spec("rational", t), r(), 24),
            lambda t: self.decomposition(self.recurrence(3, "rational", t), 24),
            # about 280-340 ms
            lambda t: self.closed_row(self.spec("preset", t), r(), 28),
            lambda t: self.rewritten(self.spec("rational", t), 26),
            lambda t: self.decomposition(self.recurrence(4, "rational", t), 26),
            # about 530 ms: holds the 90th percentile
            lambda t: self.window(self.spec("preset", t), 30),
            lambda t: self.rewritten(self.spec("preset", t), 30),
            lambda t: self.window(self.spec("integer", t), 30),
        ]

    def _series_poly(self):
        # N 14..20, Polynomial entries: Polynomial products do the work.
        r = lambda: self.rng.randint(2, 4)
        return [
            # about 30-150 ms
            lambda t: self.oracle_row(self.spec("jacobsthal", t), 3, 10),
            lambda t: self.oracle_row(self.poly_spec(1, 1, attempt=t), 4, 8),
            lambda t: self.closed_row(self.spec("jacobsthal", t), r(), 16),
            lambda t: self.closed_row(self.poly_spec(0, 2, attempt=t), r(), 14),
            # about 180-210 ms: holds the median
            lambda t: self.rewritten(self.spec("jacobsthal", t), 18),
            lambda t: self.decomposition(self.recurrence(3, "poly", t), 14),
            lambda t: self.rewritten(self.poly_spec(1, 1, attempt=t), 15),
            lambda t: self.window(self.poly_spec(1, 2, attempt=t), 14),
            lambda t: self.decomposition(self.recurrence(2, "poly", t), 15),
            lambda t: self.window(self.poly_spec(0, 2, attempt=t), 16),
            # about 350 ms: holds the 90th percentile
            lambda t: self.window(self.spec("jacobsthal", t), 20),
            lambda t: self.window(self.spec("jacobsthal", t), 20),
        ]

    def _oracle_grid(self):
        # n <= 13, r 1..8: the composition oracle does the work.  Integer
        # specs carry the large-r cells, whose cost would otherwise swing
        # with the size of random Fractions.
        rng = self.rng
        cheap = [
            lambda t: self.oracle_row(self.spec("shiftable", PRESET_TRIES + t), rng.randint(3, 5),
                                      rng.randint(10, 13), delta=rng.randint(1, 2)),
        ]
        for family in SPECIALIZED:
            # Polynomial and Fraction values: keep these cells small
            small = family in ("jacobsthal", "two_term")
            cheap.append(lambda t, f=family, s=small: self.specialized_row(
                f, rng.randint(2, 3 if s else 6), rng.randint(6, 8 if s else 13), t))
        # about 10-15 ms, mostly the window: holds the median
        median_tier = [lambda t, r=r, n=n: self.oracle_row(self.spec("rational", t), r, n)
                       for r in (1, 2, 3) for n in (12, 13)]
        median_tier += [lambda t: self.oracle_row(self.spec("rational", t), 4, 11)] * 2
        middle = [
            lambda t: self.oracle_row(self.spec("shiftable", t), 7, 13, delta=2),
            lambda t: self.oracle_row(self.spec("rational", t), 4, 13),
            lambda t: self.oracle_row(self.spec("preset", t), 7, 12),
            lambda t: self.oracle_row(self.spec("rational", t), 5, 12),
            lambda t: self.oracle_row(self.spec("preset", t), 7, 13),
            lambda t: self.oracle_row(self.spec("shiftable", t), 8, 13, delta=1),
            lambda t: self.oracle_row(self.spec("preset", t), 8, 12),
        ]
        # about 90 ms: holds the 90th percentile
        heavy = [lambda t: self.oracle_row(self.spec("preset", t), 8, 13)] * 5
        return cheap + median_tier + middle + heavy

    def _cli_mix(self):
        # Small in-process requests: parsing, rendering and output dominate.
        # One request in ten is malformed; two of those eight are the
        # defect classes `--c 1/0` and `--c 1,,2`.  The finite families
        # (presets, `bell --symbolic`) have few slots, so that a run uses
        # up their requests late if at all.
        slots = (
            [self.cli_seq_preset] * 4 + [self.cli_seq_spec] * 14
            + [lambda t: self.cli_conv(t, closed_only=True)] * 12
            + [lambda t: self.cli_conv(t, closed_only=False)] * 12
            + [self.cli_decompose] * 12
            + [lambda t: self.cli_bell(t, symbolic=True)] * 2
            + [lambda t: self.cli_bell(t, cross_check=False)] * 8
            + [lambda t: self.cli_bell(t, cross_check=True)] * 8
            + [self.cli_zero_denominator, self.cli_empty_atom]
            + [self.cli_refused] * 6
        )
        return slots

    # ---- specs ---------------------------------------------------------

    # The seed draws values, never the amount of work: every class has a
    # fixed number of entries and fixed degrees, and (a, b) never mixes
    # signs, so no binomial of the sum vanishes for some draws and not for
    # others.  The attempt (earlier draws of the slot that repeated a
    # request) only widens the range the values come from.

    def _nonzero(self, high=3):
        return self.rng.choice([m for m in range(-high, high + 1) if m])

    def _fraction(self, high=3):
        """p/q with |p| <= high and q in {2, 3}, never an integer."""
        while True:
            q = Fraction(self._nonzero(high), self.rng.randint(2, 3))
            if q.denominator > 1:
                return q

    def _poly(self, degree, high=3):
        return ring.Polynomial([self._nonzero(high) for _ in range(degree + 1)])

    def _fuss_b(self, attempt):
        """A fuss_catalan parameter, |b| >= 2 so that b*n + r never vanishes."""
        high = 5 + attempt
        return self.rng.choice([m for m in range(-high, high + 1) if abs(m) >= 2])

    def spec(self, klass: str, attempt: int = 0):
        """A BellSequenceSpec of one class.  Preset slots fall back to small
        integer specs, the arithmetic of the presets, after PRESET_TRIES
        draws that repeat an earlier request."""
        rng = self.rng
        wide = attempt // WIDEN_EVERY
        if klass == "preset" and attempt < PRESET_TRIES:
            return seq.preset(*rng.choice(RATIONAL_PRESETS))[0]
        if klass == "shiftable" and attempt < PRESET_TRIES // 2:
            return seq.preset(rng.choice(("fibonacci", "tribonacci")))[0]
        if klass == "jacobsthal":
            if attempt == 0:
                return seq.preset("jacobsthal")[0]
            high = 3 + attempt
            return seq.BellSequenceSpec(0, 1, (self._poly(0, high), ring.Polynomial((0, self._nonzero(high)))))
        if klass == "rational":
            while True:
                a, b = rng.randint(-2, 3), rng.randint(-2, 3)
                if (a or b) and a * b >= 0:
                    return seq.BellSequenceSpec(a, b, tuple(self._fraction(3 + wide) for _ in range(3)))
        a, b = (0, 1) if klass == "shiftable" else rng.choice(((1, 0), (0, 1), (1, 1)))
        high = 2 + max(0, attempt - PRESET_TRIES) // WIDEN_EVERY
        return seq.BellSequenceSpec(a, b, tuple(self._nonzero(high) for _ in range(rng.randint(2, 3))))

    def poly_spec(self, *degrees, attempt=0):
        """Polynomial entries of the given degrees, every coefficient nonzero."""
        a, b = self.rng.choice(((1, 0), (0, 1), (1, 1)))
        high = 3 + attempt // WIDEN_EVERY
        return seq.BellSequenceSpec(a, b, tuple(self._poly(d, high) for d in degrees))

    def recurrence(self, order: int, klass: str, attempt: int = 0):
        high = 3 + attempt // WIDEN_EVERY
        if klass == "poly":
            coeffs = tuple(self._poly(1, high) for _ in range(order))
        else:
            coeffs = tuple(self._fraction(high) for _ in range(order))
        init = tuple(self.rng.randint(-2, high) for _ in range(order))
        return seq.RecurrenceSpec(coeffs, init)

    # ---- library jobs --------------------------------------------------

    def window(self, spec, N):
        return Job(("window", _spec_key(spec), N),
                   lambda: seq.bell_transform(spec, N).values,
                   lambda out: _match(out, _sequence(spec, N)), n=N, ring=spec.ring)

    def rewritten(self, spec, N):
        if not _rewritten_defined(spec, N):
            return None
        return Job(("rewritten", _spec_key(spec), N),
                   lambda: seq.bell_transform_rewritten(spec, N).values,
                   lambda out: _match(out, _sequence(spec, N)), n=N, ring=spec.ring)

    def closed_row(self, spec, r, N):
        """``conv --closed-only``: the closed form at n = 1..N."""
        return Job(("closed", _spec_key(spec), r, N),
                   lambda: [conv.convolution_closed(spec, r, n) for n in range(1, N + 1)],
                   lambda out: _match(out, ref.convolution(_sequence(spec, N), r, N)[1:]),
                   n=N, r=r, ring=spec.ring)

    def decomposition(self, rec, N):
        def run():
            lambdas, window = seq.decompose(rec, N)
            return list(lambdas) + list(window.values)

        def check(out):
            coeffs = [value(v) for v in rec.coefficients]
            init = [value(v) for v in rec.initial]
            return _match(out, ref.decomposition_lambdas(coeffs, init) + ref.recurrence(coeffs, init, N))

        key = ("decompose", tuple(ref.text(value(v)) for v in rec.coefficients + rec.initial), N)
        is_poly = any(isinstance(v, ring.Polynomial) for v in rec.coefficients)
        return Job(key, run, check, n=N, ring="polynomial" if is_poly else "rational")

    def oracle_row(self, spec, r, n, delta=0, family=None, **params):
        """One ``conv --check`` row: the composition oracle at (r, n, delta)
        against the closed form the CLI would use, or a specialized one."""
        def run():
            window = seq.bell_transform(spec, n)
            lhs = conv.convolution_oracle(window, r, n, delta)
            if family is not None:
                rhs = conv.convolution_closed_specialized(family, r, n, **params)
            elif delta:
                rhs = conv.shifted_convolution_closed(spec.c, r, n, delta)
            else:
                rhs = conv.convolution_closed(spec, r, n)
            return lhs, rhs

        def check(out):
            want = ref.convolution(_sequence(spec, n), r, n, delta)[n]
            return _match(out, [want, want])

        key = ("check", _spec_key(spec), r, n, delta, family, tuple(sorted(params.items())))
        return Job(key, run, check, n=n, r=r, ring=spec.ring, compositions=comb(n + r - 1, r - 1))

    def specialized_row(self, family, r, n, attempt=0):
        """A ``conv --check`` row against the family's specialized formula.
        A family with no parameter has few (r, n) cells; once they repeat,
        the slot falls back to a plain oracle row of a random spec of the
        family's shape and arithmetic."""
        preset_name, delta = SPECIALIZED[family]
        params = {}
        if family == "fuss_catalan":
            params["b"] = self._fuss_b(attempt)
            spec = seq.preset("fuss_catalan", params["b"])[0]
        elif family == "two_term":
            high = 3 + attempt // WIDEN_EVERY
            params["c1"], params["c2"] = self._fraction(high), self._fraction(high)
            spec = seq.BellSequenceSpec(1, 0, (params["c1"], params["c2"]))
        elif attempt < PRESET_TRIES:
            spec = seq.preset(preset_name)[0]
        else:
            klass = {"fibonacci": "shiftable", "tribonacci": "shiftable",
                     "jacobsthal": "jacobsthal"}.get(family, "preset")
            return self.oracle_row(self.spec(klass, attempt), r, n, delta)
        return self.oracle_row(spec, r, n, delta, family, **params)

    # ---- CLI jobs --------------------------------------------------------

    def _cli(self, argv, records=None):
        """A ``bellseq.cli.main`` request in a random output format.

        records() gives the expected (record, plain text, values) triples of
        a well-formed request; None marks a request that must exit 2.  A
        traceback on stderr fails either kind."""
        fmt = self.rng.choice(("plain", "csv", "json"))
        if self.rng.random() < 0.5:
            argv = ["--format", fmt] + argv
        else:
            argv = argv + ["--format", fmt]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        def check(result):
            code, out, err = result
            if "Traceback" in err:
                return None
            if records is None:
                return 0 if code == 2 else None
            expected = records()
            if code != 0 or not _rendered_as(out, fmt, expected):
                return None
            return max((ref.bits(v) for _, _, values in expected for v in values), default=0)

        return Job(("cli",) + tuple(argv), run, check, malformed=records is None)

    @staticmethod
    def _c_flag(spec):
        return "--c=" + ",".join(ref.text(value(cj)) for cj in spec.c)

    def cli_seq_preset(self, attempt):
        if attempt < PRESET_TRIES:
            name, b = self.rng.choice(RATIONAL_PRESETS + (("jacobsthal", None),))
        else:
            name, b = "fuss_catalan", self._fuss_b(attempt)
        N = self.rng.randint(4, 12)
        apply_offset = self.rng.random() < 0.3
        argv = ["seq", f"--preset={name}", f"--n={N}"] + ([f"--param=b={b}"] if b else [])
        spec, offset = seq.preset(name, b)
        shift = offset if apply_offset else 0

        def records():
            y = _sequence(spec, N + max(0, -shift))
            return [_sequence_record(i, y[i - shift] if i >= shift else ()) for i in range(N + 1)]

        job = self._cli(argv + (["--apply-offset"] if apply_offset else []), records)
        job.n, job.ring = N, spec.ring
        return job

    def cli_seq_spec(self, attempt):
        if self.rng.random() < 0.3:
            spec = self.poly_spec(1, 1, attempt=attempt)
        else:
            spec = self.spec("rational", attempt)
        N = self.rng.randint(4, 10)
        job = self._cli(["seq", f"--a={spec.a}", f"--b={spec.b}", self._c_flag(spec), f"--n={N}"],
                        lambda: [_sequence_record(i, v) for i, v in enumerate(_sequence(spec, N))])
        job.n, job.ring = N, spec.ring
        return job

    def cli_conv(self, attempt, closed_only):
        rng = self.rng
        if rng.random() < 0.5:
            name = rng.choice(("catalan", "motzkin", "fibonacci", "tribonacci"))
            spec = seq.preset(name)[0]
            argv = ["conv", f"--preset={name}"]
        else:
            if rng.random() < 0.3:
                spec = self.spec("shiftable", PRESET_TRIES + attempt)
            else:
                spec = self.spec("rational", attempt)
            argv = ["conv", f"--a={spec.a}", f"--b={spec.b}", self._c_flag(spec)]
        r, N = rng.randint(1, 3), rng.randint(3, 8 if closed_only else 7)
        delta = rng.randint(1, 2) if (spec.a, spec.b) == (0, 1) and rng.random() < 0.5 else 0
        argv += [f"--r={r}", f"--n={N}"] + ([f"--delta={delta}"] if delta else [])
        argv += ["--closed-only"] if closed_only else rng.choice(([], ["--check"]))

        def records():
            conv_values = ref.convolution(_sequence(spec, N), r, N, delta)
            out = []
            for n in range(1, N + 1):
                t = ref.text(conv_values[n])
                if closed_only:
                    out.append(({"kind": "convolution", "r": r, "n": n, "value": t},
                                f"r={r} n={n} {t}", [conv_values[n]]))
                else:
                    out.append(({"kind": "verification", "r": r, "n": n, "lhs": t, "rhs": t, "matched": True},
                                f"r={r} n={n} lhs={t} rhs={t} ok", [conv_values[n]]))
            return out

        job = self._cli(argv, records)
        job.n, job.r, job.ring = N, r, spec.ring
        if not closed_only:
            job.compositions = sum(comb(n + r - 1, r - 1) for n in range(1, N + 1))
        return job

    def cli_decompose(self, attempt):
        rec = self.recurrence(self.rng.randint(2, 3), "poly" if self.rng.random() < 0.2 else "rational", attempt)
        N = self.rng.randint(len(rec.coefficients), 10)
        coeffs = [value(v) for v in rec.coefficients]
        init = [value(v) for v in rec.initial]

        def records():
            lambdas = ref.decomposition_lambdas(coeffs, init)
            values = ref.recurrence(coeffs, init, N)
            record = {"kind": "decomposition", "lambdas": [ref.text(v) for v in lambdas],
                      "values": [ref.text(v) for v in values], "recurrence_ok": True}
            plain = "\n".join(["lambdas: " + ",".join(record["lambdas"]),
                               "sequence: " + ",".join(record["values"]), "recurrence: ok"])
            return [(record, plain, lambdas + values)]

        job = self._cli(["decompose", "--coeffs=" + ",".join(map(ref.text, coeffs)),
                         "--init=" + ",".join(map(ref.text, init)), f"--n={N}"], records)
        job.n = N
        job.ring = "polynomial" if any(len(v) > 1 for v in coeffs) else "rational"
        return job

    def cli_bell(self, attempt, symbolic=False, cross_check=False):
        """``bell --symbolic``, which has 462 distinct requests, falls back
        to ``bell --x`` after PRESET_TRIES repeats."""
        rng = self.rng
        symbolic &= attempt < PRESET_TRIES
        n = rng.randint(2, 12 if symbolic else 8)
        k = rng.randint(1, n)
        if symbolic:
            def records():
                t = ref.bell_symbolic_text(n, k)
                return [({"kind": "bellpoly", "n": n, "k": k, "terms": t}, t, [])]

            job = self._cli(["bell", f"--n={n}", f"--k={k}", "--symbolic"], records)
            job.n = n
            return job
        ones = rng.random() < 0.3
        high = 3 + attempt // WIDEN_EVERY
        xs = [ref.ONE if ones else ref.elem(rng.randint(-high, high)) for _ in range(n - k + 1 + rng.randint(0, 1))]

        def records():
            v = ref.bell_value(n, k, xs)
            record = {"kind": "bellpoly", "n": n, "k": k, "value": ref.text(v)}
            plain = record["value"]
            if cross_check:
                record["cross_check"] = "ok"
                plain += " (cross-check: ok)"
            return [(record, plain, [v])]

        argv = ["bell", f"--n={n}", f"--k={k}", "--x=" + ",".join(map(ref.text, xs))]
        job = self._cli(argv + (["--cross-check"] if cross_check else []), records)
        job.n = n
        return job

    # ---- malformed CLI requests ------------------------------------------

    def cli_zero_denominator(self, attempt):
        """ROADMAP item 4: `--c p/0` escapes as a ZeroDivisionError today."""
        bad = f"{self.rng.randint(1, 9 + attempt)}/0"
        c = ",".join(self.rng.sample([bad, "1", "2"], 3))
        n = self.rng.randint(2, 40)
        if self.rng.random() < 0.5:
            return self._cli(["seq", "--a=1", "--b=0", f"--c={c}", f"--n={n}"])
        return self._cli(["conv", "--a=0", "--b=1", f"--c={c}", "--r=2", f"--n={n}"])

    def cli_empty_atom(self, attempt):
        """ROADMAP item 4: `--c 1,,2` silently drops the empty atom today.
        Kept off `conv --check`, whose oracle would otherwise run on it."""
        high = 5 + attempt // WIDEN_EVERY
        c = f"{self.rng.randint(1, high)},,{self.rng.randint(1, high)}"
        n = self.rng.randint(2, 12)
        if self.rng.random() < 0.5:
            return self._cli(["seq", "--a=1", "--b=0", f"--c={c}", f"--n={n}"])
        return self._cli(["conv", "--a=0", "--b=1", f"--c={c}", "--r=2", f"--n={n}", "--closed-only"])

    def cli_refused(self, attempt):
        """Malformed requests the CLI already refuses with exit 2, before any
        work that depends on n."""
        n = self.rng.randint(4, 60 + 16 * attempt)
        return self._cli(self.rng.choice((
            ["conv", "--preset=catalan", "--r=0", f"--n={n}"],
            ["seq", "--preset=lucas", f"--n={n}"],
            ["seq", "--preset=catalan", f"--n=-{n}"],
            ["conv", "--a=1", "--b=0", "--c=1,1", "--r=2", f"--n={n}", "--delta=1"],
            ["decompose", "--coeffs=1,1", "--init=0", f"--n={n}"],
            ["bell", f"--n={n}", "--k=2", "--x=1,2"],
            ["seq", "--a=0", "--b=0", "--c=1", f"--n={n}"],
            ["conv", "--preset=catalan", f"--n={n}", "--r=2", "--closed-only", "--check"],
            ["bell", f"--n={n}", "--k=2", "--symbolic", "--x=1,1,1"],
            ["seq", "--preset=catalan", "--a=1", f"--n={n}"],
            ["seq", "--a=1", "--b=0", "--c=1/x", f"--n={n}"],
        )))


def _sequence_record(n, v):
    t = ref.text(v)
    return {"kind": "sequence", "n": n, "value": t}, t, [v]


_CSV_FIELDS = {
    "sequence": ("n", "value"),
    "convolution": ("r", "n", "value"),
    "verification": ("r", "n", "lhs", "rhs", "matched"),
    "decomposition": ("lambdas", "values", "recurrence_ok"),
    "bellpoly": ("n", "k", "terms", "value", "cross_check"),
}


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return ";".join(v)
    return str(v)


def _rendered_as(out: str, fmt: str, expected) -> bool:
    """Whether the CLI's stdout is the documented rendering of the records."""
    lines = out.splitlines()
    if fmt == "json":
        try:
            return [json.loads(line) for line in lines] == [rec for rec, _, _ in expected]
        except json.JSONDecodeError:
            return False
    if fmt == "plain":
        return out == "".join(plain + "\n" for _, plain, _ in expected)
    fields = _CSV_FIELDS[expected[0][0]["kind"]]
    want = [",".join(("kind",) + fields)]
    want += [",".join([rec["kind"]] + [_csv_cell(rec.get(f, "")) for f in fields]) for rec, _, _ in expected]
    return lines == want
