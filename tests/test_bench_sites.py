"""Every name the benchmark's tracing wrappers patch must stay an attribute
of its module, or ``bench/run.py --trace 1`` breaks."""

import importlib.util
from pathlib import Path

from bellseq.conv import convolution_closed
from bellseq.seq import preset

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_sites_resolve():
    tracing = _load_tracing()
    assert tracing.installed() is False
    with tracing.Tracer() as tracer:
        assert tracing.installed() is True
        # the closed form weights its table by binomials, while a rational
        # window is computed without any
        convolution_closed(preset("catalan")[0], 1, 4)
    assert tracing.installed() is False
    assert tracer.calls["ring.binomial"] > 0
