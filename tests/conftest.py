"""Puts the checkout's ``src`` on PYTHONPATH, so that the ``python -m bellseq``
child processes some tests start import the package from this checkout,
installed or not.  pytest's own ``pythonpath`` setting reaches only its own
process."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
