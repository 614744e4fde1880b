"""Every span target of the benchmark's tracer names a function of rsvdreg.

``perfbench/tracing.py`` patches its ``TARGETS`` by name, so a traced name
that is deleted or renamed crashes every traced benchmark run.  This checks
the names without running the benchmark.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracing import TARGETS  # noqa: E402


@pytest.mark.parametrize("span, module, attr", TARGETS, ids=[t[0] for t in TARGETS])
def test_trace_target_resolves(span, module, attr):
    # a function is wrapped where it is bound, a method on its own class
    home = importlib.import_module(f"rsvdreg.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(home, cls_name))[meth])
    else:
        assert callable(getattr(home, attr))
