"""The benchmark's span tracer wraps landau functions by name.

perfbench/tracing.py looks every `(module, attr)` of its TARGETS up when a
Tracer is built, so a function deleted or renamed in src breaks
`perfbench/run.py --trace 1` only then; this test names it first.  The
tracer module is loaded from its file without writing bytecode next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_trace_targets_resolve():
    targets = load_tracing().TARGETS
    missing = [f"{module}.{attr}" for module, attr, *_ in targets
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert len(targets) >= 20
    assert missing == []
