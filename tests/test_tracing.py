"""The benchmark's span tracer wraps landau functions by name.

perfbench/tracing.py looks every `(module, attr)` of its TARGETS up when a
Tracer is built, so a function deleted or renamed in src breaks
`perfbench/run.py --trace 1` only then; these tests name it first.  The
tracer module is loaded from its file without writing bytecode next to it.
"""

import importlib
from pathlib import Path

from conftest import load_perfbench
from landau import cli

QUICK = Path(__file__).resolve().parent.parent / "configs" / "quick.json"


def test_trace_targets_resolve():
    targets = load_perfbench("tracing").TARGETS
    missing = [f"{module}.{attr}" for module, attr, *_ in targets
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert len(targets) >= 20
    assert missing == []


def test_tracer_runs_every_command(tmp_path):
    # every counter hook reads the result of the function it wraps, so a
    # field the hook reads and src no longer has fails here; cli.io.bytes
    # sums the bytes of every file the writers leave.  Every span name but
    # fields.superlevel records a span: a function the pipeline stops
    # calling would otherwise zero its per-layer metric without a failure.
    # fields.superlevel wraps superlevel_radius and counting_measure, which
    # no command calls; the scan the commands run is not wrapped.
    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for command in ("spectrum", "verify", "weights", "toeplitz",
                        "identities"):
            assert cli.main([command, "--config", str(QUICK),
                             "--out", str(tmp_path / command)]) == 0
    finally:
        tracer.uninstall()
    counts = tracer.counts[None]
    written = sum(path.stat().st_size for path in tmp_path.rglob("*")
                  if path.is_file())
    assert set(counts) == {"cli.io.bytes", "spectra.channels",
                           "spectra.eigenpairs", "spectra.vector_bytes",
                           "spectra.cluster_size", "projections.basis_dim"}
    assert counts["cli.io.bytes"] == written
    assert all(value > 0 for value in counts.values())
    recorded = {span[0] for span in tracer.spans}
    expected = {name for _, _, name, _ in tracing.TARGETS}
    assert expected - recorded <= {"fields.superlevel"}
