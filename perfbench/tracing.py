"""Span tracing of the landau layers from outside the package.

The package modules import names directly (`from .spectra import
solve_channels`), so a function is patched at every place it is looked up:
each loaded `landau.*` module global bound to the original function object is
replaced by a wrapper while the tracer is installed, and restored afterwards.
`src/` is never edited.

A span is (name, start, end, parent, op): `parent` indexes the enclosing span
(-1 for a root) and `op` is the operation id.  Spans and counters stay in
memory until `dump` writes them at the end of the run.

All wrapped functions run on the thread that called `landau.cli.main`.  The
per-channel solves that `spectra.solve_channels` hands to its thread pool
(`solve_channel`, `channel_eigs`) are deliberately left unwrapped: their
spans would overlap in time and break self-time accounting.
"""

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict


def _solve_counts(args, kwargs, result):
    return {"spectra.channels": len(args[0]),
            "spectra.eigenpairs": sum(r.energies.size for r in result)}


def _vector_counts(args, kwargs, result):
    # computed, not measured: eigenvectors kept x mesh size x 8 bytes
    return {"spectra.vector_bytes":
            len(result.vectors) * result.provenance["n"] * 8}


def _cluster_counts(args, kwargs, result):
    return {"spectra.cluster_size": len(result)}


def _basis_counts(args, kwargs, result):
    return {"projections.basis_dim": len(result)}


def _written_bytes(args, kwargs, result):
    return {"cli.io.bytes": os.path.getsize(args[0])}


# (module, function, span name, counter hook)
TARGETS = (
    ("landau.cli", "main", "cli.main", None),
    ("landau.cli", "load_config", "cli.load_config", None),
    ("landau._io", "write_csv", "cli.io", _written_bytes),
    ("landau._io", "write_json", "cli.io", _written_bytes),
    ("landau._io", "ensure_dir", "cli.io", None),
    ("landau.fields", "build_gauge", "fields.build_gauge", None),
    ("landau.fields", "superlevel_radius", "fields.superlevel", None),
    ("landau.fields", "counting_measure", "fields.superlevel", None),
    ("landau.fields", "check_regularity", "fields.check_regularity", None),
    ("landau.operator", "build_channel", "operator.build_channel", None),
    ("landau.operator", "zero_mode", "operator.zero_mode", None),
    ("landau.operator", "ladder_apply", "operator.ladder_apply", None),
    ("landau.spectra", "solve_channels", "spectra.solve_channels",
     _solve_counts),
    ("landau.spectra", "assemble_spectrum", "spectra.assemble_spectrum",
     _vector_counts),
    ("landau.spectra", "cluster_states", "spectra.cluster_states",
     _cluster_counts),
    ("landau.spectra", "counting_function", "spectra.counting_function", None),
    ("landau.spectra", "boundary_sensitivity", "spectra.boundary_sensitivity",
     None),
    ("landau.asymptotics", "compute_cluster", "asymptotics.compute_cluster",
     None),
    ("landau.asymptotics", "boundary_sensitivity",
     "asymptotics.boundary_sensitivity", None),
    ("landau.asymptotics", "cluster_asymptotics_report",
     "asymptotics.cluster_asymptotics_report", None),
    ("landau.asymptotics", "upper_estimate_check",
     "asymptotics.upper_estimate_check", None),
    ("landau.projections", "zero_mode_basis", "projections.zero_mode_basis",
     _basis_counts),
    ("landau.projections", "build_T0", "projections.build_T0", None),
    ("landau.projections", "build_Tq", "projections.build_Tq", None),
    ("landau.projections", "gram_identity_residual",
     "projections.gram_identity_residual", None),
    ("landau.projections", "weighted_identity_residual",
     "projections.weighted_identity_residual", None),
)


class Tracer:
    """Records spans and counters of the wrapped landau functions."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)  # op id -> counter name -> total
        self.op = None
        self._stack = []
        self._wrappers = {}  # id(original) -> (original, wrapper)
        self._patched = []
        for module, attr, name, hook in TARGETS:
            original = getattr(sys.modules[module], attr)
            self._wrappers[id(original)] = (original,
                                            self._wrap(original, name, hook))

    def _wrap(self, fn, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if hook is not None:
                counts[self.op].update(hook(args, kwargs, result))
            return result

        return traced

    def install(self):
        for module in [m for n, m in sys.modules.items()
                       if n == "landau" or n.startswith("landau.")]:
            for key, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, key, entry[1])
                    self._patched.append((module, key, value))

    def uninstall(self):
        for module, key, value in self._patched:
            setattr(module, key, value)
        self._patched.clear()

    def self_times(self):
        """Per span: duration minus the part of it its children cover."""
        children = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        out = []
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            covered, reach = 0.0, start
            for a, b in sorted(children.get(i, ())):
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            out.append(end - start - covered)
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans,
                       "counts": {str(k): v for k, v in self.counts.items()}},
                      fh)
