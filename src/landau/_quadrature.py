"""Vectorized adaptive Gauss-Kronrod (G7/K15) panel quadrature.

All gauge integrals go through `panel_integrals`, which refines panels by
bisection until the K15-G7 error estimate meets the absolute tolerance
_TOL, allocated proportionally to panel width.
"""

import numpy as np

from .errors import QuadratureFailure

# K15 abscissae on [-1, 1] (ascending) and weights; the 7 Gauss points are
# the odd-index entries.
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_GAUSS_IDX = np.arange(1, 15, 2)
_WG7 = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])

_EPS = np.finfo(float).eps

# absolute tolerance over all panels together, and bisection levels allowed;
# gauge errors feed quadratically into eigenvalues, hence the tight tolerance
_TOL = 1e-10
_MAX_DEPTH = 48

# panels refined together: 512 panels of 15 nodes are 60 KB of doubles, so
# even after one bisection of every panel each temporary stays below glibc's
# 128 KB mmap threshold and is reused from the heap instead of being mapped
# and faulted in again
_BLOCK = 512


def panel_integrals(f, edges):
    """Integrate each integrand of `f` over each panel [edges[i], edges[i+1]].

    `f` maps an ndarray of nodes to a sequence of arrays, one per
    integrand, each evaluated elementwise; returns one row of panel values
    per integrand.  `f` runs once on the input panels for all integrands,
    then each integrand bisects its own panels (dropping the other outputs)
    until the local error estimate is below `_TOL * width / total_width`
    (plus a roundoff floor), so a row is bit for bit its integrand's alone.
    Raises QuadratureFailure on a non-finite value of `f`, which no
    bisection can resolve, or if the recursion depth is exhausted.  Panels
    are refined in blocks of _BLOCK, which can move a value by an ulp or
    two: the BLAS sums the last (rows mod 4) rows of a product apart.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("edges must be a 1-d array with at least two entries")
    if np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing")

    span = edges[-1] - edges[0]
    blocks = []
    for start in range(0, edges.size - 1, _BLOCK):
        block = edges[start:start + _BLOCK + 1]
        lo, hi = block[:-1], block[1:]
        values = f(_nodes(0.5 * (lo + hi), 0.5 * (hi - lo)))
        blocks.append([_refine(lambda t, k=k: f(t)[k], lo, hi, span, fv)
                       for k, fv in enumerate(values)])
    return np.concatenate(blocks, axis=1)


def _nodes(mid, half):
    """The K15 nodes of the panels mid +- half, one row per panel."""
    return mid[:, None] + half[:, None] * _XGK[None, :]


def _refine(f, lo, hi, span, fv):
    """The one integrand `f` on the panels [lo, hi], with the error budget
    of a total width `span`, from its values `fv` at their nodes."""
    total = np.zeros(lo.size)
    owner = np.arange(lo.size)

    for _ in range(_MAX_DEPTH + 1):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        fv = np.asarray(f(_nodes(mid, half)) if fv is None else fv,
                        dtype=float)
        if not np.all(np.isfinite(fv)):
            raise QuadratureFailure(
                "adaptive quadrature met a non-finite integrand value")
        k15 = half * (fv @ _WGK)
        g7 = half * (fv[:, _GAUSS_IDX] @ _WG7)
        err = np.abs(k15 - g7)
        budget = _TOL * (hi - lo) / span
        floor = 50.0 * _EPS * np.abs(k15) + 1e-300
        done = err <= np.maximum(budget, floor)

        np.add.at(total, owner[done], k15[done])
        bad = ~done
        if not np.any(bad):
            return total
        lo = np.concatenate([lo[bad], mid[bad]])
        hi = np.concatenate([mid[bad], hi[bad]])
        owner = np.concatenate([owner[bad], owner[bad]])
        fv = None

    raise QuadratureFailure(
        f"adaptive quadrature stalled: {lo.size} panels above tolerance "
        f"{_TOL:g} after {_MAX_DEPTH} bisection levels"
    )
