"""Channel diagonalization, labeled spectra, clusters, counting functions.

A cluster is the set of non-boundary states strictly inside
(center - gamma, center + gamma); counting_function uses the same strict
test, so counting over (center + lambda, center + gamma) gives the number
of cluster states beyond lambda.
"""

import ctypes
import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceFailure, InconsistentProvenance
from .operator import ChannelOperator, RadialFunction


# scipy.linalg routines, imported on their first call: the import costs
# more than a small solve, and the commands that solve nothing (weights,
# toeplitz, identities) never need it, so importing this module loads no
# scipy.  Tests patch these names by module attribute.
def eigh_tridiagonal(*args, **kwargs):
    import scipy.linalg
    return scipy.linalg.eigh_tridiagonal(*args, **kwargs)


def dgttrf(*args, **kwargs):
    import scipy.linalg.lapack
    return scipy.linalg.lapack.dgttrf(*args, **kwargs)


def dgttrs(*args, **kwargs):
    import scipy.linalg.lapack
    return scipy.linalg.lapack.dgttrs(*args, **kwargs)


def dlaebz(d, e, e2, pivmin, ab):
    """LAPACK dlaebz, IJOB = 1, on one interval ab = [lo, hi]: (nab, info),
    nab the numbers of eigenvalues <= lo and <= hi.  ctypes calls the
    pointer that scipy.linalg.cython_lapack exports (scipy.linalg.lapack
    has no dlaebz); LAPACK reads raw memory, so the arrays go in as
    C-contiguous float64 of checked sizes."""
    d, e, e2, ab = (np.ascontiguousarray(a, dtype=float) for a in (d, e, e2, ab))
    if min(e.size, e2.size) < d.size - 1 or ab.size != 2:
        raise ValueError("dlaebz needs n - 1 off-diagonals and two ends")
    nab = np.zeros(2, dtype=np.intc)
    one, zero, n, mout, info = (ctypes.c_int(k) for k in (1, 0, d.size, 0, 0))
    x, pivmin, p = ctypes.c_double(), ctypes.c_double(pivmin), ctypes.byref
    _dlaebz()(p(one), p(zero), p(n), p(one), p(one), p(zero), p(x), p(x),
              p(pivmin), d.ctypes.data, e.ctypes.data, e2.ctypes.data, p(zero),
              ab.ctypes.data, p(x), p(mout), nab.ctypes.data, p(x), p(zero),
              p(info))  # x, zero: arguments IJOB = 1 does not read
    return nab, info.value


@functools.cache
def _dlaebz():
    import scipy.linalg.cython_lapack
    capsule = scipy.linalg.cython_lapack.__pyx_capi__["dlaebz"]
    api, obj, name = ctypes.pythonapi, ctypes.py_object, ctypes.c_char_p
    get_name = ctypes.PYFUNCTYPE(name, obj)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, obj, name)(
        ("PyCapsule_GetPointer", api))
    address = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 20)(address)


# absolute bisection tolerance; see channel_eigs
_BISECT_TOL = 1e-14


def _lower_bound(op):
    """Gershgorin bound strictly below every eigenvalue of the channel."""
    return float(np.min(op.diag) - 2.0 * np.max(np.abs(op.offdiag)) - 1.0)


def channel_eigs(op, e_max, e_min=None):
    """Eigenpairs of the channel matrix with e_min < eigenvalue <= e_max.

    This is the LAPACK bisection / inverse-iteration path (stebz + stein)
    for symmetric tridiagonal matrices.  Without e_min every eigenpair up
    to e_max is returned; the full spectrum (`landau spectrum`, the zero-mode
    exactness check) is always solved here.  With e_min, bisection runs only
    on (e_min, e_max]; solve_channel takes this path for a window with two
    or more eigenvalues, or when its one-pair inverse iteration gives up.
    An eigenvalue within roundoff of e_min may land on either side of it,
    so callers keep e_min in a gap.

    Ordering is ascending and eigenvector signs are fixed so the
    largest-magnitude component is positive.

    Bisection runs to the absolute tolerance 1e-14 and each eigenvalue is
    then polished by one Rayleigh quotient with its eigenvector.  Inverse
    iteration needs the eigenvalue only to well within the level spacing
    (of order B0) to return an eigenvector whose quotient is exact to
    roundoff, so bisecting further, down to 2 * tiny, changes no polished
    eigenvalue in any channel up to the cut (tests/test_spectra.py) and
    only costs time on the near-zero modes.  The LAPACK default
    eps * ||T|| is no option: the inner cells of high-|m| channels make
    ||T|| enormous.
    """
    if not np.isfinite(e_max):
        raise ValueError("e_max must be finite")
    lo = _lower_bound(op)
    if e_min is not None:
        lo = max(lo, e_min)
    if lo >= e_max:  # Gershgorin: no eigenvalue in (lo, e_max]
        return []
    try:
        vals, vecs = eigh_tridiagonal(
            op.diag, op.offdiag, select="v", select_range=(lo, e_max),
            lapack_driver="stebz", tol=_BISECT_TOL)
    except Exception as exc:  # LAPACK failures carry no useful type
        raise ConvergenceFailure(
            f"tridiagonal solve failed for kind={op.kind} m={op.m} "
            f"(n={op.mesh.n}, h={op.mesh.h})"
        ) from exc
    pairs = [_polished(op, vecs[:, k]) for k in range(vals.size)]
    pairs.sort(key=lambda p: p[0])
    return pairs


def _polished(op, v):
    """(Rayleigh quotient, v) with v's largest-magnitude component positive."""
    pivot = int(np.argmax(np.abs(v)))
    if v[pivot] < 0:
        v = -v
    return float(np.dot(v, op.matvec(v)) / np.dot(v, v)), v


# inverse iteration: step limit and backward-error factor; see _one_pair
_MAX_STEPS = 12
_BACKWARD_ERROR = 16.0 * np.finfo(float).eps


def _one_pair(op, e_min, e_max):
    """The eigenpair of the one eigenvalue in (e_min, e_max], or None.

    Inverse iteration at the window midpoint from a vector of ones: LAPACK
    dgttrf factors the shifted matrix once, and each step is one dgttrs
    solve with that factorization.  The window holds one eigenvalue and is
    symmetric about the shift, so that eigenvalue is the one nearest the
    shift.  The iteration stops when the residual passes the componentwise
    backward-error test ||T v - E v|| <= 16 eps || |T| |v| || with E the
    Rayleigh quotient: (E, v) is then an exact eigenpair of a matrix
    whose entries differ from T's by a few ulps each.  The residual floor
    is eps times the local stencil size (~4 / h^2 in the inner cells), not
    eps |E|, so a test scaled by |E| is never passed.  None (the caller
    falls back to bisection) when dgttrf reports a singular pivot, when
    the test fails after _MAX_STEPS steps, or when E leaves the window.
    """
    shifted = op.diag - 0.5 * (e_min + e_max)
    dl, d, du, du2, ipiv, info = dgttrf(op.offdiag, shifted, op.offdiag,
                                        overwrite_d=1)
    if info:
        return None
    magnitudes = replace(op, diag=np.abs(op.diag), offdiag=np.abs(op.offdiag))
    v = np.ones(op.mesh.n)
    for _ in range(_MAX_STEPS):
        x, _ = dgttrs(dl, d, du, du2, ipiv, v)
        v = x / np.linalg.norm(x)
        tv = op.matvec(v)
        E = float(np.dot(v, tv))
        scale = magnitudes.matvec(np.abs(v))  # |T| |v|
        if (np.linalg.norm(tv - E * v)
                <= _BACKWARD_ERROR * np.linalg.norm(scale)):
            break
    else:
        return None
    E, v = _polished(op, v)
    return (E, v) if e_min < E <= e_max else None


def _window_counts(op, e_min, e_max):
    """Numbers of eigenvalues <= e_min and <= e_max, from one dlaebz call:
    the Sturm count of dstebz, with dstebz's pivmin (a pivot of magnitude
    below it counts as negative), so both counts are the ones dstebz gives.
    """
    e2 = np.square(op.offdiag, dtype=float)
    pivmin = np.finfo(float).tiny * max(1.0, float(e2.max(initial=0.0)))
    nab, info = dlaebz(op.diag, op.offdiag, e2, pivmin, [e_min, e_max])
    if info:
        raise ConvergenceFailure(
            f"Sturm count failed for kind={op.kind} m={op.m} "
            f"(n={op.mesh.n}, h={op.mesh.h}, info={info})")
    return int(nab[0]), int(nab[1])


@dataclass
class ChannelResult:
    """Eigenpairs of one channel, bundled with the operator they came from.

    `first` is the number of eigenvalues below the solved range, so the
    k-th pair is the channel's eigenstate n = first + k counted from the
    bottom of its spectrum.
    """

    op: ChannelOperator
    energies: np.ndarray
    vectors: np.ndarray  # columns
    first: int


def solve_channel(op, e_max, e_min=None):
    """Eigenpairs in (e_min, e_max] and the number of eigenvalues at or
    below e_min.

    Without e_min this is channel_eigs.  With it, the Sturm counts at
    e_min (kept as `first`) and at e_max, both from one LAPACK dlaebz call
    (_window_counts), certify how many eigenvalues lie in the window.
    None: nothing else runs.  One: it comes from inverse iteration
    (_one_pair), checked by a backward-error test and polished like a
    channel_eigs pair.  Two or more, or an inverse iteration that gives
    up: channel_eigs bisects the window.
    """
    if e_min is None:
        first, pairs = 0, channel_eigs(op, e_max)
    else:
        first, top = _window_counts(op, e_min, e_max)
        pair = _one_pair(op, e_min, e_max) if top - first == 1 else None
        pairs = ([pair] if pair else
                 channel_eigs(op, e_max, e_min) if top > first else [])
    energies = np.array([e for e, _ in pairs], dtype=float)
    vectors = np.column_stack([v for _, v in pairs]
                              or [np.empty((op.mesh.n, 0))])
    return ChannelResult(op, energies, vectors, first)


def solve_channels(ops, e_max, e_min=None):
    """Solve many channels in order."""
    return [solve_channel(op, e_max, e_min) for op in ops]


# a state is boundary-flagged when its norm fraction in the outer tenth of
# the domain exceeds 1e-6
_OUTER_FRACTION = 0.1
_NORM_FRACTION = 1e-6


@dataclass
class SpectrumTable:
    """Merged labeled spectrum: (m, n, E, boundary flag) sorted by E."""

    m: np.ndarray
    n: np.ndarray
    E: np.ndarray
    boundary: np.ndarray
    provenance: dict
    vectors: dict = field(default_factory=dict)  # (m, n) -> eigenvector

    def __len__(self):
        return self.E.size

    def rows(self):
        return zip(self.m, self.n, self.E, self.boundary.astype(int))

    def state(self, m, n, mesh):
        """Eigenvector as a RadialFunction with unit discrete norm."""
        v = self.vectors[(int(m), int(n))] / math.sqrt(mesh.h)
        return RadialFunction(v, int(m), mesh)


def assemble_spectrum(channels):
    """Merge per-channel eigenpairs into one sorted, boundary-flagged table."""
    if not channels:
        raise InconsistentProvenance("no channels to assemble")
    mesh = channels[0].op.mesh
    kind, sig, B0 = channels[0].op.kind, mesh.signature, channels[0].op.B0
    for ch in channels:
        if (ch.op.kind, ch.op.mesh.signature, ch.op.B0) != (kind, sig, B0):
            raise InconsistentProvenance(
                f"channel m={ch.op.m} has kind/mesh/B0 "
                f"({ch.op.kind}, {ch.op.mesh.signature}, {ch.op.B0}) != "
                f"({kind}, {sig}, {B0})")

    outer = mesh.nodes > (1.0 - _OUTER_FRACTION) * mesh.r_max
    ms, ns, Es, flags = [], [], [], []
    vectors = {}
    for ch in channels:
        for k in range(ch.energies.size):
            v = ch.vectors[:, k]
            frac = math.sqrt(float(np.dot(v[outer], v[outer]))
                             / float(np.dot(v, v)))
            ms.append(ch.op.m)
            ns.append(ch.first + k)
            Es.append(ch.energies[k])
            flags.append(frac > _NORM_FRACTION)
            vectors[(ch.op.m, ch.first + k)] = v

    ms = np.array(ms, dtype=int)
    ns = np.array(ns, dtype=int)
    Es = np.array(Es, dtype=float)
    flags = np.array(flags, dtype=bool)
    order = np.lexsort((ns, ms, Es))
    prov = {"kind": kind, "n": sig[0], "h": sig[1], "r_max": mesh.r_max,
            "B0": B0, "channels": sorted(ch.op.m for ch in channels)}
    return SpectrumTable(ms[order], ns[order], Es[order], flags[order],
                         prov, vectors)


@dataclass
class ClusterStates:
    """Cluster eigenstates with labels, |shift| descending."""

    B0: float
    shifts: np.ndarray
    ms: np.ndarray
    ns: np.ndarray
    states: list          # RadialFunction, same order
    operators: dict       # m -> ChannelOperator of the solved channel

    def __len__(self):
        return self.shifts.size


def cluster_states(table, center, gamma, channels):
    """Signed shifts E - center of the non-boundary states strictly inside
    (center - gamma, center + gamma), with their labels, eigenvectors and
    channel matrices, |shift| descending; an empty cluster is legal."""
    keep = np.flatnonzero(~table.boundary & (table.E > center - gamma)
                          & (table.E < center + gamma))
    rows = keep[np.argsort(-np.abs(table.E[keep] - center), kind="stable")]
    shifts = table.E[rows] - center
    ms, ns = table.m[rows], table.n[rows]
    ops = {ch.op.m: ch.op for ch in channels}
    states = [table.state(m, n, ops[m].mesh) for m, n in zip(ms, ns)]
    return ClusterStates(table.provenance["B0"], shifts, ms, ns, states, ops)


def counting_function(table, mu1, mu2):
    """Number of non-boundary eigenvalues strictly inside (mu1, mu2)."""
    if mu1 >= mu2:
        raise ValueError("need mu1 < mu2")
    keep = ~table.boundary
    return int(np.count_nonzero((table.E[keep] > mu1) & (table.E[keep] < mu2)))


@dataclass
class DriftReport:
    """Cluster-shift drift under domain enlargement R -> R_prime."""

    R: float
    R_prime: float
    labels: list                 # (m, n) present at both radii
    shifts: np.ndarray           # at R
    drift: np.ndarray
    max_drift: float


def boundary_sensitivity(at_R, at_Rp, R, R_prime):
    """Compare labeled cluster shifts at two truncation radii.

    `at_R` and `at_Rp` map (m, n) to the shift at R resp. R_prime; states
    are matched by label.
    """
    if R_prime <= R:
        raise ValueError("need R_prime > R")
    labels = sorted(set(at_R) & set(at_Rp))
    s = np.array([at_R[k] for k in labels])
    sp = np.array([at_Rp[k] for k in labels])
    drift = sp - s
    max_drift = float(np.max(np.abs(drift))) if labels else 0.0
    return DriftReport(R, R_prime, labels, s, drift, max_drift)


@dataclass
class CountingReport:
    """Rows of the cluster-counting comparison N vs E over a lambda grid."""

    lambdas: np.ndarray
    N: np.ndarray
    E_measure: np.ndarray
    ratio: np.ndarray
    trust_lo: float
    trust_hi: float
    note: str = ""
    drift_estimate: float = math.nan  # max_drift of boundary_sensitivity

    def rows(self):
        return zip(self.lambdas, self.N, self.E_measure, self.ratio)

    def band_window(self, band):
        """Largest contiguous lambda window whose ratios stay inside band."""
        lo, hi = band
        ok = (self.ratio >= lo) & (self.ratio <= hi) & np.isfinite(self.ratio)
        best, best_span = (None, None), 0.0
        for inside, run in itertools.groupby(zip(ok, self.lambdas),
                                             key=lambda row: row[0]):
            run = [lam for _, lam in run]
            a, b = sorted((run[0], run[-1]))
            if inside and b / a > best_span:
                best, best_span = (a, b), b / a
        return best
