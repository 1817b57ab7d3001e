"""Channel diagonalization, labeled spectra, clusters, counting functions.

Every channel is solved window by window (solve_channel): the cluster
solve of `landau verify` in the one window around its level, the full
spectrum of `landau spectrum` in the windows between the midpoints of
the unperturbed levels.  Sturm counts certify how many eigenvalues each
window holds; inverse iteration solves a window with one, bisection
(channel_eigs) any other.  A window's eigenvalue moves smoothly with the
channel m, so solve_channels starts each channel's iteration from the
pair extrapolated from the same window of the channels before it.

A cluster is the set of non-boundary states strictly inside
(center - gamma, center + gamma); counting_function uses the same strict
test, so counting over (center + lambda, center + gamma) gives the number
of cluster states beyond lambda.
"""

import ctypes
import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceFailure, InconsistentProvenance
from .operator import B_COPIES, ChannelOperator, RadialFunction


# LAPACK, loaded on the first solve: importing this module loads no scipy,
# so the commands that solve nothing (weights, toeplitz, identities) never
# do.  The routines come from two compiled modules of scipy's linalg
# directory, loaded by file without running scipy/linalg/__init__.py, which
# imports scipy's array-API shim and with it numpy.random, numpy.f2py,
# numpy.testing and numpy.ma (about 22 MiB and 0.27 s more per process):
# _flapack holds the f2py wrappers that scipy.linalg.lapack exports, and
# cython_lapack the function pointers of scipy.linalg.cython_lapack.  A
# module already imported is reused, and one loaded here is registered
# under its scipy name, so a later `import scipy.linalg` reuses it too
# (but does not bind it as a package attribute: from-imports find it).
# Tests patch the four routines below by module attribute.
@functools.cache
def _lapack(name):
    """The compiled module scipy.linalg.<name>."""
    full = f"scipy.linalg.{name}"
    if full not in sys.modules:
        import scipy
        finder = importlib.machinery.FileFinder(
            os.path.join(scipy.__path__[0], "linalg"),
            (importlib.machinery.ExtensionFileLoader,
             importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(full)
        if spec is None:
            raise ImportError(f"no compiled module {full} in this scipy",
                              name=full)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
    return sys.modules[full]


# absolute bisection tolerance; see channel_eigs
_BISECT_TOL = 1e-14


def eigh_tridiagonal(d, e, lo, hi):
    """Eigenvalues in (lo, hi] of the symmetric tridiagonal matrix (d, e),
    ascending, and their eigenvectors as columns: the LAPACK calls of
    scipy.linalg.eigh_tridiagonal(d, e, select="v", select_range=(lo, hi),
    lapack_driver="stebz", tol=_BISECT_TOL), which are dstebz (RANGE = 'V',
    ORDER = 'B') and dstein, and so the same floats.  A non-finite entry,
    which scipy rejects before LAPACK sees it, or a LAPACK failure raises
    LinAlgError."""
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise np.linalg.LinAlgError("matrix entries must be finite")
    flapack = _lapack("_flapack")
    m, w, iblock, isplit, info = flapack.dstebz(d, e, 1, lo, hi, 1, 1,
                                                _BISECT_TOL, "B")
    if info == 0:
        w = w[:m]
        v, info = flapack.dstein(d, e, w, iblock, isplit)
    if info:
        raise np.linalg.LinAlgError(f"dstebz / dstein failed (info={info})")
    order = np.argsort(w)
    return w[order], v[:, order]


def dgttrf(*args, **kwargs):
    return _lapack("_flapack").dgttrf(*args, **kwargs)


def dgttrs(*args, **kwargs):
    return _lapack("_flapack").dgttrs(*args, **kwargs)


def dlaebz(d, e, e2, pivmin, ab):
    """LAPACK dlaebz, IJOB = 1, on the intervals ab = [[lo, hi], ...]:
    (nab, info), nab[j] the numbers of eigenvalues <= lo and <= hi of
    interval j.  ctypes calls the pointer that scipy.linalg.cython_lapack
    exports (scipy.linalg.lapack has no dlaebz); LAPACK reads raw memory,
    so the arrays go in as C-contiguous float64 of checked sizes.  Every
    argument goes in as an integer address, which ctypes passes faster
    than a byref: the scalars live in one float64 workspace, the integers
    in its upper part."""
    d, e, e2 = (np.ascontiguousarray(a, dtype=float) for a in (d, e, e2))
    ab = np.asarray(ab, dtype=float)
    if (min(e.size, e2.size) < d.size - 1 or ab.ndim != 2
            or ab.shape[1] != 2 or not ab.size):
        raise ValueError("dlaebz needs n - 1 off-diagonals and intervals "
                         "of two ends")
    k = len(ab)
    # doubles AB(k, 2) (column-major: the lower ends, then the upper ends),
    # pivmin, x, then C ints one, zero, n, k, mout, info, NAB(k, 2)
    work = np.zeros(3 * k + 5)
    work[:2 * k] = ab.T.ravel()
    work[2 * k] = pivmin
    ints = work[2 * k + 2:].view(np.intc)
    ints[:4] = 1, 0, d.size, k
    bounds = work.ctypes.data
    piv, x = bounds + 16 * k, bounds + 16 * k + 8
    one, zero, n, intervals, mout, info, nab = (bounds + 16 * k + 16 + 4 * j
                                                for j in range(7))
    # x, zero: the arguments IJOB = 1 does not read
    _dlaebz()(one, zero, n, intervals, intervals, zero, x, x, piv,
              d.ctypes.data, e.ctypes.data, e2.ctypes.data, zero, bounds, x,
              mout, nab, x, zero, info)
    return ints[6:].reshape(2, k).T, int(ints[5])


@functools.cache
def _dlaebz():
    capsule = _lapack("cython_lapack").__pyx_capi__["dlaebz"]
    api, obj, name = ctypes.pythonapi, ctypes.py_object, ctypes.c_char_p
    get_name = ctypes.PYFUNCTYPE(name, obj)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, obj, name)(
        ("PyCapsule_GetPointer", api))
    address = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 20)(address)


def _lower_bound(op):
    """Gershgorin bound strictly below every eigenvalue of the channel."""
    return float(np.min(op.diag) - 2.0 * np.max(np.abs(op.offdiag)) - 1.0)


def channel_eigs(op, e_max, e_min=None):
    """Eigenpairs of the channel matrix with e_min < eigenvalue <= e_max.

    This is the LAPACK bisection / inverse-iteration path (stebz + stein)
    for symmetric tridiagonal matrices.  Without e_min every eigenpair up
    to e_max of the raw matrix is returned (the zero-mode exactness check
    solves here).  With e_min, bisection runs only on (e_min, e_max];
    solve_channel takes this path for a window with two or more
    eigenvalues, or when its one-pair inverse iteration gives up.  An
    eigenvalue within roundoff of e_min may land on either side of it, so
    callers keep e_min in a gap.

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
        vals, vecs = eigh_tridiagonal(op.diag, op.offdiag, lo, e_max)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(
            f"tridiagonal solve failed for kind={op.kind} m={op.m} "
            f"(n={op.mesh.n}, h={op.mesh.h})"
        ) from exc
    pairs = [_polished(op, vecs[:, k]) for k in range(vals.size)]
    pairs.sort(key=lambda p: p[0])
    return pairs


def _polished(op, v, work=(None, None, None), tv=None):
    """(Rayleigh quotient, v) with v's largest-magnitude component positive;
    with `work` (rows of n, n, n - 1) v flips in place, products go there.
    `tv`, the product T v already computed, saves the matvec: negating v
    negates T v exactly, so the quotient is the same float either way."""
    magnitude, out, part = work
    tv = op.matvec(v, out, part) if tv is None else tv
    E = float(np.dot(v, tv) / np.dot(v, v))
    if v[int(np.argmax(np.abs(v, out=magnitude)))] < 0:
        v = -v if magnitude is None else np.negative(v, out=v)
    return E, v


# inverse iteration: step limit and backward-error factor; see _one_pair
_MAX_STEPS = 12
_BACKWARD_ERROR = 16.0 * np.finfo(float).eps
_SCRATCH_ROWS = 9  # _one_pair's factors d, dl, du, |T| (2) and step vectors


def _one_pair(op, e_min, e_max, work=None, extra=0, start=None, shift=None):
    """The eigenpair of the one eigenvalue in (e_min, e_max], or None.

    Inverse iteration at `shift` (default the window midpoint) from
    `start` (default a vector of ones; the array is solved in place and
    returned as the eigenvector): LAPACK dgttrf factors the shifted matrix
    once, and each step is one dgttrs solve with that factorization.  The
    iteration converges to the eigenvalue nearest the shift.  At the
    midpoint of a window with one eigenvalue that is the window's own; from
    another shift it may be a neighboring window's, which the check that E
    lies in the window rejects.  The iteration stops when the residual
    passes the componentwise backward-error test
    ||T v - E v|| <= 16 eps || |T| |v| || with E the Rayleigh quotient:
    (E, v) is then an exact eigenpair of a matrix whose entries differ
    from T's by a few ulps each.  The residual floor is eps times the
    local stencil size (~4 / h^2 in the inner cells), not eps |E|, so a
    test scaled by |E| is never passed.  None (the caller falls back) when
    dgttrf reports a singular pivot, when the test fails after _MAX_STEPS
    steps, or when E leaves the window.
    `extra` steps more follow the test.  It leaves up to
    16 eps || |T| |v| || / gap of the neighboring levels in v (6e-11 at
    R = 12, h = 0.01), where dstein's vectors hold 1e-12; a full spectrum
    keeps several states of one channel, and one more step, which cuts
    that part by |E - shift| / gap, makes them orthogonal to roundoff.
    Without one, E is the quotient of the last test step, polished like
    a channel_eigs pair.
    All other n-sized arrays live in `work` ((_SCRATCH_ROWS, n), shared by
    a solve_channels call), so no step allocates; each operation and norm
    (sqrt(x.dot(x)), as np.linalg.norm) rounds as with fresh arrays.
    """
    n = op.mesh.n
    work = np.empty((_SCRATCH_ROWS, n)) if work is None else work
    d, dl, du, abs_d, abs_off, tv, scale, res, part = work
    shift = 0.5 * (e_min + e_max) if shift is None else shift
    np.subtract(op.diag, shift, out=d)
    dl, du = dl[:-1], du[:-1]
    dl[:], du[:] = op.offdiag, op.offdiag
    dl, d, du, du2, ipiv, info = dgttrf(dl, d, du, overwrite_dl=1,
                                        overwrite_d=1, overwrite_du=1)
    if info:
        return None
    magnitudes = replace(op, diag=np.abs(op.diag, out=abs_d),
                         offdiag=np.abs(op.offdiag, out=abs_off[:-1]))
    v = np.ones(n) if start is None else start
    for _ in range(_MAX_STEPS):
        v, _ = dgttrs(dl, d, du, du2, ipiv, v, "N", 1)  # solved in place
        v /= math.sqrt(v.dot(v))
        E = float(np.dot(v, op.matvec(v, tv, part[:-1])))
        magnitudes.matvec(np.abs(v, out=res), scale, part[:-1])  # |T| |v|
        np.subtract(tv, np.multiply(v, E, out=res), out=res)
        if (math.sqrt(res.dot(res))
                <= _BACKWARD_ERROR * math.sqrt(scale.dot(scale))):
            break
    else:
        return None
    for _ in range(extra):
        v, _ = dgttrs(dl, d, du, du2, ipiv, v, "N", 1)
        v /= math.sqrt(v.dot(v))
    E, v = _polished(op, v, (res, tv, part[:-1]), None if extra else tv)
    return (E, v) if e_min < E <= e_max else None


def _guess(seen, e_min, e_max):
    """(start, shift) for _one_pair on the window (e_min, e_max] of the
    next channel, extrapolated from the pairs `seen` (newest first) of the
    same window in the channels solved before it: the last pair, or the
    line or parabola through the last two or three, for both E and v
    (weights 1; 2, -1; 3, -3, 1).  start is one fresh array, so no stored
    eigenvector is ever solved in place.  The shift is the extrapolated E
    when it lies in the middle half of the window, else the midpoint."""
    E, v = seen[0]
    start = np.copy(v) if len(seen) == 1 else np.subtract(v, seen[1][1])
    if len(seen) == 2:  # v1 + (v1 - v2)
        E += E - seen[1][0]
        start += v
    elif len(seen) == 3:  # 3 (v1 - v2) + v3
        E = 3.0 * (E - seen[1][0]) + seen[2][0]
        start *= 3.0
        start += seen[2][1]
    quarter = 0.25 * (e_max - e_min)
    inside = e_min + quarter <= E <= e_max - quarter
    return start, E if inside else 0.5 * (e_min + e_max)


def _non_finite(op):
    return ConvergenceFailure(
        f"tridiagonal solve failed for kind={op.kind} m={op.m} "
        f"(n={op.mesh.n}, h={op.mesh.h}): non-finite matrix entry")


def _sturm_counts(op, points):
    """Numbers of eigenvalues <= each point of the list `points`, from one
    dlaebz call: the Sturm count of dstebz, with dstebz's pivmin (a pivot
    of magnitude below it counts as negative), so every count is the one
    dstebz gives.  The points go in as intervals of two; an odd last one
    is counted twice.  A NaN entry raises ConvergenceFailure, as in
    channel_eigs: dlaebz counts no NaN pivot, so its window would be
    skipped.
    """
    e2 = np.square(op.offdiag, dtype=float)
    largest = float(e2.max(initial=0.0))
    if math.isnan(largest + float(op.diag.min())):
        raise _non_finite(op)
    pivmin = np.finfo(float).tiny * max(1.0, largest)
    ends = np.array(points + points[-1:] * (len(points) % 2))
    nab, info = dlaebz(op.diag, op.offdiag, e2, pivmin, ends.reshape(-1, 2))
    if info:
        raise ConvergenceFailure(
            f"Sturm count failed for kind={op.kind} m={op.m} "
            f"(n={op.mesh.n}, h={op.mesh.h}, info={info})")
    return tuple(nab.ravel().tolist()[:len(points)])


def _level_edges(op, e_max):
    """Edges of the level windows that cover (Gershgorin bound, e_max].

    The edges are the midpoints (2k + 1 + s) B0, k >= -1, between the
    unperturbed levels (2k + s) B0 of op.kind (s its level shift), so
    each window but the bottom one is centered on its level.  They run
    from the last one at or below the bound, or the bound itself when it
    lies below (s - 1) B0, to the first one at or above e_max.  No edge
    when the bound is at or above e_max; a bound that is not finite raises
    ConvergenceFailure, as channel_eigs does for such a matrix.
    """
    lo = _lower_bound(op)
    if lo >= e_max:
        return []
    if not math.isfinite(lo):  # a NaN, or an infinite off-diagonal
        raise _non_finite(op)
    s, step = B_COPIES[op.kind], 2.0 * op.B0
    k = max(-1, math.floor((lo / op.B0 - 1 - s) / 2))
    edges = [lo] if lo < (s - 1) * op.B0 else []
    edges.append((2 * k + 1 + s) * op.B0)
    while edges[-1] < e_max:
        edges.append(edges[-1] + step)
    return edges


@dataclass
class ChannelResult:
    """Eigenpairs of one channel, bundled with the operator they came from.

    `first` is the number of eigenvalues below the solved range, so the
    k-th pair is the channel's eigenstate n = first + k counted from the
    bottom of its spectrum.
    """

    op: ChannelOperator
    energies: np.ndarray
    vectors: np.ndarray  # columns, each contiguous
    first: int


def solve_channel(op, e_max, e_min=None, work=None, history=None):
    """Eigenpairs in (e_min, e_max] and the number of eigenvalues at or
    below e_min.

    The range is solved window by window.  With e_min it is one window;
    without, the level windows of _level_edges, whose bottom edge lies
    below the spectrum.  Sturm counts at every edge and at e_max, all
    from one LAPACK dlaebz call (_sturm_counts), certify how many
    eigenvalues each window holds; the count at its bottom edge is kept
    as `first`.  None: nothing else runs.  One: it comes from inverse
    iteration (_one_pair) on the whole window, checked by a
    backward-error test and polished like a channel_eigs pair (with one
    step more in the level windows, whose states share a channel), and
    the count at e_max decides whether it is kept when the window reaches
    past e_max.  With a `history` (see solve_channels) that holds pairs of
    the window, the iteration starts from their extrapolation (_guess),
    and if that gives up, once more from ones at the midpoint; the pair
    found, by either or by bisection, enters the history.  Two or more,
    or an inverse iteration that gives up: channel_eigs bisects the window
    up to e_max.  `work` goes to _one_pair.
    """
    if e_min is None:
        edges = _level_edges(op, e_max)
        # the bottom edge lies below the Gershgorin bound: its count is 0
        counts = ([0, *_sturm_counts(op, edges[1:] + [e_max])] if edges
                  else [0, 0])
        top = counts.pop()
        extra = 1  # several states of one channel: see _one_pair
    else:
        edges = [e_min, e_max]
        counts = _sturm_counts(op, edges)
        top, extra = counts[1], 0
    pairs = []
    for lo, hi, below, upto in zip(edges, edges[1:], counts, counts[1:]):
        if min(upto, top) <= below:
            continue
        if upto - below > 1:
            pairs += channel_eigs(op, min(hi, e_max), lo)
            continue
        # the predicted pair; failing that, or with no history, from ones
        seen = [] if history is None else history.setdefault(hi, [])
        pair = (_one_pair(op, lo, hi, work, extra, *_guess(seen, lo, hi))
                if seen else None)
        pair = pair or _one_pair(op, lo, hi, work, extra)
        found = [pair] if pair else channel_eigs(op, min(hi, e_max), lo)
        if len(found) == 1:
            seen[:] = [*found, *seen[:2]]
        pairs += found
    energies = np.array([e for e, _ in pairs], dtype=float)
    # each eigenvector column is contiguous: one pair's vector is kept as
    # it is (a copy per channel churns the heap top; README, "Heap churn"),
    # more pairs are copied in as rows and transposed
    vectors = (pairs[0][1][:, None] if len(pairs) == 1 else
               np.array([v for _, v in pairs]).reshape(-1, op.mesh.n).T)
    return ChannelResult(op, energies, vectors, counts[0])


def solve_channels(ops, e_max, e_min=None):
    """Solve channels of one mesh in order, sharing _one_pair's scratch and
    one history: the window's upper edge, which every channel shares
    (e_max for the cluster window, the level midpoint for a level window),
    maps to its last three one-state pairs, newest first, from which
    solve_channel predicts the next channel's pair."""
    work = np.empty((_SCRATCH_ROWS, ops[0].mesh.n)) if ops else None
    history = {}
    return [solve_channel(op, e_max, e_min, work=work, history=history)
            for op in ops]


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

    def take_state(self, m, n, mesh):
        """The (m, n) eigenvector as a RadialFunction with unit discrete
        norm, v / sqrt(h).  The table hands its vector over: it is divided
        in place, so the state shares memory with the solved channel
        vectors, and it leaves the table, so a label is taken once."""
        v = self.vectors.pop((int(m), int(n)))
        v /= math.sqrt(mesh.h)
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
    channel matrices, |shift| descending; an empty cluster is legal.  The
    cluster takes its eigenvectors from the table (SpectrumTable.take_state),
    so they are the only copy."""
    keep = np.flatnonzero(~table.boundary & (table.E > center - gamma)
                          & (table.E < center + gamma))
    rows = keep[np.argsort(-np.abs(table.E[keep] - center), kind="stable")]
    shifts = table.E[rows] - center
    ms, ns = table.m[rows], table.n[rows]
    ops = {ch.op.m: ch.op for ch in channels}
    states = [table.take_state(m, n, ops[m].mesh) for m, n in zip(ms, ns)]
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
