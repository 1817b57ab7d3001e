"""Zero-mode Gram identities and Toeplitz matrices.

Everything here is channel-diagonal for radial data: basis elements live in
single angular channels and the constructed matrices couple equal channels
only, so residual and Toeplitz matrices come out diagonal up to the
discretization error that the tests quantify.
"""

import math
from dataclasses import dataclass

import numpy as np

from .operator import RadialFunction, ladder_apply, zero_mode


def coupling_constant(q, B0):
    """C_q = q! (2 B0)^q, the zero-mode ladder normalization."""
    return math.factorial(q) * (2.0 * B0) ** q


def linear_coupling_constant(q):
    """C'_q = 2^q q! q, the coefficient of the linear-in-b Gram correction."""
    return (2.0 ** q) * math.factorial(q) * q


@dataclass
class ZeroModeBasis:
    """Orthonormal zero modes for channels m = 0, 1, ... (one per channel)."""

    modes: list
    gauge: object

    def __post_init__(self):
        self._chain = (0, self.modes)

    def __len__(self):
        return len(self.modes)

    def raised(self, q):
        """[Qbar^q u_m for each mode u_m].

        The last level asked for is kept, so raising to q = 1, 2, 3 in turn
        applies one ladder step per level; a lower q starts again from the
        modes.  Each step is the one ladder_apply takes, so a level equals
        ladder_apply(u_m, gauge, q) bit for bit.
        """
        k, level = self._chain
        if q < k:
            k, level = 0, self.modes
        for _ in range(q - k):
            level = [ladder_apply(u, self.gauge, 1) for u in level]
        self._chain = (q, level)
        return level


def zero_mode_basis(gauge, m_max):
    """Zero modes m = 0..m_max on the gauge's mesh; cross-channel
    orthogonality is exact."""
    modes = [zero_mode(m, gauge) for m in range(m_max + 1)]
    return ZeroModeBasis(modes, gauge)


def _pair_matrix(left, right, weights=None):
    """Matrix of inner products <w left_i, right_j>.

    Distinct channels are orthogonal exactly (RadialFunction.dot), so only
    the pairs of equal m are formed; every other entry stays 0.0.
    """
    by_channel = {}
    for j, r in enumerate(right):
        by_channel.setdefault(r.m, []).append(j)
    out = np.zeros((len(left), len(right)))
    for i, li in enumerate(left):
        js = by_channel.get(li.m, ())
        if js and weights is not None:
            li = li.weighted(weights)
        for j in js:
            out[i, j] = li.dot(right[j])
    return out


def gram_identity_residual(q, basis, b, B0):
    """Residual of the ladder Gram identity on the zero-mode basis.

    G[i][j] = <Qbar^q u_i, Qbar^q u_j> - C_q delta_ij
              - C'_q B0^(q-1) <b u_i, u_j>.

    For q = 1 the identity is exact in the continuum (the correction is
    2 b), so the residual is pure discretization error; for q >= 2 it
    estimates the sub-leading, faster-decaying part of the correction.
    """
    if q < 1:
        raise ValueError("gram identity needs q >= 1")
    raised = basis.raised(q)
    bv = b.evaluate(basis.modes[0].mesh.nodes)
    G = _pair_matrix(raised, raised)
    G -= coupling_constant(q, B0) * np.eye(len(basis.modes))
    G -= (linear_coupling_constant(q) * B0 ** (q - 1)
          * _pair_matrix(basis.modes, basis.modes, bv))
    return G


def weighted_identity_residual(q, basis, U, B0):
    """Residual of the weighted Gram identity against its leading term.

    Returns <U Qbar^q u_i, Qbar^q u_j> - C'_q B0^q <U u_i, u_j>.  The
    magnetic perturbation enters through the basis gauge.
    """
    if q < 1:
        raise ValueError("weighted identity needs q >= 1")
    mesh = basis.modes[0].mesh
    raised = basis.raised(q)
    Uv = U.evaluate(mesh.nodes)
    lead = linear_coupling_constant(q) * B0 ** q
    return (_pair_matrix(raised, raised, Uv)
            - lead * _pair_matrix(basis.modes, basis.modes, Uv))


def _symmetrized(mat, where):
    skew = np.max(np.abs(mat - mat.T))
    scale = max(np.max(np.abs(mat)), 1.0)
    if skew > 1e-12 * scale:
        raise AssertionError(f"{where}: asymmetry {skew:g} above tolerance")
    return 0.5 * (mat + mat.T)


@dataclass
class ToeplitzMatrix:
    """Compressed operator on a truncated basis (zero modes or cluster).

    `channels[i]` is the angular channel m of row i.  Entries couple equal
    channels only, so the matrix is block-diagonal by channel and its
    eigenvalues are taken from the blocks: a dense eigensolve of the whole
    matrix is threaded by OpenBLAS and costs far more on a small machine.
    """

    entries: np.ndarray
    channels: np.ndarray

    def eigenvalues(self):
        """Ascending union of the channel blocks' spectra."""
        out = []
        for m in np.unique(self.channels):
            rows = np.flatnonzero(self.channels == m)
            out.append(np.linalg.eigvalsh(self.entries[np.ix_(rows, rows)]))
        return np.sort(np.concatenate(out)) if out else np.empty(0)

    def triples(self):
        for i, row in enumerate(self.entries.tolist()):
            for j, value in enumerate(row):
                yield i, j, value


def build_T0(q, V, basis):
    """Toeplitz-type operator on the zero-mode basis via ladder forms.

    t[i][j] = <(P_- - Lambda_q + V) Qbar^q u_i, Qbar^q u_j>, evaluated
    through the quadratic-form identity

        = <Qbar^(q+1) u_i, Qbar^(q+1) u_j>
          - Lambda_{q+1} <Qbar^q u_i, Qbar^q u_j>
          + <(V - 2b) Qbar^q u_i, Qbar^q u_j>.

    For q = 0 the kinetic part annihilates the basis exactly, so only the
    V quadrature survives (T0 = 0 identically for q = 0, V = 0).  b enters
    through the basis gauge.
    """
    gauge = basis.gauge
    mesh = basis.modes[0].mesh
    Vv = V.evaluate(mesh.nodes) if V is not None else np.zeros(mesh.n)
    if q == 0:
        t = _pair_matrix(basis.modes, basis.modes, Vv)
    else:
        raised = basis.raised(q)
        raised1 = basis.raised(q + 1)
        lam_next = 2.0 * (q + 1) * gauge.B0
        wv = Vv - 2.0 * gauge.b_values
        t = (_pair_matrix(raised1, raised1)
             - lam_next * _pair_matrix(raised, raised)
             + _pair_matrix(raised, raised, wv))
    return ToeplitzMatrix(_symmetrized(t, "build_T0"),
                          np.array([u.m for u in basis.modes], dtype=int))


def build_Tq(q, V, cluster):
    """Toeplitz-type operator compressed onto cluster eigenvectors.

    t[i][j] = <(P_- - Lambda_q + V) v_i, v_j> with the channel matrix
    (solved without V) applied to the eigenvectors and V added by
    quadrature.  With V = 0 this is diagonal with the cluster shifts.
    """
    mesh = cluster.states[0].mesh if len(cluster) else None
    lam = 2.0 * q * cluster.B0
    Vv = (V.evaluate(mesh.nodes) if (V is not None and mesh is not None)
          else None)
    applied = []
    for v in cluster.states:
        av = cluster.operators[v.m].matvec(v.values)
        av -= lam * v.values
        if Vv is not None:
            av += Vv * v.values
        applied.append(RadialFunction(av, v.m, v.mesh))
    t = _pair_matrix(applied, cluster.states)
    return ToeplitzMatrix(_symmetrized(t, "build_Tq"),
                          np.array([v.m for v in cluster.states], dtype=int))

