"""Zero-mode Gram identities and Toeplitz matrices.

Everything here is channel-diagonal for radial data: basis elements live in
single angular channels and the constructed matrices couple equal channels
only, so residual and Toeplitz matrices come out diagonal up to the
discretization error that the tests quantify.
"""

import math
from dataclasses import dataclass, field

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
    """Orthonormal zero modes for channels m = 0, 1, ... (one per channel),
    with the diagonal forms of their ladder images recorded so far.

    The raise action R (ladder_apply) maps channel m to m - 1, so every
    pair matrix of the basis or of one ladder level of it couples equal
    channels only: it is diagonal.  A form is named (L, weight) and holds
    h <w R^L u_i, R^L u_i> for every mode u_i: w = 1 for the weight None,
    and w = spec - copies * b for (spec, copies), with b the gauge's field
    and a None spec read as 0.
    """

    modes: list
    gauge: object
    forms: dict = field(default_factory=dict, repr=False)

    def __len__(self):
        return len(self.modes)

    def record(self, qs, **fields):
        """Record, in one pass up the ladder, every form that the named
        quantities read for each q in `qs`:

            T0=V        build_T0(q, V, self)
            gram=b      gram_identity_residual(q, self, b, B0)
            weighted=U  weighted_identity_residual(q, self, U, B0)

        A command that records its whole q list first takes one ladder
        step per mode and level; a quantity asked for a form not recorded
        yet walks the ladder again for it.
        """
        self._record({need for name, U in fields.items() for q in qs
                      for need in _READS[name](q, U)})

    def _record(self, needs):
        """Record the forms named in `needs`.

        Each mode is raised one ladder step per level, up to the highest
        level asked for, and dropped then: one raised mode is held at a
        time, never a whole level.  The steps are the ones ladder_apply
        takes, so a form equals the one of ladder_apply(u_i, gauge, L) bit
        for bit.
        """
        by_level = {}
        for level, weight in needs:
            by_level.setdefault(level, []).append(weight)
        if not by_level:
            return
        mesh = self.gauge.mesh
        values = {}
        for weight in {w for ws in by_level.values() for w in ws} - {None}:
            spec, copies = weight
            v = np.zeros(mesh.n) if spec is None else spec.evaluate(mesh.nodes)
            values[weight] = v - copies * self.gauge.b_values if copies else v
        out = {(level, w): np.empty(len(self.modes))
               for level, ws in by_level.items() for w in ws}
        for i, u in enumerate(self.modes):
            for level in range(max(by_level) + 1):
                if level:
                    u = ladder_apply(u, self.gauge, 1)
                for w in by_level.get(level, ()):
                    x = u.values if w is None else u.values * values[w]
                    out[(level, w)][i] = mesh.h * float(np.dot(x, u.values))
        self.forms.update(out)

    def diagonal(self, name, q, U):
        """The forms that quantity `name` (see record) reads for (q, U),
        recording those not yet recorded."""
        needs = _READS[name](q, U)
        self._record({need for need in needs if need not in self.forms})
        return [self.forms[need] for need in needs]


# the forms (L, weight) of ZeroModeBasis that each quantity reads for (q, U)
_READS = {
    "gram": lambda q, b: [(q, None), (0, (b, 0))],
    "weighted": lambda q, U: [(q, (U, 0)), (0, (U, 0))],
    "T0": lambda q, V: ([(0, (V, 0))] if q == 0 else
                        [(q + 1, None), (q, None), (q, (V, 2.0))]),
}


def zero_mode_basis(gauge, m_max):
    """Zero modes m = 0..m_max on the gauge's mesh; cross-channel
    orthogonality is exact."""
    modes = [zero_mode(m, gauge) for m in range(m_max + 1)]
    return ZeroModeBasis(modes, gauge)


def _pair_matrix(left, right):
    """Matrix of inner products <left_i, right_j>.

    Distinct channels are orthogonal exactly (RadialFunction.dot), so only
    the pairs of equal m are formed; every other entry stays 0.0.
    """
    by_channel = {}
    for j, r in enumerate(right):
        by_channel.setdefault(r.m, []).append(j)
    out = np.zeros((len(left), len(right)))
    for i, li in enumerate(left):
        for j in by_channel.get(li.m, ()):
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
    raised, bform = basis.diagonal("gram", q, b)
    G = np.diag(raised)
    G -= coupling_constant(q, B0) * np.eye(len(basis.modes))
    G -= linear_coupling_constant(q) * B0 ** (q - 1) * np.diag(bform)
    return G


def weighted_identity_residual(q, basis, U, B0):
    """Residual of the weighted Gram identity against its leading term.

    Returns <U Qbar^q u_i, Qbar^q u_j> - C'_q B0^q <U u_i, u_j>.  The
    magnetic perturbation enters through the basis gauge.
    """
    if q < 1:
        raise ValueError("weighted identity needs q >= 1")
    raised, modes = basis.diagonal("weighted", q, U)
    lead = linear_coupling_constant(q) * B0 ** q
    return np.diag(raised) - lead * np.diag(modes)


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
    if q == 0:
        t = np.diag(basis.diagonal("T0", q, V)[0])
    else:
        raised1, raised, weighted = basis.diagonal("T0", q, V)
        lam_next = 2.0 * (q + 1) * basis.gauge.B0
        t = (np.diag(raised1) - lam_next * np.diag(raised)
             + np.diag(weighted))
    return ToeplitzMatrix(t, np.array([u.m for u in basis.modes], dtype=int))


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

