"""Zero-mode Gram identities and Toeplitz matrices.

Everything here is channel-diagonal for radial data: basis elements live in
single angular channels and the constructed matrices couple equal channels
only.  On the zero-mode basis (one mode per channel) the residual matrices
come out diagonal, and both Toeplitz compressions are per-state diagonals:
T_0 on the zero modes, T_q on the cluster eigenvectors.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import LandauError
from .operator import ladder_apply, zero_mode


def coupling_constant(q, B0):
    """C_q = q! (2 B0)^q, the zero-mode ladder normalization."""
    return math.factorial(q) * (2.0 * B0) ** q


def linear_coupling_constant(q):
    """C'_q = 2^q q! q, the coefficient of the linear-in-b Gram correction."""
    return (2.0 ** q) * math.factorial(q) * q


@dataclass
class ZeroModeBasis:
    """The zero modes of channels m = 0 .. len - 1 (one per channel), known
    by the diagonal forms of their ladder images that the basis was built
    with (see zero_mode_basis).

    The raise action R (ladder_apply) maps channel m to m - 1, so every
    pair matrix of the basis or of one ladder level of it couples equal
    channels only: it is diagonal.  A form is named (L, weight) and holds
    h <w R^L u_m, R^L u_m> for every mode u_m: w = 1 for the weight None,
    and w = spec - copies * b for (spec, copies), with b the gauge's field.
    """

    gauge: object
    size: int
    forms: dict

    def __len__(self):
        return self.size

    def head(self, size):
        """The basis of its first `size` modes."""
        return ZeroModeBasis(self.gauge, size,
                             {k: v[:size] for k, v in self.forms.items()})

    def diagonal(self, name, q, U):
        """The forms that quantity `name` (see zero_mode_basis) reads for
        (q, U); LandauError if one lies past MAX_LADDER_LEVEL, KeyError if
        the basis was not built with them."""
        reads = _READS[name](q, U)
        for level, _ in reads:
            if level > MAX_LADDER_LEVEL:
                raise LandauError(
                    f"q={q} reads zero-mode ladder level {level}; from "
                    f"level {MAX_LADDER_LEVEL + 1} on the ladder images "
                    f"of the zero modes m = 0 and 1 have lost their "
                    f"accuracy")
        return [self.forms[need] for need in reads]


# the forms (L, weight) of ZeroModeBasis that each quantity reads for (q, U)
_READS = {
    "gram": lambda q, b: [(q, None), (0, (b, 0))],
    "weighted": lambda q, U: [(q, (U, 0)), (0, (U, 0))],
    "T0": lambda q, V: ([(0, (V, 0))] if q == 0 else
                        [(q + 1, None), (q, None), (q, (V, 2.0))]),
}


# the highest ladder level the zero-mode forms hold at: at level 6 the
# forms h <R^6 u, R^6 u> of the zero modes m = 0 and 1 read 1.4 to 164
# times C_6 = 6! (2 B0)^6 (m = 1 about 100 C_6 at b = 0, whatever B0 and
# the mesh), and higher levels are further off; up to level 5 they stay
# within 0.06 C_L of C_L at small b
MAX_LADDER_LEVEL = 5


def zero_mode_basis(gauge, m_max, qs, **fields):
    """Zero modes m = 0..m_max on the gauge's mesh, built with every form
    that the named quantities read for each q in `qs`:

        T0=V        build_T0(q, V, basis)
        gram=b      gram_identity_residual(q, basis, b)
        weighted=U  weighted_identity_residual(q, basis, U)

    Each mode is made, raised one ladder step per level up to the highest
    level asked for, and dropped: one mode is held at a time, and each
    mode takes one ladder step per level.  The steps are the ones
    ladder_apply takes, so a form equals the one of
    ladder_apply(zero_mode(m, gauge), gauge, L) bit for bit.  No mode is
    raised past MAX_LADDER_LEVEL: the basis holds no form above it, and
    a read of one raises LandauError (ZeroModeBasis.diagonal).
    """
    by_level = {}
    for q in qs:
        for name, U in fields.items():
            for level, weight in _READS[name](q, U):
                if level <= MAX_LADDER_LEVEL:
                    by_level.setdefault(level, set()).add(weight)
    mesh = gauge.mesh
    values = {}
    for weight in set().union(*by_level.values()) - {None}:
        spec, copies = weight
        v = spec.evaluate(mesh.nodes)
        values[weight] = v - copies * gauge.b_values if copies else v
    forms = {}  # filled through `fills`: per level, (form, weight values)
    fills = [[(forms.setdefault((level, w), np.empty(m_max + 1)),
               values.get(w)) for w in by_level.get(level, ())]
             for level in range(max(by_level, default=0) + 1)]
    for m in range(m_max + 1):
        u = zero_mode(m, gauge)
        for level, pairs in enumerate(fills):
            if level:
                u = ladder_apply(u, gauge, 1)
            for form, w in pairs:
                x = u.values if w is None else u.values * w
                form[m] = mesh.h * float(np.dot(x, u.values))
    return ZeroModeBasis(gauge, m_max + 1, forms)


def gram_identity_residual(q, basis, b):
    """Residual of the ladder Gram identity on the zero-mode basis.

    G[i][j] = <Qbar^q u_i, Qbar^q u_j> - C_q delta_ij
              - C'_q B0^(q-1) <b u_i, u_j>.

    For q = 1 the identity is exact in the continuum (the correction is
    2 b), so the residual is pure discretization error; for q >= 2 it
    estimates the sub-leading, faster-decaying part of the correction.
    B0 is read from the basis gauge.
    """
    if q < 1:
        raise ValueError("gram identity needs q >= 1")
    B0 = basis.gauge.B0
    raised, bform = basis.diagonal("gram", q, b)
    G = np.diag(raised)
    G -= coupling_constant(q, B0) * np.eye(len(basis))
    G -= linear_coupling_constant(q) * B0 ** (q - 1) * np.diag(bform)
    return G


def weighted_identity_residual(q, basis, U):
    """Residual of the weighted Gram identity against its leading term.

    Returns <U Qbar^q u_i, Qbar^q u_j> - C'_q B0^q <U u_i, u_j>.  B0 and
    the magnetic perturbation enter through the basis gauge.
    """
    if q < 1:
        raise ValueError("weighted identity needs q >= 1")
    raised, modes = basis.diagonal("weighted", q, U)
    lead = linear_coupling_constant(q) * basis.gauge.B0 ** q
    return np.diag(raised) - lead * np.diag(modes)


def build_T0(q, V, basis):
    """Toeplitz-type operator on the zero-mode basis via ladder forms, as
    its diagonal t[m] (the basis modes lie in distinct channels).

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
        return basis.diagonal("T0", q, V)[0]
    raised1, raised, weighted = basis.diagonal("T0", q, V)
    lam_next = 2.0 * (q + 1) * basis.gauge.B0
    return raised1 - lam_next * raised + weighted


def build_Tq(q, cluster):
    """Toeplitz-type operator compressed onto the q-th cluster, as its
    diagonal t[i] = h <(P_- - Lambda_q) v_i, v_i>, in cluster order.

    The cluster is solved with V in its channel matrices, so its states are
    their eigenvectors: T_q = P_- - Lambda_q + V compressed onto them is
    diagonal, with the cluster shifts on the diagonal.  One applied state
    is held at a time.
    """
    lam = 2.0 * q * cluster.B0
    t = np.empty(len(cluster.states))
    for i, v in enumerate(cluster.states):
        av = cluster.operators[v.m].matvec(v.values)
        av -= lam * v.values
        t[i] = v.mesh.h * float(np.dot(av, v.values))
    return t
