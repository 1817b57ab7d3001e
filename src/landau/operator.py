"""Channel-reduced radial operators, zero modes, and the creation ladder.

A radially symmetric 2D operator splits into angular-momentum channels.  In
the sqrt(r)-substituted variable w(r) = sqrt(r) f(r) the channel-m operator
reads -w'' + q_m(r) w with

    q_m = (m^2 - 1/4)/r^2 - 2 m A(r)/r + A(r)^2 + s B(r) + V(r),

s = -1 / 0 / +1 for the spin-down Pauli, Schroedinger and spin-up Pauli
kinds.  Cells are centered at r_i = (i - 1/2) h with faces at i h.

The matrix is the finite-volume (flux) form of -(rho u')'/rho in
u = w / sqrt(rho), with the weight rho = r f_m^2 built on the spin-down zero
mode profile f_m = r^|m| exp(-Psi), Psi' = A:

    diag_i = (rho_{i+1/2} + rho_{i-1/2}) / (rho_i h^2),
    off_i  = -rho_{i+1/2} / (sqrt(rho_i rho_{i+1}) h^2).

In the continuum this operator is -w'' + (phi''/phi) w with phi = sqrt(rho),
and phi''/phi = (m^2 - 1/4)/r^2 - 2|m| A/r + A^2 - B.  For m >= 0 the form
therefore carries the whole spin-down channel potential; for m < 0 the
remainder 2(|m| - m) A/r goes on the diagonal, together with the electric
part.  The vector sqrt(rho_i) lies in the kernel of the flux part whatever
the face values of Psi are, so the Aharonov-Casher zero modes
sqrt(r) r^m exp(-Psi), m >= 0, are exact up to roundoff and the rest of
the spectrum is second-order accurate.  Psi at the faces is B0 r^2/4 plus
a 4-point interpolation of the sampled psi.  The inner face at r = 0 has
zero area, so no boundary condition is needed there; the outer Dirichlet
condition is imposed through a ghost cell just outside r = R.  The plain
flux form with rho = r (the same scheme without the zero-mode factor) is
also second-order, but biases every zero mode by -(h^2/12) <(w''/w)^2>.

For large |m| the weight grows like r^(2|m|+1) from the origin and the
entries near r = 0 (about 4^(|m|+1/2) / h^2 in the first cell) leave the
floating-point range.  Cells where rho is below eps^4 of its maximum, next
to the origin, are therefore cut off: the face between them and the rest of
the channel is closed like the one at r = 0, and they keep only the bare
diagonal 2/h^2 + q_m + 1/(4 r^2), far above any cluster.  The zero mode is
below eps^2 of its peak there, so no eigenvalue moves in floating point.

Every kind is assembled in the spin-down normal form (electric part
V + 0/1/2 copies of b, plus a constant spectral shift 0 / B0 / 2 B0 added
as the final operation), so the operator-family identities
H(V) = P_-(V + b) + B0 and P_+(V) = P_-(V + 2b) + 2 B0 hold exactly in
floating point when both sides are built from the same gauge data.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import MeshMismatch
from .fields import FieldSpec

KINDS = ("pauli_minus", "pauli_plus", "schroedinger")

# copies of b folded into the electric part, also the constant shift in
# units of B0
_B_COPIES = {"pauli_minus": 0, "schroedinger": 1, "pauli_plus": 2}


def spin_down_form(kind, V, b):
    """Electric part and level shift (in units of B0) of the spin-down
    operator whose spectrum, shifted, is that of the operator `kind`.

    The electric part is V plus 0 / 1 / 2 copies of b: H(V) = P_-(V + b) + B0
    and P_+(V) = P_-(V + 2b) + 2 B0.
    """
    if kind not in _B_COPIES:
        raise ValueError(f"unknown operator kind {kind!r}")
    copies = float(_B_COPIES[kind])
    return (FieldSpec.sum(V, b.scaled(copies)) if copies else V), copies


@dataclass
class RadialMesh:
    """Uniform cell-centered mesh: r_i = (i - 1/2) h, i = 1..n, faces at i h.

    The node r = 0 is excluded and r_max = n h is the outer face where the
    Dirichlet condition acts.
    """

    r_max: float
    h: float

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("mesh step h must be positive")
        n = int(round(self.r_max / self.h))
        if abs(n * self.h - self.r_max) > 1e-9 * max(1.0, self.r_max):
            raise ValueError("r_max must be an integer multiple of h")
        if n < 16:
            raise ValueError("mesh needs at least 16 nodes")
        self.n = n
        self.r_max = n * self.h
        self.nodes = self.h * (np.arange(1, n + 1) - 0.5)
        self.sqrt_nodes = np.sqrt(self.nodes)
        self.log_nodes = np.log(self.nodes)

    @property
    def signature(self):
        return (self.n, self.h)


def channel_reach(r_max, B0):
    """3 R^2 B0 / 16 in floats, as the work bound of cli.load_config reads
    it: the classical orbit radius of the highest retained cluster state
    stays within r_max / 2."""
    return 3.0 * r_max * r_max * B0 / 16.0


def default_channel_cut(r_max, B0):
    """Largest retained angular momentum, channel_reach rounded down."""
    return int(math.floor(channel_reach(r_max, B0)))


@dataclass
class RadialFunction:
    """Samples of one angular channel in the sqrt(r)-substituted variable."""

    values: np.ndarray
    m: int
    mesh: RadialMesh

    def norm(self):
        return math.sqrt(self.mesh.h * float(np.dot(self.values, self.values)))

    def normalized(self):
        return RadialFunction(self.values / self.norm(), self.m, self.mesh)


@dataclass
class ChannelOperator:
    """Symmetric tridiagonal discretization of one angular channel."""

    kind: str
    m: int
    mesh: RadialMesh
    diag: np.ndarray
    offdiag: np.ndarray
    B0: float

    def matvec(self, v, out=None, work=None):
        """T v, into `out`; `work` (n - 1 entries) takes the products."""
        out = np.multiply(self.diag, v, out=out)
        part = np.multiply(self.offdiag, v[1:], out=work)
        out[:-1] += part
        out[1:] += np.multiply(self.offdiag, v[:-1], out=part)
        return out


def _check_mesh(gauge, mesh):
    if mesh.signature != gauge.mesh.signature:
        raise MeshMismatch(
            f"mesh (n={mesh.n}, h={mesh.h}) does not match gauge "
            f"(n={gauge.mesh.n}, h={gauge.mesh.h})"
        )


def _log_weight_steps(m, gauge):
    """log(rho_face / rho_cell) for rho = r^(2|m|+1) exp(-2 Psi).

    Returns (left, right): face i h against cell i (i = 1..n) and against
    cell i + 1 (i = 1..n-1).  Both are formed as differences, so no large
    log rho is ever exponentiated; only the factor 2|m| + 1 depends on the
    channel, the rest comes once per gauge from `GaugeData.face_steps`.
    """
    p = 2.0 * abs(m) + 1.0
    log_left, psi_left, log_right, psi_right = gauge.face_steps
    return p * log_left - psi_left, -p * log_right + psi_right


# rho below eps^4 of its maximum: the zero mode is below eps^2 of its peak
_LOG_RHO_CUT = -4.0 * math.log(np.finfo(float).eps)


def build_channel(kind, m, gauge, V):
    """Assemble the channel-m operator of the requested kind on the gauge's
    mesh.

    V is the electric FieldSpec.  The Schroedinger and spin-up kinds reuse
    the spin-down assembly with electric part V + b resp. V + 2b, then add
    the constant shift B0 resp. 2 B0 last.
    """
    electric, shift_B0 = spin_down_form(kind, V, gauge.source)
    mesh = gauge.mesh
    r = mesh.nodes
    A = gauge.A_theta
    h2 = mesh.h * mesh.h

    left, right = _log_weight_steps(m, gauge)
    log_rho = np.zeros(mesh.n)
    np.cumsum(np.subtract(left[:-1], right, out=log_rho[1:]), out=log_rho[1:])
    # cells [0, cut) lie below the weight cut next to the origin
    cut = int(np.argmax(log_rho >= np.max(log_rho) - _LOG_RHO_CUT))

    # in place, as -exp((left + right) / 2) / h2 and flux / h2 + rest +
    # electric + shift; rest (the potential the flux form leaves out) is +0
    # for m >= 0, a no-op on flux / h2 >= +0; cut cells get a bare diagonal
    offdiag = np.zeros(mesh.n - 1)
    off = np.add(left[cut:-1], right[cut:], out=offdiag[cut:])
    off *= 0.5
    np.exp(off, out=off)
    off /= -h2
    diag = np.zeros(mesh.n)
    np.exp(left[cut:], out=diag[cut:])
    diag[cut + 1:] += np.exp(right[cut:], out=right[cut:])
    diag /= h2
    if m < 0:
        diag[cut:] += (2.0 * (abs(m) - m)) * (A[cut:] / r[cut:])
    rc, Ac = r[:cut], A[:cut]
    diag[:cut] += (2.0 / h2 + (m * m) / (rc * rc) - (2.0 * m) * (Ac / rc)
                   + Ac * Ac - gauge.B_total[:cut])
    diag += gauge.sample(electric)
    diag += shift_B0 * gauge.B0
    return ChannelOperator(kind, m, mesh, diag, offdiag, gauge.B0)


def zero_mode(m, gauge):
    """Exact channel-m zero mode sqrt(r) r^m exp(-Psi), unit discrete norm,
    on the gauge's mesh.

    Computed through log magnitudes so large m and large Psi cannot
    underflow before normalization.
    """
    if m < 0:
        raise ValueError("zero modes exist for m >= 0 only")
    mesh = gauge.mesh
    logw = (m + 0.5) * mesh.log_nodes - gauge.Psi_total
    logw -= np.max(logw)
    return RadialFunction(np.exp(logw, out=logw), m, mesh).normalized()


def _deriv_centered(f, h):
    """First derivative by 5-point centered differences (one-sided 5-point
    formulas at the two nodes next to each end), in place in its output."""
    df = np.empty_like(f)
    inner = np.multiply(f[3:-1], 8.0, out=df[2:-2])
    inner -= f[4:]
    inner -= 8.0 * f[1:-3]
    inner += f[:-4]
    inner /= 12.0 * h
    f0, f1, f2, f3, f4 = f[:5].tolist()
    b4, b3, b2, b1, b0 = f[-5:].tolist()
    df[0] = (-25.0 * f0 + 48.0 * f1 - 36.0 * f2
             + 16.0 * f3 - 3.0 * f4) / (12.0 * h)
    df[1] = (-3.0 * f0 - 10.0 * f1 + 18.0 * f2 - 6.0 * f3 + f4) / (12.0 * h)
    df[-2] = (3.0 * b0 + 10.0 * b1 - 18.0 * b2 + 6.0 * b3 - b4) / (12.0 * h)
    df[-1] = (25.0 * b0 - 48.0 * b1 + 36.0 * b2
              - 16.0 * b3 + 3.0 * b4) / (12.0 * h)
    return df


def ladder_apply(g, gauge, q):
    """Apply the creation action g' + (m/r) g - A g, channel m -> m - 1,
    q times.

    Each step acts in the unsubstituted variable f = w / sqrt(r) and maps
    back; the derivative uses centered differences.  The uniform unimodular
    factor of the creation operator is dropped; norms and inner products
    are unaffected.
    Each step sqrt(r) ((f' + (m / r) f) - A f), f = g / sqrt(r), runs in
    place and rounds as that expression does array by array.
    """
    _check_mesh(gauge, g.mesh)
    mesh = g.mesh
    f, part = np.empty(mesh.n), np.empty(mesh.n)
    for _ in range(q):
        np.divide(g.values, mesh.sqrt_nodes, out=f)
        out = _deriv_centered(f, mesh.h)
        out += np.multiply(np.divide(g.m, mesh.nodes, out=part), f, out=part)
        out -= np.multiply(gauge.A_theta, f, out=part)
        out *= mesh.sqrt_nodes
        g = RadialFunction(out, g.m - 1, mesh)
    return g
