import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from landau.errors import LandauError, QuadratureFailure, UnboundedSet
from landau import spectra
from landau._quadrature import panel_integrals
from landau.fields import FieldSpec, build_gauge
from landau.operator import (_LOG_RHO_CUT, RadialFunction, RadialMesh,
                             _check_mesh, _deriv_centered, ladder_apply,
                             spin_down_form, zero_mode)
from landau.projections import coupling_constant


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py as a module, loaded from its file without
    writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="session")
def mesh_small():
    return RadialMesh(12.0, 0.01)


@pytest.fixture(scope="session")
def gauge_zero(mesh_small):
    return build_gauge(FieldSpec(), 1.0, mesh_small)


@pytest.fixture(scope="session")
def b_power():
    return FieldSpec.power(0.05, -3.0)


@pytest.fixture(scope="session")
def gauge_power(mesh_small, b_power):
    return build_gauge(b_power, 1.0, mesh_small)


@pytest.fixture(scope="session")
def gauge_headline():
    """The headline field b = 0.05 (1 + r^2)^(-3/2), B0 = 1, on the
    headline mesh R = 30, h = 0.005."""
    return build_gauge(FieldSpec.power(0.05, -3.0), 1.0,
                       RadialMesh(30.0, 0.005))


def brute_force_measure(profile, lam, sign, r_max, B0=1.0, base=4096,
                        iters=52):
    """Indicator-only superlevel area oracle.

    Riemann cells fully inside the superlevel set are summed exactly in
    the r^2 variable; boundary cells are narrowed by bisecting the
    indicator (no function values are compared beyond the > test).
    """
    s = 1.0 if sign == "+" else -1.0
    xs = np.linspace(0.0, r_max, base + 1)
    inside = s * np.asarray(profile(xs)) > lam

    def indicator(x):
        return s * float(profile(np.asarray([x]))[0]) > lam

    area = 0.0
    for k in range(base):
        a, b = xs[k], xs[k + 1]
        ia, ib = inside[k], inside[k + 1]
        if ia and ib:
            area += b * b - a * a
        elif ia != ib:
            lo, hi = a, b
            for _ in range(iters):
                mid = 0.5 * (lo + hi)
                if indicator(mid) == ia:
                    lo = mid
                else:
                    hi = mid
            flip = 0.5 * (lo + hi)
            if ia:
                area += flip * flip - a * a
            else:
                area += b * b - flip * flip
    return 0.5 * B0 * area


def superlevel_intervals_per_lambda(weight, lam, sign="+", *, r_max,
                                    n_grid=8192, max_crossings=64,
                                    n_bisect=60):
    """One-lambda superlevel scan: samples sign * W for this lambda alone
    and bisects its own crossings.  Reference for fields.superlevel_scan,
    which must agree bit for bit."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    s = 1.0 if sign in ("+", 1, 1.0) else -1.0
    grid = np.linspace(0.0, r_max, n_grid + 1)
    g = s * weight(grid) - lam
    g = np.where(g == 0.0, -1e-300, g)
    if g[-1] > 0.0:
        raise UnboundedSet(
            f"superlevel set still open at r_max={r_max:g} for lambda={lam:g}"
        )
    idx = np.nonzero(np.sign(g[:-1]) != np.sign(g[1:]))[0]
    if idx.size > max_crossings:
        raise LandauError(f"more than {max_crossings} crossings of W - lambda")
    lo = grid[idx]
    hi = grid[idx + 1]
    glo = g[idx]
    for _ in range(n_bisect):
        mid = 0.5 * (lo + hi)
        gm = s * weight(mid) - lam
        gm = np.where(gm == 0.0, -1e-300, gm)
        left = np.sign(glo) != np.sign(gm)
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        glo = np.where(left, glo, gm)
    roots = 0.5 * (lo + hi)

    intervals = []
    inside = g[0] > 0.0
    start = 0.0
    for x in roots:
        if inside:
            intervals.append((start, float(x)))
            inside = False
        else:
            start = float(x)
            inside = True
    return intervals


def dense(op):
    """The channel matrix of a ChannelOperator as a dense array."""
    n = op.diag.size
    a = np.zeros((n, n))
    np.fill_diagonal(a, op.diag)
    idx = np.arange(n - 1)
    a[idx, idx + 1] = op.offdiag
    a[idx + 1, idx] = op.offdiag
    return a


def total_flux(b):
    """2 pi * integral of t b(t) dt over [0, inf)."""
    val, abserr = integrate.quad(lambda t: t * float(b.evaluate(t)), 0.0,
                                 np.inf, epsabs=1e-12, epsrel=1e-12, limit=400)
    if abserr > 1e-8 * max(1.0, abs(val)):
        raise QuadratureFailure(f"flux integral error estimate {abserr:g} too large")
    return 2.0 * math.pi * val


_SPIN = {"pauli_minus": -1.0, "schroedinger": 0.0, "pauli_plus": 1.0}


def channel_potential_direct(kind, m, gauge, V):
    """q_m(r) + 1/(4 r^2) from the textbook formula, for cross-checks.

    The assembled matrix acts on smooth w as -w'' + (this - 1/(4 r^2)) w
    up to O(h^2).
    """
    r = gauge.mesh.nodes
    A = gauge.A_theta
    v = V.evaluate(r) if V is not None else np.zeros_like(r)
    return ((m * m) / (r * r) - (2.0 * m) * (A / r) + A * A
            + _SPIN[kind] * gauge.B_total + v)


# The kernels as they read before they were rewritten in place: each one
# allocated a fresh array per operation.  The rewritten kernels must match
# them bit for bit (np.array_equal), so these stay as test oracles.

def reference_deriv(f, h):
    """operator._deriv_centered, one fresh array per operation."""
    df = np.empty_like(f)
    df[2:-2] = (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * h)
    df[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2]
             + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)
    df[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2]
             - 6.0 * f[3] + f[4]) / (12.0 * h)
    df[-2] = (3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3]
              + 6.0 * f[-4] - f[-5]) / (12.0 * h)
    df[-1] = (25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3]
              - 16.0 * f[-4] + 3.0 * f[-5]) / (12.0 * h)
    return df


def reference_ladder_apply(g, gauge, q):
    """operator.ladder_apply, one fresh array per operation."""
    mesh = g.mesh
    r = mesh.nodes
    for _ in range(q):
        f = g.values / mesh.sqrt_nodes
        out = reference_deriv(f, mesh.h) + (g.m / r) * f - gauge.A_theta * f
        g = RadialFunction(mesh.sqrt_nodes * out, g.m - 1, mesh)
    return g


def reference_zero_mode(m, gauge):
    """operator.zero_mode, with log(r) taken per call."""
    mesh = gauge.mesh
    logw = (m + 0.5) * np.log(mesh.nodes) - gauge.Psi_total
    return RadialFunction(np.exp(logw - np.max(logw)), m, mesh).normalized()


def reference_build_channel(kind, m, gauge, V):
    """operator.build_channel as (diag, offdiag), one fresh array per
    operation."""
    electric, shift_B0 = spin_down_form(kind, V, gauge.source)
    mesh = gauge.mesh
    r = mesh.nodes
    A = gauge.A_theta
    h2 = mesh.h * mesh.h
    p = 2.0 * abs(m) + 1.0
    log_left, psi_left, log_right, psi_right = gauge.face_steps
    left, right = p * log_left - psi_left, -p * log_right + psi_right
    log_rho = np.concatenate([[0.0], np.cumsum(left[:-1] - right)])
    cut = int(np.argmax(log_rho >= np.max(log_rho) - _LOG_RHO_CUT))
    flux = np.zeros_like(r)
    flux[cut:] = np.exp(left[cut:])
    flux[cut + 1:] += np.exp(right[cut:])
    offdiag = np.zeros(mesh.n - 1)
    offdiag[cut:] = -np.exp(0.5 * (left[cut:-1] + right[cut:])) / h2
    rest = np.zeros_like(r) if m >= 0 else (2.0 * (abs(m) - m)) * (A / r)
    rc, Ac = r[:cut], A[:cut]
    rest[:cut] = (2.0 / h2 + (m * m) / (rc * rc) - (2.0 * m) * (Ac / rc)
                  + Ac * Ac - gauge.B_total[:cut])
    core = flux / h2 + rest + gauge.sample(electric)
    return core + shift_B0 * gauge.B0, offdiag


def reference_gauge(b, B0, mesh):
    """(A_theta, psi) of fields.build_gauge for a nonzero b, from one
    panel_integrals call per integral."""
    r = mesh.nodes
    edges = np.concatenate([[0.0], r])
    tb = panel_integrals(lambda t: (t * b.evaluate(t),), edges)[0]
    circ = np.cumsum(tb)
    tb_log = panel_integrals(lambda t: (t * b.evaluate(t) * np.log(t),),
                             edges)[0]
    incr = np.empty_like(r)
    incr[0] = math.log(r[0]) * tb[0] - tb_log[0]
    incr[1:] = (circ[:-1] * np.log(r[1:] / r[:-1])
                + np.log(r[1:]) * tb[1:] - tb_log[1:])
    return 0.5 * B0 * r + circ / r, np.cumsum(incr)


def _reference_matvec(diag, offdiag, v):
    """ChannelOperator.matvec, one fresh array per operation."""
    out = diag * v
    out[:-1] += offdiag * v[1:]
    out[1:] += offdiag * v[:-1]
    return out


def reference_one_pair(op, e_min, e_max, extra=0, start=None, shift=None):
    """spectra._one_pair, one fresh array per operation and
    np.linalg.norm for the norms."""
    shift = 0.5 * (e_min + e_max) if shift is None else shift
    shifted = op.diag - shift
    dl, d, du, du2, ipiv, info = spectra.dgttrf(op.offdiag, shifted,
                                                op.offdiag, overwrite_d=1)
    if info:
        return None
    abs_diag, abs_off = np.abs(op.diag), np.abs(op.offdiag)
    v = np.ones(op.mesh.n) if start is None else start
    for _ in range(spectra._MAX_STEPS):
        x, _ = spectra.dgttrs(dl, d, du, du2, ipiv, v)
        v = x / np.linalg.norm(x)
        tv = _reference_matvec(op.diag, op.offdiag, v)
        E = float(np.dot(v, tv))
        scale = _reference_matvec(abs_diag, abs_off, np.abs(v))
        if (np.linalg.norm(tv - E * v)
                <= spectra._BACKWARD_ERROR * np.linalg.norm(scale)):
            break
    else:
        return None
    for _ in range(extra):
        x, _ = spectra.dgttrs(dl, d, du, du2, ipiv, v)
        v = x / np.linalg.norm(x)
    if v[int(np.argmax(np.abs(v)))] < 0:
        v = -v
    tv = _reference_matvec(op.diag, op.offdiag, v)
    E = float(np.dot(v, tv) / np.dot(v, v))
    return (E, v) if e_min < E <= e_max else None


def inner(f, g):
    """Inner product of two RadialFunctions; distinct channels are
    orthogonal exactly."""
    if f.m != g.m:
        return 0.0
    return f.mesh.h * float(np.dot(f.values, g.values))


def ladder_lower(g, gauge):
    """Annihilation action g' - (m/r) g + A g, channel m -> m + 1; the
    counterpart of the creation step of operator.ladder_apply, which the
    pipeline alone uses."""
    _check_mesh(gauge, g.mesh)
    mesh = g.mesh
    f = g.values / mesh.sqrt_nodes
    out = (_deriv_centered(f, mesh.h) - (g.m / mesh.nodes) * f
           + gauge.A_theta * f)
    return RadialFunction(mesh.sqrt_nodes * out, g.m + 1, mesh)


def commutator_action(g, gauge):
    """Pointwise ladder-commutator action on g; equals 2 B(r) g in the
    continuum.

    With the unimodular factors dropped, each annihilation-creation
    roundtrip acquires one minus sign, so the commutator is
    -(lower(raise g) - raise(lower g)).
    """
    up_down = ladder_lower(ladder_apply(g, gauge, 1), gauge)
    down_up = ladder_apply(ladder_lower(g, gauge), gauge, 1)
    return RadialFunction(-(up_down.values - down_up.values), g.m, g.mesh)


def cluster_shifts(table, center, gamma):
    """Signed shifts E - center of the table's cluster rows (non-boundary,
    strictly inside (center - gamma, center + gamma)), |shift| descending
    with ties in table order, as spectra.cluster_states orders them."""
    shifts = [e - center for e, flagged in zip(table.E, table.boundary)
              if not flagged and center - gamma < e < center + gamma]
    return np.array(sorted(shifts, key=lambda s: -abs(s)))


def perturbation_inequality_check(L0, L1, mu1, mu2, tau1, tau2):
    """Exact integer check of the two-sided eigenvalue perturbation bound.

    N(mu1, mu2; L0 + L1) <= N(mu1 - tau1, mu2 + tau2; L0)
                            + n(tau1; L1) + n(tau2; L1),
    with n(tau; L1) the number of singular values of L1 above tau.
    """
    if tau1 <= 0 or tau2 <= 0:
        raise ValueError("tau1, tau2 must be positive")
    if mu1 >= mu2:
        raise ValueError("need mu1 < mu2")
    L0 = np.asarray(L0, dtype=float)
    L1 = np.asarray(L1, dtype=float)
    eig_sum = np.linalg.eigvalsh(L0 + L1)
    eig_0 = np.linalg.eigvalsh(L0)
    sv = np.linalg.svd(L1, compute_uv=False)
    lhs = int(np.count_nonzero((eig_sum > mu1) & (eig_sum < mu2)))
    rhs = (int(np.count_nonzero((eig_0 > mu1 - tau1) & (eig_0 < mu2 + tau2)))
           + int(np.count_nonzero(sv > tau1))
           + int(np.count_nonzero(sv > tau2)))
    return lhs <= rhs


class BasisTooSmall(LandauError):
    """Zero-mode basis loses too much norm when projecting a cluster state."""


def _symmetrized(mat, where):
    if mat.size == 1:  # a 1 x 1 block cannot be skew
        return mat
    skew = np.max(np.abs(mat - mat.T))
    scale = max(np.max(np.abs(mat)), 1.0)
    if skew > 1e-12 * scale:
        raise AssertionError(f"{where}: asymmetry {skew:g} above tolerance")
    return 0.5 * (mat + mat.T)


def build_Sq_action(q, cluster, m_max, gauge):
    """Gram matrix of the approximate spectral projection on the cluster.

    S_q = C_q^{-1} Qbar^q P_0 Q^q applied to each cluster eigenvector;
    returns <S_q v_i, v_j>.  P_0 projects onto the zero modes
    m = 0..m_max; raises BasisTooSmall when it loses more than 1% of a
    lowered state's norm.

    The ladder actions drop one unimodular factor per application, so the
    one-sided composition here regains (-1)^q relative to the raw raise /
    lower chain; inner products of same-side chains are unaffected.
    """
    if q < 1:
        raise ValueError("approximate projection needs q >= 1")
    c_q = coupling_constant(q, gauge.B0)
    k = len(cluster)
    raised_cache = {}
    coeffs = np.zeros(k)
    for i, v in enumerate(cluster.states):
        lowered = v
        for _ in range(q):
            lowered = ladder_lower(lowered, gauge)
        target = lowered.m
        if not 0 <= target <= m_max:
            raise BasisTooSmall(
                f"cluster state m={v.m} lowers to channel {target} outside "
                f"the zero-mode basis [0, {m_max}]"
            )
        u = zero_mode(target, gauge)
        c = inner(lowered, u)
        if abs(c) < 0.99 * lowered.norm():
            raise BasisTooSmall(
                f"projection keeps only {abs(c) / lowered.norm():.3f} of the "
                f"norm of Q^{q} v for cluster state m={v.m}"
            )
        coeffs[i] = c
        if target not in raised_cache:
            raised_cache[target] = ladder_apply(u, gauge, q)
    phase = (-1.0) ** q
    s = np.zeros((k, k))
    for i, v_i in enumerate(cluster.states):
        back = raised_cache[v_i.m + q]
        for j, v_j in enumerate(cluster.states):
            if v_j.m == v_i.m:
                s[i, j] = phase * coeffs[i] * inner(back, v_j) / c_q
    return _symmetrized(s, "build_Sq_action")


@dataclass
class OffdiagReport:
    """Singular values of (1 - P_q) V P_q on the truncated space."""

    q: int
    singular_values: np.ndarray  # descending
    sigma_max: float
    labels: list                 # (m, n) per singular value


def offdiag_smallness(q, V, cluster):
    """Largest singular value (and the full list) of (1 - P_q) V P_q.

    For radial V the operator is channel-diagonal, so the singular values
    are the norms of (1 - P_q) V v per cluster state v.  A channel's states
    share one mesh, which V is sampled on.
    """
    if not len(cluster):
        return OffdiagReport(q, np.empty(0), 0.0, [])
    by_channel = {}
    for i, v in enumerate(cluster.states):
        by_channel.setdefault(v.m, []).append(i)
    sigmas = []
    labels = []
    for m, idxs in by_channel.items():
        mesh = cluster.states[idxs[0]].mesh
        Vv = V.evaluate(mesh.nodes)
        for i in idxs:
            v = cluster.states[i]
            w = Vv * v.values
            for j in idxs:  # remove all cluster components in this channel
                u = cluster.states[j]
                w = w - u.values * (mesh.h * float(np.dot(u.values, w)))
            sigmas.append(math.sqrt(mesh.h * float(np.dot(w, w))))
            labels.append((int(cluster.ms[i]), int(cluster.ns[i])))
    order = np.argsort(sigmas)[::-1]
    sigmas = np.array(sigmas)[order]
    labels = [labels[k] for k in order]
    sigma_max = float(sigmas[0]) if sigmas.size else 0.0
    return OffdiagReport(q, sigmas, sigma_max, labels)
