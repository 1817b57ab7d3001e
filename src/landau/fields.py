"""Radial field profiles, gauge construction, effective weights, counting measure.

Profiles are sums of smooth radial terms (power decay, Gaussian, compactly
supported bump), and their decay class beta derives from the terms: the
slowest nonzero power term, none for gaussian and bump terms, which decay
faster than any power.  The gauge solves the radial Poisson problem for the
scalar potential of the field perturbation and carries sampled A_theta, psi
and the total exponent Psi on a uniform mesh.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ._quadrature import panel_integrals
from .errors import DegenerateWeight, LandauError, UnboundedSet

_KINDS = ("power", "gaussian", "bump")


@dataclass(frozen=True)
class ProfileTerm:
    """One additive piece of a radial profile.

    power:    amplitude * (1 + r^2)^(beta/2), beta < 0
    gaussian: amplitude * exp(-(r - center)^2 / (2 width^2))
    bump:     amplitude * cutoff(r), smooth, equal to amplitude for
              r <= inner and identically 0 for r >= outer

    Only a power term has a beta; the others decay faster than any power.
    """

    kind: str
    amplitude: float
    beta: float = None
    center: float = 0.0
    width: float = 1.0
    inner: float = 0.0
    outer: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind != "power" and self.beta is not None:
            raise ValueError(f"{self.kind} profile takes no beta")
        if self.kind == "power" and not (self.beta is not None
                                         and self.beta < 0):
            raise ValueError("power profile needs beta < 0")
        if self.kind == "gaussian" and self.width <= 0:
            raise ValueError("gaussian profile needs width > 0")
        if self.kind == "bump" and not 0.0 <= self.inner < self.outer:
            raise ValueError("bump profile needs 0 <= inner < outer")

    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "power":
            return self.amplitude * (1.0 + r * r) ** (0.5 * self.beta)
        if self.kind == "gaussian":
            arg = (r - self.center) / self.width
            return self.amplitude * np.exp(-0.5 * arg * arg)
        return self.amplitude * _smooth_cutoff(
            (r - self.inner) / (self.outer - self.inner))


def _smooth_cutoff(t):
    """C-infinity step: 1 for t <= 0, 0 for t >= 1."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        lo = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        hi = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    out = np.where(t <= 0.0, 1.0, np.where(t >= 1.0, 0.0, hi / (lo + hi + 1e-300)))
    return out


@dataclass(frozen=True)
class FieldSpec:
    """A radial profile, the sum of its terms (FieldSpec() is zero)."""

    terms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    @staticmethod
    def power(amplitude, beta):
        return FieldSpec((ProfileTerm("power", amplitude, beta=beta),))

    @property
    def beta(self):
        """Decay class: the slowest beta among the nonzero power terms, or
        None without one (the zero field, or gaussian and bump terms, which
        decay faster than any power)."""
        return max((t.beta for t in self.terms
                    if t.beta is not None and t.amplitude != 0.0),
                   default=None)

    @property
    def is_zero(self):
        return all(t.amplitude == 0.0 for t in self.terms)

    def evaluate(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for term in self.terms:
            out = out + term.evaluate(r)
        return out

    __call__ = evaluate

    def scaled(self, factor):
        return FieldSpec(replace(t, amplitude=t.amplitude * factor)
                         for t in self.terms)

    @staticmethod
    def sum(a, b):
        return FieldSpec(a.terms + b.terms)


@dataclass
class GaugeData:
    """Sampled gauge quantities on a radial mesh.

    B_total = B0 + b(r); A_theta(r) = B0 r / 2 + (1/r) int_0^r t b(t) dt;
    psi solves the radial Poisson problem for b with psi(0) = 0, and
    Psi_total = B0 r^2 / 4 + psi.
    """

    mesh: "RadialMesh"
    B0: float
    source: FieldSpec
    B_total: np.ndarray
    A_theta: np.ndarray
    psi: np.ndarray
    Psi_total: np.ndarray
    _samples: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @property
    def b_values(self):
        return self.B_total - self.B0

    def sample(self, spec):
        """spec evaluated at the mesh nodes, once per gauge and spec: every
        channel of a solve adds the same electric part."""
        values = self._samples.get(spec)
        if values is None:
            values = self._samples[spec] = spec.evaluate(self.mesh.nodes)
        return values

    @cached_property
    def face_steps(self):
        """Channel-independent parts of the weight's log steps at the faces.

        For the channel weight rho = r^(2|m|+1) exp(-2 Psi), log(rho_face /
        rho_cell) across face i h is (2|m|+1) log(r_face / r_cell) minus
        2 (Psi_face - Psi_cell).  Returns (log_left, psi_left, log_right,
        psi_right): the log radius ratios and the doubled Psi steps of face
        i h against cell i (i = 1..n) and against cell i + 1 (i = 1..n-1).
        Psi at the faces is B0 r^2/4 plus the interpolated psi.
        """
        mesh, psi = self.mesh, self.psi
        i = np.arange(1, mesh.n + 1, dtype=float)
        quarter_h2 = 0.25 * self.B0 * mesh.h * mesh.h
        dpsi = _face_psi(psi) - psi
        dpsi_next = dpsi[:-1] + psi[:-1] - psi[1:]
        return (np.log1p(1.0 / (2.0 * i - 1.0)),
                2.0 * (quarter_h2 * (i - 0.25) + dpsi),
                np.log1p(0.5 / i[:-1]),
                2.0 * (quarter_h2 * (i[:-1] + 0.25) - dpsi_next))

    def rows(self):
        """(r, B, A_theta, psi, Psi) rows of Python floats, which format
        faster than numpy scalars and to the same repr."""
        return zip(*(column.tolist() for column in (
            self.mesh.nodes, self.B_total, self.A_theta, self.psi,
            self.Psi_total)))


def _face_psi(psi):
    """psi at the faces i h, i = 1..n, by 4-point Lagrange interpolation of
    the cell-center samples (one-sided at both ends, extrapolated at R)."""
    f = np.empty_like(psi)
    f[1:-2] = (-psi[:-3] + 9.0 * psi[1:-2] + 9.0 * psi[2:-1] - psi[3:]) / 16.0
    f[0] = (5.0 * psi[0] + 15.0 * psi[1] - 5.0 * psi[2] + psi[3]) / 16.0
    f[-2] = (psi[-4] - 5.0 * psi[-3] + 15.0 * psi[-2] + 5.0 * psi[-1]) / 16.0
    f[-1] = (-5.0 * psi[-4] + 21.0 * psi[-3] - 35.0 * psi[-2]
             + 35.0 * psi[-1]) / 16.0
    return f


def build_gauge(b, B0, mesh):
    """Construct gauge samples for field B0 + b on the mesh.

    The circulation integral and the psi increments are done with adaptive
    panel quadrature (`panel_integrals`, absolute tolerance 1e-10).
    """
    if B0 <= 0:
        raise ValueError("B0 must be positive")
    r = mesh.nodes
    base_A = 0.5 * B0 * r
    base_Psi = 0.25 * B0 * r * r
    if b.is_zero:
        zero = np.zeros_like(r)
        return GaugeData(mesh, B0, b, np.full_like(r, B0), base_A, zero, base_Psi)

    def integrands(t):  # both integrals share the nodes and b on them
        tb = t * b.evaluate(t)
        return tb, tb * np.log(t)
    tb, tb_log = panel_integrals(integrands, np.concatenate([[0.0], r]))
    circ = np.cumsum(tb)
    A_theta = base_A + circ / r

    # psi(r_i) - psi(r_{i-1}) = circ_{i-1} log(r_i/r_{i-1})
    #                           + int_panel t b(t) log(r_i/t) dt
    incr = np.empty_like(r)
    incr[0] = math.log(r[0]) * tb[0] - tb_log[0]
    incr[1:] = (circ[:-1] * np.log(r[1:] / r[:-1])
                + np.log(r[1:]) * tb[1:] - tb_log[1:])
    psi = np.cumsum(incr)

    return GaugeData(mesh, B0, b, B0 + b.evaluate(r), A_theta, psi,
                     base_Psi + psi)


@dataclass(frozen=True)
class EffectiveWeight:
    """Radial weight V + 2q b."""

    V: FieldSpec
    b: FieldSpec
    q: int
    B0: float

    def profile(self, r):
        return self.V.evaluate(r) + (2.0 * self.q) * self.b.evaluate(r)

    __call__ = profile

    @property
    def beta_eff(self):
        """Decay class of V + 2 q b (FieldSpec.beta)."""
        return FieldSpec.sum(self.V, self.b.scaled(2.0 * self.q)).beta


def effective_weight(V, b, q, B0):
    if q < 0:
        raise ValueError("Landau index q must be >= 0")
    return EffectiveWeight(V=V, b=b, q=int(q), B0=float(B0))


def _parse_sign(sign):
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return 1.0 if sign == "+" else -1.0


# superlevel_scan: sampling grid cells, bisection steps per crossing, and
# crossings a closed set may have
_N_GRID = 8192
_N_BISECT = 60
_MAX_CROSSINGS = 64


def superlevel_scan(weight, lams, sign="+", *, r_max):
    """Maximal intervals of {r in [0, r_max] : sign * W(r) > lam} for every
    lam of `lams` at once.

    Returns one entry per lam, in the order given: the list of (start, end)
    intervals, or None where the set is still open at r_max.  Assumes a
    piecewise monotone profile whose crossings are resolved on the sampling
    grid.  sign * W is sampled once on the grid; every crossing of every lam
    is then located by one shared bisection of _N_BISECT steps (about 1e-12
    absolute in r).  The first lam in order that is not positive raises
    ValueError, and the first whose closed set has more than _MAX_CROSSINGS
    crossings raises LandauError.
    """
    lams = np.asarray(lams, dtype=float)
    s = _parse_sign(sign)
    grid = np.linspace(0.0, r_max, _N_GRID + 1)
    sw = s * weight(grid)
    # sw - lam > 0 exactly when sw > lam, so grid step i crosses lam exactly
    # when min(sw_i, sw_i+1) <= lam < max(sw_i, sw_i+1); those lam are a
    # contiguous run of the sorted lambdas
    order = np.argsort(lams, kind="stable")
    first = np.searchsorted(lams[order], np.minimum(sw[:-1], sw[1:]))
    count = np.searchsorted(lams[order], np.maximum(sw[:-1], sw[1:])) - first
    crossed = np.flatnonzero(count)
    first, count = first[crossed], count[crossed]
    step = np.repeat(crossed, count)
    ends = np.cumsum(count)
    rank = np.arange(step.size) - np.repeat(ends - count - first, count)
    which = order[rank]
    crossings = np.bincount(which, minlength=lams.size)

    is_open = sw[-1] > lams
    bad = (lams <= 0) | (~is_open & (crossings > _MAX_CROSSINGS))
    if np.any(bad):
        if lams[np.argmax(bad)] <= 0:
            raise ValueError("lambda must be positive")
        raise LandauError(f"more than {_MAX_CROSSINGS} crossings of W - "
                          "lambda")

    # grouped by lam, each group in grid order; open sets are not bisected
    keep = np.lexsort((step, which))
    keep = keep[~is_open[which[keep]]]
    step, which = step[keep], which[keep]
    lam = lams[which]
    lo = grid[step]
    hi = grid[step + 1]
    # nudge exact zeros off the boundary so interval bookkeeping stays simple
    glo = sw[step] - lam
    glo = np.where(glo == 0.0, -1e-300, glo)
    for _ in range(_N_BISECT):
        mid = 0.5 * (lo + hi)
        gm = s * weight(mid) - lam
        gm = np.where(gm == 0.0, -1e-300, gm)
        left = np.sign(glo) != np.sign(gm)
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        glo = np.where(left, glo, gm)
    roots = np.split(0.5 * (lo + hi),
                     np.cumsum(np.bincount(which, minlength=lams.size))[:-1])

    scans = []
    for k in range(lams.size):
        # the set starts at 0 when it holds the origin; the crossings then
        # alternate between its interval starts and ends
        points = [0.0] * bool(sw[0] > lams[k]) + roots[k].tolist()
        scans.append(None if is_open[k]
                     else list(zip(points[::2], points[1::2])))
    return scans


def _closed(scans, lams, r_max):
    """The scans, or UnboundedSet for the first one still open at r_max."""
    for lam, intervals in zip(lams, scans):
        if intervals is None:
            raise UnboundedSet(f"superlevel set still open at r_max={r_max:g} "
                               f"for lambda={lam:g}")
    return scans


def superlevel_radius(weight, lam, sign="+", *, r_max):
    """Outer radius of the superlevel set (0 when empty); raises
    UnboundedSet when the set is still open at r_max."""
    intervals = _closed(superlevel_scan(weight, [lam], sign, r_max=r_max),
                        [lam], r_max)[0]
    return intervals[-1][1] if intervals else 0.0


def superlevel_measure(weight, intervals):
    """(B0 / 2) * total length in r^2 of the given superlevel intervals."""
    return 0.5 * weight.B0 * sum(b * b - a * a for a, b in intervals)


def counting_measure(weight, lams, sign="+", *, r_max):
    """E_pm(lam, W) = (B0 / 2) * sum of lengths of {r^2 : sign W(r) > lam}
    for every lam of `lams`, from one superlevel scan.

    The first lam in order whose set is still open at r_max raises
    UnboundedSet; on a decreasing grid that is the lam a one-by-one sweep
    would stop at.
    """
    scans = superlevel_scan(weight, lams, sign, r_max=r_max)
    return [superlevel_measure(weight, intervals)
            for intervals in _closed(scans, lams, r_max)]


def check_regularity(weight, lambda_grid, eps, sign="+", *, r_max):
    """Probe the counting-measure regularity and lower-bound conditions.

    Returns max over the grid of E(lam (1-eps)) / E(lam) (`max_ratio`) and
    the log-log slope of E (`exponent`).  A weight with a decay class beta
    (EffectiveWeight.beta_eff) also gets both compared with the values it
    predicts: `regular_ok` when the ratio stays within 5% of
    `expected_ratio` = (1 - eps)^(2 / beta), `lower_ok` when the slope is
    at most 2 / beta + 0.1.  Raises DegenerateWeight when E vanishes on the
    whole grid.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    lambdas = np.asarray(lambda_grid, dtype=float)
    if lambdas.size < 2 or np.any(np.diff(lambdas) >= 0) or np.any(lambdas <= 0):
        raise ValueError("lambda_grid must be positive and strictly decreasing")

    E = np.array(counting_measure(weight, lambdas, sign, r_max=r_max))
    mask = E > 0.0
    if not np.any(mask):
        raise DegenerateWeight(
            f"E_{sign}(lambda) = 0 on the whole grid; weight has no {sign} part"
        )
    E_shift = np.array(counting_measure(weight, lambdas[mask] * (1.0 - eps),
                                        sign, r_max=r_max))
    max_ratio = float(np.max(E_shift / E[mask]))

    slope = float(np.polyfit(np.log(lambdas[mask]), np.log(E[mask]), 1)[0])
    result = {"max_ratio": max_ratio, "exponent": slope}
    beta = weight.beta_eff
    if beta is not None:
        expected_ratio = (1.0 - eps) ** (2.0 / beta)
        result.update(expected_ratio=expected_ratio,
                      regular_ok=max_ratio <= 1.05 * expected_ratio,
                      lower_ok=slope <= 2.0 / beta + 0.1)
    return result
