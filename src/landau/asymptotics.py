"""Verification harness: cluster counting vs the semiclassical measure.

The pipeline fixes a Landau index q, diagonalizes the channels that can
contribute to the q-th cluster, and compares the eigenvalue counting
function N(Lambda_q + lambda, Lambda_q + gamma) against E_+(lambda, V + 2q b)
over a lambda grid restricted to a trust region where the finite domain,
the boundary drift, and the mesh defect cannot distort the comparison.
One rule decides both the cluster and N: a non-boundary state belongs to
the cluster when |E - Lambda_q| < gamma, Lambda_q = 2 q B0, and N counts
the cluster states beyond lambda on the side of `sign`.

Every operator kind is solved as the spin-down one (operator.spin_down_form):
H(V) = P_-(V + b) + B0 and P_+(V) = P_-(V + 2b) + 2 B0, so a run needs its
config, q, and the spin-down electric part V.

The stages form one data flow: compute_cluster(cfg, q) solves the cluster
once and returns a ClusterComputation holding cfg, q and the spin-down V;
boundary_sensitivity(comp) estimates the domain drift from it;
cluster_asymptotics_report(comp) builds the counting report (taking the
drift from boundary_sensitivity); and upper_estimate_check(comp, report)
fits the exponent on that report.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectra
from .errors import TrustRegionEmpty
from .fields import (FieldSpec, GaugeData, build_gauge, effective_weight,
                     superlevel_measure, superlevel_scan)
from .operator import (KINDS, RadialMesh, build_channel, default_channel_cut,
                       spin_down_form)
from .spectra import (CountingReport, assemble_spectrum, cluster_states,
                      counting_function, solve_channels)

# fewest states a trusted lambda row counts; the trust floor's multiple of
# the drift and defect estimates; the drift is estimated for R -> 1.2 R
MIN_COUNT = 5
TRUST_SAFETY = 10.0
DRIFT_FACTOR = 1.2


@dataclass(frozen=True)
class VerificationConfig:
    """One cluster-verification scenario (fields, mesh, grid) for any
    Landau index: its inputs only; the channel cut and the window
    half-width are derived from them."""

    B0: float = 1.0
    operator: str = "pauli_minus"
    b: FieldSpec = field(default_factory=FieldSpec.zero)
    V: FieldSpec = field(default_factory=FieldSpec.zero)
    sign: str = "+"
    r_max: float = 30.0
    h: float = 0.005
    per_decade: int = 24

    def __post_init__(self):
        if self.B0 <= 0:
            raise ValueError("B0 must be positive")
        if self.operator not in KINDS:
            raise ValueError(f"operator must be one of {KINDS}")
        for name, spec in (("b", self.b), ("V", self.V)):
            if not spec.is_zero and spec.beta >= -2.0:
                raise ValueError(
                    f"{name}.beta = {spec.beta} violates the decay "
                    f"requirement beta < -2")
        if self.sign not in ("+", "-"):
            raise ValueError("sign must be '+' or '-'")

    @property
    def m_max(self):
        """Top angular channel of the solves, floor(3 r_max^2 B0 / 16)."""
        return default_channel_cut(self.r_max, self.B0)

    @property
    def gamma(self):
        """Half-width of the cluster window around each level 2 q B0."""
        return 0.5 * self.B0


@dataclass
class ClusterComputation:
    """Everything the q-th cluster run produced, for reuse downstream."""

    cfg: VerificationConfig
    q: int
    V: FieldSpec  # the spin-down electric part the channels were built with
    gauge: GaugeData
    table: spectra.SpectrumTable
    cluster: spectra.ClusterStates
    defect_floor: float


def compute_cluster(cfg, q):
    """Diagonalize the channels feeding the q-th cluster of the spin-down
    form of cfg's operator and extract the cluster states.

    Only the window around the level is solved; the table keeps the
    per-channel labels n of the full spectrum (spectra.ChannelResult).
    """
    if q < 0:
        raise ValueError("q must be >= 0")
    V = spin_down_form(cfg.operator, cfg.V, cfg.b)[0]
    gauge = build_gauge(cfg.b, cfg.B0, RadialMesh(cfg.r_max, cfg.h))
    center, gamma = 2.0 * q * cfg.B0, cfg.gamma
    # an eigenvalue within roundoff of a window endpoint is still solved;
    # the strict test of cluster_states decides whether it belongs
    e_min, e_max = center - gamma - 1e-6, center + gamma + 1e-6
    ops = [build_channel("pauli_minus", m, gauge, V)
           for m in range(-q, cfg.m_max + 1)]
    channels = solve_channels(ops, e_max, e_min)
    floor = _defect_floor(q, V, gauge, e_min, e_max, channels)
    table = assemble_spectrum(channels)
    cluster = cluster_states(table, center, gamma, channels)
    return ClusterComputation(cfg, q, V, gauge, table, cluster, floor)


def _defect_floor(q, V, gauge, e_min, e_max, channels):
    """Mesh-error bound for the level-q eigenvalues of the channel matrices.

    The zero-mode weighted flux form is exact on the zero modes; its O(h^2)
    defect sits in the channels m = -q..1, whose level-q states reach the
    origin (h^2 B0^2 / 12 at q = 1, m = 0), and is orders of magnitude
    smaller elsewhere.  For each of those channels the floor takes the
    larger of two estimates of the level-q error: the unperturbed defect
    |E - 2 q B0| on the same mesh, and the Richardson estimate
    4/3 |E_h - E_{h/2}| of the actual channel.  Each alone can fall short of
    the true error by its O(h^4) part, of either sign.  The h/2 solve runs
    on [0, r_max/2], with as many cells as the mesh h: these states live
    near the origin, and a truncation effect could only raise the floor.
    On the working mesh E_h is read from `channels`, the cluster solve of
    the channels -q, -q + 1, ...; a channel it leaves out is solved here.
    """
    mesh = gauge.mesh
    fine = RadialMesh(0.5 * mesh.r_max, 0.5 * mesh.h)
    runs = ((gauge, V), (build_gauge(gauge.source, gauge.B0, fine), V),
            (build_gauge(FieldSpec.zero(), gauge.B0, mesh), None))
    center = 2.0 * q * gauge.B0
    worst = 0.0
    for m in range(-q, 2):
        level = q + min(m, 0)  # per-channel index of the level-q state
        E = []
        for g, electric in runs:
            if g is gauge and m + q < len(channels):
                ch = channels[m + q]
            else:
                ch = spectra.solve_channel(
                    build_channel("pauli_minus", m, g, electric), e_max, e_min)
            k = level - ch.first
            E.append(float(ch.energies[k]) if 0 <= k < ch.energies.size
                     else math.nan)
        E_h, E_fine, E_free = E
        for err in (abs(E_free - center), abs(E_h - E_fine) * 4.0 / 3.0):
            if not math.isnan(err):
                worst = max(worst, err)
    return worst


def boundary_sensitivity(comp):
    """Drift of labeled cluster shifts under domain enlargement R -> R',
    R' = DRIFT_FACTOR R snapped to the mesh.

    The shifts at R' are predicted from the one solve at R by the Dirichlet
    domain-variation formula dE/dR = -|w'(R)|^2 (Hadamard) for the state w
    at unit L^2 norm: shift(R') = shift(R) - (R' - R) w'(R)^2.  The ghost
    cell of the outer Dirichlet condition gives w'(R) = -2 w_n / h.  The
    outer slope of a bound state shrinks as R grows, so the linear step
    over-estimates the true drift (tests/test_asymptotics.py brackets it
    against a second solve at R').
    """
    R, h = comp.cfg.r_max, comp.cfg.h
    R_prime = round(DRIFT_FACTOR * R / h) * h
    c = comp.cluster
    labels = [(int(m), int(n)) for m, n in zip(c.ms, c.ns)]
    slope = np.array([-2.0 * w.values[-1] / h for w in c.states])
    at_R = dict(zip(labels, c.shifts.tolist()))
    at_Rp = dict(zip(labels, (c.shifts - (R_prime - R) * slope ** 2).tolist()))
    return spectra.boundary_sensitivity(at_R, at_Rp, R, R_prime)


def _lambda_grid(lo, hi, per_decade):
    """The fixed points 10^(k / per_decade) in [lo, hi], ascending.

    The points do not depend on lo and hi, so a roundoff change in a trust
    floor moves no lambda; it can at most add or drop an end point.
    """
    k = np.arange(math.floor(math.log10(lo) * per_decade) - 1,
                  math.ceil(math.log10(hi) * per_decade) + 2)
    lams = 10.0 ** (k / per_decade)
    return lams[(lams >= lo) & (lams <= hi)]


def cluster_asymptotics_report(comp):
    """Counting function vs semiclassical measure over the trusted grid.

    Trust region: superlevel radius <= r_max / 2, N >= MIN_COUNT, lambda at
    least TRUST_SAFETY times both the boundary-drift estimate
    (boundary_sensitivity) and the mesh-defect floor.  Raises
    TrustRegionEmpty (with the limiting constraint) when no grid point
    qualifies; a weight with no part of the requested sign produces a
    degenerate report with E = 0 instead, before any drift estimate.
    """
    cfg = comp.cfg
    weight = effective_weight(comp.V, cfg.b, comp.q, cfg.B0)
    center, gamma = 2.0 * comp.q * cfg.B0, cfg.gamma

    def count(lam):  # the cluster states beyond lambda
        if cfg.sign == "+":
            return counting_function(comp.table, center + lam, center + gamma)
        return counting_function(comp.table, center - gamma, center - lam)

    # degenerate weight: no superlevel set of the requested sign at all
    probe = weight(np.linspace(0.0, cfg.r_max, 4097))
    sup = float(np.max(probe if cfg.sign == "+" else -probe))
    if weight.is_zero or sup <= 0.0:
        lams = _lambda_grid(gamma * 1e-3, gamma * 0.999, cfg.per_decade)
        N = np.array([count(l) for l in lams])
        return CountingReport(
            lambdas=lams, N=N, E_measure=np.zeros_like(lams),
            ratio=np.full_like(lams, np.nan), trust_lo=math.nan,
            trust_hi=math.nan, note="degenerate-weight")

    drift = boundary_sensitivity(comp).max_drift
    floor_drift = TRUST_SAFETY * drift
    floor_defect = TRUST_SAFETY * comp.defect_floor
    lam_floor = max(floor_drift, floor_defect, 1e-12)
    if lam_floor >= 0.999 * gamma:
        binding = "drift" if floor_drift > floor_defect else "defect"
        raise TrustRegionEmpty(
            f"trust region empty: the {binding} floor {lam_floor:.3g} "
            f"reaches the window half-width gamma = {gamma:g} (defect floor "
            f"{floor_defect:.3g}, drift floor {floor_drift:.3g}); enlarge "
            f"r_max or refine h")

    # radius constraint: superlevel set must fit inside r_max / 2; the
    # intervals it is read from also give the measure
    def trusted(intervals):
        return intervals is not None and not (
            intervals and intervals[-1][1] > 0.5 * cfg.r_max)

    lams = _lambda_grid(lam_floor, gamma * 0.999, cfg.per_decade)
    rows = []
    for lam, intervals in zip(lams, superlevel_scan(weight, lams, cfg.sign,
                                                    r_max=cfg.r_max)):
        if not trusted(intervals):
            continue
        n_val = count(lam)
        if n_val < MIN_COUNT:
            continue
        rows.append((lam, n_val, superlevel_measure(weight, intervals)))

    if not rows:
        reasons = []
        lam = max(lam_floor, gamma * 1e-3)
        if not trusted(superlevel_scan(weight, [lam], cfg.sign,
                                       r_max=cfg.r_max)[0]):
            reasons.append(
                f"superlevel radius exceeds r_max/2 = {cfg.r_max / 2:g} "
                f"down to the floor")
        if count(lam) < MIN_COUNT:
            reasons.append(f"N < {MIN_COUNT} everywhere above the floor")
        raise TrustRegionEmpty(
            "no lambda satisfies the trust constraints ("
            + "; ".join(reasons or ["all constraints interact"]) + ")")

    lams = np.array([r[0] for r in rows])
    N = np.array([r[1] for r in rows])
    E = np.array([r[2] for r in rows])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(E > 0, N / E, np.nan)
    return CountingReport(
        lambdas=lams, N=N, E_measure=E, ratio=ratio,
        trust_lo=float(lams.min()), trust_hi=float(lams.max()),
        drift_estimate=drift)


def upper_estimate_check(comp, report):
    """(fitted, expected): the slope of log N against log lambda over the
    report's rows, and the decay-class exponent 2 / beta of the effective
    weight it should approach; both NaN for a degenerate report."""
    if report.note == "degenerate-weight":
        return math.nan, math.nan
    cfg = comp.cfg
    weight = effective_weight(comp.V, cfg.b, comp.q, cfg.B0)
    slope = float(np.polyfit(np.log(report.lambdas), np.log(report.N), 1)[0])
    return slope, 2.0 / weight.beta_eff

