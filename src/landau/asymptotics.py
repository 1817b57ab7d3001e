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
config, q, and the spin-down electric part V.  The config is a
VerificationConfig, the one config record (cli.load_config returns it).

The stages form one data flow: compute_cluster(build, q) solves the cluster
from a RunBuild(cfg), what no q changes, and returns a ClusterComputation,
which every later stage reads: cfg, q, the cluster and its weight
W = V + 2 q b, V the spin-down electric part;
boundary_sensitivity(comp) estimates the domain drift from it;
cluster_asymptotics_report(comp) counts N on the cluster against the measure
of W (taking the drift from boundary_sensitivity); and
upper_estimate_check(comp, report) fits the exponent on that report, to be
compared with 2 / beta for W's decay class beta (fields.FieldSpec.beta).
A W without power terms decays faster than any power and claims none.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectra
from .errors import TrustRegionEmpty, UnboundedSet
from .fields import (EffectiveWeight, FieldSpec, build_gauge, effective_weight,
                     superlevel_measure, superlevel_radius, superlevel_scan)
from .operator import (B_COPIES, KINDS, RadialMesh, build_channel,
                       default_channel_cut, spin_down_form)
from .spectra import (CountingReport, assemble_spectrum, cluster_states,
                      solve_channels)

# fewest states a trusted lambda row counts; the trust floor's multiple of
# the drift and defect estimates; the drift is estimated for R -> 1.2 R
MIN_COUNT = 5
TRUST_SAFETY = 10.0
DRIFT_FACTOR = 1.2

# verify's pass/fail bands, each of which a config may override
_BAND_DEFAULTS = {"min_decades": 1.0, "min_peak_count": 20,
                  "exponent_tol": 0.1, "gram_max": 1e-5}


@dataclass(frozen=True)
class VerificationConfig:
    """One verification scenario (fields, mesh, grid, Landau indices,
    bands): its inputs only, each default a config file's; the channel cut,
    window half-width, basis cut and spectrum top derive from them."""

    B0: float = 1.0
    operator: str = "pauli_minus"
    b: FieldSpec = FieldSpec()
    V: FieldSpec = FieldSpec()
    sign: str = "+"
    r_max: float = 20.0
    h: float = 0.01
    per_decade: int = 24
    q_list: tuple = (0, 1)
    bands: dict = field(default_factory=dict)  # the rest: _BAND_DEFAULTS
    basis_cut: int = None  # the basis_m_max key; None: min(m_max, 11)
    hash: str = ""  # of the config file's JSON, as _io.config_hash gives it

    def __post_init__(self):
        object.__setattr__(self, "bands", {**_BAND_DEFAULTS, **self.bands})
        if not self.gamma > 0:  # B0 / 2 is 0 for the least subnormal B0
            raise ValueError(f"B0 must be positive, and so B0 / 2, got "
                             f"{self.B0!r}")
        if self.operator not in KINDS:
            raise ValueError(f"operator must be one of {KINDS}")
        for name, spec in (("b", self.b), ("V", self.V)):
            if spec.beta is not None and spec.beta >= -2.0:
                raise ValueError(
                    f"{name}.beta = {spec.beta} violates the decay "
                    f"requirement beta < -2")
        if self.sign not in ("+", "-"):
            raise ValueError("sign must be '+' or '-'")

    @staticmethod
    def basis_top(m_max, basis_cut):  # in floats for the work bound too
        return min(m_max, 11) if basis_cut is None else basis_cut

    @property
    def m_max(self):
        """Top angular channel of the solves, floor(3 r_max^2 B0 / 16)."""
        return default_channel_cut(self.r_max, self.B0)

    @property
    def gamma(self):
        """Half-width of the cluster window around each level 2 q B0."""
        return 0.5 * self.B0

    @property
    def basis_m_max(self):
        """Top channel of the zero-mode bases of toeplitz and identities."""
        return self.basis_top(self.m_max, self.basis_cut)

    @property
    def e_max(self):
        """One level above the top cluster, past the operator's shift."""
        return ((2.0 * max(self.q_list) + 2.0 + B_COPIES[self.operator])
                * self.B0)


@dataclass
class ClusterComputation:
    """Everything the q-th cluster run produced, for reuse downstream."""

    cfg: VerificationConfig
    q: int
    weight: EffectiveWeight  # V + 2 q b, V the channels' spin-down part
    cluster: spectra.ClusterStates
    defect_floor: float


# the near-origin channels m = -q..NEAR_TOP, whose level-q states reach r = 0
NEAR_TOP = 1


class RunBuild:
    """What every q of a run solves from: cfg, its spin-down V, the gauge on
    the mesh h, and the spin-down channel matrices by m, from -max(q_list)
    up, on the two meshes of compute_cluster: `near` on h, `bulk` on H."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.V = spin_down_form(cfg.operator, cfg.V, cfg.b)[0]
        self.gauge = build_gauge(cfg.b, cfg.B0, RadialMesh(cfg.r_max, cfg.h))
        coarse = build_gauge(cfg.b, cfg.B0, self.gauge.mesh.coarsened())
        ms = range(-max(cfg.q_list), max(cfg.m_max, NEAR_TOP) + 1)
        self.near = {m: build_channel("pauli_minus", m, self.gauge, self.V)
                     for m in ms if m <= NEAR_TOP}
        self.bulk = {m: build_channel("pauli_minus", m, coarse, self.V)
                     for m in ms}


def compute_cluster(build, q):
    """Diagonalize the channels of the RunBuild `build` that feed the q-th
    cluster and extract the cluster states.

    Only the window around the level is solved; the cluster keeps the
    per-channel labels n of the full spectrum (spectra.ChannelResult).
    The O(h^2) level-q error of the channel matrices sits in the
    near-origin channels (h^2 B0^2 / 12 at q = 1, m = 0) and is orders of
    magnitude smaller elsewhere.  So every channel is solved on the coarse
    mesh H of n // 2 cells (RadialMesh.coarsened), and the near-origin ones
    again on h.  A near-origin state matched by its label on both is
    reported at (rho^2 E_h - E_H) / (rho^2 - 1), rho = H / h, every other
    state at its raw E_H; each keeps the vector and channel matrix of its
    own mesh.  The defect floor is the largest correction |E_h - E_H| /
    (rho^2 - 1), the estimated error of the raw E_h; channel 1 enters it
    even when m_max = 0, so it does not depend on the cut.
    """
    cfg = build.cfg
    weight = effective_weight(build.V, cfg.b, q, cfg.B0)  # raises for q < 0
    center, gamma = 2.0 * q * cfg.B0, cfg.gamma
    # an eigenvalue within roundoff of a window endpoint is still solved;
    # the strict test of cluster_states decides whether it belongs
    e_min, e_max = center - gamma - 1e-6, center + gamma + 1e-6

    def solve(ops):  # the channels m >= -q, in order
        channels = solve_channels([op for m, op in ops.items() if m >= -q],
                                  e_max, e_min)
        return channels, {(ch.op.m, ch.first + k): E for ch in channels
                          for k, E in enumerate(ch.energies)}

    near, E_h = solve(build.near)
    bulk, E_H = solve(build.bulk)
    rho2 = (build.gauge.mesh.n / build.bulk[0].mesh.n) ** 2
    correction = {k: float(E - E_H[k]) / (rho2 - 1.0)
                  for k, E in E_h.items() if k in E_H}
    floor = max(map(abs, correction.values()), default=0.0)

    parts = [cluster_states(assemble_spectrum(chs), center, gamma, chs)
             for chs in (near[:q + 1 + min(cfg.m_max, NEAR_TOP)],
                         bulk[q + NEAR_TOP + 1:]) if chs]
    ms, ns, shifts = (np.concatenate([getattr(p, key) for p in parts])
                      for key in ("ms", "ns", "shifts"))
    shifts += [correction.get(k, 0.0) for k in zip(ms.tolist(), ns.tolist())]
    order = np.argsort(-np.abs(shifts), kind="stable")
    states = [v for p in parts for v in p.states]
    cluster = spectra.ClusterStates(
        cfg.B0, shifts[order], ms[order], ns[order],
        [states[i] for i in order],
        {m: op for p in parts for m, op in p.operators.items()})
    return ClusterComputation(cfg, q, weight, cluster, floor)


def boundary_sensitivity(comp):
    """Drift of labeled cluster shifts under domain enlargement R -> R',
    R' = DRIFT_FACTOR R snapped to the mesh.

    The shifts at R' are predicted from the one solve at R by the Dirichlet
    domain-variation formula dE/dR = -|w'(R)|^2 (Hadamard) for the state w
    at unit L^2 norm: shift(R') = shift(R) - (R' - R) w'(R)^2.  The ghost
    cell of the outer Dirichlet condition gives w'(R) = -2 w_n / h, h the
    step of the state's own mesh.  The outer slope of a bound state shrinks
    as R grows, so the linear step over-estimates the true drift
    (tests/test_asymptotics.py brackets it against a second solve at R').
    """
    R, h = comp.cfg.r_max, comp.cfg.h
    R_prime = round(DRIFT_FACTOR * R / h) * h
    c = comp.cluster
    labels = [(int(m), int(n)) for m, n in zip(c.ms, c.ns)]
    slope = np.array([-2.0 * w.values[-1] / w.mesh.h for w in c.states])
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
    cfg, weight = comp.cfg, comp.weight
    center, gamma = 2.0 * comp.q * cfg.B0, cfg.gamma
    # exactly the solved E (Sterbenz, q >= 1), sorted once for the counts
    energies = np.sort(center + comp.cluster.shifts)

    def count(lams):  # the cluster states beyond each lambda
        if cfg.sign == "+":
            return energies.size - np.searchsorted(energies, center + lams,
                                                   side="right")
        return np.searchsorted(energies, center - lams, side="left")

    # degenerate weight: no superlevel set of the requested sign at all
    probe = weight(np.linspace(0.0, cfg.r_max, 4097))
    sup = float(np.max(probe if cfg.sign == "+" else -probe))
    if sup <= 0.0:
        lams = _lambda_grid(gamma * 1e-3, gamma * 0.999, cfg.per_decade)
        return CountingReport(
            lambdas=lams, N=count(lams), E_measure=np.zeros_like(lams),
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

    # a trusted row counts MIN_COUNT states or more, and its superlevel set
    # fits inside r_max / 2; the intervals it is read from give the measure
    r_half = 0.5 * cfg.r_max
    lams = _lambda_grid(lam_floor, gamma * 0.999, cfg.per_decade)
    scans = superlevel_scan(weight, lams, cfg.sign, r_max=cfg.r_max)
    inside = np.array([iv is not None and not (iv and iv[-1][1] > r_half)
                       for iv in scans], dtype=bool)
    N = count(lams)
    keep = inside & (N >= MIN_COUNT)

    if not np.any(keep):
        reasons = []
        lam = max(lam_floor, gamma * 1e-3)
        try:
            fits = superlevel_radius(weight, lam, cfg.sign,
                                     r_max=cfg.r_max) <= r_half
        except UnboundedSet:
            fits = False
        if not fits:
            reasons.append(
                f"superlevel radius exceeds r_max/2 = {r_half:g} "
                f"down to the floor")
        if count(lam) < MIN_COUNT:
            reasons.append(f"N < {MIN_COUNT} everywhere above the floor")
        raise TrustRegionEmpty(
            "no lambda satisfies the trust constraints ("
            + "; ".join(reasons or ["all constraints interact"]) + ")")

    lams, N = lams[keep], N[keep]
    E = np.array([superlevel_measure(weight, iv)
                  for iv, kept in zip(scans, keep) if kept])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(E > 0, N / E, np.nan)
    return CountingReport(
        lambdas=lams, N=N, E_measure=E, ratio=ratio,
        trust_lo=float(lams.min()), trust_hi=float(lams.max()),
        drift_estimate=drift)


def upper_estimate_check(comp, report):
    """(fitted, expected): the slope of log N against log lambda over the
    report's rows (None below two rows), and the exponent 2 / beta of the
    weight's power class it should approach (None without one); both NaN
    for a degenerate report."""
    if report.note == "degenerate-weight":
        return math.nan, math.nan
    fitted = (float(np.polyfit(np.log(report.lambdas), np.log(report.N), 1)[0])
              if report.lambdas.size > 1 else None)
    beta = comp.weight.beta_eff
    return fitted, None if beta is None else 2.0 / beta

