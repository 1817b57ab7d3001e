"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 2 asks the raw channel matrices for the zero modes to 1e-6 at
h = 0.005.  The channel matrices are built on the zero-mode weight, so the
zero modes lie in their kernel and the lowest eigenvalues sit at roundoff
(about 1e-12).  A scheme whose zero modes carry a discretization defect
(the plain flux form with weight r has -(h^2/12) <(w''/w)^2> ~ 1.56e-6 at
this h) fails the bound; the halving sub-check then asks that defect to
shrink at second order, and skips channels where both meshes already sit
at roundoff, where the ratio is noise.
"""

import math
import time

import numpy as np
import pytest

from landau.asymptotics import (VerificationConfig, boundary_sensitivity,
                                cluster_asymptotics_report, compute_cluster,
                                upper_estimate_check)
from landau.fields import (FieldSpec, build_gauge, counting_measure,
                           effective_weight)
from landau.operator import RadialMesh, build_channel, default_channel_cut
from landau.projections import (build_Tq, gram_identity_residual,
                                zero_mode_basis)
from landau.spectra import assemble_spectrum, channel_eigs, solve_channels

from conftest import (brute_force_measure, offdiag_smallness,
                      perturbation_inequality_check)

B_HEADLINE = FieldSpec.power(0.05, -3.0)


def report_line(num, passed, detail):
    print(f"[acceptance {num:02d}] {'PASS' if passed else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def headline_run():
    cfg = VerificationConfig(B0=1.0, b=B_HEADLINE, sign="+", r_max=30.0,
                             h=0.005)
    t0 = time.monotonic()
    comp = compute_cluster(cfg, 1)
    drift = boundary_sensitivity(comp)
    report = cluster_asymptotics_report(comp)
    elapsed = time.monotonic() - t0
    return cfg, comp, drift, report, elapsed


@pytest.fixture(scope="module")
def beta4_report():
    cfg = VerificationConfig(B0=1.0, b=FieldSpec.power(0.05, -4.0),
                             sign="+", r_max=30.0, h=0.005)
    comp = compute_cluster(cfg, 1)
    return comp, cluster_asymptotics_report(comp)


def test_acceptance_01_unperturbed_exactness():
    t0 = time.monotonic()
    mesh = RadialMesh(20.0, 0.005)
    gauge = build_gauge(FieldSpec(), 1.0, mesh)
    worst = {"schroedinger": 0.0, "pauli_minus": 0.0}
    pattern_ok = True
    for kind, offset in (("schroedinger", 1.0), ("pauli_minus", 0.0)):
        ops = [build_channel(kind, m, gauge, FieldSpec())
               for m in range(-40, 41)]
        channels = solve_channels(ops, 10.0)
        table = assemble_spectrum(channels)
        keep = ~table.boundary
        E = table.E[keep]
        m_arr = table.m[keep]
        n_arr = table.n[keep]
        # level index per channel: N = n + (|m| - m) / 2
        N = n_arr + (np.abs(m_arr) - m_arr) // 2
        target = 2.0 * N + offset
        worst[kind] = float(np.max(np.abs(E - target)))
        nearest = np.round((E - offset) / 2.0).astype(int)
        pattern_ok = pattern_ok and bool(np.all(nearest == N))
    elapsed = time.monotonic() - t0
    passed = (worst["schroedinger"] < 1e-4 and worst["pauli_minus"] < 1e-4
              and pattern_ok and elapsed < 60.0)
    report_line(1, passed,
                f"max defect H {worst['schroedinger']:.2e}, "
                f"P_- {worst['pauli_minus']:.2e}, pattern "
                f"{'ok' if pattern_ok else 'BROKEN'}, {elapsed:.1f} s")
    assert worst["schroedinger"] < 1e-4
    assert worst["pauli_minus"] < 1e-4
    assert pattern_ok
    assert elapsed < 60.0


def test_acceptance_02_zero_mode_exactness():
    b = FieldSpec.power(-0.1, -3.0)
    m_top = default_channel_cut(20.0, 1.0)  # 75
    lowest = {}
    for h in (0.005, 0.0025):
        mesh = RadialMesh(20.0, h)
        gauge = build_gauge(b, 1.0, mesh)
        vals = []
        for m in range(m_top + 1):
            op = build_channel("pauli_minus", m, gauge, FieldSpec())
            pairs = channel_eigs(op, 0.5)
            vals.append(pairs[0][0])
        lowest[h] = np.array(vals)
    worst = float(np.max(np.abs(lowest[0.005])))
    # roundoff of an eigenvalue of a matrix with entries of size 1/h^2
    eps = np.finfo(float).eps
    at_roundoff = ((np.abs(lowest[0.005]) < 100.0 * eps / 0.005 ** 2)
                   & (np.abs(lowest[0.0025]) < 100.0 * eps / 0.0025 ** 2))
    converging = np.abs(lowest[0.005]) >= 3.6 * np.abs(lowest[0.0025])
    halving_ok = bool(np.all(converging | at_roundoff))
    ratios = np.abs(lowest[0.005]) / np.abs(lowest[0.0025])
    halving = (f"halving ratio of the others >= "
               f"{np.min(ratios[~at_roundoff]):.2f} (bound 3.6)"
               if not np.all(at_roundoff) else "no halving ratio to check")
    passed = worst < 1e-6 and halving_ok
    report_line(2, passed,
                f"worst |E| = {worst:.3e} (bound 1e-6); "
                f"{int(np.sum(at_roundoff))}/{at_roundoff.size} channels at "
                f"roundoff on both meshes, {halving}")
    assert halving_ok
    assert worst < 1e-6


def test_acceptance_03_gram_identity_q1():
    res = {}
    for h in (0.005, 0.0025):
        mesh = RadialMesh(20.0, h)
        gauge = build_gauge(B_HEADLINE, 1.0, mesh)
        basis = zero_mode_basis(gauge, 11, [1], gram=B_HEADLINE)  # 12 modes
        G = gram_identity_residual(1, basis, B_HEADLINE)
        res[h] = float(np.max(np.abs(G)))
    ratio = res[0.005] / res[0.0025]
    passed = res[0.005] < 1e-5 and 3.2 <= ratio <= 5.5
    report_line(3, passed,
                f"max residual {res[0.005]:.3e} (bound 1e-5), refinement "
                f"ratio {ratio:.2f} (second order)")
    assert res[0.005] < 1e-5
    assert 3.2 <= ratio <= 5.5


def test_acceptance_04_headline_asymptotics(headline_run):
    cfg, comp, drift, report, elapsed = headline_run
    # the stated closed form for the comparison measure
    lam = report.lambdas
    exact = 0.5 * ((0.1 / lam) ** (2.0 / 3.0) - 1.0)
    measure_ok = np.allclose(report.E_measure, exact, rtol=1e-9)

    lo, hi = report.band_window((0.8, 1.2))
    window_ok = lo is not None and hi / lo >= 10.0
    in_window = (lam >= lo) & (lam <= hi) if lo else np.zeros_like(lam, bool)
    peak = int(report.N[in_window].max()) if np.any(in_window) else 0
    ratios = report.ratio[in_window]
    band_ok = bool(np.all((ratios >= 0.8) & (ratios <= 1.2)))
    passed = (measure_ok and window_ok and peak >= 20 and band_ok
              and elapsed < 600.0)
    report_line(4, passed,
                f"band window [{lo:.2e}, {hi:.2e}] "
                f"({math.log10(hi / lo):.2f} decades), peak N = {peak}, "
                f"ratios [{ratios.min():.3f}, {ratios.max():.3f}], "
                f"{elapsed:.0f} s")
    assert measure_ok
    assert window_ok
    assert peak >= 20
    assert band_ok
    assert elapsed < 600.0


def test_acceptance_05_exponent_fits(headline_run, beta4_report):
    _, comp, _, report, _ = headline_run
    fit3, _ = upper_estimate_check(comp, report)
    fit4, _ = upper_estimate_check(*beta4_report)
    ok3 = abs(fit3 - (-2.0 / 3.0)) <= 0.1
    ok4 = abs(fit4 - (-0.5)) <= 0.1
    report_line(5, ok3 and ok4,
                f"beta=-3 slope {fit3:.4f} (target -2/3 +- 0.1), "
                f"beta=-4 slope {fit4:.4f} (target -1/2 +- 0.1)")
    assert ok3
    assert ok4


def test_acceptance_06_toeplitz_cluster_agreement(headline_run):
    _, comp, _, _, _ = headline_run
    cluster = comp.cluster
    tq = np.sort(build_Tq(1, cluster))[::-1]
    shifts = np.sort(cluster.shifts)[::-1]
    k = len(shifts) // 4
    pos = shifts[:k] > 0
    rel = np.abs(tq[:k][pos] - shifts[:k][pos]) / shifts[:k][pos]
    passed = bool(np.max(rel) <= 0.10)
    report_line(6, passed,
                f"top-quartile ({k} states) max relative deviation "
                f"{np.max(rel):.2e} (bound 0.10)")
    assert passed


def test_acceptance_07_family_reduction_exact():
    rng = np.random.default_rng(2024)
    mesh = RadialMesh(8.0, 0.05)
    worst = 0.0
    for _ in range(5):
        b = FieldSpec.power(float(rng.uniform(-0.3, 0.3)),
                            float(rng.uniform(-4.5, -2.5)))
        V = FieldSpec.power(float(rng.uniform(-0.3, 0.3)),
                            float(rng.uniform(-4.5, -2.5)))
        B0 = float(rng.uniform(0.7, 1.4))
        gauge = build_gauge(b, B0, mesh)
        for m in range(-3, 4):
            H = build_channel("schroedinger", m, gauge, V)
            P = build_channel("pauli_minus", m, gauge, FieldSpec.sum(V, b))
            worst = max(worst, float(np.max(np.abs(H.diag - (P.diag + B0)))))
            worst = max(worst, float(np.max(np.abs(H.offdiag - P.offdiag))))
    passed = worst <= 1e-12
    report_line(7, passed, f"max entrywise deviation {worst:.2e} (bound 1e-12)")
    assert passed


def test_acceptance_08_perturbation_inequality():
    rng = np.random.default_rng(7)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
        L0 = q1 @ np.diag(rng.uniform(-2.0, 2.0, n)) @ q1.T
        q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
        L1 = q2 @ np.diag(rng.uniform(-2.0, 2.0, n)) @ q2.T
        mu1, mu2 = np.sort(rng.uniform(-2.5, 2.5, 2))
        while mu1 == mu2:
            mu1, mu2 = np.sort(rng.uniform(-2.5, 2.5, 2))
        t1, t2 = rng.uniform(0.01, 1.0, 2)
        if not perturbation_inequality_check(L0, L1, mu1, mu2, t1, t2):
            failures += 1
    passed = failures == 0
    report_line(8, passed, f"{1000 - failures}/1000 randomized trials hold")
    assert passed


def test_acceptance_09_counting_measure_oracle():
    # W = 0.1 (1+r^2)^-1.5
    weight = effective_weight(FieldSpec(), B_HEADLINE, 1, 1.0)
    lams = np.geomspace(0.09, 1e-5, 50)
    worst_oracle = 0.0
    worst_lib = 0.0
    for lam in lams:
        analytic = 0.5 * ((0.1 / lam) ** (2.0 / 3.0) - 1.0)
        reach = 2.0 * math.sqrt((0.1 / lam) ** (2.0 / 3.0))
        oracle = brute_force_measure(weight, lam, "+", reach)
        lib = counting_measure(weight, [lam], "+", r_max=reach)[0]
        worst_oracle = max(worst_oracle, abs(oracle - analytic) / analytic)
        worst_lib = max(worst_lib, abs(lib - analytic) / analytic)
    passed = worst_oracle < 1e-6 and worst_lib < 1e-6
    report_line(9, passed,
                f"analytic vs brute force {worst_oracle:.2e}, vs library "
                f"{worst_lib:.2e} (bound 1e-6, 50 points)")
    assert passed


def test_acceptance_10_offdiagonal_smallness(headline_run):
    _, comp, _, _, _ = headline_run
    V = FieldSpec.power(0.05, -3.0)
    rep = offdiag_smallness(1, V, comp.cluster)
    # T_q with V added: one cluster state per channel, so V adds h sum V v^2
    # to each diagonal entry and the compression stays diagonal
    cluster = comp.cluster
    assert len(set(cluster.ms.tolist())) == len(cluster)
    Vv = V.evaluate(cluster.states[0].mesh.nodes)
    tq_abs = np.sort(np.abs(build_Tq(1, cluster) + [
        v.mesh.h * float(np.dot(Vv * v.values, v.values))
        for v in cluster.states]))[::-1]
    k = min(rep.singular_values.size, tq_abs.size)
    beyond = slice(5, k)
    smaller = rep.singular_values[beyond] < tq_abs[beyond]
    passed = bool(np.all(smaller))
    report_line(10, passed,
                f"{int(np.sum(smaller))}/{smaller.size} ranks beyond 5 have "
                f"sigma < |T_q| eigenvalue")
    assert passed
