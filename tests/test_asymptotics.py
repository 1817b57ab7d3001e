import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perturbation_inequality_check
from landau import asymptotics, spectra
from landau.asymptotics import (RunBuild, VerificationConfig, _lambda_grid,
                                boundary_sensitivity,
                                cluster_asymptotics_report, compute_cluster,
                                upper_estimate_check)
from landau.cli import load_config
from landau.errors import TrustRegionEmpty
from landau.fields import (FieldSpec, ProfileTerm, build_gauge,
                           counting_measure, effective_weight)
from landau.operator import (KINDS, RadialMesh, build_channel,
                             spin_down_form)


QUICK = Path(__file__).resolve().parents[1] / "configs" / "quick.json"


@pytest.fixture(scope="module")
def small_cfg(b_power):
    return VerificationConfig(B0=1.0, b=b_power, sign="+", r_max=16.0,
                              h=0.02)


@pytest.fixture(scope="module")
def small_run(small_cfg):
    comp = compute_cluster(RunBuild(small_cfg), 1)
    return comp, boundary_sensitivity(comp), cluster_asymptotics_report(comp)


@pytest.fixture(scope="module")
def minus_run(b_power):
    """The small run with the field flipped, counted below the level."""
    comp = compute_cluster(RunBuild(VerificationConfig(
        B0=1.0, b=b_power.scaled(-1.0), sign="-", r_max=16.0, h=0.02)), 1)
    return comp, cluster_asymptotics_report(comp)


def labeled(c):
    """Cluster shifts keyed by their (m, n) labels."""
    return {(int(m), int(n)): float(s)
            for m, n, s in zip(c.ms, c.ns, c.shifts)}


def raw_shifts(cfg, q, h, top=None):
    """Raw window shifts E - 2 q B0 of the channels -q..top (m_max without
    one) on the mesh h, keyed by label: every channel solved on one mesh,
    as an oracle for compute_cluster's two."""
    V = spin_down_form(cfg.operator, cfg.V, cfg.b)[0]
    center = 2.0 * q * cfg.B0
    gauge = build_gauge(cfg.b, cfg.B0, RadialMesh(cfg.r_max, h))
    top = cfg.m_max if top is None else top
    ops = [build_channel("pauli_minus", m, gauge, V)
           for m in range(-q, top + 1)]
    channels = spectra.solve_channels(ops, center + cfg.gamma,
                                      center - cfg.gamma)
    return {(ch.op.m, ch.first + k): float(E - center)
            for ch in channels for k, E in enumerate(ch.energies)}


def richardson_reference(cfg, q):
    """Shifts by label from raw one-mesh solves at h / 2 and h / 4,
    Richardson-extrapolated: (4 E_{h/4} - E_{h/2}) / 3."""
    half, quarter = (raw_shifts(cfg, q, cfg.h / k) for k in (2, 4))
    return {k: (4.0 * quarter[k] - half[k]) / 3.0
            for k in half.keys() & quarter.keys()}


def test_cluster_states_are_the_only_copy(monkeypatch):
    # compute_cluster keeps one copy of each cluster eigenvector: every
    # state is the vector its channel solve returned, scaled in place, and
    # holds the floats v / sqrt(h) of an independent solve of the same
    # channel sequence on the state's own mesh (h for m <= 1, the coarse
    # mesh 2 h elsewhere), since each channel starts from the ones solved
    # before it
    cfg = load_config(str(QUICK))
    solved, sequences = [], []

    def recording(ops, e_max, e_min=None):
        sequences.append(([op.m for op in ops], ops[0].mesh, e_max, e_min))
        solved.extend(spectra.solve_channels(ops, e_max, e_min))
        return solved[-len(ops):]

    monkeypatch.setattr(asymptotics, "solve_channels", recording)
    cluster = compute_cluster(RunBuild(cfg), 1).cluster
    monkeypatch.undo()
    by_op = {id(ch.op): ch for ch in solved}
    meshes = {op.mesh.h: op.mesh for op in cluster.operators.values()}
    assert sorted(meshes) == [cfg.h, 2.0 * cfg.h]
    assert [mesh.h for _, mesh, _, _ in sequences] == [cfg.h, 2.0 * cfg.h]
    fresh = {}
    for ms, mesh, e_max, e_min in sequences:
        gauge = build_gauge(cfg.b, cfg.B0, mesh)
        fresh.update(((ch.op.m, mesh.h), ch) for ch in spectra.solve_channels(
            [build_channel("pauli_minus", m, gauge, cfg.V) for m in ms],
            e_max, e_min))
    assert len(cluster) > 20
    for m, n, state in zip(cluster.ms, cluster.ns, cluster.states):
        op = cluster.operators[m]
        assert state.mesh is op.mesh
        solve = by_op[id(op)]
        assert state.values is solve.vectors[n - solve.first]
        ch = fresh[m, op.mesh.h]
        v = ch.vectors[n - ch.first]
        assert np.array_equal(state.values, v / math.sqrt(state.mesh.h))


class TestConfig:
    def test_rejects_slow_decay(self):
        with pytest.raises(ValueError):
            VerificationConfig(b=FieldSpec.power(0.1, -1.5))

    def test_gamma_follows_B0(self, b_power):
        # the window half-width is derived, not set, so replace() moves it
        cfg = VerificationConfig(b=b_power)
        assert cfg.gamma == 0.5
        assert replace(cfg, B0=4.0).gamma == 2.0
        with pytest.raises(TypeError):
            VerificationConfig(b=b_power, gamma=0.4)

    def test_rejects_unknown_operator(self):
        with pytest.raises(ValueError, match="operator must be one of"):
            VerificationConfig(operator="bogus")

    def test_channel_cut_default(self, b_power):
        cfg = VerificationConfig(b=b_power, r_max=30.0)
        assert cfg.m_max == 168

    def test_channel_cut_derived(self, b_power):
        # the cut is no field: replace() moves it with R and B0, and the
        # magnetic scaling R -> R / 2, B0 -> 4 B0 keeps it
        cfg = VerificationConfig(b=b_power, r_max=30.0)
        assert replace(cfg, r_max=15.0, B0=4.0).m_max == 168
        with pytest.raises(TypeError):
            VerificationConfig(b=b_power, m_max=10)

    def test_q_is_an_argument(self, small_cfg):
        # the scenario holds no Landau index; compute_cluster checks its q
        with pytest.raises(TypeError):
            VerificationConfig(q=1)
        with pytest.raises(ValueError, match="q must be >= 0"):
            compute_cluster(RunBuild(small_cfg), -1)


class TestFamilyReduction:
    def test_identity_for_pauli_minus(self, small_cfg):
        # spin_down_form's cache returns the first of equal V it was given,
        # which an earlier test may have made: clear it for this identity
        spin_down_form.cache_clear()
        assert small_cfg.operator == "pauli_minus"
        assert compute_cluster(RunBuild(small_cfg), 1).weight.V is small_cfg.V
        _, shift = spin_down_form("pauli_minus", small_cfg.V, small_cfg.b)
        assert shift == 0.0

    def test_matrices_bit_identical(self, mesh_small):
        rng = np.random.default_rng(5)
        for _ in range(3):
            b = FieldSpec((ProfileTerm("power", rng.uniform(-0.2, 0.2),
                                       beta=rng.uniform(-4.0, -2.5)),))
            V = FieldSpec((ProfileTerm("gaussian", rng.uniform(-0.2, 0.2),
                                       center=rng.uniform(0.5, 3.0),
                                       width=rng.uniform(0.5, 2.0)),))
            gauge = build_gauge(b, 1.0, mesh_small)
            for m in (-2, 0, 3):
                H = build_channel("schroedinger", m, gauge, V)
                P = build_channel("pauli_minus", m, gauge, FieldSpec.sum(V, b))
                assert np.array_equal(H.diag, P.diag + 1.0)
                assert np.array_equal(H.offdiag, P.offdiag)
                Pp = build_channel("pauli_plus", m, gauge, V)
                P2 = build_channel(
                    "pauli_minus", m, gauge,
                    FieldSpec.sum(V, b.scaled(2.0)))
                assert np.array_equal(Pp.diag, P2.diag + 2.0)

    def test_pauli_plus_lowest_cluster(self, mesh_small, gauge_zero):
        from landau.spectra import channel_eigs
        op = build_channel("pauli_plus", 0, gauge_zero, FieldSpec())
        vals = [e for e, _ in channel_eigs(op, 3.0)]
        assert vals[0] == pytest.approx(2.0, abs=1e-4)

    def test_zero_fields_pure_shift(self, mesh_small, gauge_zero):
        H = build_channel("schroedinger", 1, gauge_zero, FieldSpec())
        P = build_channel("pauli_minus", 1, gauge_zero, FieldSpec())
        assert np.array_equal(H.diag, P.diag + 1.0)

    @pytest.mark.parametrize("kind, copies", [("schroedinger", 1.0),
                                              ("pauli_plus", 2.0)])
    def test_zero_V_keeps_decay_class(self, kind, copies):
        # with V = 0 the electric part is the copies of b alone, and the
        # zero field adds no decay class to theirs
        b = FieldSpec.power(0.05, -4.0)
        V, shift = spin_down_form(kind, FieldSpec(), b)
        assert V.beta == -4.0
        assert shift == copies
        r = np.linspace(0.0, 10.0, 50)
        assert np.array_equal(V.evaluate(r), copies * b.evaluate(r))

    def test_reduced_weight_matches_theorem(self, b_power):
        # for H(V): counting weight becomes (V + b) + 2 q b
        V, shift = spin_down_form("schroedinger", b_power, b_power)
        assert shift == 1.0
        r = np.linspace(0.0, 10.0, 50)
        w = effective_weight(V, b_power, 1, 1.0)
        expected = 4.0 * b_power.evaluate(r)
        assert np.allclose(w(r), expected, rtol=1e-13)


class TestPerturbationInequality:
    def test_zero_perturbation_monotonicity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(8, 8))
        L0 = 0.5 * (a + a.T)
        L1 = np.zeros((8, 8))
        assert perturbation_inequality_check(L0, L1, -0.5, 0.5, 0.3, 0.4)

    def test_rank_one_below_threshold(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(10, 10))
        L0 = 0.5 * (a + a.T)
        e = rng.normal(size=10)
        e /= np.linalg.norm(e)
        L1 = 0.25 * np.outer(e, e)  # tau' = 0.25 < tau1, tau2
        assert perturbation_inequality_check(L0, L1, -1.0, 1.0, 0.3, 0.3)

    def test_randomized_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            n = int(rng.integers(2, 51))
            q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
            L0 = q1 @ np.diag(rng.uniform(-2, 2, n)) @ q1.T
            q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
            L1 = q2 @ np.diag(rng.uniform(-2, 2, n)) @ q2.T
            mu1, mu2 = np.sort(rng.uniform(-2.5, 2.5, 2))
            t1, t2 = rng.uniform(0.01, 1.0, 2)
            assert perturbation_inequality_check(L0, L1, mu1, mu2, t1, t2)

    @given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_randomized_property(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n))
        L0 = 0.5 * (a + a.T)
        L1 = 0.5 * (b + b.T)
        mu1, mu2 = np.sort(rng.uniform(-3, 3, 2))
        if mu1 == mu2:
            return
        t1, t2 = rng.uniform(0.05, 1.5, 2)
        assert perturbation_inequality_check(L0, L1, mu1, mu2, t1, t2)

    def test_validation(self):
        L = np.eye(3)
        with pytest.raises(ValueError):
            perturbation_inequality_check(L, L, 0.0, 1.0, -0.1, 0.2)
        with pytest.raises(ValueError):
            perturbation_inequality_check(L, L, 1.0, 0.0, 0.1, 0.2)


class TestClusterReport:
    def test_small_run_structure(self, small_run):
        _, drift, report = small_run
        assert np.all(np.diff(report.N) <= 0)  # N nonincreasing in lambda
        assert np.all(report.E_measure > 0)
        assert report.trust_lo >= 10.0 * drift.max_drift
        assert report.drift_estimate == drift.max_drift
        assert np.all(report.N >= 5)

    def test_count_is_cluster_beyond_lambda(self, small_run, minus_run):
        # one window rule: each row's N is the number of cluster states
        # whose shift lies beyond lambda on the side of the sign
        for comp, report in ((small_run[0], small_run[2]), minus_run):
            side = 1.0 if comp.cfg.sign == "+" else -1.0
            beyond = [int(np.count_nonzero(side * comp.cluster.shifts > lam))
                      for lam in report.lambdas]
            assert report.N.size >= 5
            assert report.N.tolist() == beyond

    @pytest.mark.parametrize("q", [0, 1, 2])
    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("V", [FieldSpec(),
                                   FieldSpec.power(-0.03, -2.8)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_count_matches_merged_table(self, b_power, monkeypatch, kind, V,
                                        sign, q):
        # N counts the cluster alone; the oracle is counting_function on the
        # merged tables of the same channel solves, one table per mesh (the
        # channels m <= 1 on h, the rest on 2 h), at every row.  The
        # near-origin rows (m <= 1, mesh h) are counted at
        # their reported energies, which are checked against the Richardson
        # value (4 E_h - E_2h) / 3 of the same solves; every other cluster
        # row is the raw 2 h eigenvalue.  The grid also gets every |shift|
        # in its range: a state exactly at lambda is a tie that both strict
        # counts leave out.  The fields flip with the sign, so each sign
        # counts a side that holds states.
        tables, solves, grid = [], [], asymptotics._lambda_grid

        def solving(ops, e_max, e_min=None):
            channels = spectra.solve_channels(ops, e_max, e_min)
            solves.extend(channels)
            # the table of this mesh, built before the cluster scales its
            # states in place
            near = ops[0].mesh.h == 0.02
            tables.append(spectra.assemble_spectrum(
                [ch for ch in channels if (ch.op.m <= 1) == near]))
            return channels

        monkeypatch.setattr(asymptotics, "solve_channels", solving)
        side = 1.0 if sign == "+" else -1.0
        comp = compute_cluster(RunBuild(VerificationConfig(
            operator=kind, b=b_power.scaled(side), V=V.scaled(side),
            sign=sign, r_max=16.0, h=0.02, q_list=(q,))), q)
        center, gamma = 2.0 * q, comp.cfg.gamma
        E = {mesh_h: {(ch.op.m, ch.first + k): e for ch in solves
                      if ch.op.mesh.h == mesh_h
                      for k, e in enumerate(ch.energies)}
             for mesh_h in (0.02, 0.04)}
        reported = labeled(comp.cluster)
        for (m, n), shift in reported.items():
            if m <= 1:
                assert shift == pytest.approx(
                    (4.0 * E[0.02][m, n] - E[0.04][m, n]) / 3.0 - center,
                    rel=0.0, abs=1e-14)
            else:
                assert shift == E[0.04][m, n] - center
        assert [t.provenance["h"] for t in tables] == [0.02, 0.04]
        moved = [replace(t, E=np.array([
            center + reported[m, n] if (m, n) in reported else e
            for m, n, e in zip(t.m.tolist(), t.n.tolist(), t.E)]))
            for t in tables]
        ties = np.abs(comp.cluster.shifts)
        monkeypatch.setattr(asymptotics, "_lambda_grid", lambda lo, hi, k:
                            np.union1d(grid(lo, hi, k),
                                       ties[(ties >= lo) & (ties <= hi)]))
        report = cluster_asymptotics_report(comp)
        window = [(center + lam, center + gamma) if sign == "+"
                  else (center - gamma, center - lam)
                  for lam in report.lambdas]
        assert report.N.tolist() == [
            sum(spectra.counting_function(t, *w) for t in moved)
            for w in window]

    def test_ratio_near_one(self, small_run):
        _, _, report = small_run
        assert 0.7 < np.nanmin(report.ratio)
        assert np.nanmax(report.ratio) < 1.4

    def test_ratio_stability_echoes_regularity(self, small_run):
        # neighboring trusted rows: the ratio moves by less than the
        # regularity modulus plus the counting granularity
        _, _, report = small_run
        lam = report.lambdas
        ratio = report.ratio
        for k in range(ratio.size - 1):
            step = (lam[k + 1] / lam[k]) ** (2.0 / -3.0)
            slack = step * (1.0 + 2.0 / report.N[k + 1])
            assert ratio[k + 1] / ratio[k] < slack * 1.05

    def test_lambda_grid_on_fixed_points(self, small_cfg, small_run):
        # the grid is 10^(k / per_decade) clipped to [lo, hi], so a
        # roundoff change in the trust floor moves no lambda
        lo, hi = 3.7e-5, 0.4995
        grid = _lambda_grid(lo, hi, 24)
        for nudged in (lo * (1.0 + 1e-12), lo * (1.0 - 1e-12)):
            assert np.array_equal(_lambda_grid(nudged, hi, 24), grid)
        k = np.arange(-106, -7)  # 10^(-106/24) = 3.8e-5, 10^(-8/24) = 0.46
        assert np.array_equal(grid, 10.0 ** (k / 24))
        _, _, report = small_run
        k = np.round(np.log10(report.lambdas) * small_cfg.per_decade)
        assert np.array_equal(report.lambdas,
                              10.0 ** (k / small_cfg.per_decade))

    def test_q0_degenerate_counting(self, b_power):
        cfg = VerificationConfig(B0=1.0, b=b_power, sign="+", r_max=12.0,
                                 h=0.02)
        report = cluster_asymptotics_report(compute_cluster(RunBuild(cfg), 0))
        assert report.note == "degenerate-weight"
        assert np.all(report.N == 0)  # zero modes stay exactly at the level
        assert np.all(report.E_measure == 0.0)

    def test_trust_region_empty_srinks_with_radius(self, b_power):
        cfg = VerificationConfig(B0=1.0, b=b_power, sign="+", r_max=4.0,
                                 h=0.02)
        comp = compute_cluster(RunBuild(cfg), 1)
        with pytest.raises(TrustRegionEmpty):
            cluster_asymptotics_report(comp)

    def test_sign_flip_measure_identity(self, b_power):
        w_pos = effective_weight(FieldSpec(), b_power, 1, 1.0)
        w_neg = effective_weight(FieldSpec(), b_power.scaled(-1.0), 1, 1.0)
        for lam in np.geomspace(0.05, 1e-4, 9):
            ep = counting_measure(w_pos, [lam], "+", r_max=1e4)[0]
            em = counting_measure(w_neg, [lam], "-", r_max=1e4)[0]
            assert em == pytest.approx(ep, rel=1e-12, abs=1e-15)

    def test_sign_flip_counting_mirror(self, small_run, minus_run):
        # flipped fields with the lower window approximately mirror the
        # upper-window counts (exact only asymptotically)
        _, _, plus = small_run
        _, minus = minus_run
        lam_common = [l for l in plus.lambdas if minus.trust_lo <= l <= minus.trust_hi]
        assert len(lam_common) >= 5
        for lam in lam_common[:: max(1, len(lam_common) // 6)]:
            np_ = plus.N[np.argmin(np.abs(plus.lambdas - lam))]
            nm = minus.N[np.argmin(np.abs(minus.lambdas - lam))]
            assert abs(np_ - nm) <= max(2, 0.15 * np_)


class TestDefectFloor:
    def test_floor_bounds_shift_error(self, small_cfg, small_run):
        # the floor, the Richardson correction |E_h - E_2h| / 3 of the
        # near-origin channels m = -q..1, is their raw mesh-h error,
        # measured against Richardson on h/2 and h/4, without inflating it;
        # and it bounds the error of every reported shift: extrapolated for
        # m <= 1, the raw 2 h eigenvalue elsewhere
        comp = small_run[0]
        ref = richardson_reference(small_cfg, 1)
        raw = raw_shifts(small_cfg, 1, small_cfg.h, top=1)
        shifts = labeled(comp.cluster)
        assert set(shifts) <= set(ref)
        worst = max(abs(raw[k] - ref[k]) for k in shifts if k[0] <= 1)
        assert worst <= comp.defect_floor <= 1.5 * worst
        for k, s in shifts.items():
            assert abs(s - ref[k]) <= comp.defect_floor

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", [
        ProfileTerm("gaussian", 0.02, center=2.5, width=1.0),
        ProfileTerm("bump", 0.02, inner=1.25, outer=3.25)])
    def test_floor_bounds_sweep_fields(self, kind, shape):
        # the benchmark sweep's q = 2 fields, power plus a gaussian or bump
        # near the origin, with its V: the floor bounds every reported
        # shift's error against Richardson on h/2 and h/4.  The raw 2 h
        # shifts of m >= 2 are the tight part (margin 2.6x for pauli_plus
        # with the gaussian, against 30x and more for the extrapolated ones)
        cfg = VerificationConfig(
            B0=1.0, operator=kind,
            b=FieldSpec((ProfileTerm("power", 0.035, beta=-3.0), shape)),
            V=FieldSpec.power(0.03, -2.8), r_max=16.0, h=0.02, q_list=(2,))
        comp = compute_cluster(RunBuild(cfg), 2)
        ref = richardson_reference(cfg, 2)
        shifts = labeled(comp.cluster)
        assert len(shifts) > 20
        for k, s in shifts.items():
            assert abs(s - ref[k]) <= comp.defect_floor

    @pytest.mark.parametrize("kind, s", [("pauli_minus", 0),
                                         ("schroedinger", 1),
                                         ("pauli_plus", 2)])
    def test_plateau_extrapolation_fourth_order(self, kind, s):
        # closed form (the bump plateau below): the extrapolated shifts of
        # the deep near-origin states (m = -q..1) converge at fourth order,
        # their error falling by 16.00-16.01 per halving of h over
        # h = 0.04 -> 0.02 -> 0.01 at q = 1, 2, 3, where the raw ones fall
        # by 4
        a = 0.05
        b = FieldSpec((ProfileTerm("bump", a, inner=9.0, outer=11.0),))
        for q in (1, 2, 3):
            errors = []
            for h in (0.04, 0.02, 0.01):
                cluster = compute_cluster(RunBuild(VerificationConfig(
                    B0=1.0, operator=kind, b=b, r_max=16.0, h=h,
                    q_list=(q,))), q).cluster
                near = cluster.ms <= 1
                assert np.count_nonzero(near) == q + 2
                errors.append(np.max(np.abs(cluster.shifts[near]
                                            - (2 * q + s) * a)))
            ratios = np.array(errors[:-1]) / np.array(errors[1:])
            assert np.all((15.0 <= ratios) & (ratios <= 17.0)), ratios

    def test_odd_cell_count_takes_the_general_ratio(self, b_power):
        # n = 801 cells coarsen to 400, rho = 801 / 400, and the near-origin
        # shifts are (rho^2 E_h - E_H) / (rho^2 - 1): as accurate as at an
        # even n, with the floor still the raw-h error
        cfg = VerificationConfig(B0=1.0, b=b_power, r_max=16.02, h=0.02)
        comp = compute_cluster(RunBuild(cfg), 1)
        assert {op.mesh.n for op in comp.cluster.operators.values()} == {
            801, 400}
        ref = richardson_reference(cfg, 1)
        raw = raw_shifts(cfg, 1, cfg.h, top=1)
        shifts = labeled(comp.cluster)
        worst = max(abs(raw[k] - ref[k]) for k in shifts if k[0] <= 1)
        assert worst <= comp.defect_floor <= 1.5 * worst
        for k, s in shifts.items():
            assert abs(s - ref[k]) <= (0.01 if k[0] <= 1 else 1.0) * worst

    def test_floor_independent_of_channel_cut(self, small_cfg, small_run,
                                              monkeypatch):
        # the floor reads E_h of channels -q..1 from the cluster solve; with
        # m_max = 0 channel 1 is solved for the floor alone, and the floor
        # is the same number
        monkeypatch.setattr(asymptotics, "default_channel_cut",
                            lambda r_max, B0: 0)
        cut = compute_cluster(RunBuild(small_cfg), 1)
        assert sorted(cut.cluster.operators) == [-1, 0]
        assert cut.defect_floor == small_run[0].defect_floor

    @pytest.mark.parametrize("kind, s", [("pauli_minus", 0),
                                         ("schroedinger", 1),
                                         ("pauli_plus", 2)])
    def test_floor_bounds_plateau_closed_form(self, kind, s):
        # closed-form oracle: on the plateau of the bump b = a on [0, 9],
        # the field is B0 + a and the spin-down electric part is s a, so a
        # state whose orbit lies deep inside (m <= 6) sits at the level
        # 2 q (B0 + a) + s a: its shift is exactly (2 q + s) a up to
        # exponentially small tails.  Floor over error reads 279, 72 and 33
        # for q = 1, 2, 3 on every kind, the error being the raw 2 h shift
        # of channel 2.  A failure is a defect of the floor, not a
        # tolerance to loosen.
        a = 0.05
        b = FieldSpec((ProfileTerm("bump", a, inner=9.0, outer=11.0),))
        build = RunBuild(VerificationConfig(
            B0=1.0, operator=kind, b=b, r_max=16.0, h=0.02, q_list=(1, 2, 3)))
        for q in (1, 2, 3):
            comp = compute_cluster(build, q)
            deep = comp.cluster.ms <= 6
            assert np.count_nonzero(deep) == q + 7  # channels -q..6
            error = np.max(np.abs(comp.cluster.shifts[deep]
                                  - (2 * q + s) * a))
            assert comp.defect_floor >= error


class TestExponentFit:
    def test_small_run_exponent(self, small_run):
        comp, _, report = small_run
        fitted, expected = upper_estimate_check(comp, report)
        assert expected == pytest.approx(-2.0 / 3.0)
        # coarse mesh, narrow trust region
        assert abs(fitted - expected) < 0.15

    def test_empty_cluster_note(self):
        cfg = VerificationConfig(B0=1.0, sign="+", r_max=12.0, h=0.02)
        comp = compute_cluster(RunBuild(cfg), 1)
        fitted, expected = upper_estimate_check(
            comp, cluster_asymptotics_report(comp))
        assert math.isnan(fitted)
        assert math.isnan(expected)


class TestBoundarySensitivity:
    def test_interior_states_converged(self, small_cfg, small_run):
        comp, drift, _ = small_run
        assert drift.max_drift < 1e-6
        # every shift exceeds 10 times its own drift
        assert np.all(np.abs(drift.shifts) >= 10.0 * np.abs(drift.drift))
        assert drift.R_prime > drift.R

    @pytest.mark.parametrize("R", [8.0, 12.0])
    def test_estimate_brackets_two_radius_drift(self, b_power, R,
                                                monkeypatch):
        # oracle: solve the cluster again at R' and match states by label.
        # No state is boundary-flagged, so the outer ones really drift
        # (up to 2.3e-2 at R = 8); the single-solve estimate must bound each
        # drift without inflating it beyond 200x (measured 23x-76x)
        monkeypatch.setattr(spectra, "_NORM_FRACTION", 1.0)
        cfg = VerificationConfig(B0=1.0, b=b_power, sign="+", r_max=R, h=0.02)
        comp = compute_cluster(RunBuild(cfg), 1)
        estimate = boundary_sensitivity(comp)
        R_prime = estimate.R_prime
        assert R_prime == pytest.approx(1.2 * R)
        # the channel cut is derived again at R'
        wide = compute_cluster(RunBuild(replace(cfg, r_max=R_prime)), 1)
        oracle = spectra.boundary_sensitivity(
            labeled(comp.cluster), labeled(wide.cluster), R, R_prime)
        assert estimate.labels == oracle.labels
        assert np.array_equal(estimate.shifts, oracle.shifts)
        real = np.abs(oracle.drift) > 1e-9
        assert np.count_nonzero(real) >= 5
        ratio = np.abs(estimate.drift[real]) / np.abs(oracle.drift[real])
        assert np.all(ratio >= 1.0)
        assert np.all(ratio <= 200.0)


@pytest.fixture(scope="module")
def q2_run(b_power):
    build = RunBuild(VerificationConfig(B0=1.0, b=b_power, sign="+",
                                        r_max=20.0, h=0.01, q_list=(2,)))
    comp = compute_cluster(build, 2)
    return build, comp, cluster_asymptotics_report(comp)


class TestSecondCluster:
    def test_report_tracks_measure(self, q2_run):
        _, _, report = q2_run
        assert report.ratio[0] == pytest.approx(1.0, abs=0.1)
        assert np.all(np.diff(report.N) <= 0)

    def test_exponent(self, q2_run):
        _, comp, report = q2_run
        fitted, _ = upper_estimate_check(comp, report)
        assert abs(fitted - (-2.0 / 3.0)) < 0.15

    def test_toeplitz_chain(self, q2_run, b_power):
        from landau.projections import (build_T0, build_Tq,
                                        coupling_constant, zero_mode_basis)
        build, comp, _ = q2_run
        cl = comp.cluster
        tq = np.sort(build_Tq(2, cl))[::-1]
        sh = np.sort(cl.shifts)[::-1]
        # T_q compresses each state with the matrix it was solved with, so
        # its eigenvalues are the raw shifts on each state's own mesh (h for
        # m <= 1, 2 h elsewhere), from a second solve of that matrix
        raw = []
        for m, n in zip(cl.ms, cl.ns):
            ch = spectra.solve_channel(cl.operators[m], 4.5, 3.5)
            raw.append(ch.energies[n - ch.first] - 4.0)
        raw = np.sort(raw)[::-1]
        basis = zero_mode_basis(build.gauge, int(np.max(cl.ms)) + 2, [2],
                                T0=FieldSpec())
        t0 = np.sort(build_T0(2, FieldSpec(), basis))[::-1]
        t0 /= coupling_constant(2, 1.0)
        k = len(sh) // 4
        assert np.max(np.abs(tq[:k] - raw[:k]) / raw[:k]) < 1e-8
        # the q >= 2 ladder route carries the genuine sub-leading field
        # corrections; agreement on the top quartile stays inside 10%
        assert np.max(np.abs(t0[:k] - sh[:k]) / sh[:k]) < 0.10

    def test_schroedinger_family_report(self, b_power):
        cfg = VerificationConfig(B0=1.0, operator="schroedinger", b=b_power,
                                 sign="+", r_max=16.0, h=0.02)
        report = cluster_asymptotics_report(compute_cluster(RunBuild(cfg), 1))
        assert report.ratio[0] == pytest.approx(1.0, abs=0.1)
        assert report.trust_hi > report.trust_lo
