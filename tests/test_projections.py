import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

from conftest import BasisTooSmall, build_Sq_action, inner, offdiag_smallness
from landau import asymptotics
from landau.cli import load_config
from landau.fields import FieldSpec, ProfileTerm, build_gauge
from landau.operator import (RadialFunction, RadialMesh, build_channel,
                             zero_mode)
from landau import projections
from landau.projections import (build_T0, build_Tq, coupling_constant,
                                gram_identity_residual,
                                linear_coupling_constant,
                                weighted_identity_residual, zero_mode_basis)
from landau.spectra import (ClusterStates, assemble_spectrum, cluster_states,
                            solve_channels)

QUICK = Path(__file__).resolve().parents[1] / "configs" / "quick.json"


@pytest.fixture(scope="module")
def cluster_q1(mesh_small, gauge_power):
    ops = [build_channel("pauli_minus", m, gauge_power, FieldSpec())
           for m in range(-1, 12)]
    channels = solve_channels(ops, 2.6)
    table = assemble_spectrum(channels)
    return cluster_states(table, 2.0, 0.5, channels)


@pytest.fixture(scope="module")
def quick_q1():
    build = asymptotics.RunBuild(load_config(str(QUICK)))
    return build, asymptotics.compute_cluster(build, 1)


class TestBasis:
    def test_gram_is_identity(self, gauge_power):
        modes = [zero_mode(m, gauge_power) for m in range(10)]
        g = np.array([[inner(u, v) for v in modes] for u in modes])
        assert np.max(np.abs(g - np.eye(len(modes)))) < 1e-10

    def test_coupling_constants(self):
        assert coupling_constant(1, 1.0) == 2.0
        assert coupling_constant(2, 1.0) == 8.0
        assert linear_coupling_constant(1) == 2.0
        assert linear_coupling_constant(2) == 16.0


    def test_raised_levels_share_one_chain(self, gauge_power, monkeypatch):
        # building the basis with the forms of T0 for q = 1, 2, 3 makes each
        # zero mode once and takes one ladder step per mode and level
        # (levels 1..4), and T0 then takes none; each form equals the one
        # of the q-fold ladder_apply bit for bit
        steps, made = [], []
        ladder_apply = projections.ladder_apply

        def counting(g, gauge, q):
            steps.append(q)
            return ladder_apply(g, gauge, q)

        def making(m, gauge):
            made.append(m)
            return zero_mode(m, gauge)

        V = FieldSpec.power(0.03, -2.8)
        monkeypatch.setattr(projections, "ladder_apply", counting)
        monkeypatch.setattr(projections, "zero_mode", making)
        basis = zero_mode_basis(gauge_power, 9, (1, 2, 3), T0=V)
        assert made == list(range(len(basis)))
        assert steps == [1] * len(basis) * 4
        for q in (1, 2, 3):
            build_T0(q, V, basis)
        assert len(steps) == len(basis) * 4
        gauge, h = basis.gauge, basis.gauge.mesh.h
        weight = V.evaluate(gauge.mesh.nodes) - 2.0 * gauge.b_values
        assert set(basis.forms) == ({(L, None) for L in (1, 2, 3, 4)}
                                    | {(q, (V, 2.0)) for q in (1, 2, 3)})
        for (level, w), form in basis.forms.items():
            for m, value in enumerate(form):
                r = ladder_apply(zero_mode(m, gauge), gauge, level).values
                x = r if w is None else r * weight
                assert value == h * float(np.dot(x, r))

    def test_T0_peak_memory_below_one_level(self, gauge_power):
        # the basis is built mode by mode: building it with the T0 forms
        # peaks below the size of one ladder level of its 61 modes
        level_bytes = 61 * gauge_power.mesh.n * 8
        tracemalloc.start()
        try:
            zero_mode_basis(gauge_power, 60, [2],
                            T0=FieldSpec.power(0.03, -2.8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < level_bytes / 4

    def test_form_not_built_raises(self, gauge_power, b_power):
        # a basis holds the forms it was built with and walks no ladder
        # for another
        basis = zero_mode_basis(gauge_power, 3, [1], gram=b_power)
        gram_identity_residual(1, basis, b_power)
        for read in (lambda: gram_identity_residual(2, basis, b_power),
                     lambda: weighted_identity_residual(1, basis, b_power),
                     lambda: build_T0(1, FieldSpec(), basis)):
            with pytest.raises(KeyError):
                read()


class TestGramIdentity:
    def test_unperturbed_exact(self, gauge_zero):
        b = FieldSpec()
        basis = zero_mode_basis(gauge_zero, 9, [1], gram=b)
        G = gram_identity_residual(1, basis, b)
        assert np.max(np.abs(G)) < 2e-5  # pure ladder discretization error

    def test_offdiagonal_exact_zero(self, gauge_power, b_power):
        basis = zero_mode_basis(gauge_power, 9, [1], gram=b_power)
        G = gram_identity_residual(1, basis, b_power)
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) == 0.0

    def test_second_order_convergence(self, b_power):
        res = []
        for h in (0.02, 0.01):
            mesh = RadialMesh(12.0, h)
            gauge = build_gauge(b_power, 1.0, mesh)
            basis = zero_mode_basis(gauge, 9, [1], gram=b_power)
            G = gram_identity_residual(1, basis, b_power)
            res.append(np.max(np.abs(G)))
        assert res[0] / res[1] > 3.2

    def test_q2_constant_covering_field(self):
        # a plateau bump that covers the basis acts like a constant field:
        # the exact norm is q! (2 (B0 + amp))^q, so the residual past the
        # linear term is the pure quadratic piece 8 amp^2 (at q = 2, B0 = 1)
        mesh = RadialMesh(16.0, 0.01)
        amp = 0.05
        b = FieldSpec((ProfileTerm("bump", amp, inner=11.0, outer=13.0),))
        gauge = build_gauge(b, 1.0, mesh)
        basis = zero_mode_basis(gauge, 3, [2], gram=b)
        G = gram_identity_residual(2, basis, b)
        assert np.diag(G) == pytest.approx(8.0 * amp ** 2, rel=1e-2)

    def test_q2_annulus_translation_decay(self):
        # the q = 2 residual past the linear term is built from derivatives
        # and squares of b: an annular field translated outward, away from
        # the basis localization, must leave a rapidly shrinking residual
        mesh = RadialMesh(16.0, 0.01)
        gauge0 = build_gauge(FieldSpec(), 1.0, mesh)
        zero = FieldSpec()
        floor = np.max(np.abs(gram_identity_residual(
            2, zero_mode_basis(gauge0, 3, [2], gram=zero), zero)))
        maxima = []
        for center in (5.0, 8.0, 12.0):
            b = FieldSpec(
                (ProfileTerm("bump", 0.05, inner=center + 0.5,
                             outer=center + 1.5),
                 ProfileTerm("bump", -0.05, inner=center - 1.5,
                             outer=center - 0.5)))
            gauge = build_gauge(b, 1.0, mesh)
            basis = zero_mode_basis(gauge, 3, [2], gram=b)
            G = gram_identity_residual(2, basis, b)
            maxima.append(np.max(np.abs(G)))
        # decays with distance until the ladder discretization floor
        assert maxima[0] > 10.0 * maxima[1]
        assert maxima[1] < 2.0 * floor
        assert maxima[2] < 2.0 * floor

    def test_requires_positive_q(self, gauge_zero):
        with pytest.raises(ValueError):
            gram_identity_residual(0, zero_mode_basis(gauge_zero, 9, []),
                                   FieldSpec())


class TestWeightedIdentity:
    def test_zero_weight(self, gauge_power, b_power):
        U = FieldSpec()
        basis = zero_mode_basis(gauge_power, 9, [1], weighted=U)
        X = weighted_identity_residual(1, basis, U)
        assert np.max(np.abs(X)) == 0.0

    def test_constant_weight_expansion(self, mesh_small, gauge_power,
                                       b_power):
        # for U = c: residual diagonal equals 2 c (b u, u) exactly in the
        # continuum (X_1 correction); realize the constant as a plateau
        # covering the modes
        c = 0.3
        U = FieldSpec((ProfileTerm("bump", c, inner=11.0, outer=11.5),))
        basis = zero_mode_basis(gauge_power, 9, [1], weighted=U)
        X = weighted_identity_residual(1, basis, U)
        bv = b_power.evaluate(mesh_small.nodes)
        for m in range(6):  # modes localized well inside r < 11
            u = zero_mode(m, gauge_power)
            bu = mesh_small.h * float(np.dot(u.values * bv, u.values))
            assert X[m, m] == pytest.approx(2.0 * c * bu, abs=3e-5)

    def test_flattening_weight(self, mesh_small, gauge_power, b_power):
        # U(r/s) with s growing: residual / <U u, u> -> 0
        ratios = []
        for s in (1.0, 3.0, 9.0):
            U = FieldSpec((ProfileTerm("gaussian", 0.2, center=0.0,
                                       width=2.0 * s),))
            basis = zero_mode_basis(gauge_power, 9, [1], weighted=U)
            X = weighted_identity_residual(1, basis, U)
            Uv = U.evaluate(mesh_small.nodes)
            u = zero_mode(3, gauge_power)
            uu = mesh_small.h * float(np.dot(u.values * Uv, u.values))
            ratios.append(abs(X[3, 3]) / abs(uu))
        assert ratios[0] > ratios[1] > ratios[2]


class TestT0:
    def test_q0_no_potential_is_exactly_zero(self, gauge_power, b_power):
        zero = FieldSpec()
        t = build_T0(0, zero, zero_mode_basis(gauge_power, 9, [0], T0=zero))
        assert np.max(np.abs(t)) == 0.0

    def test_q0_reduces_to_potential_quadrature(self, mesh_small, gauge_power,
                                                b_power):
        V = FieldSpec((ProfileTerm("gaussian", 0.1, center=1.0, width=1.0),))
        t = build_T0(0, V, zero_mode_basis(gauge_power, 9, [0], T0=V))
        Vv = V.evaluate(mesh_small.nodes)
        for m in range(10):
            u = zero_mode(m, gauge_power)
            assert t[m] == pytest.approx(
                mesh_small.h * float(np.dot(u.values * Vv, u.values)),
                rel=1e-12)

    def test_laguerre_basis_oracle(self):
        # at b = 0 the T0 diagonal equals C_q <V e, e> over the unperturbed
        # level-q eigenfunctions; evaluate that with Gauss-Laguerre
        mesh = RadialMesh(14.0, 0.01)
        gauge = build_gauge(FieldSpec(), 1.0, mesh)
        V = FieldSpec((ProfileTerm("power", 0.1, beta=-3.0),))
        basis = zero_mode_basis(gauge, 8, [1], T0=V)
        t = build_T0(1, V, basis)
        nodes, weights = np.polynomial.laguerre.laggauss(170)

        def oracle(m):
            n, a = (0, 1) if m == 0 else (1, m - 1)
            ln = eval_genlaguerre(n, a, nodes)
            dens = nodes ** a * ln ** 2 * np.exp(gammaln(n + 1)
                                                 - gammaln(n + a + 1))
            vv = V.evaluate(np.sqrt(2.0 * nodes))
            return coupling_constant(1, 1.0) * float(np.sum(weights * dens * vv))

        for m in range(9):
            assert t[m] == pytest.approx(oracle(m), rel=5e-3)

    def test_symmetric(self, gauge_power, b_power):
        # symmetric by construction: the basis modes lie in distinct
        # channels, so T0 is its diagonal, one entry per mode
        V = FieldSpec((ProfileTerm("gaussian", 0.1, center=2.0, width=1.0),))
        basis = zero_mode_basis(gauge_power, 9, [1], T0=V)
        t = build_T0(1, V, basis)
        assert t.shape == (len(basis),) == (10,)
        assert np.all(np.isfinite(t))


class TestSq:
    def test_identity_on_unperturbed_subspace(self, mesh_small, gauge_zero):
        ops = [build_channel("pauli_minus", m, gauge_zero, FieldSpec())
               for m in range(-1, 8)]
        channels = solve_channels(ops, 2.6)
        table = assemble_spectrum(channels)
        cl = cluster_states(table, 2.0, 0.5, channels)
        S = build_Sq_action(1, cl, 10, gauge_zero)
        assert np.max(np.abs(S - np.eye(S.shape[0]))) < 1e-6

    def test_leading_deviation_tracks_shifts(self, mesh_small, gauge_power,
                                             cluster_q1):
        S = build_Sq_action(1, cluster_q1, 13, gauge_power)
        resid = np.diag(S) - 1.0
        pred = cluster_q1.shifts / 2.0  # (P_- - Lambda_q) P_q term over 2 B0
        assert np.max(np.abs(resid - pred)) < 0.1 * np.max(cluster_q1.shifts)

    def test_trace_near_dimension(self, mesh_small, gauge_power, cluster_q1):
        S = build_Sq_action(1, cluster_q1, 13, gauge_power)
        dim = len(cluster_q1)
        assert abs(np.trace(S) - dim) < 0.01 * dim

    def test_basis_too_small(self, mesh_small, gauge_power, cluster_q1):
        with pytest.raises(BasisTooSmall):
            build_Sq_action(1, cluster_q1, 3, gauge_power)


def applied(cluster, q):
    """(P_- - Lambda_q) v for every cluster state v, in cluster order."""
    out = []
    for v in cluster.states:
        av = cluster.operators[v.m].matvec(v.values)
        av -= 2.0 * q * cluster.B0 * v.values
        out.append(RadialFunction(av, v.m, v.mesh))
    return out


class TestTq:
    def test_pair_matrix_equals_all_pairs(self, cluster_q1):
        # build_Tq pairs each applied state with itself alone; the result
        # equals the diagonal of the loop over every pair bit for bit (the
        # reference kept here), whose other entries pair distinct channels
        states = cluster_q1.states
        ref = np.array([[inner(a, v) for v in states]
                        for a in applied(cluster_q1, 1)])
        assert np.array_equal(build_Tq(1, cluster_q1), np.diag(ref))
        assert np.array_equal(ref, np.diag(np.diag(ref)))

    def test_peak_memory_holds_one_applied_state(self, quick_q1):
        # each applied state is paired as soon as it is formed and only the
        # diagonal is stored, so the peak allocation stays below a few state
        # vectors (all k states at once would be k = 37 state vectors, a
        # k x k matrix 1.7 state vectors)
        build, comp = quick_q1
        k = len(comp.cluster)
        state_bytes = build.gauge.mesh.n * 8
        tracemalloc.start()
        try:
            build_Tq(1, comp.cluster)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert k > 20
        assert peak < 6 * state_bytes

    def test_no_potential_diagonal_of_shifts(self, cluster_q1, b_power):
        # one state per channel: distinct channels are orthogonal, so the
        # compression is the diagonal, and that holds the shifts
        diag = build_Tq(1, cluster_q1)
        assert np.max(np.abs(diag - cluster_q1.shifts)) < 1e-6
        assert len(set(cluster_q1.ms.tolist())) == len(cluster_q1)

    def test_chain_agreement_with_T0(self, mesh_small, gauge_power, cluster_q1,
                                     b_power):
        # both routes approximate the same cluster: leading eigenvalues of
        # T_q and of T0 / C_q agree
        m_max = int(np.max(cluster_q1.ms)) + 1
        basis = zero_mode_basis(gauge_power, m_max, [1], T0=FieldSpec())
        t0 = np.sort(build_T0(1, FieldSpec(), basis))[::-1]
        t0 /= coupling_constant(1, 1.0)
        tq = np.sort(build_Tq(1, cluster_q1))[::-1]
        k = max(1, len(tq) // 4)
        rel = np.abs(t0[:k] - tq[:k]) / np.abs(tq[:k])
        assert np.max(rel) < 0.1

    def test_positive_weight_gives_psd(self, cluster_q1, b_power):
        # V + 2 q b >= 0 pointwise implies T_q >= 0 up to mesh defect
        assert np.min(build_Tq(1, cluster_q1)) > -1e-6


class TestToeplitzSpectrum:
    # T_q and T_0 are per-state diagonals; their spectra are the sorted
    # diagonals

    def test_quick_config_matches_dense_bit_for_bit(self, quick_q1):
        build, comp = quick_q1
        cfg = build.cfg
        basis = zero_mode_basis(
            build.gauge, min(int(np.max(comp.cluster.ms)) + 1, cfg.m_max),
            [1], T0=cfg.V)
        tq = build_Tq(1, comp.cluster)
        t0 = build_T0(1, cfg.V, basis)
        for t in (tq, t0):
            assert t.size > 20
            assert np.array_equal(np.sort(t), np.linalg.eigvalsh(np.diag(t)))

    def test_two_states_in_one_channel(self, mesh_small, gauge_power):
        # levels 1 and 2 of channel 0 next to level 1 of channels 1 and 2,
        # solved without V: the two channel-0 states are eigenvectors of one
        # channel matrix, so their pair entries are roundoff and the
        # compression is its diagonal
        ops = [build_channel("pauli_minus", m, gauge_power, FieldSpec())
               for m in range(3)]
        channels = solve_channels(ops, 4.6)
        table = assemble_spectrum(channels)
        labels = [(0, 1), (1, 1), (0, 2), (2, 1)]
        E = {(int(m), int(n)): e for m, n, e, _ in table.rows()}
        cluster = ClusterStates(
            1.0, np.array([E[k] - 2.0 for k in labels]),
            np.array([m for m, _ in labels]), np.array([n for _, n in labels]),
            [table.take_state(m, n, mesh_small) for m, n in labels],
            {ch.op.m: ch.op for ch in channels})
        ref = np.array([[inner(a, v) for v in cluster.states]
                        for a in applied(cluster, 1)])
        off = ref - np.diag(np.diag(ref))
        assert np.max(np.abs(off)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(build_Tq(1, cluster), np.diag(ref))

    def test_empty(self):
        cluster = ClusterStates(1.0, np.empty(0), np.empty(0, dtype=int),
                                np.empty(0, dtype=int), [], {})
        assert build_Tq(1, cluster).size == 0


class TestOffdiag:
    def test_zero_potential(self, cluster_q1):
        rep = offdiag_smallness(1, FieldSpec(), cluster_q1)
        assert rep.sigma_max == 0.0

    def test_constant_covering_potential_commutes(self, cluster_q1):
        # a plateau covering every cluster state acts as a constant and
        # commutes with the projector
        V = FieldSpec((ProfileTerm("bump", 0.3, inner=10.0, outer=11.5),))
        rep = offdiag_smallness(1, V, cluster_q1)
        assert rep.sigma_max < 1e-6

    def test_far_supported_potential(self, mesh_small, gauge_power):
        # annular potential beyond all cluster-state localization
        ops = [build_channel("pauli_minus", m, gauge_power, FieldSpec())
               for m in range(-1, 7)]
        channels = solve_channels(ops, 2.6)
        table = assemble_spectrum(channels)
        compact = cluster_states(table, 2.0, 0.5, channels)
        V = FieldSpec(
            (ProfileTerm("bump", 0.3, inner=10.8, outer=11.8),
             ProfileTerm("bump", -0.3, inner=9.8, outer=10.8)))
        rep = offdiag_smallness(1, V, compact)
        assert rep.sigma_max < 1e-6

    def test_direct_svd_oracle(self, mesh_small, gauge_power, cluster_q1):
        # assemble (1 - P_q) V P_q explicitly on one channel and compare the
        # largest singular value with the per-channel shortcut
        V = FieldSpec((ProfileTerm("power", 0.05, beta=-3.0),))
        rep = offdiag_smallness(1, V, cluster_q1)
        Vv = V.evaluate(mesh_small.nodes)
        h = mesh_small.h
        for pick in (0, 3):
            v = cluster_q1.states[pick]
            label = (int(cluster_q1.ms[pick]), int(cluster_q1.ns[pick]))
            p = np.outer(v.values, v.values) * h  # rank-1 projector, channel
            op = np.diag(Vv) @ p - p @ (np.diag(Vv) @ p)
            sv = np.linalg.svd(op, compute_uv=False)
            # discrete-metric singular value: matrix acts on sqrt(h) vectors
            idx = rep.labels.index(label)
            assert rep.singular_values[idx] == pytest.approx(float(sv[0]),
                                                             rel=1e-8)
