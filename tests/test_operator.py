import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from landau.errors import MeshMismatch
from landau.fields import FieldSpec, ProfileTerm, build_gauge
from landau.operator import (KINDS, RadialFunction, RadialMesh, build_channel,
                             default_channel_cut, ladder_apply,
                             spin_down_form, zero_mode)
from landau.spectra import channel_eigs

from conftest import (channel_potential_direct, commutator_action, dense,
                      ladder_lower, reference_build_channel,
                      reference_ladder_apply, reference_zero_mode)


def lowest_eigs(op, e_max):
    lo = float(np.min(op.diag) - 2 * np.max(np.abs(op.offdiag)) - 1)
    return eigh_tridiagonal(op.diag, op.offdiag, select="v",
                            select_range=(lo, e_max), eigvals_only=True)


class TestMesh:
    def test_validation(self):
        with pytest.raises(ValueError):
            RadialMesh(10.0, -0.1)
        with pytest.raises(ValueError):
            RadialMesh(1.0, 0.3)  # not a multiple
        with pytest.raises(ValueError):
            RadialMesh(0.1, 0.01)  # fewer than 16 cells

    def test_coarsened(self):
        # n // 2 cells on the same domain: 2 h for an even n, r_max / (n // 2)
        # for an odd one; the least mesh, 16 cells, coarsens to 8, which no
        # config may ask for
        even = RadialMesh(16.0, 0.02).coarsened()
        assert (even.n, even.h, even.r_max) == (400, 0.04, 16.0)
        odd = RadialMesh(16.02, 0.02).coarsened()
        assert (odd.n, odd.h) == (400, 16.02 / 400)
        assert odd.r_max == pytest.approx(16.02, rel=1e-15)
        least = RadialMesh(16.0, 1.0).coarsened()
        assert (least.n, least.h) == (8, 2.0)
        with pytest.raises(ValueError, match="at least 16 nodes"):
            RadialMesh(16.0, 2.0)

    def test_cell_centers(self):
        mesh = RadialMesh(2.0, 0.1)
        assert mesh.n == 20
        assert mesh.nodes[0] == pytest.approx(0.05)
        assert mesh.nodes[-1] == pytest.approx(1.95)

    def test_channel_cut(self):
        assert default_channel_cut(30.0, 1.0) == 168
        assert default_channel_cut(20.0, 1.0) == 75


class TestChannelMatrix:
    def test_unperturbed_landau_levels(self):
        # P_- channel m=0: levels {0, 2, 4}; Schroedinger: +B0; P_+: +2B0
        mesh = RadialMesh(20.0, 0.005)
        gauge = build_gauge(FieldSpec(), 1.0, mesh)
        zero = FieldSpec()
        vals = lowest_eigs(build_channel("pauli_minus", 0, gauge, zero), 5.0)
        assert np.allclose(vals, [0.0, 2.0, 4.0], atol=1e-4)
        vals = lowest_eigs(build_channel("schroedinger", 0, gauge, zero), 2.0)
        assert vals[0] == pytest.approx(1.0, abs=1e-4)
        vals = lowest_eigs(build_channel("pauli_plus", 0, gauge, zero), 3.0)
        assert vals[0] == pytest.approx(2.0, abs=1e-4)

    def test_electric_part_sampled_once_per_gauge(self, b_power,
                                                  monkeypatch):
        # the electric part V + b of every schroedinger channel is evaluated
        # once per gauge; the matrices equal those of a fresh gauge
        mesh = RadialMesh(16.0, 0.02)
        V = FieldSpec.power(0.03, -2.8)
        fresh = [build_channel("schroedinger", m, build_gauge(b_power, 1.0,
                                                              mesh), V)
                 for m in range(-3, 4)]
        gauge = build_gauge(b_power, 1.0, mesh)
        calls = []
        evaluate = FieldSpec.evaluate
        monkeypatch.setattr(FieldSpec, "evaluate",
                            lambda self, r: calls.append(self)
                            or evaluate(self, r))
        ops = [build_channel("schroedinger", m, gauge, V)
               for m in range(-3, 4)]
        assert len(calls) == 1
        for op, ref in zip(ops, fresh):
            assert np.array_equal(op.diag, ref.diag)
            assert np.array_equal(op.offdiag, ref.offdiag)

    def test_spin_down_form_once_per_solve(self, b_power, monkeypatch):
        # the electric part V + 2b of the pauli_plus channels is formed once
        # per (kind, V, b), not once per channel; the matrices equal those
        # built on a form made afresh for each channel
        gauge = build_gauge(b_power, 1.0, RadialMesh(16.0, 0.02))
        V = FieldSpec.power(0.03, -2.8)
        fresh = []
        for m in range(-3, 4):
            spin_down_form.cache_clear()
            fresh.append(build_channel("pauli_plus", m, gauge, V))
        spin_down_form.cache_clear()
        calls = []
        add = FieldSpec.sum
        monkeypatch.setattr(FieldSpec, "sum", staticmethod(
            lambda a, b: calls.append(None) or add(a, b)))
        ops = [build_channel("pauli_plus", m, gauge, V) for m in range(-3, 4)]
        assert len(calls) == 1
        for op, ref in zip(ops, fresh):
            assert np.array_equal(op.diag, ref.diag)
            assert np.array_equal(op.offdiag, ref.offdiag)

    def test_diagonal_matches_direct_formula(self, b_power):
        # on a smooth interior state the matrix acts as -w'' + q_m w, with
        # q_m from the textbook formula, up to O(h^2)
        V = FieldSpec((ProfileTerm("gaussian", 0.2, center=2.0, width=1.0),))
        errs = {}
        for h in (0.01, 0.005):
            mesh = RadialMesh(12.0, h)
            gauge = build_gauge(b_power, 1.0, mesh)
            r = mesh.nodes
            w = np.exp(-(r - 5.0) ** 2)
            minus_w2 = (2.0 - 4.0 * (r - 5.0) ** 2) * w
            inner = (r > 1.0) & (r < 10.0)
            for kind in KINDS:
                for m in (-2, 0, 3):
                    op = build_channel(kind, m, gauge, V)
                    q = (channel_potential_direct(kind, m, gauge, V)
                         - 0.25 / (r * r))
                    err = np.abs(op.matvec(w) - (minus_w2 + q * w))[inner]
                    errs.setdefault((kind, m), []).append(err.max())
        for coarse, fine in errs.values():
            assert coarse < 1e-3
            assert 3.6 < coarse / fine < 4.4

    def test_offdiagonal_face_weights(self, mesh_small, gauge_zero):
        # b = 0, m = 0: rho = r exp(-B0 r^2 / 2) gives the rho = r face
        # weights i / sqrt(i^2 - 1/4) times exp(B0 h^2 / 8)
        op = build_channel("pauli_minus", 0, gauge_zero, FieldSpec())
        h = mesh_small.h
        i = np.arange(1, mesh_small.n, dtype=float)
        weights = i / np.sqrt(i * i - 0.25)
        expected = -weights * math.exp(h * h / 8.0) / h ** 2
        assert np.allclose(op.offdiag, expected, rtol=1e-14, atol=0.0)

    def test_matvec_matches_dense(self, mesh_small, gauge_power):
        op = build_channel("schroedinger", -2, gauge_power, FieldSpec())
        rng = np.random.default_rng(7)
        v = rng.normal(size=mesh_small.n)
        assert np.allclose(op.matvec(v), dense(op) @ v, rtol=1e-13, atol=1e-10)

    def test_mesh_mismatch(self, gauge_power):
        # the builders read the mesh off the gauge; a ladder action takes
        # the function's mesh and the gauge's as two inputs
        other = RadialMesh(12.0, 0.02)
        g = RadialFunction(np.ones(other.n), 1, other)
        with pytest.raises(MeshMismatch):
            ladder_apply(g, gauge_power, 1)

    def test_large_m_entries_finite(self, b_power):
        # the first-cell entry of the weighted flux form, 4^(|m|+1/2) / h^2,
        # would overflow from |m| = 506 at this h; the zero mode stays exact
        mesh = RadialMesh(50.0, 0.02)
        gauge = build_gauge(b_power, 1.0, mesh)
        with np.errstate(over="raise", invalid="raise"):
            ops = {m: build_channel("pauli_minus", m, gauge, FieldSpec())
                   for m in (600, -600)}
        for op in ops.values():
            assert np.all(np.isfinite(op.diag))
            assert np.all(np.isfinite(op.offdiag))
        lowest = channel_eigs(ops[600], 1.0)[0][0]
        assert abs(lowest) < 100.0 * np.finfo(float).eps / mesh.h ** 2
        assert channel_eigs(ops[-600], 1.0) == []  # lowest level is 1200

    def test_mesh_convergence_order(self):
        # Richardson ratios of the level-1 eigenvalue across h .. h/8 in the
        # m = 0 channel, where the O(h^2) defect sits; at m = 2 the
        # eigenvalue moves no more between the same meshes
        b = FieldSpec.power(0.05, -3.0)
        diffs = {}
        for m in (0, 2):
            eigs = []
            for h in (0.04, 0.02, 0.01, 0.005):
                mesh = RadialMesh(12.0, h)
                gauge = build_gauge(b, 1.0, mesh)
                op = build_channel("pauli_minus", m, gauge, FieldSpec())
                eigs.append(lowest_eigs(op, 2.5)[1])
            diffs[m] = np.abs(np.diff(eigs))
        ratios = diffs[0][:-1] / diffs[0][1:]
        assert np.all((3.6 <= ratios) & (ratios <= 4.4))
        assert np.all(diffs[2] <= diffs[0])


class TestZeroModes:
    def test_unperturbed_profile(self, mesh_small, gauge_zero):
        u = zero_mode(0, gauge_zero)
        r = mesh_small.nodes
        ref = np.sqrt(r) * np.exp(-0.25 * r * r)
        ref /= math.sqrt(mesh_small.h * np.dot(ref, ref))
        assert np.max(np.abs(u.values - ref)) < 1e-13

    def test_negative_channel_rejected(self, mesh_small, gauge_zero):
        with pytest.raises(ValueError):
            zero_mode(-1, gauge_zero)

    def test_large_m_no_underflow(self, mesh_small, gauge_power):
        u = zero_mode(60, gauge_power)
        assert np.all(np.isfinite(u.values))
        assert u.norm() == pytest.approx(1.0, rel=1e-12)

    def test_residual_second_order(self, b_power):
        # the sampled zero mode spans the kernel of the channel matrix: the
        # residual is roundoff on entries of size 1/h^2 at every mesh
        eps = np.finfo(float).eps
        for h in (0.01, 0.005):
            mesh = RadialMesh(12.0, h)
            gauge = build_gauge(b_power, 1.0, mesh)
            u = zero_mode(3, gauge)
            op = build_channel("pauli_minus", 3, gauge, FieldSpec())
            norm = math.sqrt(mesh.h * np.sum(op.matvec(u.values) ** 2))
            assert norm < 1e3 * eps / (h * h)

    def test_rayleigh_quotient_m5(self, b_power):
        mesh = RadialMesh(20.0, 0.005)
        gauge = build_gauge(b_power, 1.0, mesh)
        u = zero_mode(5, gauge)
        op = build_channel("pauli_minus", 5, gauge, FieldSpec())
        rq = mesh.h * float(np.dot(u.values, op.matvec(u.values)))
        # the zero mode is exact for the matrix: the quotient is roundoff
        # (measured 8e-13 here)
        assert rq <= 1e-6
        assert abs(rq) < 1e-5


class TestLadders:
    def test_channel_labels(self, mesh_small, gauge_power):
        u = zero_mode(2, gauge_power)
        assert ladder_apply(u, gauge_power, 1).m == 1
        assert ladder_lower(u, gauge_power).m == 3

    def test_gram_norm_unperturbed(self, mesh_small, gauge_zero):
        # ||Qbar^q u||^2 = C_q = q! (2 B0)^q at b = 0
        for m in (0, 1, 4):
            u = zero_mode(m, gauge_zero)
            r1 = ladder_apply(u, gauge_zero, 1)
            assert mesh_small.h * np.dot(r1.values, r1.values) == pytest.approx(
                2.0, abs=2e-5)
            r2 = ladder_apply(u, gauge_zero, 2)
            assert mesh_small.h * np.dot(r2.values, r2.values) == pytest.approx(
                8.0, abs=2e-4)

    def test_gram_norm_perturbed(self, mesh_small, gauge_power, b_power):
        # ||Qbar u||^2 = 2 B0 + 2 (b u, u), by quadrature
        bv = b_power.evaluate(mesh_small.nodes)
        for m in (0, 3, 7):
            u = zero_mode(m, gauge_power)
            ru = ladder_apply(u, gauge_power, 1)
            lhs = mesh_small.h * np.dot(ru.values, ru.values)
            bu = mesh_small.h * np.dot(u.values * bv, u.values)
            assert lhs == pytest.approx(2.0 + 2.0 * bu, abs=2e-5)

    def test_lower_annihilates_zero_modes(self, mesh_small, gauge_power):
        for m in (0, 4):
            u = zero_mode(m, gauge_power)
            assert ladder_lower(u, gauge_power).norm() < 1e-8

    def test_commutator_pointwise(self, b_power):
        # (Q Qbar - Qbar Q) g = 2 B g, checked where the test state lives;
        # near r = 0 the 1/r factors magnify the stencil error on a state
        # that does not belong to a definite small-r channel behavior
        errs = []
        for h in (0.01, 0.005):
            mesh = RadialMesh(12.0, h)
            gauge = build_gauge(b_power, 1.0, mesh)
            r = mesh.nodes
            g = RadialFunction(np.sqrt(r) * np.exp(-0.5 * (r - 5.0) ** 2),
                               2, mesh).normalized()
            comm = commutator_action(g, gauge)
            target = 2.0 * gauge.B_total * g.values
            inner = (r > 1.0) & (r < 10.0)
            errs.append(np.max(np.abs(comm.values - target)[inner]))
        assert errs[0] < 1e-7
        assert errs[1] < errs[0]

    def test_commutator_constant_field(self, mesh_small, gauge_zero):
        r = mesh_small.nodes
        g = RadialFunction(np.sqrt(r) * np.exp(-0.5 * (r - 5.0) ** 2),
                           1, mesh_small).normalized()
        comm = commutator_action(g, gauge_zero)
        inner = (r > 1.0) & (r < 10.0)
        err = np.abs(comm.values - 2.0 * g.values)[inner]
        assert err.max() < 1e-7

    def test_factorization_quadratic_form(self, b_power):
        # (P_- g, g) = ||Q g||^2 to O(h^2) on a smooth interior state
        diffs = []
        for h in (0.01, 0.005):
            mesh = RadialMesh(12.0, h)
            gauge = build_gauge(b_power, 1.0, mesh)
            r = mesh.nodes
            g = RadialFunction(np.sqrt(r) * np.exp(-0.5 * (r - 5.0) ** 2),
                               2, mesh).normalized()
            op = build_channel("pauli_minus", 2, gauge, FieldSpec())
            qg = ladder_lower(g, gauge)
            lhs = mesh.h * float(np.dot(g.values, op.matvec(g.values)))
            rhs = mesh.h * float(np.dot(qg.values, qg.values))
            diffs.append(abs(lhs - rhs))
        assert diffs[0] < 3.7e-4
        assert 3.5 < diffs[0] / diffs[1] < 4.5

    def test_lower_drops_one_level(self, mesh_small, gauge_zero):
        # Q applied to a level-1 eigenfunction lands in the zero-mode space:
        # the Rayleigh quotient drops by 2 B0
        u = zero_mode(3, gauge_zero)
        level1 = ladder_apply(u, gauge_zero, 1)  # channel 2, level 1
        lowered = ladder_lower(level1, gauge_zero)
        op = build_channel("pauli_minus", 3, gauge_zero, FieldSpec())
        rq = (mesh_small.h * float(np.dot(lowered.values,
                                          op.matvec(lowered.values)))
              / (mesh_small.h * float(np.dot(lowered.values, lowered.values))))
        assert rq == pytest.approx(0.0, abs=1e-4)

    def test_raise_maps_to_level_one(self, mesh_small, gauge_zero):
        # Qbar u is an eigenvector of the next Landau level: Rayleigh
        # quotient of P_- at Qbar u equals 2 B0
        u = zero_mode(3, gauge_zero)
        ru = ladder_apply(u, gauge_zero, 1)
        op = build_channel("pauli_minus", 2, gauge_zero, FieldSpec())
        rq = (mesh_small.h * float(np.dot(ru.values, op.matvec(ru.values)))
              / (mesh_small.h * float(np.dot(ru.values, ru.values))))
        # the level-1 state at b = 0 is a zero mode times a polynomial in
        # r^2, which the matrix resolves to roundoff (measured -3e-13 here)
        assert rq == pytest.approx(2.0, abs=1e-4)


class TestInPlaceKernels:
    # the kernels that work in place round exactly as the expressions they
    # replaced (conftest's reference_* oracles), on the headline field

    @pytest.mark.parametrize("m", [0, 1, 30, 60])
    def test_zero_mode(self, gauge_headline, m):
        assert np.array_equal(zero_mode(m, gauge_headline).values,
                              reference_zero_mode(m, gauge_headline).values)

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_ladder_apply(self, gauge_headline, level):
        for m in (0, 1, 30, 60):
            u = zero_mode(m, gauge_headline)
            got = ladder_apply(u, gauge_headline, level)
            want = reference_ladder_apply(u, gauge_headline, level)
            assert got.m == want.m == m - level
            assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("kind", KINDS)
    def test_build_channel(self, gauge_headline, kind):
        V = FieldSpec.power(0.03, -2.8)
        for m in (-3, 0, 5, default_channel_cut(30.0, 1.0)):
            op = build_channel(kind, m, gauge_headline, V)
            diag, offdiag = reference_build_channel(kind, m, gauge_headline,
                                                    V)
            assert np.array_equal(op.diag, diag)
            assert np.array_equal(op.offdiag, offdiag)
