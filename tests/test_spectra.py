from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cluster_shifts, dense, reference_one_pair
from landau import spectra
from landau.cli import load_config
from landau.errors import ConvergenceFailure, InconsistentProvenance
from landau.fields import FieldSpec, ProfileTerm, build_gauge
from landau.operator import (ChannelOperator, RadialMesh, build_channel,
                             default_channel_cut)
from landau.spectra import (assemble_spectrum, boundary_sensitivity,
                            channel_eigs, cluster_states, counting_function,
                            solve_channel, solve_channels)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def synthetic_op(diag, offdiag, m=0, kind="pauli_minus"):
    if len(diag) < 16:
        raise ValueError("synthetic operators need >= 16 entries")
    mesh = RadialMesh(float(len(diag)), 1.0)
    return ChannelOperator(kind, m, mesh, np.asarray(diag, float),
                           np.asarray(offdiag, float), 1.0)


class TestChannelEigs:
    def test_diagonal_matrix_exact(self):
        diag = np.arange(1.0, 17.0)
        op = synthetic_op(diag, np.zeros(15))
        pairs = channel_eigs(op, 16.5)
        assert [e for e, _ in pairs] == pytest.approx(list(diag))
        for k, (_, v) in enumerate(pairs):
            assert v[k] == pytest.approx(1.0)

    def test_dense_oracle_random_tridiagonal(self):
        rng = np.random.default_rng(11)
        n = 200
        diag = rng.uniform(-1.0, 1.0, n)
        off = rng.uniform(-1.0, 1.0, n - 1)
        mesh = RadialMesh(float(n), 1.0)
        op = ChannelOperator("pauli_minus", 0, mesh, diag, off, 1.0)
        got = np.array([e for e, _ in channel_eigs(op, 10.0)])
        dense = np.zeros((n, n))
        np.fill_diagonal(dense, diag)
        idx = np.arange(n - 1)
        dense[idx, idx + 1] = off
        dense[idx + 1, idx] = off
        ref = np.linalg.eigvalsh(dense)
        assert got.size == ref.size
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_unperturbed_landau_levels(self, mesh_small, gauge_zero):
        op = build_channel("pauli_minus", 0, gauge_zero, FieldSpec())
        vals = [e for e, _ in channel_eigs(op, 5.0)]
        assert vals == pytest.approx([0.0, 2.0, 4.0], abs=1e-4)

    def test_bisection_tolerance_changes_no_eigenvalue(self, monkeypatch):
        # every channel up to the cut, levels 0..2: the polished eigenvalues
        # at the working bisection tolerance equal those bisected to 2 tiny
        mesh = RadialMesh(20.0, 0.005)
        gauge = build_gauge(FieldSpec.power(0.05, -3.0), 1.0, mesh)
        ops = [build_channel("pauli_minus", m, gauge, FieldSpec())
               for m in range(-2, default_channel_cut(20.0, 1.0) + 1)]
        working = [[e for e, _ in channel_eigs(op, 4.5)] for op in ops]
        monkeypatch.setattr(spectra, "_BISECT_TOL",
                            2.0 * np.finfo(float).tiny)
        tight = [[e for e, _ in channel_eigs(op, 4.5)] for op in ops]
        assert working == tight

    def test_eigenvector_sign_deterministic(self, mesh_small, gauge_zero):
        op = build_channel("pauli_minus", 1, gauge_zero, FieldSpec())
        a = channel_eigs(op, 1.0)[0][1]
        b = channel_eigs(op, 1.0)[0][1]
        assert np.array_equal(a, b)
        assert a[np.argmax(np.abs(a))] > 0


class TestWindowSolve:
    # the cluster solve covers only (e_min, e_max]; the Sturm count of the
    # eigenvalues at or below e_min keeps every (m, n) label of the full solve

    @pytest.mark.parametrize("q", [1, 2])
    # "None": no electric part
    @pytest.mark.parametrize("V", [FieldSpec(), FieldSpec.power(0.03, -2.8)],
                             ids=["None", "V1"])
    def test_matches_full_solve_in_window(self, q, V):
        mesh = RadialMesh(16.0, 0.02)
        gauge = build_gauge(FieldSpec.power(0.05, -3.0), 1.0, mesh)
        e_min, e_max = 2.0 * q - 0.5 - 1e-6, 2.0 * q + 0.5 + 1e-6
        # m = -32: Gershgorin bound above e_max, so nothing is solved and
        # the count returns (0, 0)
        ms = [-32] + list(range(-q, default_channel_cut(16.0, 1.0) + 1))
        ops = [build_channel("pauli_minus", m, gauge, V) for m in ms]
        assert spectra._lower_bound(ops[0]) > e_max
        full = assemble_spectrum(solve_channels(ops, e_max))
        channels = solve_channels(ops, e_max, e_min)
        window = assemble_spectrum(channels)

        keep = full.E > e_min
        expected = {(m, n): (E, flag) for m, n, E, flag in zip(
            full.m[keep], full.n[keep], full.E[keep], full.boundary[keep])}
        got = {(m, n): (E, flag) for m, n, E, flag in zip(
            window.m, window.n, window.E, window.boundary)}
        assert got.keys() == expected.keys()
        assert len(got) > 20
        for label, (E, flag) in got.items():
            assert flag == expected[label][1]
            assert abs(E - expected[label][0]) <= 1e-11
        empty, lowest = channels[0], channels[1]
        assert (empty.first, empty.energies.size) == (0, 0)
        # level q is the lowest state of channel m = -q
        assert (lowest.first, lowest.energies.size) == (0, 1)

    def test_first_counts_dense_eigenvalues(self):
        mesh = RadialMesh(8.0, 0.02)  # n = 400
        gauge = build_gauge(FieldSpec.power(0.05, -3.0), 1.0, mesh)
        for q in (1, 2):
            e_min = 2.0 * q - 0.5 - 1e-6
            for m in range(-q - 1, 6):
                op = build_channel("pauli_minus", m, gauge, FieldSpec())
                ref = np.linalg.eigvalsh(dense(op))
                ch = solve_channel(op, e_min + 1.0, e_min)
                assert ch.first == np.count_nonzero(ref <= e_min)
                inside = ref[(ref > e_min) & (ref <= e_min + 1.0)]
                assert np.allclose(ch.energies, inside, rtol=0.0, atol=1e-9)

    def test_lower_bound_below_spectrum(self):
        op = synthetic_op(np.arange(1.0, 17.0), np.zeros(15))
        full = [e for e, _ in channel_eigs(op, 16.5)]
        # Gershgorin bound 0 lies above e_min: the full solve, nothing below
        below = solve_channel(op, 16.5, -5.0)
        assert below.first == 0 and below.energies.tolist() == full
        mid = solve_channel(op, 16.5, 4.5)
        assert mid.first == 4 and mid.energies.tolist() == full[4:]


def eigvalsh_counts(op, e_min, e_max):
    ref = np.linalg.eigvalsh(dense(op))
    return (int(np.count_nonzero(ref <= e_min)),
            int(np.count_nonzero(ref <= e_max)))


def dstebz_count(op, e):
    """Eigenvalues <= e by LAPACK dstebz on (Gershgorin bound, e]."""
    from scipy.linalg import lapack
    lo = spectra._lower_bound(op)
    if lo >= e:
        return 0
    count, _, _, _, info = lapack.dstebz(op.diag, op.offdiag, 1, lo, e, 0, 0,
                                         2.0 * (e - lo), b"E")
    assert info == 0
    return int(count)


class TestWindowCounts:
    # both Sturm counts of a window come from one dlaebz call

    def test_random_matrix_matches_eigvalsh(self):
        rng = np.random.default_rng(3)
        n = 200
        op = ChannelOperator("pauli_minus", 0, RadialMesh(float(n), 1.0),
                             rng.uniform(-1.0, 1.0, n),
                             rng.uniform(-1.0, 1.0, n - 1), 1.0)
        ref = np.linalg.eigvalsh(dense(op))
        gaps = 0.5 * (ref[:-1] + ref[1:])
        sigmas = [ref[0] - 1.0, *gaps[[0, 17, 99, 150, -1]], ref[-1] + 1.0]
        for e_min in sigmas:
            for e_max in sigmas:
                if e_min < e_max:
                    assert (spectra._window_counts(op, e_min, e_max)
                            == eigvalsh_counts(op, e_min, e_max))

    def test_quick_channels_match_dstebz(self):
        cfg = load_config(str(CONFIGS / "quick.json"))
        gauge = build_gauge(cfg.b, cfg.B0, RadialMesh(cfg.r_max, cfg.h))
        ops = [build_channel("pauli_minus", m, gauge, cfg.V)
               for m in range(-2, cfg.m_max + 1)]
        for q in (0, 1, 2):
            center = 2.0 * q * cfg.B0
            e_min = center - cfg.gamma - 1e-6
            e_max = center + cfg.gamma + 1e-6
            for op in ops:
                assert spectra._window_counts(op, e_min, e_max) == (
                    dstebz_count(op, e_min), dstebz_count(op, e_max))

    def test_zero_pivot_counts_as_negative(self):
        # the first pivot of [[1, 1, 0], [1, 1, 1], [0, 1, 5]] - 1 is
        # exactly 0; pivmin turns it negative, so one eigenvalue is <= 1
        # (a count that ignores pivmin gives 2).  Padded to 16 by a
        # decoupled diagonal above the window.
        diag = np.concatenate([[1.0, 1.0, 5.0], np.arange(10.0, 23.0)])
        off = np.zeros(15)
        off[:2] = 1.0
        op = synthetic_op(diag, off)
        assert eigvalsh_counts(op, 1.0, 1.5) == (1, 1)
        assert spectra._window_counts(op, 1.0, 1.5) == (1, 1)

    def test_diagonal_matrix(self):
        op = synthetic_op(np.arange(1.0, 17.0), np.zeros(15))
        assert spectra._window_counts(op, 4.0, 16.0) == (4, 16)

    @pytest.mark.parametrize("layout", ["strided", "int"])
    def test_non_contiguous_and_int_data(self, layout):
        # LAPACK reads the raw data: a strided view or int entries must be
        # handed over as contiguous float64
        rng = np.random.default_rng(7)
        if layout == "strided":
            diag = rng.uniform(0.0, 10.0, 32)[::2]
            off = rng.uniform(-1.0, 1.0, 30)[::2]
        else:
            diag = np.arange(1, 17)
            off = np.ones(15, dtype=int)
        op = ChannelOperator("pauli_minus", 0, RadialMesh(16.0, 1.0), diag,
                             off, 1.0)
        for e_min, e_max in ((2.5, 6.5), (-5.0, 4.25), (3.1, 30.0)):
            expected = eigvalsh_counts(op, e_min, e_max)
            assert spectra._window_counts(op, e_min, e_max) == expected
            assert solve_channel(op, e_max, e_min).first == expected[0]

    def test_short_arrays_rejected(self):
        # LAPACK would read past the end of a short off-diagonal
        d = np.ones(16)
        for e, e2, ab in ((np.ones(14), np.ones(15), [0.0, 1.0]),
                          (np.ones(15), np.ones(14), [0.0, 1.0]),
                          (np.ones(15), np.ones(15), [0.0])):
            with pytest.raises(ValueError):
                spectra.dlaebz(d, e, e2, 1e-300, ab)

    def test_nonzero_info_raises(self, monkeypatch):
        op = synthetic_op(np.arange(1.0, 17.0), np.zeros(15))
        dlaebz = spectra.dlaebz
        monkeypatch.setattr(spectra, "dlaebz", lambda *args:
                            (dlaebz(*args)[0], 1))
        with pytest.raises(ConvergenceFailure, match="Sturm count failed"):
            solve_channel(op, 6.5, 2.5)


def binding_ops():
    """Channels of quick size (n = 800) and of headline size (n = 6000),
    each with its cluster window of level 1."""
    cfg = load_config(str(CONFIGS / "quick.json"))
    ops = []
    for r_max, h in ((cfg.r_max, cfg.h), (30.0, 0.005)):
        gauge = build_gauge(cfg.b, cfg.B0, RadialMesh(r_max, h))
        ops += [build_channel("pauli_minus", m, gauge, cfg.V)
                for m in (-1, 0, 1, 7, default_channel_cut(r_max, cfg.B0))]
    return ops, 1.5 - 1e-6, 2.5 + 1e-6


class TestLapackBindings:
    # spectra loads LAPACK from scipy's compiled modules; each routine must
    # give scipy's own wrapper's floats bit for bit

    def test_eigh_tridiagonal_matches_scipy(self):
        import scipy.linalg
        ops, e_min, e_max = binding_ops()
        gaps = []
        for op in ops:
            lo = spectra._lower_bound(op)
            # the full solve to the window's top, the window, and the gap
            # (0.5, 1.5), which holds no eigenvalue
            for a, b in ((lo, e_max), (max(lo, e_min), e_max), (0.5, 1.5)):
                w, v = spectra.eigh_tridiagonal(op.diag, op.offdiag, a, b)
                w_ref, v_ref = scipy.linalg.eigh_tridiagonal(
                    op.diag, op.offdiag, select="v", select_range=(a, b),
                    lapack_driver="stebz", tol=1e-14)
                assert np.array_equal(w, w_ref)
                assert np.array_equal(v, v_ref)
                assert v.shape == (op.mesh.n, w.size)
            gaps.append(w.size)
        assert gaps == [0] * len(ops)

    def test_tridiagonal_factor_and_solve_match_scipy(self):
        import scipy.linalg.lapack
        ops, e_min, e_max = binding_ops()
        for op in ops:
            shifted = op.diag - 0.5 * (e_min + e_max)
            got = spectra.dgttrf(op.offdiag, shifted.copy(), op.offdiag,
                                 overwrite_d=1)
            ref = scipy.linalg.lapack.dgttrf(op.offdiag, shifted, op.offdiag)
            for a, b in zip(got, ref):
                assert np.array_equal(a, b)
            b = np.ones(op.mesh.n)
            x, info = spectra.dgttrs(*got[:5], b)
            x_ref, info_ref = scipy.linalg.lapack.dgttrs(*ref[:5], b)
            assert info == info_ref == 0
            assert np.array_equal(x, x_ref)

    def test_gershgorin_exit_runs_no_lapack(self, monkeypatch):
        # m = -600 on the quick mesh: every eigenvalue lies far above the
        # window, so channel_eigs returns before any LAPACK call, as scipy
        # finds nothing there either
        import scipy.linalg
        cfg = load_config(str(CONFIGS / "quick.json"))
        gauge = build_gauge(cfg.b, cfg.B0, RadialMesh(cfg.r_max, cfg.h))
        op = build_channel("pauli_minus", -600, gauge, cfg.V)
        assert spectra._lower_bound(op) >= 2.5
        bisections = recorded(monkeypatch, "eigh_tridiagonal")
        assert channel_eigs(op, 2.5, 1.5) == channel_eigs(op, 2.5) == []
        assert bisections == []
        w, v = scipy.linalg.eigh_tridiagonal(
            op.diag, op.offdiag, select="v", select_range=(1.5, 2.5),
            lapack_driver="stebz", tol=1e-14)
        assert w.size == 0 and v.shape == (op.mesh.n, 0)

    @pytest.mark.parametrize("where", ["diag", "offdiag"])
    def test_non_finite_entry_is_a_convergence_failure(self, where):
        # scipy rejects the matrix before LAPACK sees it; so does spectra,
        # and channel_eigs reports it as a numeric failure (exit 3)
        import scipy.linalg
        op = binding_ops()[0][1]
        getattr(op, where)[17] = np.nan
        with pytest.raises(ValueError):
            scipy.linalg.eigh_tridiagonal(
                op.diag, op.offdiag, select="v", select_range=(1.0, 2.5),
                lapack_driver="stebz", tol=1e-14)
        with pytest.raises(np.linalg.LinAlgError):
            spectra.eigh_tridiagonal(op.diag, op.offdiag, 1.0, 2.5)
        for e_min in (None, 1.5 - 1e-6):
            with pytest.raises(ConvergenceFailure,
                               match="tridiagonal solve failed"):
                channel_eigs(op, 2.5 + 1e-6, e_min)


def recorded(monkeypatch, name):
    """Calls of spectra.<name>; the wrapped function still runs."""
    calls = []
    original = getattr(spectra, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectra, name, wrapper)
    return calls


def window_ops():
    """Channels -1..cut of a small mesh and the cluster window of level 1."""
    mesh = RadialMesh(16.0, 0.02)
    gauge = build_gauge(FieldSpec.power(0.05, -3.0), 1.0, mesh)
    V = FieldSpec.power(0.03, -2.8)
    ops = [build_channel("pauli_minus", m, gauge, V)
           for m in range(-1, default_channel_cut(16.0, 1.0) + 1)]
    return ops, 1.5 - 1e-6, 2.5 + 1e-6


class TestOnePairSolve:
    # with e_min, Sturm counts at e_min and e_max certify how many
    # eigenvalues the window holds; one comes from inverse iteration, and
    # any other number, or an iteration that gives up, from the bisection

    def test_one_eigenvalue_by_inverse_iteration(self, monkeypatch):
        ops, e_min, e_max = window_ops()
        bisections = recorded(monkeypatch, "eigh_tridiagonal")
        factors = recorded(monkeypatch, "dgttrf")
        steps = recorded(monkeypatch, "dgttrs")
        counts = recorded(monkeypatch, "dlaebz")
        channels = solve_channels(ops, e_max, e_min)
        assert bisections == []
        assert len(counts) == len(ops)  # one count call per channel
        assert len(factors) == len(ops)  # one factorization per channel
        assert 3 * len(ops) <= len(steps) <= 6 * len(ops)
        for ch in channels:
            (E, v), = channel_eigs(ch.op, e_max, e_min)
            assert ch.energies.size == 1
            assert abs(ch.energies[0] - E) <= 1e-11
            assert np.max(np.abs(ch.vectors[:, 0] - v)) <= 1e-10

    def test_full_solve_counts_nothing(self, monkeypatch):
        # without e_min (landau spectrum) every eigenvalue up to e_max is
        # solved from the bottom: no Sturm count runs
        ops, _, e_max = window_ops()
        counts = recorded(monkeypatch, "dlaebz")
        channels = solve_channels(ops[:4], e_max)
        assert counts == []
        assert all(ch.first == 0 and ch.energies.size for ch in channels)

    def test_two_eigenvalues_fall_back_to_bisection(self, monkeypatch):
        rng = np.random.default_rng(5)
        n = 200
        diag, off = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n - 1)
        op = ChannelOperator("pauli_minus", 0, RadialMesh(float(n), 1.0),
                             diag, off, 1.0)
        ref = np.linalg.eigvalsh(dense(op))
        e_min = 0.5 * (ref[99] + ref[100])
        e_max = 0.5 * (ref[101] + ref[102])
        bisect = channel_eigs(op, e_max, e_min)
        full = [(E, v) for E, v in channel_eigs(op, e_max) if E > e_min]
        factors = recorded(monkeypatch, "dgttrf")
        steps = recorded(monkeypatch, "dgttrs")
        counts = recorded(monkeypatch, "dlaebz")
        ch = solve_channel(op, e_max, e_min)
        assert factors == [] and steps == [] and len(counts) == 1
        assert ch.first == 100
        assert ch.energies.tolist() == [E for E, _ in bisect]
        assert np.array_equal(ch.vectors, np.column_stack([v for _, v in bisect]))
        assert np.allclose(ch.energies, [E for E, _ in full], rtol=0.0,
                           atol=1e-12)
        assert np.allclose(ch.vectors, np.column_stack([v for _, v in full]),
                           rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("failure", ["singular pivot", "step limit"])
    def test_failed_iteration_falls_back(self, monkeypatch, failure):
        ops, e_min, e_max = window_ops()
        op = ops[1]  # m = 0: its level-1 state
        (E, v), = channel_eigs(op, e_max, e_min)
        if failure == "singular pivot":  # the factors, flagged singular
            dgttrf = spectra.dgttrf
            monkeypatch.setattr(spectra, "dgttrf", lambda *args, **kwargs:
                                dgttrf(*args, **kwargs)[:5] + (1,))
        else:
            monkeypatch.setattr(spectra, "_MAX_STEPS", 1)
        bisections = recorded(monkeypatch, "eigh_tridiagonal")
        ch = solve_channel(op, e_max, e_min)
        assert len(bisections) == 1
        assert ch.energies.tolist() == [E]
        assert np.array_equal(ch.vectors[:, 0], v)

    def test_converged_outside_window_falls_back(self, monkeypatch):
        # 2x2 blocks [[c, t], [t, c]]; the window holds only 20 - 10 = 10,
        # whose vector (1, -1) is orthogonal to the start vector of ones, so
        # the iteration converges to 0 + 9 = 9, just below the window
        c = [20.0, 0.0, 100.0, -100.0, 200.0, -200.0, 300.0, -300.0]
        t = [10.0, 9.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        off = np.zeros(15)
        off[0::2] = t
        op = ChannelOperator("pauli_minus", 0, RadialMesh(16.0, 1.0),
                             np.repeat(c, 2), off, 1.0)
        assert spectra._one_pair(op, 9.05, 10.05) is None
        bisections = recorded(monkeypatch, "eigh_tridiagonal")
        ch = solve_channel(op, 10.05, 9.05)
        assert len(bisections) == 1
        assert (ch.first, ch.energies.tolist()) == (8, [10.0])

    def test_headline_pairs_match_oracle(self, monkeypatch, gauge_headline):
        # the in-place iteration, its scratch array shared by the channels
        # of one solve, gives conftest's fresh-array iteration bit for bit
        cut = default_channel_cut(30.0, 1.0)
        ops = [build_channel("pauli_minus", m, gauge_headline, FieldSpec())
               for m in (-1, 0, 1, 2, 7, 30, 100, cut)]
        bisections = recorded(monkeypatch, "eigh_tridiagonal")
        channels = solve_channels(ops, 2.5, 1.5)
        assert bisections == []
        for ch in channels:
            E, v = reference_one_pair(ch.op, 1.5, 2.5)
            assert ch.energies.tolist() == [E]
            assert np.array_equal(ch.vectors[:, 0], v)
            E_alone, v_alone = spectra._one_pair(ch.op, 1.5, 2.5)
            assert E_alone == E and np.array_equal(v_alone, v)

    def test_empty_window_solves_nothing(self, monkeypatch):
        ops, _, _ = window_ops()
        bisections = recorded(monkeypatch, "eigh_tridiagonal")
        factors = recorded(monkeypatch, "dgttrf")
        steps = recorded(monkeypatch, "dgttrs")
        counts = recorded(monkeypatch, "dlaebz")
        # levels 0 and 2 only: the gap (0.5, 1.5] holds no eigenvalue
        for op in ops[1:6]:
            ch = solve_channel(op, 1.5, 0.5)
            assert ch.energies.size == 0 and ch.vectors.shape == (op.mesh.n, 0)
            assert ch.first == (1 if op.m >= 0 else 0)
        assert bisections == [] and factors == [] and steps == []
        assert len(counts) == 5


def small_table(gauge, mesh, m_range, e_max=3.0, V=FieldSpec(),
                kind="pauli_minus"):
    ops = [build_channel(kind, m, gauge, V) for m in m_range]
    channels = solve_channels(ops, e_max)
    return assemble_spectrum(channels), channels


class TestAssemble:
    def test_zero_mode_multiplicity(self, mesh_small, gauge_power):
        # one zero mode per retained channel m >= 0 (high-m modes localize
        # near the boundary on this small mesh and are flagged out)
        table, _ = small_table(gauge_power, mesh_small, range(-2, 21), e_max=1.0)
        keep = ~table.boundary
        near_zero = keep & (np.abs(table.E) < 0.5)
        ms = np.sort(table.m[near_zero])
        assert ms.size >= 12
        assert np.array_equal(ms, np.arange(ms.size))  # contiguous from m = 0
        flagged_zero = table.boundary & (np.abs(table.E) < 0.5)
        assert np.all(table.m[flagged_zero] > ms[-1])

    def test_schroedinger_positivity(self, mesh_small, gauge_power):
        table, _ = small_table(gauge_power, mesh_small, range(-3, 10),
                               e_max=3.0, kind="schroedinger")
        assert np.min(table.E) > 1.0 - 0.1 - 1e-6  # Lambda_0 + B0 - |pert|

    def test_rows_sorted(self, mesh_small, gauge_power):
        table, _ = small_table(gauge_power, mesh_small, range(-2, 8))
        assert np.all(np.diff(table.E) >= 0)

    def test_perturbed_levels_stay_near_bands(self, mesh_small, gauge_power,
                                              b_power):
        V = FieldSpec((ProfileTerm("gaussian", 0.05, center=1.0, width=1.5),))
        table, _ = small_table(gauge_power, mesh_small, range(-2, 12),
                               e_max=4.5, V=V)
        bound = 0.05 + 2 * 0.05 + 1e-3  # ||V|| + 2 ||b|| + mesh slack
        keep = table.E[~table.boundary]
        dist = np.abs(keep / 2.0 - np.round(keep / 2.0)) * 2.0
        assert np.max(dist) <= bound

    def test_inconsistent_provenance(self, mesh_small, gauge_power):
        zero = FieldSpec()
        a = solve_channel(build_channel("pauli_minus", 0, gauge_power, zero),
                          1.0)
        b = solve_channel(build_channel("schroedinger", 1, gauge_power, zero),
                          2.0)
        with pytest.raises(InconsistentProvenance):
            assemble_spectrum([a, b])

    def test_boundary_flagging(self):
        # a channel whose cluster state localizes at the outer region
        mesh = RadialMesh(8.0, 0.01)
        gauge = build_gauge(FieldSpec(), 1.0, mesh)
        m_far = 18  # orbit radius sqrt(2*19) ~ 6.2, tail well into 0.9 * 8
        table, _ = small_table(gauge, mesh, [m_far], e_max=1.5)
        assert table.E.size and bool(np.all(table.boundary))


class TestClusters:
    def test_unperturbed_shifts_vanish(self, mesh_small, gauge_zero):
        table, _ = small_table(gauge_zero, mesh_small, range(-1, 15))
        shifts = cluster_shifts(table, 2.0, 0.5)
        assert shifts.size >= 10  # wide level-1 states lose retention first
        assert np.max(np.abs(shifts)) < 1e-4

    def test_positive_field_pushes_up(self, mesh_small, gauge_power):
        table, _ = small_table(gauge_power, mesh_small, range(-1, 15))
        shifts = cluster_shifts(table, 2.0, 0.5)
        assert np.min(shifts) > -1e-5  # 2b > 0, up to mesh defect

    def test_q0_zero_modes_exact(self, mesh_small, gauge_power):
        table, _ = small_table(gauge_power, mesh_small, range(0, 20), e_max=1.0)
        shifts = cluster_shifts(table, 0.0, 0.5)
        assert np.max(np.abs(shifts)) < 1e-5

    def test_shift_ordering(self, mesh_small, gauge_power):
        table, channels = small_table(gauge_power, mesh_small, range(-1, 15))
        shifts = cluster_states(table, 2.0, 0.5, channels).shifts
        assert np.all(np.diff(np.abs(shifts)) <= 1e-15)

    def test_shift_monotonicity_in_coupling(self, mesh_small):
        # min-max: scaling a nonnegative 2b up raises every level-1 shift
        shifts_by_label = {}
        for amp in (0.025, 0.05):
            b = FieldSpec.power(amp, -3.0)
            gauge = build_gauge(b, 1.0, mesh_small)
            table, _ = small_table(gauge, mesh_small, range(-1, 10))
            keep = ~table.boundary & (np.abs(table.E - 2.0) < 0.5)
            shifts_by_label[amp] = {
                (int(m), int(n)): float(e - 2.0)
                for m, n, e in zip(table.m[keep], table.n[keep],
                                   table.E[keep])}
        common = set(shifts_by_label[0.025]) & set(shifts_by_label[0.05])
        assert len(common) >= 8
        for key in common:
            assert (shifts_by_label[0.05][key]
                    >= shifts_by_label[0.025][key] - 1e-9)

    def test_cluster_states_match_extract(self, mesh_small, gauge_power):
        table, channels = small_table(gauge_power, mesh_small, range(-1, 15))
        states = cluster_states(table, 2.0, 0.5, channels)
        assert np.array_equal(states.shifts, cluster_shifts(table, 2.0, 0.5))
        for s in states.states:
            assert s.norm() == pytest.approx(1.0, rel=1e-10)


class TestCounting:
    def test_gap_counts_zero(self, mesh_small, gauge_zero):
        table, _ = small_table(gauge_zero, mesh_small, range(-1, 10))
        assert counting_function(table, 0.5, 1.5) == 0

    def test_truncated_multiplicity(self, mesh_small, gauge_zero):
        table, _ = small_table(gauge_zero, mesh_small, range(-3, 13), e_max=1.0)
        retained = np.count_nonzero(~table.boundary & (table.m >= 0)
                                    & (np.abs(table.E) < 0.5))
        assert counting_function(table, -0.5, 0.5) == retained
        assert retained >= 12

    @given(st.floats(-0.5, 4.5), st.floats(-0.5, 4.5), st.floats(-0.5, 4.5))
    @settings(max_examples=40, deadline=None)
    def test_additivity(self, a, b, c):
        E = np.array([0.0, 0.5, 0.5, 1.25, 2.0, 3.0, 3.0, 3.0, 4.0])
        table_like = type("T", (), {})()
        table_like.E = E
        table_like.boundary = np.zeros(E.size, dtype=bool)
        lo, mid, hi = sorted((a, b, c))
        if lo == mid or mid == hi:
            return
        n_all = counting_function(table_like, lo, hi)
        # the split point excludes its own eigenvalues from both halves
        split = (counting_function(table_like, lo, mid)
                 + counting_function(table_like, mid, hi)
                 + int(np.count_nonzero(E == mid)))
        assert n_all == split

    def test_monotonicity_under_positive_potential(self, mesh_small,
                                                   gauge_power):
        V = FieldSpec((ProfileTerm("gaussian", 0.08, center=0.0, width=2.0),))
        plain, _ = small_table(gauge_power, mesh_small, range(-1, 10))
        bumped, _ = small_table(gauge_power, mesh_small, range(-1, 10), V=V)
        # min-max: every eigenvalue moves up under V >= 0
        for m in range(-1, 10):
            e0 = np.sort(plain.E[plain.m == m])
            e1 = np.sort(bumped.E[bumped.m == m])
            k = min(e0.size, e1.size)
            assert np.all(e1[:k] - e0[:k] > -1e-9)


class TestInterlacing:
    def test_rank_one_diagonal_perturbation(self):
        # solver self-test: adding c e_k e_k^T (c > 0) interlaces spectra
        rng = np.random.default_rng(3)
        n = 60
        diag = rng.uniform(-1.0, 1.0, n)
        off = rng.uniform(-1.0, 1.0, n - 1)
        mesh = RadialMesh(float(n), 1.0)
        base = ChannelOperator("pauli_minus", 0, mesh, diag, off, 1.0)
        bumped_diag = diag.copy()
        bumped_diag[17] += 0.8
        bumped = ChannelOperator("pauli_minus", 0, mesh, bumped_diag, off,
                                 1.0)
        lam = np.array([e for e, _ in channel_eigs(base, 1e3)])
        mu = np.array([e for e, _ in channel_eigs(bumped, 1e3)])
        assert np.all(mu - lam > -1e-12)
        assert np.all(mu[:-1] - lam[1:] < 1e-12)


class TestDriftReport:
    def test_matched_labels(self):
        at_R = {(0, 1): 0.01, (1, 1): 0.004, (2, 1): 0.002}
        at_Rp = {k: v + 1e-8 for k, v in at_R.items()} | {(3, 1): 1e-3}
        rep = boundary_sensitivity(at_R, at_Rp, 10.0, 12.0)
        assert rep.labels == [(0, 1), (1, 1), (2, 1)]
        assert rep.max_drift == pytest.approx(1e-8)
        assert np.all(np.abs(rep.shifts) >= 10.0 * np.abs(rep.drift))
        assert rep.drift == pytest.approx([1e-8] * 3)

    def test_requires_larger_radius(self):
        with pytest.raises(ValueError):
            boundary_sensitivity({}, {}, 10.0, 10.0)
