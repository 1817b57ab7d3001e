import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from landau import _quadrature, fields
from landau.cli import load_config
from landau.errors import DegenerateWeight, QuadratureFailure, UnboundedSet
from landau.fields import (FieldSpec, ProfileTerm, build_gauge,
                           check_regularity, counting_measure, effective_weight,
                           superlevel_radius, superlevel_scan)
from landau.operator import RadialMesh

from conftest import (brute_force_measure, reference_gauge,
                      superlevel_intervals_per_lambda, total_flux)


def power_spec(c, beta):
    return FieldSpec.power(c, beta)


class TestProfiles:
    def test_power_at_origin(self):
        assert float(power_spec(1.0, -3.0)(0.0)) == 1.0

    def test_power_at_sqrt3(self):
        # (1 + 3)^(-3/2) = 1/8
        assert float(power_spec(1.0, -3.0)(math.sqrt(3.0))) == pytest.approx(
            0.125, rel=1e-14)

    def test_bump_outside_support(self):
        spec = FieldSpec((ProfileTerm("bump", 1.0, inner=1.0, outer=2.0),))
        assert float(spec(3.0)) == 0.0
        assert float(spec(0.5)) == 1.0

    def test_bump_smooth_transition_monotone(self):
        term = ProfileTerm("bump", 1.0, inner=1.0, outer=2.0)
        r = np.linspace(1.0, 2.0, 200)
        v = term.evaluate(r)
        assert np.all(np.diff(v) <= 0)
        assert v[0] <= 1.0 and v[-1] >= 0.0

    def test_term_validation(self):
        with pytest.raises(ValueError):
            ProfileTerm("power", 1.0, beta=0.5)
        with pytest.raises(ValueError):
            ProfileTerm("bump", 1.0, inner=2.0, outer=1.0)
        with pytest.raises(ValueError):
            ProfileTerm("gaussian", 1.0, width=0.0)
        with pytest.raises(ValueError):
            ProfileTerm("exotic", 1.0)
        with pytest.raises(ValueError):  # NaN fails every comparison
            ProfileTerm("power", 1.0, beta=math.nan)

    def test_fieldspec_validation(self):
        # the decay class is derived from the terms, never declared: the
        # slowest nonzero power term, None without one
        with pytest.raises(TypeError):
            FieldSpec((), beta=-3.0)
        power = FieldSpec.sum(FieldSpec.power(0.1, -4.0),
                              FieldSpec.power(-0.2, -2.5))
        assert power.beta == -2.5
        assert power.scaled(0.0).beta is None
        assert FieldSpec.sum(power.scaled(0.0),
                             FieldSpec.power(0.1, -3.5)).beta == -3.5
        gauss = FieldSpec((ProfileTerm("gaussian", 0.1, width=1.0),
                           ProfileTerm("bump", 0.1, inner=1.0, outer=2.0)))
        assert FieldSpec().beta is None and gauss.beta is None
        with pytest.raises(AttributeError):
            power.beta = -3.0

    def test_json_roundtrip(self, tmp_path):
        # the config form of every term kind, as load_config reads it: a
        # sign folds into the amplitude
        spec = FieldSpec(
            (ProfileTerm("power", 0.3, beta=-2.5),
             ProfileTerm("gaussian", -0.1, center=2.0, width=0.7),
             ProfileTerm("bump", -0.2, inner=1.0, outer=3.0)))
        d = {"terms": [{"kind": "power", "c": 0.3, "beta": -2.5},
                       {"kind": "gaussian", "amp": -0.1, "center": 2.0,
                        "width": 0.7},
                       {"kind": "bump", "amp": 0.2, "inner": 1.0,
                        "outer": 3.0, "sign": -1.0}],
             "beta": -2.5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"b": d}))
        assert load_config(str(path)).b == spec

    @given(st.floats(0.0, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_eval_total_function(self, r):
        spec = FieldSpec(
            (ProfileTerm("power", 1.0, beta=-3.0),
             ProfileTerm("gaussian", 0.5, center=3.0, width=1.0),
             ProfileTerm("bump", 0.25, inner=0.5, outer=4.0)))
        assert math.isfinite(float(spec(r)))


class TestGauge:
    def test_zero_field_reduces_to_symmetric_gauge(self, mesh_small, gauge_zero):
        r = mesh_small.nodes
        assert np.array_equal(gauge_zero.A_theta, 0.5 * r)
        assert np.all(gauge_zero.psi == 0.0)
        assert np.array_equal(gauge_zero.Psi_total, 0.25 * r * r)

    def test_power_circulation_closed_form(self, mesh_small):
        # int_0^r t (1+t^2)^-2 dt = r^2 / (2 (1 + r^2))
        b = power_spec(1.0, -4.0)
        gauge = build_gauge(b, 1.0, mesh_small)
        r = mesh_small.nodes
        circ = (gauge.A_theta - 0.5 * r) * r
        exact = r * r / (2.0 * (1.0 + r * r))
        assert np.max(np.abs(circ - exact)) < 1e-10

    def test_flux_tail_of_compact_bump(self):
        mesh = RadialMesh(12.0, 0.01)
        b = FieldSpec((ProfileTerm("bump", 0.4, inner=1.0, outer=3.0),))
        gauge = build_gauge(b, 1.0, mesh)
        flux = total_flux(b)
        r = mesh.nodes
        outside = r > 3.0
        tail = gauge.A_theta[outside] - 0.5 * r[outside]
        assert np.max(np.abs(tail - flux / (2.0 * math.pi * r[outside]))) < 1e-9

    def test_psi_against_quadrature_oracle(self, mesh_small):
        b = power_spec(1.0, -4.0)
        gauge = build_gauge(b, 1.0, mesh_small)
        # psi(r) = int_0^r t b(t) log(r/t) dt
        for idx in (49, 499, 1099):
            r = mesh_small.nodes[idx]
            val, _ = integrate.quad(
                lambda t, r=r: t * float(b.evaluate(t)) * math.log(r / t),
                0.0, r, limit=200)
            assert gauge.psi[idx] == pytest.approx(val, abs=1e-9)

    def test_discrete_curl_identity(self, mesh_small, gauge_power):
        # (r A)' / r = B to O(h^2)
        r = mesh_small.nodes
        rA = r * gauge_power.A_theta
        d = np.gradient(rA, mesh_small.h, edge_order=2)
        err = d / r - gauge_power.B_total
        assert np.max(np.abs(err)) < 5e-4

    def test_quadrature_failure_objection(self, mesh_small):
        with pytest.raises(ValueError):
            build_gauge(FieldSpec(), -1.0, mesh_small)

    def test_non_finite_profile_fails_quadrature(self, mesh_small):
        # a NaN error estimate never converges; bisecting it again would
        # double the panels at every level
        with pytest.raises(QuadratureFailure, match="non-finite"):
            build_gauge(FieldSpec.power(math.nan, -3.0), 1.0, mesh_small)


def _gauge_integrands(b, calls):
    """The two integrands of build_gauge, t b(t) and t b(t) log t, as one
    panel_integrals function; `calls` records the number of panels of
    each evaluation."""
    def integrands(t):
        calls.append(t.shape[0])
        tb = t * b.evaluate(t)
        return tb, tb * np.log(t)
    return integrands


class TestPanelIntegrals:
    # (field, panel width, mesh radius): the headline power field, whose
    # t b log t is bisected next to the origin; a gaussian half a panel
    # wide, whose two integrands are bisected on different panels; a
    # compact bump
    CASES = {
        "power": (FieldSpec.power(0.05, -3.0), 0.005, 30.0),
        "gaussian": (FieldSpec((ProfileTerm("gaussian", 5.0, center=3.0,
                                            width=0.01),)),
                     0.02, 16.0),
        "bump": (FieldSpec((ProfileTerm("bump", 0.4, inner=1.0,
                                        outer=3.0),)), 0.01, 12.0),
    }

    @staticmethod
    def integrate(b, edges, block, monkeypatch):
        """(both integrands together, each alone) at the blocking `block`,
        and the panel counts of every evaluation of each run."""
        monkeypatch.setattr(_quadrature, "_BLOCK", block)
        calls = [[], [], []]
        joint = _quadrature.panel_integrals(_gauge_integrands(b, calls[0]),
                                            edges)
        alone = [_quadrature.panel_integrals(
            lambda t, k=k: (_gauge_integrands(b, calls[k + 1])(t)[k],),
            edges)[0] for k in range(2)]
        return joint, alone, calls

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_integrand_as_if_alone(self, case, monkeypatch):
        b, h, r_max = self.CASES[case]
        edges = np.concatenate([[0.0], RadialMesh(r_max, h).nodes])
        panels = edges.size - 1
        results = {}
        for block in (7, 64, 512, 10**6):
            joint, alone, calls = self.integrate(b, edges, block, monkeypatch)
            assert joint.shape == (2, panels)
            for k in range(2):
                assert np.array_equal(joint[k], alone[k])
            # one evaluation per block serves both integrands; each
            # bisected panel is evaluated for its own integrand only
            first = [block] * (panels // block) + [panels % block] * bool(
                panels % block)
            assert (Counter(calls[1]) + Counter(calls[2])
                    == Counter(calls[0]) + Counter(first))
            results[block] = joint, calls
        joint, calls = results[512]
        blocks = -(-panels // 512)
        if case == "power":  # t b log t is bisected next to the origin
            assert len(calls[1]) == blocks < len(calls[2])
        if case == "gaussian":  # both, on different panels
            assert len(calls[1]) > blocks and calls[1] != calls[2]
        # the blocking moves a value by at most a few ulps: the BLAS sums
        # the last (rows mod 4) rows of a matrix-vector product in another
        # order than the rest, so blocks of 7 change some values, and one
        # block of the whole mesh can too where the BLAS splits its product
        # among threads; blocks of 64 and 512 panels (multiples of 4, below
        # its threading size) change none of these
        assert np.array_equal(results[64][0], joint)
        for block in (7, 10**6):
            assert np.allclose(results[block][0], joint,
                               rtol=4 * np.finfo(float).eps, atol=0.0)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_gauge_as_with_one_call_per_integral(self, case):
        # build_gauge evaluates its two integrands together and gets the
        # floats of integrating each alone
        b, h, r_max = self.CASES[case]
        mesh = RadialMesh(r_max, h)
        gauge = build_gauge(b, 1.0, mesh)
        A_theta, psi = reference_gauge(b, 1.0, mesh)
        assert np.array_equal(gauge.A_theta, A_theta)
        assert np.array_equal(gauge.psi, psi)

    def test_non_finite_integrand_raises(self):
        # a NaN in the second integrand, at the first level or in a
        # bisection
        edges = np.linspace(0.0, 1.0, 11)
        with pytest.raises(QuadratureFailure, match="non-finite"):
            _quadrature.panel_integrals(
                lambda t: (t, np.where(t > 0.5, np.nan, t)), edges)
        with pytest.raises(QuadratureFailure, match="non-finite"):
            _quadrature.panel_integrals(
                lambda t: (t, np.where(t.shape[0] > 2, np.sqrt(t), np.nan)),
                edges)


class TestEffectiveWeight:
    def test_q0_drops_magnetic_part(self):
        V = power_spec(0.2, -3.0)
        b = power_spec(0.7, -3.0)
        w = effective_weight(V, b, 0, 1.0)
        r = np.linspace(0.0, 10.0, 100)
        assert np.array_equal(w(r), V.evaluate(r))

    def test_q1_closed_form(self):
        c = 0.3
        w = effective_weight(FieldSpec(), power_spec(c, -3.0), 1, 1.0)
        r = np.linspace(0.0, 10.0, 100)
        exact = 2.0 * c * (1.0 + r * r) ** -1.5
        assert np.max(np.abs(w(r) - exact)) < 1e-15

    def test_negative_q_rejected(self):
        with pytest.raises(ValueError):
            effective_weight(FieldSpec(), FieldSpec(), -1, 1.0)


def analytic_E_plus(lam, twoc, B0=1.0):
    """E_+ for W = twoc (1+r^2)^(-3/2): (B0/2)((twoc/lam)^(2/3) - 1)."""
    if lam >= twoc:
        return 0.0
    return 0.5 * B0 * ((twoc / lam) ** (2.0 / 3.0) - 1.0)


class TestCountingMeasure:
    def test_monotone_closed_form(self):
        c = 0.05
        w = effective_weight(FieldSpec(), power_spec(c, -3.0), 1, 1.0)
        for lam in np.geomspace(0.09, 1e-6, 25):
            got = counting_measure(w, [lam], "+", r_max=1e4)[0]
            assert got == pytest.approx(analytic_E_plus(lam, 2 * c), rel=1e-9)

    def test_empty_above_sup(self):
        w = effective_weight(FieldSpec(), power_spec(0.05, -3.0), 1, 1.0)
        assert counting_measure(w, [0.2], "+", r_max=100.0)[0] == 0.0

    def test_wrong_sign_empty(self):
        w = effective_weight(FieldSpec(), power_spec(0.05, -3.0), 1, 1.0)
        assert counting_measure(w, [1e-3], "-", r_max=1e4)[0] == 0.0

    def test_unbounded_set_detected(self):
        w = effective_weight(FieldSpec(), power_spec(0.05, -3.0), 1, 1.0)
        with pytest.raises(UnboundedSet):
            counting_measure(w, [1e-6], "+", r_max=10.0)[0]

    def test_annulus_weight_two_intervals(self):
        # gaussian ring: superlevel set is an annulus, length in r^2 checked
        # against the brute-force indicator oracle
        spec = FieldSpec((ProfileTerm("gaussian", 1.0, center=3.0,
                                      width=0.5),))
        w = effective_weight(spec, FieldSpec(), 0, 1.0)
        for lam in (0.8, 0.5, 0.2):
            got = counting_measure(w, [lam], "+", r_max=50.0)[0]
            ref = brute_force_measure(w, lam, "+", 50.0)
            assert got == pytest.approx(ref, rel=1e-8)

    def test_mixed_sign_multi_interval(self):
        # power decay minus two rings: the negative superlevel set splits
        # into several annuli; cross-check both signs against the
        # indicator oracle
        spec = FieldSpec(
            (ProfileTerm("power", 0.4, beta=-3.0),
             ProfileTerm("gaussian", -0.6, center=2.5, width=0.4),
             ProfileTerm("gaussian", -0.5, center=5.0, width=0.3)))
        w = effective_weight(spec, FieldSpec(), 0, 1.0)
        for sign in ("+", "-"):
            for lam in (0.3, 0.12, 0.05):
                got = counting_measure(w, [lam], sign, r_max=60.0)[0]
                ref = brute_force_measure(w, lam, sign, 60.0)
                assert got == pytest.approx(ref, rel=1e-8, abs=1e-12)

    def test_superlevel_radius(self):
        c = 0.05
        w = effective_weight(FieldSpec(), power_spec(c, -3.0), 1, 1.0)
        lam = 1e-3
        exact = math.sqrt((2 * c / lam) ** (2.0 / 3.0) - 1.0)
        assert superlevel_radius(w, lam, "+", r_max=1e3) == pytest.approx(exact, abs=1e-9)

    @given(st.floats(1e-3, 1e3), st.floats(1e-5, 0.05))
    @settings(max_examples=40, deadline=None)
    def test_scaling_covariance(self, scale, lam):
        # E(c W, c lam) = E(W, lam)
        c = 0.05
        w = effective_weight(FieldSpec(), power_spec(c, -3.0), 1, 1.0)
        ws = effective_weight(FieldSpec(), power_spec(c * scale, -3.0), 1, 1.0)
        base = counting_measure(w, [lam], "+", r_max=1e5)[0]
        scaled = counting_measure(ws, [scale * lam], "+", r_max=1e5)[0]
        assert scaled == pytest.approx(base, rel=1e-8, abs=1e-12)


def _scan_cases():
    power = effective_weight(FieldSpec(), power_spec(0.05, -3.0), 1, 1.0)
    ring = effective_weight(
        FieldSpec((ProfileTerm("gaussian", 1.0, center=3.0, width=0.5),)),
        FieldSpec(), 0, 1.0)
    bump = effective_weight(
        FieldSpec((ProfileTerm("power", 0.035, beta=-3.0),
                   ProfileTerm("bump", 0.02, inner=1.25, outer=3.25))),
        FieldSpec(), 0, 1.0)
    split = effective_weight(
        FieldSpec((ProfileTerm("power", 0.4, beta=-3.0),
                   ProfileTerm("gaussian", -0.6, center=2.5, width=0.4),
                   ProfileTerm("gaussian", -0.5, center=5.0, width=0.3))),
        FieldSpec(), 0, 1.0)
    rng = np.random.default_rng(7)
    return {
        # the lowest lambdas are still open at r_max = 10
        "power-open": (power, "+", 10.0, np.geomspace(1e-6, 0.09, 30)),
        "ring-annulus": (ring, "+", 50.0, np.linspace(0.05, 0.95, 19)),
        "bump+power": (bump, "+", 30.0, np.geomspace(1e-5, 0.06, 40)),
        "split-minus": (split, "-", 60.0, np.geomspace(0.5, 1e-3, 33)),
        "split-plus-unsorted": (split, "+", 60.0,
                                rng.permutation(np.concatenate(
                                    [np.geomspace(1e-3, 0.5, 25),
                                     [0.12, 0.12]]))),
    }


def _per_lambda(weight, lams, sign, r_max, **kw):
    out = []
    for lam in lams:
        try:
            out.append(superlevel_intervals_per_lambda(weight, lam, sign,
                                                       r_max=r_max, **kw))
        except UnboundedSet:
            out.append(None)
    return out


def _first_error(call):
    with pytest.raises((ValueError, UnboundedSet)) as info:
        call()
    return type(info.value), str(info.value)


class TestSuperlevelScan:
    @pytest.mark.parametrize("case", sorted(_scan_cases()))
    def test_bitwise_equal_to_per_lambda(self, case):
        weight, sign, r_max, lams = _scan_cases()[case]
        got = superlevel_scan(weight, lams, sign, r_max=r_max)
        ref = _per_lambda(weight, lams, sign, r_max)
        assert got == ref
        # every case has a nonempty set; the named shapes show up
        assert any(iv for iv in ref)
        if case == "power-open":
            assert ref[0] is None and ref[-1] is not None
        if case in ("ring-annulus", "split-minus"):
            assert any(iv and iv[0][0] > 0.0 for iv in ref)
        if case.startswith("split"):
            assert max(len(iv) for iv in ref) >= 2

    def test_max_crossings(self, monkeypatch):
        weight, sign, r_max, _ = _scan_cases()["split-minus"]
        lams = [0.3, 0.05]  # two annuli each: 4 crossings
        monkeypatch.setattr(fields, "_MAX_CROSSINGS", 4)
        assert [len(iv) for iv in superlevel_scan(weight, lams, sign,
                                                  r_max=r_max)] == [2, 2]
        monkeypatch.setattr(fields, "_MAX_CROSSINGS", 3)
        with pytest.raises(ValueError, match="more than 3 crossings"):
            superlevel_scan(weight, lams, sign, r_max=r_max)

    @pytest.mark.parametrize("lams", [[0.05, -1.0], [-1.0, 0.05], [0.3, 0.0]])
    def test_first_error_in_order(self, lams, monkeypatch):
        # the error the one-by-one loop meets first is the one raised
        weight, sign, r_max, _ = _scan_cases()["split-minus"]
        expected = _first_error(lambda: _per_lambda(
            weight, lams, sign, r_max, max_crossings=3))
        monkeypatch.setattr(fields, "_MAX_CROSSINGS", 3)
        assert _first_error(lambda: superlevel_scan(
            weight, lams, sign, r_max=r_max)) == expected

    @pytest.mark.parametrize("grid, lam", [
        (np.geomspace(1e-2, 1e-6, 9), 10.0 ** -4.5),  # in the first sweep
        (np.geomspace(1e-2, 1e-4, 5), 0.9e-4),        # in the shifted sweep
    ])
    def test_regularity_names_first_open_lambda(self, grid, lam):
        # W = 0.1 (1 + r^2)^(-3/2) is 9.85e-5 at r_max = 10
        w = effective_weight(FieldSpec(), power_spec(0.05, -3.0), 1, 1.0)
        with pytest.raises(UnboundedSet) as info:
            check_regularity(w, grid, 0.1, "+", r_max=10.0)
        assert str(info.value) == ("superlevel set still open at r_max=10 "
                                   f"for lambda={lam:g}")


class TestRegularity:
    def test_power_ratio_limit(self):
        c = 0.05
        w = effective_weight(FieldSpec(), power_spec(c, -3.0), 1, 1.0)
        eps = 0.1
        rep = check_regularity(w, np.geomspace(1e-4, 1e-6, 9), eps, "+",
                               r_max=1e5)
        # analytic ratio tends to (1 - eps)^(-2/3) from above as lam -> 0
        assert rep["max_ratio"] == pytest.approx((1 - eps) ** (-2.0 / 3.0),
                                                 rel=2e-3)
        assert rep["regular_ok"]
        assert rep["lower_ok"]
        assert rep["exponent"] == pytest.approx(-2.0 / 3.0, abs=0.01)

    def test_eps_to_zero_ratio_to_one(self):
        w = effective_weight(FieldSpec(), power_spec(0.05, -3.0), 1, 1.0)
        rep = check_regularity(w, np.geomspace(1e-3, 1e-4, 4), 1e-4, "+",
                               r_max=1e4)
        assert rep["max_ratio"] == pytest.approx(1.0, abs=1e-3)

    def test_wrong_sign_degenerate(self):
        w = effective_weight(FieldSpec(), power_spec(0.05, -3.0), 1, 1.0)
        with pytest.raises(DegenerateWeight):
            check_regularity(w, np.geomspace(1e-3, 1e-5, 5), 0.1, "-",
                             r_max=1e4)
