"""Metamorphic oracles: one physical problem posed two ways through the CLI.

- Family identities: H(V) = P_-(V + b) + B0 and P_+(V) = P_-(V + 2b) + 2 B0,
  so a `schroedinger` or `pauli_plus` run equals the `pauli_minus` run with
  one resp. two copies of b added to V, shifted by B0 resp. 2 B0.
- Magnetic scaling: B0 -> s B0, b -> s b(sqrt(s) r), V -> s V(sqrt(s) r)
  with the mesh (R, h) -> (R / sqrt(s), h / sqrt(s)) multiplies every
  eigenvalue by s, and so every `verify` cluster shift and Toeplitz
  eigenvalue.  Power profiles carry a fixed length scale, so the scaled
  fields are gaussians and bumps.

Both sides are written as JSON configs and read by `landau`, so every
derived value (channel cut, window, e_max) is the CLI's own.
"""

import csv
import json
from pathlib import Path

import pytest

from landau.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
QUICK = json.loads((CONFIGS / "quick.json").read_text())
V_GAUSS = {"terms": [{"kind": "gaussian", "amp": 0.1, "center": 2.0,
                      "width": 1.0}], "beta": -3.0}
COPIES = {"schroedinger": 1, "pauli_plus": 2}


def run(tmp, command, config, name):
    """Exit code and output directory of one CLI call on `config`."""
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(config))
    out = tmp / f"{name}-{command}"
    return main([command, "--config", str(path), "--out", str(out)]), out


def rows(path):
    """The rows of a CSV artifact after its provenance comment, which names
    the operator and the config hash."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def spectrum(out, kind):
    """{(m, n): (E, boundary_flag)} of a spectrum run."""
    return {(m, n): (float(E), flag)
            for m, n, E, flag in rows(out / f"spectrum_{kind}.csv")[1:]}


def family_pair(kind):
    """The `kind` config with a gaussian V, and its spin-down form."""
    b = QUICK["b"]
    copies = [dict(t, c=t["c"] * COPIES[kind]) for t in b["terms"]]
    reduced_V = {"terms": V_GAUSS["terms"] + copies,
                 "beta": max(V_GAUSS["beta"], b["beta"])}
    return (dict(QUICK, operator=kind, V=V_GAUSS, q=[1, 2]),
            dict(QUICK, operator="pauli_minus", V=reduced_V, q=[1, 2]))


@pytest.fixture(scope="module", params=sorted(COPIES))
def family_verify(request, tmp_path_factory):
    """verify on a family config and on its spin-down form."""
    kind = request.param
    tmp = tmp_path_factory.mktemp(kind)
    config, reduced = family_pair(kind)
    return (run(tmp, "verify", config, kind),
            run(tmp, "verify", reduced, "reduced"))


@pytest.mark.parametrize("kind", sorted(COPIES))
def test_spectrum_family_identity(tmp_path, kind):
    config, reduced = family_pair(kind)
    code, out = run(tmp_path, "spectrum", config, kind)
    code_red, out_red = run(tmp_path, "spectrum", reduced, "reduced")
    assert code == code_red == 0
    E, E_red = spectrum(out, kind), spectrum(out_red, "pauli_minus")
    # e_max carries the level shift, so both runs solve the same states
    assert set(E) == set(E_red) and len(E) == 150
    assert all(E[label][1] == E_red[label][1] for label in E)
    # The channel matrices differ only by k B0 on the diagonal
    # (test_asymptotics::test_matrices_bit_identical), so the eigenvalues
    # differ by the eigensolver's rounding alone: 8.4e-14 and 9.8e-14 at
    # worst over these 150 states (E <= 8).  1e-12 leaves room for that,
    # while a missing or extra copy of b moves the inner channels' states
    # by the order of b(0) = 0.05.
    shift = COPIES[kind] * QUICK["B0"]
    assert max(abs(E[label][0] - (E_red[label][0] + shift))
               for label in E) <= 1e-12


def test_verify_family_identity(family_verify):
    (_, out), (_, out_red) = family_verify
    for q in (1, 2):
        for name in (f"clusters_q{q}.csv", f"counting_q{q}_+.csv"):
            assert rows(out / name) == rows(out_red / name)
    per_q = json.loads((out / "verify_summary.json").read_text())["per_q"]
    per_q_red = json.loads(
        (out_red / "verify_summary.json").read_text())["per_q"]
    for q in ("1", "2"):
        detail, detail_red = per_q[q], per_q_red[q]
        # the Toeplitz check (and the verdict it feeds) is the next test's
        for d in (detail, detail_red):
            del d["checks"]["toeplitz_agreement"], d["passed"]
        assert detail == detail_red


@pytest.mark.xfail(strict=True, reason=(
    "cli.cmd_verify builds T0 from the unreduced cfg.V, not V + b resp. "
    "V + 2b (ROADMAP item 1): at q = 1, max_rel_dev 0.105 (schroedinger) "
    "and 0.197 (pauli_plus) against 0.023 and 0.024 for the spin-down "
    "forms"))
def test_verify_toeplitz_family_identity(family_verify):
    (code, out), (code_red, out_red) = family_verify
    for q in ("1", "2"):
        checks = [json.loads((o / "verify_summary.json").read_text())
                  ["per_q"][q]["checks"]["toeplitz_agreement"]
                  for o in (out, out_red)]
        assert checks[0] == checks[1]
    assert code == code_red


# the length parameters of the profile kinds that scale onto themselves
LENGTHS = {"gaussian": ("center", "width"), "bump": ("inner", "outer")}


def scaled(field, s):
    """field(r) -> s field(sqrt(s) r) for gaussian and bump terms; s a
    square."""
    root = s ** 0.5
    return {"terms": [dict(t, amp=s * t["amp"],
                           **{k: t[k] / root for k in LENGTHS[t["kind"]]})
                      for t in field["terms"]],
            "beta": field["beta"]}


@pytest.mark.parametrize("kind", ["pauli_minus", "schroedinger",
                                  "pauli_plus"])
def test_spectrum_magnetic_scaling(tmp_path, kind):
    s = 4.0  # every scaled number is exact in binary
    b = {"terms": [{"kind": "gaussian", "amp": 0.05, "center": 2.0,
                    "width": 1.5}], "beta": -3.0}
    V = {"terms": [{"kind": "gaussian", "amp": 0.1, "center": 3.0,
                    "width": 1.0}], "beta": -3.0}
    config = dict(QUICK, operator=kind, b=b, V=V, q=[1, 2])
    config_s = dict(config, B0=s * QUICK["B0"], b=scaled(b, s),
                    V=scaled(V, s), mesh={"r_max": 8.0, "h": 0.01})
    code, out = run(tmp_path, "spectrum", config, "one")
    code_s, out_s = run(tmp_path, "spectrum", config_s, "scaled")
    assert code == code_s == 0
    E, E_s = spectrum(out, kind), spectrum(out_s, kind)
    # the channel cut floor(3 R^2 B0 / 16) and e_max follow the scaling
    assert set(E) == set(E_s) and len(E) == 150
    assert all(E[label][1] == E_s[label][1] for label in E)
    # The scaled channel matrices are s times the originals up to the
    # rounding of the gauge quadrature and the assembly: 6.5e-13, 6.2e-13
    # and 8.6e-13 at worst for the three kinds (E' up to 32), about 3e-14
    # relative.  1e-11 allows ten times that and stays far below the
    # O(h^2) mesh error: the scaled fields on R = 8 with the unscaled step
    # h = 0.02 miss 4E by 7.5e-4 (pauli_minus).
    assert max(abs(E_s[label][0] - s * E[label][0]) for label in E) <= 1e-11


@pytest.mark.parametrize("kind", ["pauli_minus", "schroedinger",
                                  "pauli_plus"])
def test_verify_magnetic_scaling(tmp_path, kind):
    s = 4.0  # every scaled number is exact in binary
    b = {"terms": [{"kind": "gaussian", "amp": 0.05, "center": 2.0,
                    "width": 1.5}], "beta": -3.0}
    V = {"terms": [{"kind": "bump", "amp": 0.1, "inner": 2.0,
                    "outer": 6.0}], "beta": -3.0}
    config = dict(QUICK, operator=kind, b=b, V=V, q=[1, 2])
    config_s = dict(config, B0=s * QUICK["B0"], b=scaled(b, s),
                    V=scaled(V, s), mesh={"r_max": 8.0, "h": 0.01})
    code, out = run(tmp_path, "verify", config, "one")
    code_s, out_s = run(tmp_path, "verify", config_s, "scaled")
    # The verdicts need not agree: the counting rows sit on fixed lambda
    # grid points, which do not scale with s.  Both runs must get through
    # every stage.
    assert code in (0, 1) and code_s in (0, 1)
    gram, gram_s = (json.loads((o / "verify_summary.json").read_text())
                    ["per_q"]["1"]["checks"]["gram_identity_q1"]
                    for o in (out, out_s))
    # The q = 1 Gram residual scales with B0 and its gate with it, so both
    # runs get one verdict.  The residual comes from zero-mode forms with
    # no eigensolve; |r' - 4 r| measured 1.8e-15 for all three kinds
    # (r = 3.6e-5), and the bound is about fifty times that.
    assert gram["passed"] == gram_s["passed"]
    assert abs(gram_s["max_residual"] - s * gram["max_residual"]) <= 1e-13
    for q in (1, 2):
        cl = rows(out / f"clusters_q{q}.csv")[1:]
        cl_s = rows(out_s / f"clusters_q{q}.csv")[1:]
        # floor(3 R^2 B0 / 16) is invariant, so the same states are solved
        assert [r[:2] for r in cl] == [r[:2] for r in cl_s]
        assert len(cl) >= 30
        eigs, eigs_s = (json.loads((o / f"toeplitz_eigs_q{q}.json")
                                   .read_text()) for o in (out, out_s))
        # Measured worst |x' - 4 x| over the three kinds (x' up to 1.4):
        # shifts 9.3e-13 and Tq 7.1e-13, both from the eigensolves; the
        # zero-mode forms of T0 / C_q carry no eigensolve and miss by
        # 1.1e-14.  Small values make relative errors meaningless (with a
        # bump b, a Tq eigenvalue near 1e-7 missed by 1.3e-6 relative), so
        # the bounds are absolute: about ten resp. a hundred times the
        # measured error, and far below the 7.5e-4 mesh error of a step
        # left unscaled.
        for got, want, tol in (
                ([float(r[2]) for r in cl_s], [float(r[2]) for r in cl],
                 1e-11),
                (eigs_s["Tq"], eigs["Tq"], 1e-11),
                (eigs_s["T0_over_Cq"], eigs["T0_over_Cq"], 1e-12)):
            assert len(got) == len(want) == len(cl)
            assert max(abs(x_s - s * x) for x_s, x in zip(got, want)) <= tol
