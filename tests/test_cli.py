import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from landau import asymptotics, fields, operator, projections, spectra
from landau._io import config_hash
from landau.asymptotics import VerificationConfig
from landau.cli import load_config, main
from landau.fields import FieldSpec
from landau.operator import default_channel_cut

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def write_config(path, **overrides):
    cfg = {
        "B0": 1.0,
        "operator": "pauli_minus",
        "b": {"terms": [{"kind": "power", "c": 0.05, "beta": -3.0}],
              "beta": -3.0},
        "V": {"terms": [], "beta": -3.0},
        "q": [1],
        "sign": "+",
        "mesh": {"r_max": 16.0, "h": 0.02},
        "lambda": {"per_decade": 24},
        "bands": {"gram_max": 1e-4, "min_peak_count": 8, "min_decades": 0.3,
                  "exponent_tol": 0.15},
    }
    cfg.update(overrides)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


@pytest.fixture()
def cfg_path(tmp_path):
    return write_config(tmp_path / "cfg.json")


class TestConfigValidation:
    def test_slow_decay_rejected(self, tmp_path, capsys):
        path = write_config(
            tmp_path / "bad.json",
            b={"terms": [{"kind": "power", "c": 0.05, "beta": -1.5}],
               "beta": -1.5})
        code = main(["spectrum", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "beta < -2" in capsys.readouterr().err

    def test_beta_key_unread_without_power_class(self, tmp_path):
        # gaussian and bump terms decay faster than any power: a field of
        # them has no class, so its key is not read, whatever it holds
        terms = [{"kind": "gaussian", "amp": 0.05, "center": 3.0,
                  "width": 1.5},
                 {"kind": "power", "c": 0.0, "beta": -1.0}]
        for field in ({"terms": terms}, {"terms": terms, "beta": "x"}):
            cfg = load_config(str(write_config(tmp_path / "cfg.json",
                                               b=field, V=field)))
            assert cfg.b.beta is None and cfg.V.beta is None

    def test_work_bound_reads_the_records_cuts(self, tmp_path, capsys,
                                              monkeypatch):
        # the channel cut and the basis default each have one float-valued
        # owner, which the record and the work bound both read
        argv = ["verify", "--config", str(write_config(tmp_path / "a.json")),
                "--out", str(tmp_path / "out")]
        monkeypatch.setattr(VerificationConfig, "basis_top",
                            staticmethod(lambda m_max, basis_cut: 1e6))
        assert VerificationConfig().basis_m_max == 1e6
        assert main(argv) == 2
        assert ("800 cells x 1e+06 basis modes x 3 ladder levels = 2.4e+09 "
                "exceeds" in capsys.readouterr().err)
        monkeypatch.setattr(operator, "channel_reach",
                            lambda r_max, B0: 1e5)
        assert VerificationConfig().m_max == 100000
        assert main(argv) == 2
        assert ("800 cells x 2e+05 channels = 1.6e+08 exceeds"
                in capsys.readouterr().err)

    def test_missing_file(self, tmp_path, capsys):
        code = main(["spectrum", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["spectrum", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_invalid_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"B0": 1.0, "operator": "pauli_minus\xff"}')
        code = main(["weights", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error: config is not valid JSON" in (
            capsys.readouterr().err)

    def test_config_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code = main(["spectrum", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error: config must be a JSON object" in (
            capsys.readouterr().err)

    def test_bad_q_override(self, cfg_path, tmp_path, capsys):
        for q in ("x", "-1"):
            code = main(["spectrum", "--config", str(cfg_path),
                         "--out", str(tmp_path / "out"), "--q", q])
            assert code == 2
            assert "config field '--q'" in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        # keys that set what is now fixed or derived, valid or not
        ({"window": {"gamma": 0.4}},
         "config field 'window': must be removed: the window half-width "
         "gamma is B0 / 2"),
        ({"sign": "x"}, "sign must be '+' or '-'"),
        ({"B0": -1.0}, "B0 must be positive"),
        ({"B0": "one"}, "config error: config field 'B0': must be a number"),
        ({"mesh": {"r_max": 16.0, "h": 0.03}},
         "config error: config field 'mesh': r_max must be an integer "
         "multiple of h"),
        ({"ratio_band": [0.8, 1.2]},
         "config field 'ratio_band': must be removed: the ratio band is "
         "fixed at (0.8, 1.2)"),
        ({"ratio_band": 5},
         "config field 'ratio_band': must be removed: the ratio band"),
        ({"window": 3}, "config field 'window': must be removed"),
        ({"mesh": [1, 2]}, "config field 'mesh': must be an object"),
        ({"basis_m_max": -1}, "config field 'basis_m_max': must be >= 0"),
        ({"mesh": {"r_max": 16.0, "h": 0.02, "m_max": -3}},
         "config field 'mesh.m_max': must be removed: the channel cut is "
         "floor(3 r_max^2 B0 / 16)"),
        ({"bands": {"min_decades": "x"}},
         "config field 'bands.min_decades': must be a number, got 'x'"),
        ({"bands": {"min_decade": 5}},
         "config field 'bands.min_decade': unknown band"),
        ({"bands": {"ratio": [0.9, 1.1]}},
         "config field 'bands.ratio': unknown band, known: min_decades, "
         "min_peak_count, exponent_tol, gram_max"),
        # JSON reads NaN and Infinity; booleans and strings are no numbers
        ({"B0": float("nan")}, "config field 'B0': must be a finite number"),
        ({"B0": float("inf")}, "config field 'B0': must be a finite number"),
        ({"e_max": float("nan")},
         "config field 'e_max': must be removed: spectrum solves up to one "
         "level above the top cluster"),
        ({"B0": "1.0"}, "config field 'B0': must be a number, got '1.0'"),
        ({"B0": True}, "config field 'B0': must be a number, got True"),
        ({"q": True}, "config field 'q': must be a nonnegative integer"),
        ({"q": [1, False]}, "config field 'q': must be a nonnegative integer"),
        ({"q": 1.5}, "config field 'q': must be a nonnegative integer"),
        ({"bands": {"ratio": 5}}, "config field 'bands.ratio': unknown band"),
        ({"bands": {"ratio": [0.8, "x"]}},
         "config field 'bands.ratio': unknown band"),
        # profile numbers take the same check, named by their path
        ({"b": {"terms": [{"kind": "power", "c": float("nan"), "beta": -3.0}],
                "beta": -3.0}},
         "config field 'b.terms[0].c': must be a finite number"),
        ({"b": {"terms": [{"kind": "power", "c": "0.05", "beta": -3.0}],
                "beta": -3.0}},
         "config field 'b.terms[0].c': must be a number, got '0.05'"),
        ({"b": {"terms": [{"kind": "power", "c": True, "beta": -3.0}],
                "beta": -3.0}},
         "config field 'b.terms[0].c': must be a number, got True"),
        ({"b": {"terms": [{"kind": "power", "c": 0.05, "beta": -3.0}],
                "beta": float("nan")}},
         "config field 'b.beta': must be a finite number"),
        ({"b": {"terms": [{"kind": "power", "c": 0.05,
                           "beta": float("nan")}], "beta": -3.0}},
         "config field 'b.terms[0].beta': must be a finite number"),
        ({"V": {"terms": [{"kind": "gaussian", "amp": 0.1, "center": 2.0,
                           "width": 1.0, "sign": None}], "beta": -3.0}},
         "config field 'V.terms[0].sign': must be a number, got None"),
        # integer fields take integral values only
        ({"lambda": {"per_decade": 2.9}},
         "config field 'lambda.per_decade': must be an integer, got 2.9"),
        ({"mesh": {"r_max": 16.0, "h": 0.02, "m_max": 48}},
         "config field 'mesh.m_max': must be removed"),
        ({"basis_m_max": 3.5},
         "config field 'basis_m_max': must be an integer, got 3.5"),
        ({"operator": "bogus"}, "operator must be one of"),
        # the mesh's own checks cover nonpositive r_max and h
        ({"mesh": {"r_max": 16.0, "h": 0.0}},
         "config field 'mesh': mesh step h must be positive"),
        ({"mesh": {"r_max": -16.0, "h": 0.02}},
         "config field 'mesh': mesh needs at least 16 nodes"),
        ({"bands": {"toeplitz_rel": 0.2}},
         "config field 'bands.toeplitz_rel': unknown band"),
        ({"e_max": 6.0}, "config field 'e_max': must be removed"),
        ({"window": {}}, "config field 'window': must be removed"),
        # a term's sign is an orientation, not a second amplitude
        ({"b": {"terms": [{"kind": "power", "c": 0.05, "beta": -3.0,
                           "sign": 2.0}], "beta": -3.0}},
         "config field 'b.terms[0].sign': must be 1 or -1, got 2"),
        ({"b": {"terms": [{"kind": "power", "c": 0.05, "beta": -3.0,
                           "sign": 0}], "beta": -3.0}},
         "config field 'b.terms[0].sign': must be 1 or -1, got 0"),
        # a misspelled key is no default: every section names it
        ({"sgin": "-"}, "config field 'sgin': unknown key, known: B0, "
         "operator, b, V, q, sign, mesh, lambda, bands, basis_m_max"),
        ({"mesh": {"r_mx": 16.0, "h": 0.02}},
         "config field 'mesh.r_mx': unknown key, known: r_max, h"),
        ({"lambda": {"per_decad": 12}},
         "config field 'lambda.per_decad': unknown key, known: per_decade"),
        ({"b": {"terms": [{"kind": "power", "c": 0.05, "beta": -3.0}],
                "beta": -3.0, "term": []}},
         "config field 'b.term': unknown key, known: terms, beta"),
        ({"V": {"terms": [{"kind": "gaussian", "amp": 0.1, "center": 2.0,
                           "width": 1.0, "sgin": -1}], "beta": -3.0}},
         "config field 'V.terms[0].sgin': unknown key, known: kind, sign, "
         "amp, center, width"),
        ({"b": {"terms": [{"kind": "power", "amp": 0.05, "beta": -3.0}],
                "beta": -3.0}},
         "config field 'b.terms[0].amp': unknown key, known: kind, sign, c, "
         "beta"),
        ({"b": {"terms": [{"kind": "Power", "c": 0.05, "beta": -3.0}],
                "beta": -3.0}},
         "config field 'b.terms[0].kind': must be one of power, gaussian, "
         "bump, got 'Power'"),
        # a profile term that describes no profile
        ({"b": {"terms": [{"kind": "gaussian", "amp": 0.05, "center": 11.0,
                           "width": 0.0}], "beta": -3.0}},
         "config field 'b': gaussian profile needs width > 0"),
        ({"b": {"terms": [{"kind": "bump", "amp": 0.05, "inner": 6.0,
                           "outer": 5.0}], "beta": -3.0}},
         "config field 'b': bump profile needs 0 <= inner < outer"),
        ({"b": {"terms": [{"kind": "power", "c": 0.05, "beta": 0.0}],
                "beta": -3.0}},
         "config field 'b': power profile needs beta < 0"),
        ({"b": {"terms": [{"kind": "power", "c": 0.05, "beta": -3.0}],
                "beta": 0.0}},
         "config field 'b.beta': must be -3, the decay class of the power "
         "terms, got 0"),
        ({"lambda": {"per_decade": 1}},
         "config field 'lambda.per_decade': must be at least 2"),
        # work past the bound: once an OverflowError and two allocations
        # of tens of TiB, each a traceback and exit 1
        ({"B0": 1e308},
         "config fields 'mesh', 'B0', 'q': 800 cells x inf channels = inf "
         "exceeds the work bound 1e+08"),
        ({"mesh": {"r_max": 1e13, "h": 1}},
         "config fields 'mesh', 'B0', 'q': 1e+13 cells x 3.75e+25 channels "
         "= 3.75e+38 exceeds the work bound 1e+08"),
        ({"lambda": {"per_decade": 1e12}},
         "config fields 'lambda.per_decade', 'B0': 1.2e+13 lambda points x "
         "60 bisection steps = 7.2e+14 exceeds the work bound 1e+08"),
        # the window half-width B0 / 2 underflows to 0: spectrum once
        # raised ValueError from an empty window
        ({"B0": 5e-324}, "B0 must be positive, and so B0 / 2, got 5e-324"),
        # the decay class is the power terms', and the beta key restates
        # it; both once loaded and verified against 2 / -3 resp. 2 / -4
        ({"b": {"terms": [{"kind": "power", "c": 0.05, "beta": -1.5}],
                "beta": -3.0}},
         "b.beta = -1.5 violates the decay requirement beta < -2"),
        ({"b": {"terms": [{"kind": "power", "c": 0.05, "beta": -3.0}],
                "beta": -4.0}},
         "config field 'b.beta': must be -3, the decay class of the power "
         "terms, got -4"),
    ])
    def test_scenario_checks_exit_2(self, tmp_path, capsys, override,
                                    message):
        # the scenario fields are validated once, by VerificationConfig;
        # values it cannot even be built from fail in load_config
        path = write_config(tmp_path / "bad.json", **override)
        code = main(["spectrum", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1

    def test_legacy_keys_exit_2(self, tmp_path, capsys):
        # seed, threads and a field's delta once shipped in the configs and
        # were ignored; they are unknown keys like any other now
        for path, override in (
                ("seed", {"seed": 0}), ("threads", {"threads": 3}),
                ("b.delta", {"b": {"terms": [], "beta": -3.0, "delta": 0.5}}),
                ("V.delta", {"V": {"terms": [], "beta": -3.0, "delta": 0.5}})):
            code = main(["weights", "--config",
                         str(write_config(tmp_path / "cfg.json", **override)),
                         "--out", str(tmp_path / "out")])
            assert code == 2
            assert (f"config field '{path}': unknown key"
                    in capsys.readouterr().err)

    def test_derived_values_follow_replace(self, cfg_path):
        cfg = load_config(str(cfg_path))
        assert (cfg.gamma, cfg.e_max) == (0.5, 4.0)
        moved = replace(cfg, B0=4.0, q_list=[2])
        assert (moved.gamma, moved.e_max) == (2.0, 24.0)

    def test_integral_floats_accepted(self, tmp_path):
        cfg = load_config(str(write_config(
            tmp_path / "a.json", basis_m_max=4.0,
            **{"lambda": {"per_decade": 24.0}})))
        assert (cfg.per_decade, cfg.m_max, cfg.basis_m_max) == (24, 48, 4)
        assert all(type(v) is int
                   for v in (cfg.per_decade, cfg.m_max, cfg.basis_m_max))

    def test_channel_cut_follows_replace(self, cfg_path):
        # m_max and the default basis_m_max are derived when read, so
        # replace() moves them with r_max (R = 16: 48 and 11)
        cfg = load_config(str(cfg_path))
        assert (cfg.m_max, cfg.basis_m_max) == (48, 11)
        small = replace(cfg, r_max=6.0)
        assert small.m_max == default_channel_cut(6.0, 1.0) == 6
        assert small.basis_m_max == 6
        assert replace(small, basis_cut=3).basis_m_max == 3

    def test_defaults_are_the_records(self, tmp_path):
        # a config that sets only b loads as the record with b and the hash:
        # mesh, lambda, B0, q, operator, sign and bands at its defaults, and
        # a null V is the default zero field
        b = {"terms": [{"kind": "power", "c": 0.05, "beta": -3.0}],
             "beta": -3.0}
        for raw in ({"b": b}, {"b": b, "V": None}):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(raw))
            cfg = load_config(str(path))
            assert cfg == VerificationConfig(b=FieldSpec.power(0.05, -3.0),
                                             hash=config_hash(raw))
        # the defaults of a config file, so every shipped config runs as
        # it did
        assert (cfg.r_max, cfg.h, cfg.q_list) == (20.0, 0.01, (0, 1))
        assert cfg.bands == {"min_decades": 1.0, "min_peak_count": 20,
                             "exponent_tol": 0.1, "gram_max": 1e-5}

    def test_import_skips_scipy_integrate(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        probe = ("import sys, landau.cli; "
                 "print('scipy.integrate' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


def test_only_solve_commands_load_scipy(tmp_path):
    # in a fresh interpreter, the commands that solve nothing run without
    # scipy, and so without the LAPACK pointers of its cython_lapack; verify
    # and spectrum load both (both Sturm-count their windows).  Neither
    # runs scipy.linalg's __init__: they load LAPACK from its compiled
    # modules
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    probe = (
        "import json, sys\n"
        "import landau.cli\n"
        "lapack = 'scipy.linalg.cython_lapack'\n"
        "seen = ['scipy' in sys.modules, lapack in sys.modules]\n"
        "for command in sys.argv[3:]:\n"
        "    code = landau.cli.main([command, '--config', sys.argv[1],\n"
        "                            '--out', sys.argv[2]])\n"
        "    seen.append((command, code, 'scipy' in sys.modules,\n"
        "                 lapack in sys.modules,\n"
        "                 'scipy.linalg' in sys.modules))\n"
        "print(json.dumps(seen))\n")

    def fresh(*commands):
        out = subprocess.run(
            [sys.executable, "-c", probe, str(CONFIGS / "quick.json"),
             str(tmp_path / "out"), *commands], env=env, capture_output=True,
            text=True, check=True)
        return json.loads(out.stdout.splitlines()[-1])

    seen = fresh("weights", "toeplitz", "identities", "verify")
    assert seen == [False, False, ["weights", 0, False, False, False],
                    ["toeplitz", 0, False, False, False],
                    ["identities", 0, False, False, False],
                    ["verify", 0, True, True, False]]
    assert fresh("spectrum") == [False, False,
                                 ["spectrum", 0, True, True, False]]


@pytest.mark.parametrize("command", ["spectrum", "verify", "weights",
                                     "toeplitz", "identities"])
def test_json_stdout_is_the_written_summary(command, tmp_path, capsys):
    # main alone writes <command>_summary.json and prints it for --json
    out = tmp_path / "out"
    code = main([command, "--config", str(CONFIGS / "quick.json"),
                 "--out", str(out), "--json"])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == json.loads(
        (out / f"{command}_summary.json").read_text())


def test_out_that_is_a_file_exits_2(tmp_path, capsys):
    # --out names an existing file: one error line, no traceback
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    code = main(["weights", "--config", str(CONFIGS / "quick.json"),
                 "--out", str(taken)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert taken.read_text() == "kept\n"


def _power(c, sign=1):
    return {"terms": [{"kind": "power", "c": c, "beta": -3.0, "sign": sign}],
            "beta": -3.0}


# variants of the quick config: (overrides, keys left out)
EDGE_CONFIGS = {
    "R2": ({"mesh": {"r_max": 2.0, "h": 0.1}}, ()),  # m_max = 0
    "R3": ({"mesh": {"r_max": 3.0, "h": 0.1}}, ()),
    "R4": ({"mesh": {"r_max": 4.0, "h": 0.05}}, ()),
    # an odd cell count (801, solved again on 400) and the least one (16,
    # solved again on 8)
    "n801": ({"mesh": {"r_max": 16.02, "h": 0.02}}, ()),
    "n16": ({"mesh": {"r_max": 16.0, "h": 1.0}}, ()),
    "q4": ({"q": [4]}, ()),
    "q0-3": ({"q": [0, 1, 2, 3]}, ()),
    "minus-negative-V": ({"sign": "-", "V": _power(0.05, sign=-1)}, ()),
    "bump-V-q2": ({"q": [2], "V": {"terms": [
        {"kind": "bump", "amp": 0.05, "inner": 2.0, "outer": 6.0}],
        "beta": -3.0}}, ()),
    "gaussian-b": ({"b": {"terms": [
        {"kind": "gaussian", "amp": 0.05, "center": 3.0, "width": 1.5}],
        "beta": -3.0}}, ()),
    "B0-4": ({"B0": 4.0, "mesh": {"r_max": 8.0, "h": 0.01}}, ()),
    "B0-0.25": ({"B0": 0.25, "mesh": {"r_max": 32.0, "h": 0.04}}, ()),
    "pauli-plus-q2": ({"operator": "pauli_plus", "q": [2]}, ()),
    "schroedinger-minus": ({"operator": "schroedinger", "sign": "-"}, ()),
    "no-b": ({}, ("b",)),
    "no-b-with-V": ({"V": _power(0.05)}, ("b",)),
    "b-0.9": ({"b": _power(0.9)}, ()),
    "b-negative": ({"b": _power(-0.05)}, ()),
    # one trusted row (lambda = 1e-3, N = 6), which fits no slope
    "one-row": ({"b": _power(0.02), "lambda": {"per_decade": 2}}, ()),
}


@pytest.mark.parametrize("command", ["spectrum", "verify", "weights",
                                     "toeplitz", "identities"])
@pytest.mark.parametrize("variant", sorted(EDGE_CONFIGS))
def test_edge_configurations(variant, command, tmp_path, capsys):
    # every command ends in a documented exit on every variant, and says
    # why a run fails: in one stderr line, or in verify's printed verdict.
    # verify may pass or fail its checks; the others pass
    overrides, left_out = EDGE_CONFIGS[variant]
    path = write_config(tmp_path / "cfg.json", **overrides)
    raw = json.loads(path.read_text())
    path.write_text(json.dumps({k: v for k, v in raw.items()
                                if k not in left_out}))
    code = main([command, "--config", str(path),
                 "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code in ((0, 1) if command == "verify" else (0,))
    assert "Traceback" not in err
    if code == 0:
        # a passing run writes to stderr only spectrum's warnings, one per
        # window that counts no state but holds flagged ones (R3, R4)
        summary = json.loads(
            (tmp_path / "out" / f"{command}_summary.json").read_text())
        empty = [q for q, c in summary.get("clusters", {}).items()
                 if c["count"] == 0 and c["flagged"]]
        assert [line.split(":")[0] for line in err.splitlines()] == [
            f"q={q}" for q in empty]
        assert all(line.endswith("; enlarge r_max")
                   for line in err.splitlines())
    else:
        assert err.count("\n") == 1 or (err == "" and "FAIL" in out)


# V as 90 gaussians of alternating sign: W - lambda crosses zero more than
# superlevel_scan resolves, so the commands that scan it exit 3
CROSSING_V = {"terms": [
    {"kind": "gaussian", "amp": 0.02 * (-1) ** k, "center": 0.3 + 0.17 * k,
     "width": 0.04} for k in range(90)]}


@pytest.mark.parametrize("command, expected", [
    ("spectrum", 0), ("verify", 3), ("weights", 3), ("toeplitz", 0),
    ("identities", 0)])
def test_crossing_limit_config(command, expected, tmp_path, capsys):
    config = json.loads((CONFIGS / "quick.json").read_text())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(config, V=CROSSING_V)))
    code = main([command, "--config", str(path),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == expected
    assert "Traceback" not in err and err.count("\n") <= 1
    if code == 3:
        assert err == "numeric failure: more than 64 crossings of W - lambda\n"


class TestSpectrum:
    def test_summary_lists_levels(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["spectrum", "--config", str(cfg_path), "--out", str(out),
                     "--q", "0,1"])
        assert code == 0
        text = capsys.readouterr().out
        assert "q=0" in text and "q=1" in text
        table = np.genfromtxt(out / "spectrum_pauli_minus.csv", delimiter=",",
                              names=True, comments="#", skip_header=1)
        assert {"m", "n", "E", "boundary_flag"} <= set(table.dtype.names)
        gauge = np.genfromtxt(out / "gauge.csv", delimiter=",", names=True,
                              comments="#", skip_header=1)
        assert {"r", "B", "A_theta", "psi", "Psi"} <= set(gauge.dtype.names)

    def test_deterministic_output(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["spectrum", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        for name in ("spectrum_pauli_minus.csv", "gauge.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_pauli_plus_window_counts(self, tmp_path):
        # P_+(V) = P_-(V + 2b) + 2 B0: the default e_max must reach past the
        # level shift, so each q window holds the same states for both
        b = {"terms": [{"kind": "power", "c": 0.05, "beta": -3.0}],
             "beta": -3.0}
        two_b = {"terms": [{"kind": "power", "c": 0.1, "beta": -3.0}],
                 "beta": -3.0}
        mesh = {"r_max": 12.0, "h": 0.02}
        counts = {}
        for kind, V in (("pauli_plus", None), ("pauli_minus", two_b)):
            extra = {"V": V} if V else {}
            path = write_config(tmp_path / f"{kind}.json", operator=kind,
                                b=b, mesh=mesh, q=[0, 1, 2], **extra)
            out = tmp_path / kind
            assert main(["spectrum", "--config", str(path),
                         "--out", str(out)]) == 0
            summary = json.loads((out / "spectrum_summary.json").read_text())
            counts[kind] = {q: c["count"]
                            for q, c in summary["clusters"].items()}
        assert counts["pauli_plus"] == counts["pauli_minus"]
        assert all(n > 0 for n in counts["pauli_plus"].values())

    def test_empty_window_warns_when_flagged(self, tmp_path, capsys):
        # at R = 8 every state in the q = 0, 1 windows is boundary-flagged,
        # so the counts are 0; the run says why on stderr
        path = write_config(tmp_path / "small.json", q=[0, 1],
                            mesh={"r_max": 8.0, "h": 0.02})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(path),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "spectrum_summary.json").read_text())
        table = np.genfromtxt(out / "spectrum_pauli_minus.csv", delimiter=",",
                              names=True, comments="#", skip_header=1)
        warned = capsys.readouterr().err.splitlines()
        assert len(warned) == 2
        for q, message in zip((0, 1), warned):
            assert summary["clusters"][str(q)]["count"] == 0
            inside = np.abs(table["E"] - 2.0 * q) < 0.5
            flagged = int(np.count_nonzero(inside & (table["boundary_flag"]
                                                     == 1)))
            assert flagged > 0 and np.all(table["boundary_flag"][inside] == 1)
            assert summary["clusters"][str(q)]["flagged"] == flagged
            assert message.startswith(f"q={q}:")
            assert f" {flagged} boundary-flagged" in message
            assert "enlarge r_max" in message

    def test_q_override_sets_e_max(self, tmp_path):
        # --q 3 on a q = [1] config solves up to the level above q = 3,
        # as "q": [3] in the config does
        config = json.loads((CONFIGS / "quick.json").read_text())
        path = tmp_path / "q3.json"
        path.write_text(json.dumps(dict(config, q=[3])))
        counts = {}
        for name, argv in (("flag", ["--config", str(CONFIGS / "quick.json"),
                                     "--q", "3"]),
                           ("config", ["--config", str(path)])):
            out = tmp_path / name
            assert main(["spectrum", "--out", str(out)] + argv) == 0
            header = (out / "spectrum_pauli_minus.csv").read_text()
            assert "e_max=8.0" in header.splitlines()[0]
            summary = json.loads((out / "spectrum_summary.json").read_text())
            counts[name] = summary["clusters"]["3"]["count"]
        assert counts["flag"] == counts["config"] > 0

    def test_full_window_does_not_warn(self, cfg_path, tmp_path, capsys):
        assert main(["spectrum", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_meta_header_carries_hash(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        main(["spectrum", "--config", str(cfg_path), "--out", str(out)])
        first = (out / "gauge.csv").read_text().splitlines()[0]
        assert first.startswith("# config=")
        assert "r_max=16.0" in first and "h=0.02" in first


class TestWeights:
    def test_closed_form_table(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert main(["weights", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        rows = np.genfromtxt(out / "weights_q1_+.csv", delimiter=",",
                             names=True, comments="#", skip_header=1)
        lam = rows["lambda"]
        measured = rows["E_measure"]
        exact = 0.5 * ((0.1 / lam) ** (2.0 / 3.0) - 1.0)
        assert np.allclose(measured, exact, rtol=1e-8)

    def test_tiny_domain_table(self, tmp_path):
        # at R = 2 the table's smallest lambda, 1e-5 of sup W, has its
        # superlevel set past 8 R: the scan reaches out until it closes
        path = write_config(tmp_path / "tiny.json",
                            mesh={"r_max": 2.0, "h": 0.1})
        out = tmp_path / "out"
        assert main(["weights", "--config", str(path),
                     "--out", str(out)]) == 0
        rows = np.genfromtxt(out / "weights_q1_+.csv", delimiter=",",
                             names=True, comments="#", skip_header=1)
        lam = rows["lambda"]
        assert lam.min() < 0.1 * (1.0 + 16.0 ** 2) ** -1.5  # W(8 R)
        exact = 0.5 * ((0.1 / lam) ** (2.0 / 3.0) - 1.0)
        assert np.allclose(rows["E_measure"], exact, rtol=1e-12)

    def test_empty_sign_degenerate(self, tmp_path):
        path = write_config(tmp_path / "neg.json", sign="-")
        out = tmp_path / "out"
        assert main(["weights", "--config", str(path), "--out", str(out),
                     "--json"]) == 0
        summary = json.loads((out / "weights_summary.json").read_text())
        assert summary["weights"]["1"]["degenerate"] is True

    def test_zero_fields_degenerate(self, tmp_path):
        # b = V = 0: the effective weight vanishes, so no superlevel set
        # and no measure exist for any lambda
        path = write_config(tmp_path / "zero.json",
                            b={"terms": [], "beta": -3.0},
                            V={"terms": [], "beta": -3.0})
        out = tmp_path / "out"
        assert main(["weights", "--config", str(path),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "weights_summary.json").read_text())
        assert summary["weights"] == {"1": {"degenerate": True}}

    def test_operator_family_weight(self, tmp_path):
        # weights tabulates the measure of W = V_sd + 2 q b, V_sd the
        # spin-down electric part: V + b for the Schroedinger operator, the
        # same as pauli_minus with V = b
        b = _power(0.05)
        tables = []
        for name, extra in (("schroedinger", {}),
                            ("pauli_minus", {"V": b})):
            path = write_config(tmp_path / f"{name}.json", operator=name,
                                b=b, **extra)
            out = tmp_path / name
            assert main(["weights", "--config", str(path),
                         "--out", str(out)]) == 0
            summary = json.loads((out / "weights_summary.json").read_text())
            rows = (out / "weights_q1_+.csv").read_text().splitlines()[1:]
            tables.append((summary["weights"], rows))
        assert tables[0] == tables[1]

    def test_no_power_class_no_regularity_claim(self, tmp_path):
        path = write_config(tmp_path / "gauss.json", b={"terms": [
            {"kind": "gaussian", "amp": 0.05, "center": 3.0, "width": 1.5}]})
        out = tmp_path / "out"
        assert main(["weights", "--config", str(path),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "weights_summary.json").read_text())
        assert set(summary["weights"]["1"]) == {"sup", "max_ratio",
                                                "exponent"}

    def test_regularity_pass_for_power(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        main(["weights", "--config", str(cfg_path), "--out", str(out)])
        summary = json.loads((out / "weights_summary.json").read_text())
        assert summary["weights"]["1"]["regular_ok"] is True
        assert summary["weights"]["1"]["lower_ok"] is True

    @pytest.mark.parametrize("c", [sys.float_info.max, -sys.float_info.max])
    def test_overflowed_weight_exits_3(self, c, tmp_path, capsys):
        # 2 q b overflows at float max: the weight is not degenerate but
        # out of the float range, a numeric failure before any table
        cfg = json.loads((CONFIGS / "quick.json").read_text())
        cfg["b"]["terms"][0]["c"] = c
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["weights", "--config", str(path),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: q=1: the weight V + 2 q b "
                              "overflows (")
        assert err.count("\n") == 1
        assert not list(out.glob("*"))


class TestVerify:
    def test_reference_small_run_passes(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        code = main(["verify", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["passed"] is True
        checks = summary["per_q"]["1"]["checks"]
        assert checks["ratio_band"]["passed"]
        assert checks["exponent"]["passed"]
        assert checks["toeplitz_agreement"]["passed"]
        assert checks["gram_identity_q1"]["passed"]
        # the floors the trust region starts from, and the cluster they bound
        detail = summary["per_q"]["1"]
        rows = (out / "clusters_q1.csv").read_text().splitlines()[2:]
        assert detail["cluster_size"] == len(rows) > 0
        assert detail["defect_floor"] > 0 and detail["drift_estimate"] >= 0
        assert detail["trust"][0] >= asymptotics.TRUST_SAFETY * max(
            detail["defect_floor"], detail["drift_estimate"])

    def test_toeplitz_counts_V_once(self, tmp_path, monkeypatch):
        # the cluster matrices carry V already, so the cluster-side Toeplitz
        # operator must have as its eigenvalues the cluster's raw shifts,
        # each the eigenvalue of the matrix its state was solved with (mesh
        # h for m <= 1, 2 h elsewhere), before any extrapolation
        path = write_config(
            tmp_path / "v.json",
            V={"terms": [{"kind": "power", "c": 0.03, "beta": -2.8}],
               "beta": -2.8})
        solved, comps = {}, []
        solve_channels = spectra.solve_channels
        compute_cluster = asymptotics.compute_cluster

        def recording_solve(*args, **kwargs):
            channels = solve_channels(*args, **kwargs)
            solved.update((id(ch.op), ch) for ch in channels)
            return channels

        def recording_cluster(*args, **kwargs):
            comps.append(compute_cluster(*args, **kwargs))
            return comps[-1]

        monkeypatch.setattr(asymptotics, "solve_channels", recording_solve)
        monkeypatch.setattr(asymptotics, "compute_cluster", recording_cluster)
        out = tmp_path / "out"
        main(["verify", "--config", str(path), "--out", str(out)])
        tq = json.loads((out / "toeplitz_eigs_q1.json").read_text())["Tq"]
        cluster, = (comp.cluster for comp in comps)
        raw = []
        for m, n in zip(cluster.ms, cluster.ns):
            ch = solved[id(cluster.operators[m])]
            raw.append(ch.energies[n - ch.first] - 2.0)
        shifts = np.loadtxt(out / "clusters_q1.csv", delimiter=",",
                            skiprows=2, usecols=2)
        assert np.array_equal(shifts, cluster.shifts)
        assert np.allclose(sorted(tq), np.sort(raw), rtol=0.0, atol=1e-9)

    def test_tiny_domain_fails_trust(self, tmp_path, capsys):
        # on [0, 3] at h = 0.05 every state of the q = 1 window feels the
        # wall, so no trusted lambda counts MIN_COUNT states; the defect
        # floor (5.1e-3, the near-origin Richardson correction) is far below
        # the window
        path = write_config(tmp_path / "tiny.json",
                            mesh={"r_max": 3.0, "h": 0.05})
        code = main(["verify", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "verification failed: no lambda satisfies the trust constraints "
            "(N < 5 everywhere above the floor)\n")

    def test_coarse_mesh_fails_on_defect_floor(self, tmp_path, capsys):
        # the least mesh, 16 cells of h = 1 (solved again on 8): the mesh
        # defect binds, and both floors are named
        path = write_config(tmp_path / "coarse.json",
                            mesh={"r_max": 16.0, "h": 1.0})
        code = main(["verify", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "trust region empty: the defect floor 1.1 reaches" in err
        assert "(defect floor 1.1, drift floor " in err

    @pytest.mark.parametrize("b, reason", [
        # too weak a field: the cluster holds too few states at any lambda
        ({"terms": [{"kind": "power", "c": 0.0005, "beta": -3.0}],
          "beta": -3.0}, "(N < 5 everywhere above the floor)"),
        # a ring near the wall: every superlevel set reaches past R / 2
        ({"terms": [{"kind": "gaussian", "amp": 0.05, "center": 11.0,
                     "width": 1.0}], "beta": -3.0},
         "(superlevel radius exceeds r_max/2 = 8 down to the floor)"),
    ])
    def test_no_trusted_lambda_fails(self, tmp_path, capsys, b, reason):
        path = write_config(tmp_path / "cfg.json", b=b)
        code = main(["verify", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert ("verification failed: no lambda satisfies the trust "
                "constraints " + reason) in capsys.readouterr().err

    def test_lapack_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # a Sturm count LAPACK reports as failed is a numeric failure,
        # not a verdict
        def failing(*args):
            return np.zeros(2), 1

        monkeypatch.setattr(spectra, "dlaebz", failing)
        code = main(["verify", "--config", str(CONFIGS / "quick.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: Sturm count failed")
        assert "info=1" in err

    def test_one_cluster_solve_per_q(self, tmp_path, monkeypatch):
        # the domain drift comes from the one solve at r_max; no channel
        # is solved again at a second radius
        solved = []
        compute_cluster = asymptotics.compute_cluster

        def counting(cfg, q):
            solved.append(q)
            return compute_cluster(cfg, q)

        monkeypatch.setattr(asymptotics, "compute_cluster", counting)
        code = main(["verify", "--config", str(CONFIGS / "quick.json"),
                     "--out", str(tmp_path / "out"), "--q", "0,1"])
        assert code == 0
        assert solved == [0, 1]

    @pytest.mark.parametrize("variant", [
        {}, {"operator": "pauli_plus", "V": {"terms": [
            {"kind": "power", "c": 0.03, "beta": -2.8}], "beta": -2.8}}],
        ids=["quick", "pauli_plus-V"])
    def test_multi_q_run_matches_single_q_runs(self, variant, tmp_path,
                                               monkeypatch):
        # verify builds what no q changes once per run: two gauges (h and
        # the coarse mesh), each channel matrix once per mesh, one zero-mode
        # walk, one q = 1 Gram residual; one cluster solve per q, with no
        # channel solved again at a second radius.  Each q writes the same
        # bytes and reports the same summary entry as a run of that q alone
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {**json.loads((CONFIGS / "quick.json").read_text()), **variant}))
        calls = {"gauge": [], "channel": [], "basis": [], "gram": [],
                 "cluster": []}

        def recording(module, name, key, label):
            original = getattr(module, name)

            def record(*args, **kwargs):
                calls[key].append(label(*args))
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, record)

        recording(asymptotics, "build_gauge", "gauge", lambda b, B0, m: m.h)
        recording(asymptotics, "build_channel", "channel",
                  lambda kind, m, gauge, V: (gauge.mesh.h, m))
        recording(projections, "zero_mode_basis", "basis",
                  lambda gauge, m_max, qs: m_max)
        recording(projections, "gram_identity_residual", "gram",
                  lambda q, basis, b: q)
        recording(asymptotics, "compute_cluster", "cluster",
                  lambda build, q: q)
        out = tmp_path / "all"
        code = main(["verify", "--config", str(path), "--out", str(out),
                     "--q", "0,1,2"])
        monkeypatch.undo()
        cfg = load_config(str(path))
        h = cfg.h
        assert calls["gauge"] == [h, 2.0 * h]
        assert sorted(calls["channel"]) == sorted(
            [(h, m) for m in range(-2, 2)]
            + [(2.0 * h, m) for m in range(-2, cfg.m_max + 1)])
        assert calls["basis"] == [cfg.m_max]
        assert calls["gram"] == [1]
        assert calls["cluster"] == [0, 1, 2]
        summary = json.loads((out / "verify_summary.json").read_text())
        codes, files = [], set()
        for q in (0, 1, 2):
            single = tmp_path / f"q{q}"
            codes.append(main(["verify", "--config", str(path), "--out",
                               str(single), "--q", str(q)]))
            alone = json.loads((single / "verify_summary.json").read_text())
            assert summary["per_q"][str(q)] == alone["per_q"][str(q)]
            for f in single.glob("*_q*"):
                files.add(f.name)
                assert (out / f.name).read_bytes() == f.read_bytes()
        assert code == max(codes)
        assert {f.name for f in out.glob("*_q*")} == files
        assert "toeplitz_eigs_q2.json" in files
        r1, r2 = (summary["per_q"][q]["checks"]["gram_identity_q1"]
                  ["max_residual"] for q in ("1", "2"))
        assert r1 == r2 > 0.0

    @pytest.mark.parametrize("q", ["5", "1,5"])
    def test_ladder_limit_fires_where_toeplitz_runs(self, q, tmp_path,
                                                    capsys):
        # T_0 at q reads ladder level q + 1, so q = 5 is past the limit
        # (MAX_LADDER_LEVEL = 5) on quick: exit 3 with one stderr line and
        # no summary.  With b and V zero no Toeplitz check runs and the
        # Gram check reads level 1 only, so the same q list passes
        quick = json.loads((CONFIGS / "quick.json").read_text())
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps(
            dict(quick, b={"terms": []}, V={"terms": []})))
        out = tmp_path / "quick"
        assert main(["verify", "--config", str(CONFIGS / "quick.json"),
                     "--out", str(out), "--q", q]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: q=5 reads zero-mode ladder "
                              "level 6; ")
        assert err.count("\n") == 1
        assert not (out / "verify_summary.json").exists()
        out = tmp_path / "zero"
        assert main(["verify", "--config", str(zero), "--out", str(out),
                     "--q", q]) == 0
        assert capsys.readouterr().err == ""
        checks = json.loads((out / "verify_summary.json").read_text())[
            "per_q"]["5"]["checks"]
        assert checks["toeplitz_degenerate"]["passed"]
        assert checks["gram_identity_q1"]["passed"]

    def test_one_superlevel_scan_per_lambda_grid(self, tmp_path, monkeypatch):
        # the report samples the weight once per lambda grid and bisects all
        # crossings together: one grid sample plus 60 bisection steps per
        # scan, not per lambda (about 6000 evaluations per q one by one)
        evaluations, starts = [], []  # one entry per profile call
        profile = fields.EffectiveWeight.profile
        compute_cluster = asymptotics.compute_cluster

        def counting(self, r):
            evaluations.append(None)
            return profile(self, r)

        def marking(*args, **kwargs):
            starts.append(len(evaluations))
            return compute_cluster(*args, **kwargs)

        # __call__ is bound to the original profile function
        monkeypatch.setattr(fields.EffectiveWeight, "profile", counting)
        monkeypatch.setattr(fields.EffectiveWeight, "__call__", counting)
        monkeypatch.setattr(asymptotics, "compute_cluster", marking)
        code = main(["verify", "--config", str(CONFIGS / "quick.json"),
                     "--out", str(tmp_path / "out"), "--q", "1,2"])
        assert code == 0
        per_q = np.diff(starts + [len(evaluations)])
        assert len(per_q) == 2
        assert 0 < per_q.min() and per_q.max() <= 200

    def test_cluster_solve_stays_in_window(self, tmp_path, monkeypatch):
        # compute_cluster solves only the window around level q; no
        # eigenpair of a lower level is computed again
        solved, comps = [], []
        solve_channels = spectra.solve_channels
        compute_cluster = asymptotics.compute_cluster

        def recording_solve(*args, **kwargs):
            channels = solve_channels(*args, **kwargs)
            solved.append(np.concatenate([ch.energies for ch in channels]))
            return channels

        def recording_cluster(*args, **kwargs):
            comp = compute_cluster(*args, **kwargs)
            comps.append(comp)
            return comp

        # asymptotics looks the solver up under its own name
        for module in (spectra, asymptotics):
            monkeypatch.setattr(module, "solve_channels", recording_solve)
        monkeypatch.setattr(asymptotics, "compute_cluster", recording_cluster)
        main(["verify", "--config", str(CONFIGS / "quick.json"),
              "--out", str(tmp_path / "out"), "--q", "1,2"])
        assert [c.q for c in comps] == [1, 2]
        # two solves per q: the near-origin channels on h, all on 2 h
        assert len(solved) == 4
        for E, c in zip([np.concatenate(solved[:2]),
                         np.concatenate(solved[2:])], comps):
            assert E.size >= 20
            assert np.all(np.abs(E - 2.0 * c.q * c.cfg.B0) < c.cfg.gamma)

    def test_gram_identity_once_per_verify(self, tmp_path, monkeypatch):
        # the q = 1 Gram identity depends on neither q nor the cluster, so
        # verify --q 1,2 runs it once and reports it for both q
        calls = []
        gram_identity_residual = projections.gram_identity_residual

        def recording(*args):
            calls.append(args[0])
            return gram_identity_residual(*args)

        monkeypatch.setattr(projections, "gram_identity_residual", recording)
        out = tmp_path / "out"
        code = main(["verify", "--config", str(CONFIGS / "quick.json"),
                     "--out", str(out), "--q", "1,2"])
        assert code == 0
        assert calls == [1]
        with open(out / "verify_summary.json") as fh:
            per_q = json.load(fh)["per_q"]
        r1, r2 = (per_q[q]["checks"]["gram_identity_q1"]["max_residual"]
                  for q in ("1", "2"))
        assert r1 == r2 > 0.0

    def test_window_solves_need_no_bisection(self, tmp_path, monkeypatch):
        # every cluster and defect-floor channel holds at most one
        # eigenvalue of its window, so the Sturm counts and inverse
        # iteration solve them all; the stebz bisection never runs, and
        # one dlaebz call counts each windowed channel.  spectrum's level
        # windows hold at most one eigenvalue each as well
        bisections, factors, steps, counts, windowed = [], [], [], [], []
        reached = []  # whether the channel's Gershgorin bound is below e_max
        eigh_tridiagonal = spectra.eigh_tridiagonal
        dgttrf, dgttrs = spectra.dgttrf, spectra.dgttrs
        dlaebz, solve_channel = spectra.dlaebz, spectra.solve_channel

        def bisecting(*args, **kwargs):
            bisections.append(None)
            return eigh_tridiagonal(*args, **kwargs)

        def factoring(*args, **kwargs):
            factors.append(None)
            return dgttrf(*args, **kwargs)

        def stepping(*args):
            steps.append(None)
            return dgttrs(*args)

        def counting(*args):
            counts.append(None)
            return dlaebz(*args)

        def solving(op, e_max, e_min=None, **scratch):
            windowed.append(e_min is not None)
            reached.append(spectra._lower_bound(op) < e_max)
            return solve_channel(op, e_max, e_min, **scratch)

        monkeypatch.setattr(spectra, "eigh_tridiagonal", bisecting)
        monkeypatch.setattr(spectra, "dgttrf", factoring)
        monkeypatch.setattr(spectra, "dgttrs", stepping)
        monkeypatch.setattr(spectra, "dlaebz", counting)
        monkeypatch.setattr(spectra, "solve_channel", solving)
        code = main(["verify", "--config", str(CONFIGS / "quick.json"),
                     "--out", str(tmp_path / "out"), "--q", "1,2"])
        assert code == 0
        assert len(bisections) == 0
        assert len(steps) > 100
        # one factorization per one-pair channel, 1 to 6 steps on each: a
        # channel starts from the pairs solved before it
        assert len(factors) <= len(steps) <= 6 * len(factors)
        assert len(windowed) > 100 and all(windowed)
        assert len(counts) == len(windowed)
        # spectrum solves every channel by its level windows: one count
        # for each channel that reaches below e_max, and one inverse
        # iteration for each state of the table
        for calls in (bisections, factors, steps, counts, windowed, reached):
            del calls[:]
        code = main(["spectrum", "--config", str(CONFIGS / "quick.json"),
                     "--out", str(tmp_path / "spectrum")])
        assert code == 0
        assert len(windowed) > 50 and not any(windowed)
        assert len(counts) == sum(reached) > 50
        assert len(bisections) == 0
        with open(tmp_path / "spectrum" / "spectrum_summary.json") as fh:
            assert len(factors) == json.load(fh)["states"] > 50
        # a zero mode, the shift of its window, takes one step
        assert len(factors) <= len(steps) <= 6 * len(factors)

    def test_toeplitz_spectra_per_channel_block(self, tmp_path, monkeypatch):
        # T_q and T_0 are per-state diagonals, sorted for their spectra.  On
        # quick every channel holds one cluster state, so its diagonal entry
        # is its eigenvalue: no eigvalsh call runs
        calls, sizes = [], []
        build_Tq = projections.build_Tq
        eigvalsh = np.linalg.eigvalsh

        def recording_build_Tq(q, cluster):
            calls.append(cluster.ms.tolist())
            return build_Tq(q, cluster)

        def recording_eigvalsh(a, *args, **kwargs):
            sizes.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(projections, "build_Tq", recording_build_Tq)
        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        code = main(["verify", "--config", str(CONFIGS / "quick.json"),
                     "--out", str(tmp_path / "out"), "--q", "1,2"])
        assert code == 0
        assert len(calls) == 2  # T_q at q = 1 and q = 2
        for ms in calls:
            assert len(ms) > 20
            assert len(set(ms)) == len(ms)
        assert sizes == []

    def test_verify_rerun_writes_identical_files(self, tmp_path):
        # every file of a verify over three indices, q = 0 (a degenerate
        # count) among them, comes out byte for byte the same twice
        path = write_config(tmp_path / "cfg.json", q=[0, 1, 2])
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["verify", "--config", str(path), "--out",
                         str(out)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert {"clusters_q2.csv", "counting_q0_+.csv", "toeplitz_eigs_q2.json",
                "verify_summary.json"} <= set(names)
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_json_summary_only(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["verify", "--config", str(cfg_path), "--out", str(out),
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_no_power_class_no_exponent_claim(self, tmp_path):
        # a gaussian b decays faster than any power: N/E stays in band over
        # 2.29 decades while N's slope reads -0.270, and no 2 / beta exists
        # to compare it with
        path = write_config(tmp_path / "gauss.json", b={"terms": [
            {"kind": "gaussian", "amp": 0.05, "center": 3.0, "width": 1.5}],
            "beta": -3.0})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
        checks = json.loads((out / "verify_summary.json").read_text())[
            "per_q"]["1"]["checks"]
        assert checks["exponent"]["expected"] is None
        assert checks["exponent"]["fitted"] == pytest.approx(-0.27, abs=0.01)
        assert checks["ratio_band"]["decades"] > 2.0

    def test_one_row_fits_no_exponent(self, tmp_path, capsys):
        path = write_config(tmp_path / "one.json", b=_power(0.02),
                            **{"lambda": {"per_decade": 2}})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        detail = json.loads((out / "verify_summary.json").read_text())[
            "per_q"]["1"]
        rows = (out / "counting_q1_+.csv").read_text().splitlines()[2:]
        assert len(rows) == 1
        assert detail["checks"]["exponent"] == {
            "passed": False, "fitted": None, "expected": -2.0 / 3.0}

    def test_q0_degenerate_passes(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        code = main(["verify", "--config", str(cfg_path), "--out", str(out),
                     "--q", "0"])
        assert code == 0
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["per_q"]["0"]["checks"]["counting_degenerate"]["passed"]

    def test_unperturbed_toeplitz_degenerate(self, tmp_path):
        # b = V = 0: T_q and T_0 vanish, so their relative deviation is
        # noise over noise; verify passes and still checks the identity
        path = write_config(tmp_path / "free.json", b=None, q=[1, 2])
        out = tmp_path / "out"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "verify_summary.json").read_text())
        for q in ("1", "2"):
            checks = summary["per_q"][q]["checks"]
            assert set(checks) == {"counting_degenerate",
                                   "toeplitz_degenerate", "gram_identity_q1"}
            assert all(c["passed"] for c in checks.values())
        assert not list(out.glob("toeplitz_eigs_*"))


class TestToeplitzIdentities:
    def test_toeplitz_outputs(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert main(["toeplitz", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        eigs = json.loads((out / "toeplitz_T0_q1.json").read_text())
        assert len(eigs["eigenvalues"]) == 12  # default basis 0..11
        assert eigs["eigenvalues"] == sorted(eigs["eigenvalues"])

    def test_toeplitz_csv_lists_channel_entries(self, tmp_path):
        # T0 couples equal channels only and the basis holds one mode per
        # channel, so each CSV lists one (m, m) row per mode, and the
        # sorted values are the eigenvalues
        out = tmp_path / "out"
        assert main(["toeplitz", "--config", str(CONFIGS / "quick.json"),
                     "--out", str(out), "--q", "1,2"]) == 0
        dim = load_config(str(CONFIGS / "quick.json")).basis_m_max + 1
        paths = sorted(out.glob("toeplitz_T0_q*.csv"))
        assert [p.name for p in paths] == ["toeplitz_T0_q1.csv",
                                           "toeplitz_T0_q2.csv"]
        for path in paths:
            lines = path.read_text().splitlines()
            assert lines[1] == "i,j,value"
            rows = [line.split(",") for line in lines[2:]]
            assert [(int(i), int(j)) for i, j, _ in rows] == [
                (m, m) for m in range(dim)]
            eigs = json.loads(path.with_suffix(".json").read_text())
            assert sorted(float(v) for _, _, v in rows) == eigs["eigenvalues"]

    @pytest.mark.parametrize("command, q, via_flag, level", [
        ("toeplitz", 5, True, 6), ("identities", 6, True, 6),
        ("toeplitz", 170, False, 171), ("identities", 170, False, 170)])
    def test_ladder_past_its_accuracy_exits_3(self, command, q, via_flag,
                                              level, tmp_path, capsys):
        # on quick the level-6 images of the zero modes m = 0 and 1 read
        # 12.9 and 164 C_6 (toeplitz reads level q + 1, identities level q);
        # the ladder walk stops at level 5, so no level leaves the float
        # range
        argv = [command, "--out", str(tmp_path / "out")]
        if via_flag:
            argv += ["--config", str(CONFIGS / "quick.json"), "--q", str(q)]
        else:
            argv += ["--config", str(write_config(tmp_path / "cfg.json",
                                                  q=[q]))]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"numeric failure: q={q} reads zero-mode "
                              f"ladder level {level}; ")
        assert "zero modes m = 0 and 1" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out" / f"{command}_summary.json").exists()

    @pytest.mark.parametrize("command, qs, q", [
        ("toeplitz", "1,6,5", 5), ("identities", "1,7,6", 6)])
    def test_ladder_limit_writes_nothing(self, command, qs, q, tmp_path,
                                         capsys):
        # every q is read before any file is written: a q list that holds
        # one past the limit names the least such q and leaves no artifact,
        # not even those of the q below the limit
        out = tmp_path / "out"
        assert main([command, "--config", str(CONFIGS / "quick.json"),
                     "--out", str(out), "--q", qs]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numeric failure: q={q} reads zero-mode "
                              "ladder level 6; ")
        assert not list(out.glob("*"))

    def test_ladder_below_level_6_passes(self, tmp_path):
        for command, q in (("toeplitz", 4), ("identities", 5)):
            assert main([command, "--config", str(CONFIGS / "quick.json"),
                         "--out", str(tmp_path / command), "--q", str(q)]) == 0

    @pytest.mark.parametrize("amplitude", [1.5, 5.0])
    def test_strong_b_is_not_a_ladder_failure(self, amplitude,
                                              tmp_path, capsys):
        # with b at or above B0 the ladder forms carry the physical
        # linear-in-b Gram term, far from C_L at level 1 and 2 (4.2 C_1 at
        # amplitude 5); the ladder limit is a level, so these still run.
        # verify fails its own checks here (b is not small), and says so
        # on stdout with exit 1
        cfg = json.loads((CONFIGS / "quick.json").read_text())
        cfg["b"]["terms"][0]["c"] = amplitude
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for command, code in (("identities", 0), ("toeplitz", 0),
                              ("verify", 1)):
            out = tmp_path / command
            assert main([command, "--config", str(path), "--out", str(out),
                         "--q", "1"]) == code
            assert capsys.readouterr().err == ""
            assert (out / f"{command}_summary.json").exists()

    def test_identities_outputs(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert main(["identities", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "identities_summary.json").read_text())
        assert summary["identities"]["1"]["gram_max"] < 1e-4
