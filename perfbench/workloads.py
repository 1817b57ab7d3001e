"""Seeded workloads for the landau benchmark and per-operation checks.

A workload is a list of scenarios.  One scenario is one operation of the
closed loop: a list of calls, each a `landau.cli.main` command on a generated
JSON config, run in order.  Generated configs never carry `seed`, `threads`
or `delta` keys, so the program runs with its own defaults (`os.cpu_count()`
threads) and the workloads survive the removal of those fields.  Checks
compare physics outcomes (exit codes, cluster sizes, spectra, counting
tables), never config hashes or file bytes.
"""

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
REFERENCE_SEED = 0

MESH_QUICK = {"r_max": 16.0, "h": 0.02}
MESH_FINE = {"r_max": 30.0, "h": 0.005}
# the quick-mesh bands of configs/quick.json: R = 16 cannot hold the
# headline's 1-decade window
QUICK_BANDS = {"gram_max": 1e-4, "min_peak_count": 8, "min_decades": 0.3,
               "exponent_tol": 0.15}

HEADLINE_CONFIG = {
    "B0": 1.0,
    "operator": "pauli_minus",
    "b": {"terms": [{"kind": "power", "c": 0.05, "beta": -3.0}],
          "beta": -3.0},
    "q": [1],
    "sign": "+",
    "mesh": MESH_FINE,
    "lambda": {"per_decade": 24},
}


@dataclass
class Call:
    """One `landau` command on one config (`q` overrides its q list)."""

    command: str
    config: dict
    q: list = None

    def argv(self, config_path, out):
        argv = [self.command, "--config", config_path, "--out", out]
        if self.q is not None:
            argv += ["--q", ",".join(map(str, self.q))]
        return argv

    @property
    def q_list(self):
        return self.q if self.q is not None else self.config["q"]


@dataclass
class Scenario:
    name: str
    calls: tuple


# Untimed first operation of every run: one small config through all five
# commands, so lazy imports and first-call set-up are paid before timing.
_WARMUP_CONFIG = {
    "B0": 1.0,
    "b": {"terms": [{"kind": "power", "c": 0.05, "beta": -3.0}],
          "beta": -3.0},
    "q": [1],
    "mesh": MESH_QUICK,
    "bands": QUICK_BANDS,
    "basis_m_max": 8,
    "lambda": {"per_decade": 8},
}
WARMUP = Scenario("warm-up", tuple(
    Call(c, _WARMUP_CONFIG)
    for c in ("verify", "spectrum", "weights", "toeplitz", "identities")))


def headline(seed):
    # The paper's reference configuration (q = 1, b = 0.05 (1+r^2)^{-3/2},
    # R = 30, h = 0.005).  The spectra eigensolve does ~85% of this work
    # (two full solves: R = 30 and the drift re-solve at R' = 36), so every
    # eigensolve change shows here.  The seed is ignored.
    del seed
    return [Scenario("headline", (Call("verify", HEADLINE_CONFIG),))]


class _Jitter:
    """Seeded relative perturbation of the nominal design values.

    Seeds change every amplitude, decay exponent and basis size a little
    but keep each scenario's structure, so the mix of work, and the median
    operation time, stay comparable across seeds.
    """

    def __init__(self, seed, rel=0.03):
        self.rng = random.Random(seed)
        self.rel = rel

    def __call__(self, x, digits=4):
        return round(x * (1.0 + self.rng.uniform(-self.rel, self.rel)), digits)


def _power(jit, c, beta, sign=1.0):
    term = {"kind": "power", "c": jit(c), "beta": jit(beta, 3)}
    if sign != 1.0:
        term["sign"] = sign
    return term


def _profile(jit, shape):
    power = _power(jit, 0.035, -3.0)
    terms = [power]
    if shape == "gaussian+power":
        terms.append({"kind": "gaussian", "amp": jit(0.02),
                      "center": jit(2.5, 3), "width": jit(1.0, 3)})
    elif shape == "bump+power":
        terms.append({"kind": "bump", "amp": jit(0.02), "inner": jit(1.25, 3),
                      "outer": jit(3.25, 3)})
    return {"terms": terms, "beta": power["beta"]}


_KINDS = ("pauli_minus", "pauli_plus", "schroedinger")
_PROFILES = ("power", "gaussian+power", "bump+power")


def sweep(seed):
    # Small configs at the quick mesh (R = 16, h = 0.02).  The solves are
    # small, so the fields superlevel / measure / regularity scans and fixed
    # per-call costs carry about half of the work: added per-call overhead
    # (a process pool, say) shows here as a loss.  `spectrum` solves the
    # full spectrum over all channels -m_max..m_max, so a change that speeds
    # the window-only cluster solve at the cost of full-spectrum solves
    # shows too.  One config per (operator kind, q in {0, 1, 2}), each run
    # through `verify` with sign + and with sign -, then `spectrum`.  The
    # profile follows a Latin square over (kind, q), so every kind and every
    # q sees power, gaussian+power and bump+power once; V != 0 (of
    # alternating sign) on five of the nine.  Several `verify` calls are
    # expected to exit 1 (band failure or an empty trust region); none may
    # exit 2 or 3.  An operation is one operator kind over q = 0, 1, 2, so
    # all operations do a like mix of work and their median stays steady.
    jit = _Jitter(seed)
    scenarios = []
    for i, kind in enumerate(_KINDS):
        calls = []
        for q in (0, 1, 2):
            shape = _PROFILES[(i + q) % 3]
            cfg = {"B0": 1.0, "operator": kind, "b": _profile(jit, shape),
                   "q": [q], "mesh": MESH_QUICK, "bands": QUICK_BANDS}
            if (i + q) % 2 == 0:
                term = _power(jit, 0.03, -2.8, sign=(-1.0) ** q)
                cfg["V"] = {"terms": [term], "beta": term["beta"]}
            calls += [Call("verify", dict(cfg, sign=sign))
                      for sign in ("+", "-")]
            calls.append(Call("spectrum", cfg))
        scenarios.append(Scenario(kind, tuple(calls)))
    random.Random(seed).shuffle(scenarios)
    return scenarios


def zero_modes(seed):
    # `weights`, `toeplitz` and `identities` at the fine mesh (R = 30,
    # h = 0.005), V != 0.  No eigensolve runs, so the planned eigensolve
    # changes predict no change here.  The work is gauge quadrature,
    # superlevel scans, zero-mode and ladder actions and the O(k^2)
    # _pair_matrix loops, which grow with the basis.  An operation is one q
    # in {1, 2, 3}: `weights` for that q at a lower lambda density, then
    # `toeplitz` and `identities` for q = 1, 2, 3 with basis_m_max near 15,
    # 30, 45 and 60, so the superlevel scans do not hide the basis-size
    # dependent part and all operations do a like mix of work.
    jit = _Jitter(seed)
    scenarios = []
    for q in (1, 2, 3):
        term = _power(jit, 0.025, -2.8)
        field = {"B0": 1.0, "b": _profile(jit, "power"), "q": [1, 2, 3],
                 "V": {"terms": [term], "beta": term["beta"]}, "sign": "+",
                 "mesh": MESH_FINE, "lambda": {"per_decade": 8}}
        calls = [Call("weights", field, [q])]
        for basis in (15, 30, 45, 60):
            cfg = dict(field, basis_m_max=int(jit(basis, 0)))
            calls += [Call("toeplitz", cfg), Call("identities", cfg)]
        scenarios.append(Scenario(f"q{q}", tuple(calls)))
    random.Random(seed).shuffle(scenarios)
    return scenarios


WORKLOADS = {"headline": headline, "sweep": sweep, "zero-modes": zero_modes}


def run_scenario(cli, scenario, config_paths, out_dir):
    """Run the scenario's calls in order; returns [(call, exit, dir)].

    An exception escaping `main` is returned in place of the exit code.
    """
    results = []
    sink = io.StringIO()
    for j, (call, path) in enumerate(zip(scenario.calls, config_paths)):
        out = os.path.join(out_dir, f"{j}-{call.command}")
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli.main(call.argv(path, out))
            except Exception as exc:  # an escaping error fails the operation
                code = exc
        results.append((call, code, out))
    return results


def write_configs(scenario, prefix):
    """Write each call's config as JSON; returns the paths."""
    paths = []
    for j, call in enumerate(scenario.calls):
        paths.append(f"{prefix}-{j}.json")
        with open(paths[-1], "w") as fh:
            json.dump(call.config, fh)
    return paths


# ---------------------------------------------------------------- checks


def read_csv(path):
    """Rows of a landau CSV artifact (comment header skipped) as dicts."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def _check_verify(cfg, qs, code, out, problems, outcome):
    gamma = float(cfg.get("window", {}).get("gamma", 0.5 * cfg["B0"]))
    sign = cfg.get("sign", "+")
    clusters = {}
    for q in qs:
        path = os.path.join(out, f"clusters_q{q}.csv")
        if os.path.isfile(path):
            shifts = [float(r["shift"]) for r in read_csv(path)]
            clusters[str(q)] = len(shifts)
            if any(not abs(s) < gamma for s in shifts):
                problems.append(f"q={q}: cluster shift outside (-{gamma}, {gamma})")
        path = os.path.join(out, f"counting_q{q}_{sign}.csv")
        if os.path.isfile(path):
            rows = read_csv(path)
            lams = [float(r["lambda"]) for r in rows]
            N = [int(r["N"]) for r in rows]
            if any(b <= a for a, b in zip(lams, lams[1:])):
                problems.append(f"q={q}: lambda grid not increasing")
            if any(b > a for a, b in zip(N, N[1:])):
                problems.append(f"q={q}: N increases with lambda")
            for r, n in zip(rows, N):
                e, ratio = float(r["E_measure"]), float(r["ratio"])
                if e > 0 and not math.isclose(ratio, n / e, rel_tol=1e-12):
                    problems.append(f"q={q}: ratio != N/E at lambda={r['lambda']}")
                    break
                if e <= 0 and not math.isnan(ratio):
                    problems.append(f"q={q}: ratio defined where E = 0")
                    break
    outcome["clusters"] = clusters
    summary = os.path.join(out, "verify_summary.json")
    if code == 0 and not os.path.isfile(summary):
        problems.append("exit 0 without verify_summary.json")
    elif os.path.isfile(summary):
        passed = _json(summary)["passed"]
        if passed != (code == 0):
            problems.append(f"summary passed={passed} but exit {code}")


def _check_spectrum(cfg, qs, code, out, problems, outcome):
    summary = _json(os.path.join(out, "spectrum_summary.json"))
    rows = read_csv(os.path.join(out, f"spectrum_{summary['operator']}.csv"))
    E = [float(r["E"]) for r in rows if r["boundary_flag"] == "0"]
    if any(b < a for a, b in zip(E, E[1:])):
        problems.append("spectrum table not sorted by energy")
    gamma = float(cfg.get("window", {}).get("gamma", 0.5 * cfg["B0"]))
    for q, info in summary["clusters"].items():
        lo, hi = info["center"] - gamma, info["center"] + gamma
        recount = sum(1 for e in E if lo < e < hi)
        if recount != info["count"]:
            problems.append(f"q={q}: summary count {info['count']} != "
                            f"{recount} table rows in the window")


def _check_weights(cfg, qs, code, out, problems, outcome):
    summary = _json(os.path.join(out, "weights_summary.json"))
    sign = cfg.get("sign", "+")
    for q in qs:
        if summary["weights"][str(q)].get("degenerate"):
            continue
        rows = read_csv(os.path.join(out, f"weights_q{q}_{sign}.csv"))
        E = [float(r["E_measure"]) for r in rows]  # lambda descends
        if any(e < 0 for e in E) or any(b < a for a, b in zip(E, E[1:])):
            problems.append(f"q={q}: measure not monotone in lambda")


def _check_toeplitz(cfg, qs, code, out, problems, outcome):
    summary = _json(os.path.join(out, "toeplitz_summary.json"))
    dim = cfg["basis_m_max"] + 1
    top = {}
    for q in qs:
        info = summary["toeplitz"][str(q)]
        eigs = _json(os.path.join(out, f"toeplitz_T0_q{q}.json"))["eigenvalues"]
        if info["dim"] != dim or len(eigs) != dim:
            problems.append(f"q={q}: Toeplitz dimension != basis size {dim}")
        if any(b < a for a, b in zip(eigs, eigs[1:])):
            problems.append(f"q={q}: eigenvalues not sorted")
        if (eigs[0], eigs[-1]) != (info["min"], info["max"]):
            problems.append(f"q={q}: summary min/max disagree with eigenvalues")
        t = {(r["i"], r["j"]): float(r["value"])
             for r in read_csv(os.path.join(out, f"toeplitz_T0_q{q}.csv"))}
        scale = max(abs(v) for v in t.values()) or 1.0
        if any(abs(v - t[(j, i)]) > 1e-12 * scale for (i, j), v in t.items()):
            problems.append(f"q={q}: T0 not symmetric")
        top[str(q)] = eigs[-1]
    outcome["toeplitz_max"] = top


def _check_identities(cfg, qs, code, out, problems, outcome):
    summary = _json(os.path.join(out, "identities_summary.json"))
    for q in qs:
        if q < 1:
            continue
        info = summary["identities"][str(q)]
        rows = read_csv(os.path.join(out, f"identities_q{q}.csv"))
        if len(rows) != cfg["basis_m_max"] + 1:
            problems.append(f"q={q}: identity table size != basis size")
        diag = max(abs(float(r["gram_residual"])) for r in rows)
        if not all(math.isfinite(v) for v in info.values()) \
                or diag > info["gram_max"]:
            problems.append(f"q={q}: Gram residual summary inconsistent")


_CHECKS = {"verify": _check_verify, "spectrum": _check_spectrum,
           "weights": _check_weights, "toeplitz": _check_toeplitz,
           "identities": _check_identities}
# `verify` exits 1 on a band failure or an empty trust region; every other
# exit code, and any code but 0 from the other commands, is a failure.
_ALLOWED_EXIT = {"verify": (0, 1)}


def check_scenario(results):
    """Invariant checks on one operation's artifacts.

    Returns (problems, outcomes): the violated invariants and, per call,
    the physics outcome that the seed references record.
    """
    problems = []
    outcomes = []
    for call, code, out in results:
        command = call.command
        outcome = {"command": command,
                   "exit": code if isinstance(code, int) else None}
        outcomes.append(outcome)
        if not isinstance(code, int):
            problems.append(f"{command} raised {type(code).__name__}: {code}")
            continue
        if code not in _ALLOWED_EXIT.get(command, (0,)):
            problems.append(f"{command} exited {code}")
            continue
        try:
            _CHECKS[command](call.config, call.q_list, code, out, problems,
                             outcome)
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"{command}: unreadable artifacts ({exc!r})")
    return problems, outcomes


def compare_outcomes(expected, outcomes):
    """Differences between recorded and observed physics outcomes."""
    problems = []
    for exp, got in zip(expected, outcomes):
        cmd = exp["command"]
        if got.get("exit") != exp["exit"]:
            problems.append(f"{cmd}: exit {got.get('exit')} != reference "
                            f"{exp['exit']}")
        if "clusters" in exp and got.get("clusters") != exp["clusters"]:
            problems.append(f"{cmd}: cluster sizes {got.get('clusters')} != "
                            f"reference {exp['clusters']}")
        for q, ref in exp.get("toeplitz_max", {}).items():
            val = got.get("toeplitz_max", {}).get(q)
            if val is None or not math.isclose(val, ref, rel_tol=1e-8,
                                               abs_tol=1e-12):
                problems.append(f"{cmd}: q={q} top T0 eigenvalue {val} != "
                                f"reference {ref}")
    return problems


# Reproduction gates on the headline.  Measured when the benchmark was
# defined: band 1.613 decades, |exponent + 2/3| = 0.019, shift error
# 7.9e-6.  The band may not narrow below 1.61 decades and the two errors
# may grow by at most about 25%; an improvement always passes.
HEADLINE_GATES = {"band_decades": 1.61, "exponent_dev": 0.025,
                  "shift_err_max": 1e-5}


def headline_physics(results, reference):
    """Band width, exponent deviation and shift error of a headline verify,
    plus the gates they break."""
    (_, _, out), = results
    try:
        checks = _json(os.path.join(out, "verify_summary.json"))
        checks = checks["per_q"]["1"]["checks"]
        rows = read_csv(os.path.join(out, "clusters_q1.csv"))
        physics = {
            "band_decades": checks["ratio_band"]["decades"],
            "exponent_dev": abs(checks["exponent"]["fitted"]
                                - checks["exponent"]["expected"]),
        }
    except (OSError, KeyError, TypeError) as exc:
        return {}, [f"headline artifacts unreadable ({exc!r})"]
    ref = {(m, n): s for m, n, s in reference["shifts"]}
    errors = [abs(float(r["shift"]) - ref[(int(r["m"]), int(r["n"]))])
              for r in rows if (int(r["m"]), int(r["n"])) in ref]
    physics["shift_err_max"] = max(errors) if errors else math.inf
    problems = []
    if len(errors) != len(rows):
        problems.append(f"{len(rows) - len(errors)} cluster labels missing "
                        f"from the reference shifts")
    if physics["band_decades"] < HEADLINE_GATES["band_decades"]:
        problems.append(f"band window {physics['band_decades']:.4f} decades "
                        f"< {HEADLINE_GATES['band_decades']}")
    for key in ("exponent_dev", "shift_err_max"):
        if not physics[key] <= HEADLINE_GATES[key]:
            problems.append(f"{key} {physics[key]:.3g} > {HEADLINE_GATES[key]}")
    return physics, problems


def reference_entry(scenario, outcomes):
    """A scenario's record in a reference file (JSON-normalised)."""
    return json.loads(json.dumps({
        "name": scenario.name,
        "calls": [{"command": c.command, "config": c.config, "q": c.q}
                  for c in scenario.calls],
        "outcomes": outcomes}))


def reference_path(workload, seed=REFERENCE_SEED):
    return os.path.join(REFERENCE_DIR, f"{workload}-seed{seed}.json")


def load_reference(workload, seed):
    """Recorded outcomes for this workload and seed, or None."""
    if workload == "headline":
        seed = REFERENCE_SEED  # the headline ignores its seed
    path = reference_path(workload, seed)
    if not os.path.isfile(path):
        return None
    return _json(path)
