"""Command-line front end: config ingestion, pipelines, CSV/JSON emission.

Subcommands map to the headline operation of each module:

    spectrum    diagonalize channels, write the labeled spectrum table
    verify      full chain: gauge -> spectra -> clusters -> Toeplitz ->
                counting report -> identities, with pass/fail bands
    weights     effective-weight measure tables, no eigensolve
    toeplitz    zero-mode-basis Toeplitz operator and its eigenvalues
    identities  ladder Gram identity residuals

Only spectrum and verify run eigensolves, so only they load LAPACK: their
first solve loads scipy's compiled LAPACK modules (spectra._lapack), never
the scipy.linalg package.  Each command returns its exit code and summary;
main writes the summary to <command>_summary.json and, with --json, prints
it.  Exit codes: 0 pass, 1 verification failure, 2 config error, 3 numeric
failure.  A run reports through these artifacts, stdout, stderr and its exit
code only.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import asymptotics, operator, projections, spectra
from ._io import config_hash, ensure_dir, write_csv, write_json
from .asymptotics import _BAND_DEFAULTS, VerificationConfig
from .errors import ConfigError, LandauError, TrustRegionEmpty
from .fields import (_N_BISECT, FieldSpec, ProfileTerm, build_gauge,
                     check_regularity, counting_measure, effective_weight)
from .operator import B_COPIES, RadialMesh, build_channel, spin_down_form


# the band N/E must stay in, and the largest relative deviation allowed
# between the top eigenvalues of T_q and T_0 / C_q
RATIO_BAND = (0.8, 1.2)
TOEPLITZ_REL = 0.1
# the top-level config keys; keys that once set what is now fixed or derived
# exit 2 with the reason
_KEYS = ("B0", "operator", "b", "V", "q", "sign", "mesh", "lambda", "bands",
         "basis_m_max")
_RETIRED = {"window": "the window half-width gamma is B0 / 2",
            "e_max": "spectrum solves up to one level above the top cluster",
            "ratio_band": f"the ratio band is fixed at {RATIO_BAND}",
            "mesh.m_max": "the channel cut is floor(3 r_max^2 B0 / 16)"}
# the numeric config keys, by section ("" the top level): the
# VerificationConfig field each sets and the kind _number reads it as
_NUMBERS = {"": {"B0": ("B0", float), "basis_m_max": ("basis_cut", int)},
            "mesh": {"r_max": ("r_max", float), "h": ("h", float)},
            "lambda": {"per_decade": ("per_decade", int)}}
# the config keys of each profile kind and the ProfileTerm field each sets;
# every term also takes a `sign`, 1 or -1, folded into its amplitude
_TERM_KEYS = {
    "power": {"c": "amplitude", "beta": "beta"},
    "gaussian": {"amp": "amplitude", "center": "center", "width": "width"},
    "bump": {"amp": "amplitude", "inner": "inner", "outer": "outer"},
}


def _fail(field_name, message):
    raise ConfigError(f"config field '{field_name}': {message}")


def _number(value, name, kind=float):
    """A finite JSON number (not a boolean or a string), converted by kind;
    an int kind takes integral values only (24 or 24.0)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(name, f"must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, +-Infinity, huge ints
        _fail(name, f"must be a finite number, got {value!r}")
    if kind is int and value != int(value):
        _fail(name, f"must be an integer, got {value!r}")
    return kind(value)


def _section(raw, name, known, what="key"):
    """raw, the config object at path `name` ("" at the top level); fails
    unless it is an object, on a retired key with its reason, and on the
    first key not in `known`, naming the known ones."""
    if not isinstance(raw, dict):
        _fail(name, f"must be an object, got {raw!r}")
    for key in raw:
        path = f"{name}.{key}" if name else key
        if path in _RETIRED:
            _fail(path, f"must be removed: {_RETIRED[path]}")
        if key not in known:
            _fail(path, f"unknown {what}, known: {', '.join(known)}")
    return raw


def _term(raw, name):
    """The ProfileTerm of config term `name`, its sign in the amplitude."""
    # its kind names its keys: until the kind is read, every key is known
    keys = _TERM_KEYS.get(_section(raw, name, raw).get("kind"))
    if keys is None:
        _fail(f"{name}.kind", f"must be one of {', '.join(_TERM_KEYS)}, "
              f"got {raw.get('kind')!r}")
    _section(raw, name, ("kind", "sign", *keys))
    sign = _number(raw.get("sign", 1.0), f"{name}.sign")
    if sign not in (1.0, -1.0):
        _fail(f"{name}.sign", f"must be 1 or -1, got {sign:g}")
    args = {attr: _number(raw.get(key), f"{name}.{key}")
            for key, attr in keys.items()}
    args["amplitude"] *= sign  # exact: a sign flip at most
    return ProfileTerm(raw["kind"], **args)


# the most work a config may ask for (see _check_work): about 50 times the
# largest shipped load, 6000 cells x 338 channels on the headline mesh
MAX_WORK = 1e8


def _check_work(cfg, q_name):
    """Fail on a config that asks for more than MAX_WORK, computed in floats
    before any array exists: mesh cells times the channels a command solves
    (at most 2 m_max + max q + 1); cells times the zero-mode basis modes
    times their ladder levels (max q + 2); and lambda points times the
    bisection steps of each (per_decade points a decade, over the 1e-12 to
    gamma = B0 / 2 of verify's grid, which holds weights' 8 decades)."""
    cells = abs(cfg.r_max) / cfg.h if cfg.h > 0 else 0.0  # mesh check: h > 0
    m_max = max(0.0, operator.channel_reach(cfg.r_max, cfg.B0))
    modes = VerificationConfig.basis_top(m_max, cfg.basis_cut) + 1.0
    q = min(max(cfg.q_list), MAX_WORK)  # a larger q, maybe no float, fails
    points = cfg.per_decade * (12.0 + math.log10(max(cfg.B0, 1.0)))
    for names, parts in (
            (("mesh", "B0", q_name),
             ((cells, "cells"), (2.0 * m_max + q + 1.0, "channels"))),
            (("mesh", "basis_m_max", q_name),
             ((cells, "cells"), (modes, "basis modes"),
              (q + 2.0, "ladder levels"))),
            (("lambda.per_decade", "B0"),
             ((points, "lambda points"), (_N_BISECT, "bisection steps")))):
        work = math.prod(x for x, _ in parts)
        if not work <= MAX_WORK:
            raise ConfigError(
                "config fields " + ", ".join(f"'{n}'" for n in names) + ": "
                + " x ".join(f"{x:.3g} {what}" for x, what in parts)
                + f" = {work:.3g} exceeds the work bound {MAX_WORK:g}")


def load_config(path, q=None):
    """The checked VerificationConfig of the JSON file at path: the keys it
    sets, the record's own defaults for the rest; q, a --q string, replaces
    the q list."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    # a null b, V or basis_m_max is not set; any other null is no value
    top = {key: value for key, value in _section(raw, "", _KEYS).items()
           if value is not None or key not in ("b", "V", "basis_m_max")}

    q_name, q_list = "q", top.get("q", VerificationConfig.q_list)
    if q is not None:
        q_name = "--q"
        try:
            q_list = [int(tok) for tok in q.split(",") if tok]
        except ValueError:
            q_list = q  # a string, rejected below
    q_list = q_list if isinstance(q_list, (list, tuple)) else [q_list]
    if not q_list or any(isinstance(x, bool) or not isinstance(x, int)
                         or x < 0 for x in q_list) or (
                             len(set(q_list)) < len(q_list)):  # a repeat
        _fail(q_name, "must be a nonnegative integer or list of distinct ones")

    given = {key: top[key] for key in ("operator", "sign") if key in top}
    for name, numbers in _NUMBERS.items():
        section = _section(top.get(name, {}), name, numbers) if name else top
        for key, (attr, kind) in numbers.items():
            if key in section:
                path = f"{name}.{key}" if name else key
                given[attr] = _number(section[key], path, kind)
    if "bands" in top:
        bands = _section(top["bands"], "bands", tuple(_BAND_DEFAULTS), "band")
        given["bands"] = {key: _number(value, f"bands.{key}")
                          for key, value in bands.items()}
    for name in ("b", "V"):
        if name in top:
            spec = _section(top[name], name, ("terms", "beta"))
            try:
                given[name] = FieldSpec(
                    _term(t, f"{name}.terms[{i}]")
                    for i, t in enumerate(spec.get("terms", [])))
            except (TypeError, ValueError) as exc:
                _fail(name, str(exc))
    try:
        cfg = VerificationConfig(hash=config_hash(raw), q_list=q_list, **given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.per_decade < 2:
        _fail("lambda.per_decade", "must be at least 2")
    if cfg.basis_cut is not None and cfg.basis_cut < 0:
        _fail("basis_m_max", f"must be >= 0, got {cfg.basis_cut}")
    for name, beta in (("b", cfg.b.beta), ("V", cfg.V.beta)):
        # the key restates the power terms' decay class; unread without one
        if beta is not None and _number(top[name].get("beta"),
                                        f"{name}.beta") != beta:
            _fail(f"{name}.beta", f"must be {beta:g}, the decay class of "
                  f"the power terms, got {top[name]['beta']:g}")
    _check_work(cfg, q_name)
    try:  # h > 0, at least 16 cells, r_max a multiple of h
        RadialMesh(cfg.r_max, cfg.h)
    except ValueError as exc:
        _fail("mesh", str(exc))
    return cfg


def _meta(cfg, **extra):
    meta = {"config": cfg.hash, "r_max": cfg.r_max, "h": cfg.h,
            "m_max": cfg.m_max, "B0": cfg.B0, "operator": cfg.operator}
    meta.update(extra)
    return meta


def cmd_spectrum(cfg, out, as_json):
    gauge = build_gauge(cfg.b, cfg.B0, RadialMesh(cfg.r_max, cfg.h))
    write_csv(os.path.join(out, "gauge.csv"),
              ["r", "B", "A_theta", "psi", "Psi"], gauge.rows(), _meta(cfg))

    ops = [build_channel(cfg.operator, m, gauge, cfg.V)
           for m in range(-cfg.m_max, cfg.m_max + 1)]
    channels = spectra.solve_channels(ops, cfg.e_max)
    table = spectra.assemble_spectrum(channels)
    write_csv(os.path.join(out, f"spectrum_{cfg.operator}.csv"),
              ["m", "n", "E", "boundary_flag"], table.rows(),
              _meta(cfg, e_max=cfg.e_max))

    shift = B_COPIES[cfg.operator] * cfg.B0
    summary = {"config": cfg.hash, "operator": cfg.operator,
               "states": len(table), "clusters": {}}
    for q in cfg.q_list:
        center = 2.0 * q * cfg.B0 + shift
        lo, hi = center - cfg.gamma, center + cfg.gamma
        n_in = spectra.counting_function(table, lo, hi)
        flagged = int(np.count_nonzero(table.boundary & (table.E > lo)
                                       & (table.E < hi)))
        if n_in == 0 and flagged:
            print(f"q={q}: no state counted in the window, but {flagged} "
                  "boundary-flagged states lie inside it; enlarge r_max",
                  file=sys.stderr)
        summary["clusters"][str(q)] = {"center": center, "count": n_in,
                                       "flagged": flagged}
        if not as_json:
            print(f"q={q}: level {center:g}, {n_in} states within "
                  f"+/- {cfg.gamma:g}")
    return 0, summary


def cmd_weights(cfg, out, as_json):
    summary = {"config": cfg.hash, "weights": {}}
    V = spin_down_form(cfg.operator, cfg.V, cfg.b)[0]
    for q in cfg.q_list:
        weight = effective_weight(V, cfg.b, q, cfg.B0)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            W = weight(np.linspace(0, cfg.r_max, 4097))
        sup = float(np.max(np.abs(W)))
        if not math.isfinite(sup):
            raise LandauError(f"q={q}: the weight V + 2 q b overflows ({sup})")
        if not 1e-5 * sup > 0.0:  # zero, or too small for the lambda table
            summary["weights"][str(q)] = {"degenerate": True}
            continue
        lams = np.geomspace(0.9 * sup, 1e-5 * sup, 8 * cfg.per_decade)
        reach = 8.0 * cfg.r_max  # doubled until the least lam's set closes
        while abs(weight(reach)) > lams[-1]:
            reach *= 2.0
        rows = zip(lams, counting_measure(weight, lams, cfg.sign, r_max=reach))
        write_csv(os.path.join(out, f"weights_q{q}_{cfg.sign}.csv"),
                  ["lambda", "E_measure"], rows, _meta(cfg, q=q, sign=cfg.sign))
        try:
            # regularity is a lambda -> 0 statement; probe well below sup
            reg_grid = np.geomspace(0.2 * sup, 1e-4 * sup, 40)
            summary["weights"][str(q)] = {
                "sup": sup, **check_regularity(weight, reg_grid, 0.1, cfg.sign,
                                               r_max=reach)}
        except LandauError as exc:
            summary["weights"][str(q)] = {"degenerate": True,
                                          "detail": str(exc)}
    return 0, summary


def cmd_toeplitz(cfg, out, as_json):
    gauge = build_gauge(cfg.b, cfg.B0, RadialMesh(cfg.r_max, cfg.h))
    basis = projections.zero_mode_basis(gauge, cfg.basis_m_max, cfg.q_list,
                                        T0=cfg.V)
    summary = {"config": cfg.hash, "basis_m_max": cfg.basis_m_max,
               "toeplitz": {}}
    # every T_0 before any file: a q past the ladder limit writes nothing
    ts = {q: projections.build_T0(q, cfg.V, basis) for q in sorted(cfg.q_list)}
    for q, t in ts.items():
        write_csv(os.path.join(out, f"toeplitz_T0_q{q}.csv"),
                  ["i", "j", "value"], ((m, m, x) for m, x in enumerate(t)),
                  _meta(cfg, q=q))
        eigs = np.sort(t).tolist()
        write_json(os.path.join(out, f"toeplitz_T0_q{q}.json"),
                   {"config": cfg.hash, "q": q, "eigenvalues": eigs})
        summary["toeplitz"][str(q)] = {"dim": len(basis), "min": min(eigs),
                                       "max": max(eigs)}
    return 0, summary


def cmd_identities(cfg, out, as_json):
    gauge = build_gauge(cfg.b, cfg.B0, RadialMesh(cfg.r_max, cfg.h))
    qs = [q for q in cfg.q_list if q >= 1]
    basis = projections.zero_mode_basis(gauge, cfg.basis_m_max, qs,
                                        gram=cfg.b, weighted=cfg.V)
    summary = {"config": cfg.hash, "identities": {}}
    GX = {q: (projections.gram_identity_residual(q, basis, cfg.b),
              projections.weighted_identity_residual(q, basis, cfg.V))
          for q in sorted(qs)}  # as in toeplitz, before any file
    for q, (G, X) in GX.items():
        rows = [(m, G[m, m], X[m, m]) for m in range(len(basis))]
        write_csv(os.path.join(out, f"identities_q{q}.csv"),
                  ["m", "gram_residual", "weighted_residual"], rows,
                  _meta(cfg, q=q))
        summary["identities"][str(q)] = {
            "gram_max": float(np.max(np.abs(G))),
            "gram_frobenius": float(np.linalg.norm(G)),
            "weighted_max": float(np.max(np.abs(X))),
        }
    return 0, summary


def _verify_one_q(cfg, q, out, build, basis, gram):
    """Counting, Toeplitz, and identity checks for one Landau index, from
    the run's build and zero-mode basis, with the run's q = 1 Gram check."""
    comp = asymptotics.compute_cluster(build, q)
    checks = {}
    detail = {"q": q}

    write_csv(os.path.join(out, f"clusters_q{q}.csv"),
              ["m", "n", "shift"],
              zip(comp.cluster.ms, comp.cluster.ns, comp.cluster.shifts),
              _meta(cfg, q=q))

    # a weight with no part of the requested sign gives a degenerate report
    report = asymptotics.cluster_asymptotics_report(comp)
    write_csv(os.path.join(out, f"counting_q{q}_{cfg.sign}.csv"),
              ["lambda", "N", "E_measure", "ratio"], report.rows(),
              _meta(cfg, q=q, sign=cfg.sign))

    bands = cfg.bands
    if report.note != "degenerate-weight":
        lo, hi = report.band_window(RATIO_BAND)
        decades = math.log10(hi / lo) if lo else 0.0
        in_window = ((report.lambdas >= lo) & (report.lambdas <= hi)
                     if lo else np.zeros_like(report.lambdas, dtype=bool))
        peak = int(report.N[in_window].max()) if np.any(in_window) else 0
        checks["ratio_band"] = {
            "passed": bool(lo is not None
                           and decades >= bands["min_decades"]
                           and peak >= bands["min_peak_count"]),
            "band_window": [lo, hi], "decades": decades, "peak_count": peak}
        fitted, expected = asymptotics.upper_estimate_check(comp, report)
        checks["exponent"] = {  # no power class claims no exponent
            "passed": expected is None or fitted is not None
            and abs(fitted - expected) <= bands["exponent_tol"],
            "fitted": fitted, "expected": expected}
        detail["trust"] = [report.trust_lo, report.trust_hi]
        detail["cluster_size"] = len(comp.cluster)
        detail["defect_floor"] = comp.defect_floor
        detail["drift_estimate"] = report.drift_estimate
        detail["ratio_min"] = float(np.nanmin(report.ratio))
        detail["ratio_max"] = float(np.nanmax(report.ratio))
    else:
        checks["counting_degenerate"] = {
            "passed": True, "note": "weight vanishes for this q/sign"}

    if q >= 1 and len(comp.cluster):
        if cfg.b.is_zero and comp.weight.V.is_zero:
            # T_q and T_0 vanish: their eigenvalues are roundoff and mesh
            # noise, and a relative deviation between them means nothing
            checks["toeplitz_degenerate"] = {
                "passed": True, "note": "b and V vanish for this operator"}
        else:
            size = min(int(np.max(comp.cluster.ms)) + q, cfg.m_max) + 1
            t0 = np.sort(projections.build_T0(q, cfg.V, basis.head(size)))[::-1]
            t0 /= projections.coupling_constant(q, cfg.B0)
            tq = np.sort(projections.build_Tq(q, comp.cluster))[::-1]
            k = max(1, min(tq.size, t0.size) // 4)
            rel = np.max(np.abs(tq[:k] - t0[:k])
                         / np.maximum(np.abs(tq[:k]), 1e-300))
            checks["toeplitz_agreement"] = {
                "passed": bool(rel <= TOEPLITZ_REL),
                "max_rel_dev": float(rel), "compared": int(k)}
            write_json(os.path.join(out, f"toeplitz_eigs_q{q}.json"),
                       {"config": cfg.hash, "q": q,
                        "Tq": [float(x) for x in tq],
                        "T0_over_Cq": [float(x) for x in t0]})
        checks["gram_identity_q1"] = gram

    detail["checks"] = checks
    detail["passed"] = all(c["passed"] for c in checks.values())
    return detail


def cmd_verify(cfg, out, as_json):
    summary = {"config": cfg.hash, "operator": cfg.operator, "per_q": {},
               "passed": True}
    build, basis, gram = asymptotics.RunBuild(cfg), None, None
    if max(cfg.q_list) >= 1:
        # one walk, each check reading its first modes; the Gram residual
        # scales with B0 (B0 -> s B0 multiplies it by s), as its bound does
        basis = projections.zero_mode_basis(
            build.gauge, max(cfg.m_max, cfg.basis_m_max),
            {1, *cfg.q_list} - {0}, T0=cfg.V, gram=cfg.b)
        G = projections.gram_identity_residual(
            1, basis.head(cfg.basis_m_max + 1), cfg.b)
        residual = float(np.max(np.abs(G)))
        gram = {"passed": residual < cfg.bands["gram_max"] * cfg.B0,
                "max_residual": residual}
    for q in cfg.q_list:
        detail = _verify_one_q(cfg, q, out, build, basis, gram)
        summary["per_q"][str(q)] = detail
        summary["passed"] = summary["passed"] and detail["passed"]
        if not as_json:
            status = "pass" if detail["passed"] else "FAIL"
            print(f"q={q}: {status}")
            for name, chk in detail["checks"].items():
                print(f"  {name}: {'pass' if chk['passed'] else 'FAIL'} "
                      + json.dumps({k: v for k, v in chk.items()
                                    if k != 'passed'}, sort_keys=True))
    return (0 if summary["passed"] else 1), summary


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "weights": cmd_weights,
    "toeplitz": cmd_toeplitz,
    "identities": cmd_identities,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="landau",
        description="Spectral verification for perturbed Landau Hamiltonians")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--out", default="landau_out", help="output directory")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable summary on stdout")
    parser.add_argument("--q", default=None,
                        help="comma-separated Landau indices, overrides config")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.q)
        out = ensure_dir(args.out)
        code, summary = _COMMANDS[args.command](cfg, out, args.json)
        write_json(os.path.join(out, f"{args.command}_summary.json"), summary)
        if args.json:
            print(json.dumps(summary, sort_keys=True))
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrustRegionEmpty as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (LandauError, ArithmeticError) as exc:  # e.g. a float overflow
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # --out cannot be created or written
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
