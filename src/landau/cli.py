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
failure.  LANDAU_LOG selects verbosity (debug / info / quiet).
"""

import argparse
import json
import logging
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
from .operator import RadialMesh, build_channel, spin_down_form

log = logging.getLogger("landau")


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


def _object(value, name):
    if not isinstance(value, dict):
        _fail(name, f"must be an object, got {value!r}")
    return value


def _section(raw, name):
    """The object-valued config field `name` ({} when absent)."""
    return _object(raw.get(name, {}), name)


def _check_keys(section, name, known, what="key"):
    """Fail on the first key of config object `name` that is not known,
    naming it, and a retired key with its reason."""
    for key in section:
        path = f"{name}.{key}" if name else key
        if path in _RETIRED:
            _fail(path, f"must be removed: {_RETIRED[path]}")
        if key not in known:
            _fail(path, f"unknown {what}, known: {', '.join(known)}")


def _term(raw, name):
    """The ProfileTerm of config term `name`, its sign in the amplitude."""
    keys = _TERM_KEYS.get(_object(raw, name).get("kind"))
    if keys is None:
        _fail(f"{name}.kind", f"must be one of {', '.join(_TERM_KEYS)}, "
              f"got {raw.get('kind')!r}")
    _check_keys(raw, name, ("kind", "sign", *keys))
    sign = _number(raw.get("sign", 1.0), f"{name}.sign")
    if sign not in (1.0, -1.0):
        _fail(f"{name}.sign", f"must be 1 or -1, got {sign:g}")
    args = {attr: _number(raw.get(key), f"{name}.{key}")
            for key, attr in keys.items()}
    args["amplitude"] *= sign  # exact: a sign flip at most
    return ProfileTerm(raw["kind"], **args)


def _field_spec(raw, name):
    """The FieldSpec of the config field `name`, present and not null."""
    spec = _section(raw, name)
    _check_keys(spec, name, ("terms", "beta"))
    try:
        return FieldSpec(_term(t, f"{name}.terms[{i}]")
                         for i, t in enumerate(spec.get("terms", [])))
    except (TypeError, ValueError) as exc:
        _fail(name, str(exc))


# the most work a config may ask for (see _check_work): about 50 times the
# largest shipped load, 6000 cells x 338 channels on the headline mesh
MAX_WORK = 1e8


def _check_work(r_max, h, B0, q_max, basis_cut, per_decade, q_name):
    """Fail on a config that asks for more than MAX_WORK, computed in floats
    before any array exists: mesh cells times the channels a command solves
    (at most 2 m_max + max q + 1); cells times the zero-mode basis modes
    times their ladder levels (max q + 2); and lambda points times the
    bisection steps of each (per_decade points a decade, over the 1e-12 to
    gamma = B0 / 2 of verify's grid, which holds weights' 8 decades)."""
    cells = abs(r_max) / h if h > 0 else 0.0  # RadialMesh rejects h <= 0
    m_max = max(0.0, operator.channel_reach(r_max, B0))
    modes = VerificationConfig.basis_top(m_max, basis_cut) + 1.0
    q = min(q_max, MAX_WORK)  # a larger q fails either way, and is no float
    points = per_decade * (12.0 + math.log10(max(B0, 1.0)))
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
    """The checked VerificationConfig of the JSON file at path (the record's
    defaults for the keys it omits); q, a --q string, replaces the q list."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(raw, "", _KEYS)

    q_name, q_list = "q", raw.get("q", VerificationConfig.q_list)
    if q is not None:
        q_name = "--q"
        try:
            q_list = [int(tok) for tok in q.split(",") if tok]
        except ValueError:
            q_list = q  # a string, rejected below
    q_list = q_list if isinstance(q_list, (list, tuple)) else [q_list]
    if not q_list or any(isinstance(x, bool) or not isinstance(x, int)
                         or x < 0 for x in q_list):
        _fail(q_name, "must be a nonnegative integer or list of them")

    mesh = _section(raw, "mesh")
    _check_keys(mesh, "mesh", ("r_max", "h"))
    r_max = _number(mesh.get("r_max", VerificationConfig.r_max), "mesh.r_max")
    h = _number(mesh.get("h", VerificationConfig.h), "mesh.h")

    lam = _section(raw, "lambda")
    _check_keys(lam, "lambda", ("per_decade",))
    per_decade = _number(lam.get("per_decade", VerificationConfig.per_decade),
                         "lambda.per_decade", int)
    if per_decade < 2:
        _fail("lambda.per_decade", "must be at least 2")

    bands = _section(raw, "bands")
    _check_keys(bands, "bands", tuple(_BAND_DEFAULTS), "band")
    bands = {**_BAND_DEFAULTS,
             **{key: _number(value, f"bands.{key}")
                for key, value in bands.items()}}
    basis_cut = raw.get("basis_m_max", VerificationConfig.basis_cut)
    if basis_cut is not None:
        basis_cut = _number(basis_cut, "basis_m_max", int)
        if basis_cut < 0:
            _fail("basis_m_max", f"must be >= 0, got {basis_cut}")

    B0 = _number(raw.get("B0", VerificationConfig.B0), "B0")
    _check_work(r_max, h, B0, max(q_list), basis_cut, per_decade, q_name)
    try:  # h > 0, at least 16 cells, r_max a multiple of h
        RadialMesh(r_max, h)
    except ValueError as exc:
        _fail("mesh", str(exc))
    # a key left out, and a null b or V, keep the record's default
    given = {key: raw[key] for key in ("operator", "sign") if key in raw}
    given.update((name, _field_spec(raw, name)) for name in ("b", "V")
                 if raw.get(name) is not None)
    try:
        cfg = VerificationConfig(
            hash=config_hash(raw), B0=B0, r_max=r_max, h=h, q_list=q_list,
            per_decade=per_decade, bands=bands, basis_cut=basis_cut, **given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for name, beta in (("b", cfg.b.beta), ("V", cfg.V.beta)):
        # the key restates the power terms' decay class; unread without one
        if beta is not None and _number(raw[name].get("beta"),
                                        f"{name}.beta") != beta:
            _fail(f"{name}.beta", f"must be {beta:g}, the decay class of "
                  f"the power terms, got {raw[name]['beta']:g}")
    return cfg


def _meta(cfg, **extra):
    meta = {"config": cfg.hash, "r_max": cfg.r_max, "h": cfg.h,
            "m_max": cfg.m_max, "B0": cfg.B0, "operator": cfg.operator}
    meta.update(extra)
    return meta


def cmd_spectrum(cfg, out, as_json):
    mesh = RadialMesh(cfg.r_max, cfg.h)
    log.info("spectrum: %d cells, channels |m| <= %d, kind %s",
             mesh.n, cfg.m_max, cfg.operator)
    gauge = build_gauge(cfg.b, cfg.B0, mesh)
    write_csv(os.path.join(out, "gauge.csv"),
              ["r", "B", "A_theta", "psi", "Psi"], gauge.rows(), _meta(cfg))

    ops = [build_channel(cfg.operator, m, gauge, cfg.V)
           for m in range(-cfg.m_max, cfg.m_max + 1)]
    channels = spectra.solve_channels(ops, cfg.e_max)
    table = spectra.assemble_spectrum(channels)
    write_csv(os.path.join(out, f"spectrum_{cfg.operator}.csv"),
              ["m", "n", "E", "boundary_flag"], table.rows(),
              _meta(cfg, e_max=cfg.e_max))

    shift = spin_down_form(cfg.operator, cfg.V, cfg.b)[1] * cfg.B0
    summary = {"config": cfg.hash, "operator": cfg.operator,
               "states": len(table), "clusters": {}}
    for q in cfg.q_list:
        center = 2.0 * q * cfg.B0 + shift
        lo, hi = center - cfg.gamma, center + cfg.gamma
        n_in = spectra.counting_function(table, lo, hi)
        flagged = int(np.count_nonzero(table.boundary & (table.E > lo)
                                       & (table.E < hi)))
        if n_in == 0 and flagged:
            log.warning("q=%d: no state counted in the window, but %d "
                        "boundary-flagged states lie inside it; enlarge "
                        "r_max", q, flagged)
        summary["clusters"][str(q)] = {"center": center, "count": n_in}
        if not as_json:
            print(f"q={q}: level {center:g}, {n_in} states within "
                  f"+/- {cfg.gamma:g}")
    return 0, summary


def cmd_weights(cfg, out, as_json):
    summary = {"config": cfg.hash, "weights": {}}
    V = spin_down_form(cfg.operator, cfg.V, cfg.b)[0]
    for q in cfg.q_list:
        weight = effective_weight(V, cfg.b, q, cfg.B0)
        sup = float(np.max(np.abs(weight(np.linspace(0, cfg.r_max, 4097)))))
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
    for q in cfg.q_list:
        t = projections.build_T0(q, cfg.V, basis)
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
    for q in qs:
        G = projections.gram_identity_residual(q, basis, cfg.b)
        X = projections.weighted_identity_residual(q, basis, cfg.V)
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


def _verify_one_q(cfg, q, out, shared):
    """Counting, Toeplitz, and identity checks for one Landau index; the
    checks that do not depend on q are kept in `shared`."""
    log.info("verify q=%d: solving channels m in [%d, %d]", q, -q, cfg.m_max)
    comp = asymptotics.compute_cluster(cfg, q)
    log.info("verify q=%d: %d cluster states, defect floor %.3g",
             q, len(comp.cluster), comp.defect_floor)
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
            basis = projections.zero_mode_basis(
                comp.gauge, min(int(np.max(comp.cluster.ms)) + q, cfg.m_max),
                [q], T0=cfg.V)
            t0 = np.sort(projections.build_T0(q, cfg.V, basis))[::-1]
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

        if "gram_identity_q1" not in shared:
            shared["gram_identity_q1"] = _gram_check(cfg, comp.gauge)
        checks["gram_identity_q1"] = shared["gram_identity_q1"]

    detail["checks"] = checks
    detail["passed"] = all(c["passed"] for c in checks.values())
    return detail


def _gram_check(cfg, gauge):
    """The q = 1 Gram identity on the basis_m_max zero modes.  It depends on
    neither q nor the cluster (every q solves on the same gauge), so verify
    runs it once."""
    basis = projections.zero_mode_basis(gauge, cfg.basis_m_max, [1],
                                        gram=cfg.b)
    G = projections.gram_identity_residual(1, basis, cfg.b)
    # the residual scales with B0 (B0 -> s B0 multiplies it by s), so the
    # bound does too
    residual = float(np.max(np.abs(G)))
    return {"passed": residual < cfg.bands["gram_max"] * cfg.B0,
            "max_residual": residual}


def cmd_verify(cfg, out, as_json):
    summary = {"config": cfg.hash, "operator": cfg.operator, "per_q": {},
               "passed": True}
    shared = {}  # checks that every q reports alike
    for q in cfg.q_list:
        detail = _verify_one_q(cfg, q, out, shared)
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


def _setup_logging():
    level = {"debug": logging.DEBUG, "info": logging.INFO,
             "quiet": logging.ERROR}.get(
                 os.environ.get("LANDAU_LOG", "").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(name)s %(levelname)s %(message)s")


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
    _setup_logging()

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
