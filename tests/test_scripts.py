"""The scripts under scripts/ run end to end on small meshes.

Each runs in its own interpreter with `src/` on the path, as a user would
run it from a source checkout (time_commands.py starts one per call).
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_script(name):
    """The script as a module, so a test can patch its constants."""
    spec = importlib.util.spec_from_file_location(
        name.removesuffix(".py"), ROOT / "scripts" / name)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], cwd=cwd, env=env, capture_output=True,
                          text=True)


def test_scan_identities(tmp_path):
    done = run_script("scan_identities.py", "--r-max", "8", "--steps",
                      "0.04", "0.02", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 3  # header and one row per h


def test_time_commands(monkeypatch, capsys):
    # two alternating pairs of `weights` against this same checkout on the
    # default config: one table row, with both wall-time medians, the
    # faster-pair count and both peak-RSS medians.  The script is loaded as
    # a module so that it times one command, not all five.
    script = load_script("time_commands.py")
    monkeypatch.setattr(script, "COMMANDS", ("weights",))
    assert script.main(["--against", str(ROOT), "--pairs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = [ln for ln in out if ln.startswith("| ")]
    assert len(rows) == 2  # header and weights
    cells = [c.strip() for c in rows[1].strip("|").split("|")]
    assert cells[0] == "weights"
    assert float(cells[1]) > 0 and float(cells[2]) > 0
    assert cells[3] in ("0/2", "1/2", "2/2")
    # an interpreter with numpy loaded holds well over 10 MiB
    assert float(cells[4]) > 10 and float(cells[5]) > 10
    assert out[0].startswith(f"config {ROOT / 'configs' / 'quick.json'},")

    # --config reaches every call: the headline config runs and is named in
    # the header, a config that `landau` rejects (exit 2) stops the script,
    # and a missing file is a usage error
    monkeypatch.setattr(script, "COMMANDS", ("toeplitz",))
    headline = ROOT / "configs" / "headline.json"
    assert script.main(["--against", str(ROOT), "--pairs", "1",
                        "--config", str(headline)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"config {headline},")
    assert [ln.split("|")[1].strip() for ln in out
            if ln.startswith("| ")] == ["command", "toeplitz"]
    with pytest.raises(SystemExit, match="toeplitz on .* exited 2"):
        script.main(["--against", str(ROOT), "--pairs", "1",
                     "--config", str(ROOT / "configs" / "bad_beta.json")])
    with pytest.raises(SystemExit):
        script.main(["--against", str(ROOT), "--config",
                     str(ROOT / "configs" / "missing.json")])
    assert "no config file" in capsys.readouterr().err


def test_compare_artifacts(tmp_path, monkeypatch, capsys):
    # two runs of the same calls compare equal; a float changed in one CSV
    # is listed with its largest absolute and relative difference.  The
    # script runs three quick calls instead of its full list.
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    script = load_script("compare_artifacts.py")
    quick = json.loads((ROOT / "configs" / "quick.json").read_text())
    monkeypatch.setattr(script, "calls", lambda: [
        (command, script.workloads.Call(command, quick))
        for command in ("weights", "toeplitz", "spectrum")])
    first, second, third = (str(tmp_path / name) for name in "abc")
    assert script.main([first]) == 0
    assert script.main([second, "--against", first]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(" 0 differ")

    csv = tmp_path / "a" / "weights" / "weights_q1_+.csv"
    lines = csv.read_text().splitlines(keepends=True)
    lam, old = lines[2].rstrip("\n").split(",")
    new = float(old) * (1.0 + 1e-6)
    lines[2] = f"{lam},{new!r}\n"
    csv.write_text("".join(lines))
    assert script.main([third, "--against", first]) == 1
    out = capsys.readouterr().out.splitlines()
    err = abs(new - float(old))
    rel = err / max(abs(new), abs(float(old)))
    assert "differs: weights/weights_q1_+.csv" in out
    assert f"  E_measure: max abs {err:.3g}, max rel {rel:.3g}" in out
    assert out[-1].endswith(" 1 differ")

    # a dropped row is listed by the row counts alone: the rows after it
    # are not compared with their neighbours by position
    lines = csv.read_text().splitlines(keepends=True)
    del lines[3]
    csv.write_text("".join(lines))
    fourth = str(tmp_path / "d")
    assert script.main([fourth, "--against", first]) == 1
    out = capsys.readouterr().out.splitlines()
    rows = len(lines) - 2  # the comment and the column header
    assert "differs: weights/weights_q1_+.csv" in out
    assert not any(line.startswith("  E_measure:") for line in out)
    assert (f"  weights/weights_q1_+.csv: rows: 1 (first {rows} -> "
            f"{rows + 1})") in out
    assert out[-1].endswith(" 1 differ")

    # the rows of a spectrum pair up by their label (m, n): two swapped
    # rows differ in bytes only, and a dropped row is a label on one side
    spectrum = tmp_path / "a" / "spectrum" / "spectrum_pauli_minus.csv"
    lines = spectrum.read_text().splitlines(keepends=True)
    lines[2], lines[3] = lines[3], lines[2]
    spectrum.write_text("".join(lines))
    assert script.main([str(tmp_path / "e"), "--against", first]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "differs: spectrum/spectrum_pauli_minus.csv" in out
    assert not any(line.startswith("  spectrum/") for line in out)
    assert out[-1].endswith(" 2 differ")
    m, n = lines[4].split(",")[:2]
    del lines[4]
    spectrum.write_text("".join(lines))
    assert script.main([str(tmp_path / "f"), "--against", first]) == 1
    out = capsys.readouterr().out.splitlines()
    assert (f"  spectrum/spectrum_pauli_minus.csv: labels only in OUT: 1 "
            f"(first ({m}, {n}))") in out
    assert not any(line.startswith("  E:") for line in out)


def test_compare_artifacts_json_lists(monkeypatch):
    # JSON lists of different lengths are listed by their lengths alone,
    # like CSVs with different row counts: a dropped element changes no value
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    script = load_script("compare_artifacts.py")
    diff = script.FileDiff()
    script._diff_json({"e": [1.0, 2.0, 3.0]}, {"e": [2.0, 3.0]}, diff)
    assert diff.floats == {}
    assert diff.other == {"e[]": [1, "length 3 -> 2"]}
