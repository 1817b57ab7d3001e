"""The benchmark's own output checks pass on today's artifacts.

perfbench/workloads.py checks every operation's artifacts (exit codes,
table invariants, the Toeplitz CSV's symmetry) and the benchmark counts an
operation whose check reports a problem as failed.  Running two of its
scenarios here makes an artifact-format change that those checks reject
fail in the suite first, and every config the benchmark generates must
load, so a config check that rejects one of them fails here rather than
as failed benchmark operations.  The module is loaded from its file
without writing bytecode next to it.
"""

import json
from pathlib import Path

import pytest

from conftest import load_perfbench
from landau import cli
from landau.errors import ConfigError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

workloads = load_perfbench("workloads")


@pytest.mark.parametrize("scenario", [
    workloads.WARMUP,  # all five commands on the quick mesh
    workloads.zero_modes(0)[0],  # weights, toeplitz, identities at m <= 60
], ids=lambda sc: sc.name)
def test_scenario_checks_pass(scenario, tmp_path):
    paths = workloads.write_configs(scenario, str(tmp_path / "config"))
    results = workloads.run_scenario(cli, scenario, paths, str(tmp_path))
    problems, outcomes = workloads.check_scenario(results)
    assert problems == []
    assert [o["command"] for o in outcomes] == [
        c.command for c in scenario.calls]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generated_configs_load(workload, tmp_path):
    scenarios = [workloads.WARMUP] + [
        sc for seed in range(3) for sc in workloads.WORKLOADS[workload](seed)]
    for scenario in scenarios:
        for call in scenario.calls:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(call.config))
            q = None if call.q is None else ",".join(map(str, call.q))
            assert cli.load_config(str(path), q).q_list == call.q_list


def test_shipped_configs_load():
    for path in sorted(CONFIGS.glob("*.json")):
        if path.name == "bad_beta.json":
            with pytest.raises(ConfigError, match="beta < -2"):
                cli.load_config(str(path))
        else:
            cli.load_config(str(path))


def test_work_bound_margin(monkeypatch, tmp_path):
    # the largest shipped load (6000 cells x 338 channels, and the
    # zero-modes bases of up to 63 modes x 5 ladder levels) sits about 50
    # times under the work bound: every config still loads at a 40th of it
    monkeypatch.setattr(cli, "MAX_WORK", cli.MAX_WORK / 40)
    test_shipped_configs_load()
    for workload in workloads.WORKLOADS:
        test_generated_configs_load(workload, tmp_path)
