"""The benchmark's own output checks pass on today's artifacts.

perfbench/workloads.py checks every operation's artifacts (exit codes,
table invariants, the Toeplitz CSV's symmetry) and the benchmark counts an
operation whose check reports a problem as failed.  Running two of its
scenarios here makes an artifact-format change that those checks reject
fail in the suite first.  The module is loaded from its file without
writing bytecode next to it.
"""

import pytest

from conftest import load_perfbench
from landau import cli

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
