"""Every config ends in a typed exit.

One field of configs/quick.json at a time is replaced by a value of another
type or by an extreme finite number, and `weights`, `toeplitz` and
`identities` run in-process on the result.  Each must exit 0, 2 (config
error) or 3 (numeric failure), a non-zero exit with one line on stderr;
an exception escaping `main` fails the test with its traceback.  The solve
commands `spectrum` and `verify` run on the values that keep the work near
quick's, since the work bound keeps their runtime finite, not short;
`verify` may also exit 1 (verification failure), with one stderr line or,
for a failed check, none.  No artifact of an exit 0 or 1 holds a
non-finite number, but the ratio N / E of a counting row with E = 0, the
0 / 0 written nan; a numpy warning fails the test, as everywhere in the
suite.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from landau.cli import main

QUICK = json.loads((Path(__file__).resolve().parent.parent / "configs"
                    / "quick.json").read_text())
MAX = sys.float_info.max
# four gaussians at r = 8 of amplitude +-1e308: each term is finite, their
# sum is not
OVERFLOW_FIELD = {"terms": [
    {"kind": "gaussian", "amp": amp, "center": 8.0, "width": 2.0}
    for amp in (1e308, 1e308, -1e308, -1e308)]}


def _paths(node, prefix=()):
    """The key path of every object, list and leaf below a JSON node."""
    if prefix:
        yield prefix
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


# every field of quick.json, and two it leaves at their defaults
PATHS = [*_paths(QUICK), ("basis_m_max",), ("b", "terms", 0, "sign")]
VALUES = [0, -1, 2, 170, 1000, 10 ** 6, 2 ** 63, 10 ** 400, -0.0, 1.5, 3e-5,
          5e-324, 1e-300, -1e-300, 1e300, MAX, -MAX,
          True, None, "x", [], ["x"], [MAX], {}, {"kind": "power"}]


def _with(path, value):
    """quick.json with the field at `path` set to `value`."""
    config = json.loads(json.dumps(QUICK))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


def _exit(work, command):
    """main's exit code for command on work/config.json, and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([command, "--config", str(work / "config.json"),
                     "--out", str(work / command)])
    # a failed verdict (exit 1) prints its checks on stdout alone; every
    # other non-zero exit explains itself in one stderr line
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 or (code == 1 and not lines), err.getvalue()
    if code in (0, 1):
        for artifact in (work / command).iterdir():
            text = artifact.read_text()
            if artifact.name.startswith("counting_q"):  # E = 0: ratio 0 / 0
                text = re.sub(r",0\.0,nan$", ",0.0,", text, flags=re.M)
            assert not re.search(r"\b(nan|inf|NaN|Infinity)\b", text), (
                command, artifact.name)
    return code, err.getvalue()


# the configs of the examples once crashed: a weight whose lambda table
# underflows, a C_q past the float range, and an r_max whose cell count
# overflows; the overflowing sums once exited 0 with inf and nan artifacts
@settings(max_examples=200, deadline=None, derandomize=True)
@given(path=st.sampled_from(PATHS), value=st.sampled_from(VALUES))
@example(path=("b", "terms", 0, "c"), value=5e-324)
@example(path=("q",), value=1000)
@example(path=("mesh", "r_max"), value=-MAX)
@example(path=("V",), value=OVERFLOW_FIELD)
@example(path=("b",), value=OVERFLOW_FIELD)
def test_every_config_ends_in_a_typed_exit(tmp_path_factory, path, value):
    work = tmp_path_factory.mktemp("config")
    (work / "config.json").write_text(json.dumps(_with(path, value)))
    for command in ("weights", "toeplitz", "identities"):
        code, err = _exit(work, command)
        assert code in (0, 2, 3), (command, err)


# values that keep the work near quick's in any field: no large count, and
# no step or radius that multiplies the mesh
SMALL_VALUES = [0, -1, 2, -0.0, 1.5, 5e-324, 1e-300, -1e-300, True, None,
                "x", [], ["x"], {}, {"kind": "power"}]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(path=st.sampled_from(PATHS), value=st.sampled_from(SMALL_VALUES))
@example(path=("V",), value=OVERFLOW_FIELD)
@example(path=("b",), value=OVERFLOW_FIELD)
def test_solve_commands_end_in_a_typed_exit(tmp_path_factory, path, value):
    work = tmp_path_factory.mktemp("config")
    (work / "config.json").write_text(json.dumps(_with(path, value)))
    for command, codes in (("spectrum", (0, 2, 3)), ("verify", (0, 1, 2, 3))):
        code, err = _exit(work, command)
        assert code in codes, (command, err)
