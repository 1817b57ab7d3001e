"""Deterministic CSV/JSON emission shared by the CLI commands."""

import hashlib
import json
import os

import numpy as np


def config_hash(raw):
    """Short stable hash of the raw config dict."""
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _flag(x):
    return "1" if x else "0"


# formatter by exact type for the common cells, a dict lookup instead of
# the isinstance chain below, which every other type goes through
_BY_TYPE = {float: repr, np.float64: lambda x: repr(float(x)), int: str,
            np.int64: str, bool: _flag, np.bool_: _flag}


def _fmt(x):
    by_type = _BY_TYPE.get(type(x))
    if by_type is not None:
        return by_type(x)
    if isinstance(x, (bool, np.bool_)):
        return _flag(x)
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def write_csv(path, columns, rows, meta):
    """CSV with one leading comment line carrying provenance key=values."""
    head = " ".join(f"{k}={_fmt(v)}" for k, v in meta.items())
    lines = [f"# {head}", ",".join(columns)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path
