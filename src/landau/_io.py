"""Deterministic CSV/JSON emission shared by the CLI commands."""

import hashlib
import json
import os

import numpy as np


def config_hash(raw):
    """Short stable hash of the raw config dict."""
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# formatter by exact type; every other type is written with str
_BY_TYPE = {float: repr, np.float64: lambda x: repr(float(x)), int: str,
            np.int64: str}


def _fmt(x):
    return _BY_TYPE.get(type(x), str)(x)


def write_csv(path, columns, rows, meta):
    """CSV with one leading comment line carrying provenance key=values."""
    head = " ".join(f"{k}={_fmt(v)}" for k, v in meta.items())
    lines = [f"# {head}", ",".join(columns)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
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
