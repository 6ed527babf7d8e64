"""Readers of outside input: state and config JSON, --dir, --scan, the
tolerances, the --dir token join and HYPERMOMENT_THREADS. Malformed input
raises ValueError (argparse.ArgumentTypeError for a tolerance) with a
one-line message, which the command line reports with exit status 1."""

from __future__ import annotations

import argparse
import json
import math
import os

import numpy as np

from .solver import Grid1D, SimulationConfig
from .state import CollisionModel, MomentState


def _number(val, what: str) -> float:
    """float(val) of a JSON number field. Anything but an int or a float (a
    bool, a string, a list, an object) and an int past the float range raise
    TypeError."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise TypeError(f"{what} must be a number, got {json.dumps(val)}")
    try:
        return float(val)
    except OverflowError:
        raise TypeError(f"{what} must fit a float, got an integer of {val.bit_length()} bits") from None


def _integer(val, what: str) -> int:
    """int(val) of a JSON number field (see _number); a float must be whole,
    which rules out inf and NaN."""
    if not _number(val, what).is_integer():
        raise ValueError(f"{what} must be an integer, got {json.dumps(val)}")
    return int(val)


def _numbers(val, what: str):
    """_number of every entry of the nested lists val (u, p)."""
    return [_numbers(v, what) for v in val] if isinstance(val, list) else _number(val, what)


def field(doc, key: str, where: str, read=None, default=None):
    """doc[key] as read: int or float for a JSON number (a whole one for int),
    dict for a JSON object, None for any value; where names doc in messages.
    default stands in for an absent key, and no default makes the field
    required. A doc that is not an object, a missing required field and a
    value of the wrong type are bad input (ValueError)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    if default is None and key not in doc:
        raise ValueError(f"{where} is missing required field {key!r}")
    val = doc.get(key, default)
    what = f"{where} field {key!r}"
    if read is dict and not isinstance(val, dict):
        raise ValueError(f"{what} must be a JSON object")
    if read not in (int, float):
        return val
    try:
        return (_integer if read is int else _number)(val, what)
    except TypeError as e:
        raise ValueError(str(e)) from None


def state_from_doc(doc) -> MomentState:
    """State of a parsed state JSON document; every numeric field and every
    entry of u, p and f must be a JSON number."""
    if not (isinstance(doc, dict) and isinstance(doc.get("f", {}), dict)):
        raise ValueError("state JSON and its field 'f' must be objects")
    try:
        try:
            D, M = _integer(doc["D"], "'D'"), _integer(doc["M"], "'M'")
        except ValueError as e:  # not a whole number
            raise ValueError(f"state JSON field {e}") from None
        rho = _number(doc["rho"], "'rho'")
        u = _numbers(doc["u"], "'u' entry")
        p = _numbers(doc["p"], "'p' entry")
        f = {k: _number(v, f"'f' entry {k!r}") for k, v in doc.get("f", {}).items()}
        return MomentState(D=D, M=M, rho=rho, u=u, p=p, f=f)
    except KeyError as e:
        raise ValueError(f"state JSON missing field {e.args[0]!r}") from None
    except TypeError as e:
        raise ValueError(f"state JSON field has the wrong type: {e}") from None


def state_from_json(text: str) -> MomentState:
    return state_from_doc(json.loads(text))


def _load_json(path: str):
    """The parsed JSON file at path; a syntax error names the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: {e}") from None


def load_state(path: str) -> MomentState:
    return state_from_doc(_load_json(path))


def _config_state(doc: dict, name: str, D: int, M: int) -> MomentState:
    sdoc = field(doc, name, "config")
    where = f"{name} state"
    if (field(sdoc, "D", where, int, D), field(sdoc, "M", where, int, M)) != (D, M):
        raise ValueError(f"{where} dimensions must match the config (D={D}, M={M})")
    return state_from_doc({"D": D, "M": M, **sdoc})


def load_sim_config(path: str):
    doc = _load_json(path)
    D = field(doc, "D", "config", int)
    M = field(doc, "M", "config", int)
    g = field(doc, "grid", "config", dict)
    grid = Grid1D(
        nx=field(g, "nx", "grid", int),
        x_min=field(g, "x_min", "grid", float, 0.0),
        x_max=field(g, "x_max", "grid", float, 1.0),
        boundary=g.get("boundary", "copy"),
    )
    c = field(doc, "collision", "config", dict, {})
    model = CollisionModel(
        nu=field(c, "nu", "collision", float, 0.0),
        kind=c.get("kind", "bgk"),
        Pr=field(c, "Pr", "collision", float, 1.0),
    )
    config = SimulationConfig(
        D=D,
        M=M,
        grid=grid,
        t_end=field(doc, "t_end", "config", float),
        cfl=field(doc, "cfl", "config", float, 0.8),
        collision=model,
        n_snapshots=field(doc, "n_snapshots", "config", int, 2),
    )
    left = _config_state(doc, "left", D, M)
    right = _config_state(doc, "right", D, M)
    kin = field(doc, "kinetic", "config", dict, {})
    return config, left, right, kin


def parse_direction(text: str, D: int) -> np.ndarray:
    try:
        n = np.array([float(t) for t in text.split(",")], dtype=float)
    except ValueError:
        raise ValueError(f"direction must be comma-separated numbers, got {text!r}") from None
    if n.size != D:
        raise ValueError(f"direction needs {D} components, got {n.size}")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(n))
    if not math.isfinite(norm):
        raise ValueError(f"direction must be finite with a finite norm, got {text!r}")
    if norm == 0.0:
        raise ValueError("direction vector must be nonzero")
    return n / norm


def parse_scan(spec: str):
    name, eq, rng = spec.partition("=")
    parts = rng.split(":")
    if name != "f3" or not eq or len(parts) != 3:
        raise ValueError(f"scan must look like f3=start:stop:steps, got {spec!r}")
    try:
        a, b, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"scan must look like f3=start:stop:steps, got {spec!r}") from None
    if steps < 1:
        raise ValueError(f"scan needs at least one step, got {steps}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"scan bounds must be finite, got {spec!r}")
    return a, b, steps


def tolerance(text: str) -> float:
    """argparse type of a tolerance: a finite number >= 0."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance must be a number, got {text!r}") from None
    if not (math.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return tol


def join_vector_values(argv):
    """Rewrite '--dir -0.6,0.8' as '--dir=-0.6,0.8'. argparse takes a token
    that starts with '-' and is not a plain number for an option, so a
    direction with a negative first component needs the joined form."""
    out = []
    for tok in argv:
        if out and out[-1] == "--dir" and tok.startswith("-"):
            try:
                [float(t) for t in tok.split(",")]
            except ValueError:
                pass
            else:
                out[-1] = f"--dir={tok}"
                continue
        out.append(tok)
    return out


def check_threads_env() -> None:
    """Validate HYPERMOMENT_THREADS. The scan is one stacked eigensolve, so
    the value sizes nothing; a malformed one is still bad input."""
    raw = os.environ.get("HYPERMOMENT_THREADS")
    if raw is None or not raw.strip():
        return
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"HYPERMOMENT_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"HYPERMOMENT_THREADS must be >= 1, got {n}")
