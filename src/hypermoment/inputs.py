"""Readers of outside input: files (state and config JSON, whose state
documents state.state_from_doc parses) and argv (--dir, --scan, the
tolerances, the --dir token join). Malformed input raises ValueError
(argparse.ArgumentTypeError for a tolerance) with a one-line message, which
the command line reports with exit status 1."""

from __future__ import annotations

import argparse
import json
import math

import numpy as np

from .solver import Grid1D, SimulationConfig
from .state import CollisionModel, MomentState, _integer, _number, state_from_doc


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
    try:
        return state_from_doc({"D": D, "M": M, **sdoc})
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def load_sim_config(path: str):
    """(config, left, right, kin) of a simulation config file; kin holds the
    keyword arguments n_v and K of the kinetic reference."""
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
    k = field(doc, "kinetic", "config", dict, {})
    kin = {"n_v": field(k, "n_v", "kinetic", int, 64), "K": field(k, "K", "kinetic", float, 6.0)}
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
