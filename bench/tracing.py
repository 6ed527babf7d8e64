"""Per-layer call counts and times for the traced benchmark run.

Each public function named in ``TARGETS`` is replaced by a timing wrapper in
every ``hypermoment`` module that binds it, so calls made through
``from .x import f`` are counted as well. Methods are wrapped on their
class. A name the program no longer has is reported as absent.

For each wrapped name the tracer keeps the number of calls, the inclusive
time (outermost activation only, so recursion is not counted twice) and the
self time (inclusive time minus the time of wrapped calls made directly
inside it).
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "hypermoment"

# metric name -> (module of hypermoment, attribute path inside it)
TARGETS = {
    "index.rank0": ("index", "IndexSet.rank0"),
    "state.MomentState": ("state", "MomentState.__init__"),
    "state.moment_table": ("state", "moment_table"),
    "state.to_conserved": ("state", "to_conserved"),
    "state.from_conserved": ("state", "from_conserved"),
    "state.from_w": ("state", "MomentState.from_w"),
    "state.collision_coeffs": ("state", "collision_coeffs"),
    "assembly.assemble": ("assembly", "assemble"),
    "assembly.regularization_correction": ("assembly", "regularization_correction"),
    "assembly.source": ("assembly", "source"),
    "spectral.block_eigenvector": ("spectral", "block_eigenvector"),
    "spectral.prolong": ("spectral", "prolong"),
    "spectral.spectrum_regularized": ("spectral", "spectrum_regularized"),
    "spectral.rotation_spectrum_check": ("spectral", "rotation_spectrum_check"),
    "hermite.he_roots": ("hermite", "he_roots"),
    "hermite.common_zero_scan": ("hermite", "common_zero_scan"),
    "riemann.rarefaction_curve": ("riemann", "rarefaction_curve"),
    "riemann.shock_check": ("riemann", "shock_check"),
    "riemann.classify_field": ("riemann", "classify_field"),
    "solver.step": ("solver", "step"),
    "solver.max_signal_speed": ("solver", "max_signal_speed"),
    "solver.interface_state": ("solver", "interface_state"),
    "cli.run": ("cli", "run"),
}


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in TARGETS}  # calls, incl, self
        self.cell_steps = 0
        self.absent: list[str] = []
        self._children: list[float] = []  # wrapped time inside each open frame
        self._depth = dict.fromkeys(TARGETS, 0)

    def reset(self):
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        self.cell_steps = 0

    def _wrap(self, name: str, fn):
        st = self.stats[name]
        depth = self._depth
        children = self._children
        perf = time.perf_counter
        is_step = name == "solver.step"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            st[0] += 1
            if is_step:
                self.cell_steps += len(args[0])
            depth[name] += 1
            children.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                inner = children.pop()
                depth[name] -= 1
                if children:
                    children[-1] += dt
                if depth[name] == 0:
                    st[1] += dt
                st[2] += dt - inner

        return timed

    def install(self):
        mods = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name, (modname, path) in TARGETS.items():
            mod = sys.modules.get(f"{PACKAGE}.{modname}")
            owner = mod
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None:
                self.absent.append(name)
                continue
            if isinstance(owner, type):
                raw = owner.__dict__.get(attr)
                if raw is None:
                    self.absent.append(name)
                elif isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self._wrap(name, raw))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            timed = self._wrap(name, fn)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, timed)

    def snapshot(self) -> dict:
        out = {name: list(st) for name, st in self.stats.items()}
        out["solver.cell_steps"] = self.cell_steps
        return out
