"""Benchmark of hypermoment: the moment solver, the wave analysis and the
Hermite root scan.

    python3 bench/run.py --workload tube-m6 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the root of a source checkout; nothing is installed, the program is
imported from ``src/``. Each run makes its inputs from the seed, measures
set-up in fresh processes, runs the workload's op in a closed loop (one
process, one caller, each op starting when the previous one ends) for the
given number of seconds, checks every op's output, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Times are rescaled to a reference machine speed
by ``calib.py``. See README.md.
"""

from __future__ import annotations

import os

# pin the BLAS and OpenMP pools before numpy is imported here or in a worker
THREAD_PINS = {
    key: "1"
    for key in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "HYPERMOMENT_THREADS",
    )
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calib import Sampler  # noqa: E402
from tracing import TARGETS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"

SETUP_SAMPLES = 5
READY_TIMEOUT_S = 60.0
# the last op may start just before the window closes; roots-200 ops take
# up to ~16 s on a slow machine
DRAIN_TIMEOUT_S = 100.0


def machine_facts() -> str:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {numpy.__version__},"
        f" scipy {scipy.__version__}, BLAS {blas.get('name')} {blas.get('version')}"
    )


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """A worker process started on the plan in ``work``."""

    def __init__(self, work: Path, seconds: float, trace: bool, setup_only: bool):
        cmd = [sys.executable, str(BENCH / "worker.py"), "--plan", str(work / "plan.json"),
               "--seconds", repr(seconds)]
        if trace:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        self.err_path = work / f"worker-{time.monotonic_ns()}.err"
        self._err = open(self.err_path, "w")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._err, env=_child_env(), cwd=ROOT, text=True
        )

    def wait_ready(self) -> float:
        """Block until the worker has set up; returns its import time."""
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("ready "):
            self.fail("did not finish set-up")
        return float(line.split()[1])

    def wait(self, timeout: float) -> None:
        try:
            rc = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.fail(f"did not end within {timeout:.0f} s")
        if rc != 0:
            self.fail(f"exited with {rc}")

    def fail(self, what: str):
        self.close()
        raise RuntimeError(f"worker {what}:\n{self.err_path.read_text()[-2000:]}")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self._err.close()


def _timed_setup(work: Path, seconds: float, trace: bool, setup_only: bool):
    """Start a worker and time it from the spawn to its ready line.

    Returns (worker, scaled set-up seconds, scaled import seconds).
    """
    with Sampler() as sampler:
        w = Worker(work, seconds, trace, setup_only)
        try:
            import_s = w.wait_ready()
        except BaseException:
            w.close()
            raise
        t1 = time.perf_counter()
    # the parent samples the machine on its own core while the worker sets up
    factor = sampler.scale(w.t0, t1)[1]
    return w, (t1 - w.t0) * factor, import_s * factor


def _layer_table(traced: list[dict]) -> dict:
    """Per-op figures of every traced name: calls (counts repeat exactly from
    op to op), median inclusive and self seconds, scaled like op_s, and the
    median inclusive and self time as a share (%) of the op's ``cli.run`` time."""
    med = statistics.median
    table = {}
    for name in TARGETS:
        # (calls, inclusive, self) per op; the op's own time is cli.run's inclusive time
        per_op = [(r["trace"][name], r["trace"]["cli.run"][1], r["factor"]) for r in traced]
        table[name] = {
            "calls": statistics.median_low([st[0] for st, _, _ in per_op]),
            "s": med([st[1] * f for st, _, f in per_op]),
            "self_s": med([st[2] * f for st, _, f in per_op]),
            "share": med([100 * st[1] / op for st, op, _ in per_op]),
            "self_share": med([100 * st[2] / op for st, op, _ in per_op]),
        }
    steps = statistics.median_low([r["trace"]["solver.cell_steps"] for r in traced])
    table["solver.cell_steps"] = steps
    table["solver.cell_step_us"] = (
        med([r["trace"]["solver.step"][1] * r["factor"] / r["trace"]["solver.cell_steps"] * 1e6
             for r in traced])
        if steps
        else None
    )
    return table


def _measure(work: Path, seconds: float, trace: bool) -> tuple[list[float], float, dict]:
    """Set-up samples, the worker's import time and the worker's result."""
    # untimed first start: compiles bytecode and fills the page cache
    w = Worker(work, seconds, False, True)
    try:
        w.wait_ready()
        w.wait(READY_TIMEOUT_S)
    finally:
        w.close()
    setups = []
    for _ in range(0 if trace else SETUP_SAMPLES - 1):
        w, setup_s, _ = _timed_setup(work, seconds, False, True)
        try:
            w.wait(READY_TIMEOUT_S)
        finally:
            w.close()
        setups.append(setup_s)
    w, setup_s, import_s = _timed_setup(work, seconds, trace, False)
    try:
        w.wait(seconds + DRAIN_TIMEOUT_S)
    finally:
        w.close()
    setups.append(setup_s)
    return setups, import_s, json.loads((work / "result.json").read_text())


def _check_ops(name: str, workload, work: Path, ops: list[dict]) -> tuple[int, int]:
    """(failed, incorrect): an op fails when a command exits non-zero or its
    output fails a check; only the latter makes it incorrect."""
    failed, incorrect, report = 0, 0, []
    for i, rec in enumerate(ops):
        if any(rc != 0 for rc in rec["rcs"]):
            failed += 1
            report.append(f"op {i} exited {rec['rcs']}: {rec['stderr'][-500:]}")
            continue
        try:
            problems = workload.check(work, i, rec)
        except Exception as e:  # unreadable output fails the op's check
            problems = [f"{type(e).__name__}: {e}"]
        if problems:
            failed += 1
            incorrect += 1
            report.append(f"op {i}: " + "; ".join(problems))
    for line in report[:5]:
        print(f"FAILED {name} {line}", file=sys.stderr)
    return failed, incorrect


def _scaled(recs: list[dict]) -> float:
    return statistics.median(r["net"] * r["factor"] for r in recs)


def _per_layer(name: str, seed: int, result: dict, import_s: float) -> dict:
    table = _layer_table(result["traced"])
    traced_op_s, untraced_op_s = _scaled(result["traced"]), _scaled(result["untraced"])
    print(f"# per op, times scaled (absent: {', '.join(result['absent']) or 'none'})")
    print(f"#   {'name':36s} {'calls':>9s} {'s':>10s} {'self_s':>10s} {'share':>7s} {'self':>7s}")
    for key, row in table.items():
        if isinstance(row, dict):
            print(f"#   {key:36s} {row['calls']:9d} {row['s']:10.5f} {row['self_s']:10.5f}"
                  f" {row['share']:6.2f}% {row['self_share']:6.2f}%")
        else:
            print(f"#   {key:36s} {row}")
    print(
        f"# traced op_s {traced_op_s:.4f} s against untraced {untraced_op_s:.4f} s:"
        f" tracing overhead {100 * (traced_op_s / untraced_op_s - 1):.1f}%"
    )
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"trace-{name}-{seed}.json").write_text(
        json.dumps(
            {"workload": name, "seed": seed, "absent": result["absent"], "import_s": import_s,
             "op_s": untraced_op_s, "trace.op_s": traced_op_s, "layers": table},
            indent=1,
        )
    )
    # seconds only for cli.run, which every op calls: a layer a workload never
    # calls would report a time of exactly 0.0 s on every run of it, so the
    # other names carry their time as a share of the op
    metrics = {}
    for key in TARGETS:
        metrics[f"{key}.calls"] = (table[key]["calls"], "count")
        if key != "cli.run":
            metrics[f"{key}.share"] = (table[key]["share"], "%")
    metrics.update(
        {
            "solver.step.self_share": (table["solver.step"]["self_share"], "%"),
            "solver.cell_steps": (table["solver.cell_steps"], "count"),
            "cli.run.s": (table["cli.run"]["s"], "s"),
            "cli.run.self_s": (table["cli.run"]["self_s"], "s"),
            "import_s": (import_s, "s"),
            "trace.op_s": (traced_op_s, "s"),
            "trace.untraced_op_s": (untraced_op_s, "s"),
        }
    )
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name](seed)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = workload.prepare(work)
        (work / "plan.json").write_text(json.dumps(plan))
        setups, import_s, result = _measure(work, seconds, trace)
        ops = result["untraced"] + result["traced"]
        failed, incorrect = _check_ops(name, workload, work, ops)

        untraced = result["untraced"]
        raw = statistics.median(r["t1"] - r["t0"] for r in untraced)
        print(
            f"# {name} seed {seed}: {len(untraced)} untraced ops, op wall median {raw:.4f} s,"
            f" speed factor median {statistics.median(r['factor'] for r in untraced):.3f},"
            f" scaled op_s {_scaled(untraced):.4f} s; set-up samples {[round(s, 4) for s in setups]}"
        )
        if trace:
            metrics = _per_layer(name, seed, result, import_s)
        else:
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "op_s": (_scaled(untraced), "s"),
                "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            }
        return {
            "correct": incorrect == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_all(seed: int, seconds: float, trace: int) -> int:
    print(f"# {machine_facts()}")
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", repr(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"{name}: benchmark failed ({proc.returncode})", file=sys.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print()
    for name, res in rows:
        figures = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{name:11s} attempted {res['attempted']}, failed {res['failed']},"
              f" correct {res['correct']}: {figures}")
    return 0 if all(res["correct"] and not res["failed"] for _, res in rows) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="tube-m6, waves-d2m4, roots-200 or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind through the finally blocks that stop the workers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "hypermoment" / "__init__.py").is_file():
        print(f"no hypermoment sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        return _run_all(args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
