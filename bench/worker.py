"""One workload process: set-up, then a closed loop of timed ops.

    python3 bench/worker.py --plan WORKDIR/plan.json --seconds T [--trace] [--setup-only]

Set-up is the import of ``hypermoment`` and the warm-up commands of the
plan; the worker then prints ``ready <import seconds>`` on stdout. Unless
``--setup-only`` is given it runs the op of the plan back to back, each op
starting when the previous one has ended, until T seconds have passed, and
writes ``result.json`` next to the plan. With ``--trace`` the first half of
the window runs untraced and the second half under ``tracing.Tracer``.
Started by ``run.py``, which sets the environment (thread pins, PYTHONPATH).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(cli, argv) -> int:
    try:
        return cli.run(argv)
    except Exception:  # an op that escapes cli.run counts as failed, the loop goes on
        traceback.print_exc()
        return -1


def _loop(cli, op, seconds: float, first: int = 0, tracer=None) -> list[dict]:
    from calib import Sampler  # imports numpy, so only after the timed import

    records = []
    with Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            i = first + len(records)
            argvs = [[a.replace("{i}", str(i)) for a in argv] for argv in op]
            if tracer is not None:
                tracer.reset()
            err = io.StringIO()
            t0 = time.perf_counter()
            with redirect_stderr(err):
                rcs = [_run(cli, argv) for argv in argvs]
            t1 = time.perf_counter()
            records.append(
                {
                    "t0": t0,
                    "t1": t1,
                    "rcs": rcs,
                    "stderr": err.getvalue(),
                    "trace": tracer.snapshot() if tracer is not None else None,
                }
            )
    for rec in records:
        rec["net"], rec["factor"] = sampler.scale(rec["t0"], rec["t1"])
    return records


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import hypermoment
    from hypermoment import cli

    import_s = time.perf_counter() - t0
    if Path(hypermoment.__file__).resolve().parent.parent != SRC:
        print(f"imported hypermoment from {hypermoment.__file__}, not {SRC}", file=sys.stderr)
        return 3

    plan_path = Path(args.plan).resolve()
    plan = json.loads(plan_path.read_text())
    os.chdir(plan_path.parent)
    for argv in plan["warmup"]:
        err = io.StringIO()
        with redirect_stderr(err):
            rc = _run(cli, argv)
        if rc != 0:
            print(f"warm-up {argv} failed ({rc}): {err.getvalue()}", file=sys.stderr)
            return 3
    print(f"ready {import_s!r}", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        from tracing import Tracer

        untraced = _loop(cli, plan["op"], args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        traced = _loop(cli, plan["op"], args.seconds / 2, len(untraced), tracer)
        absent = tracer.absent
    else:
        untraced, traced, absent = _loop(cli, plan["op"], args.seconds), [], []
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "import_s": import_s,
        "peak_rss_mb": peak_mb,
        "untraced": untraced,
        "traced": traced,
        "absent": absent,
    }
    (plan_path.parent / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
