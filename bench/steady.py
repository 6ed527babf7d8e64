"""Steadiness check: two sets of benchmark runs, taken apart in time.

    python3 bench/steady.py

Runs every workload of BENCHMARK.json on ten seeds, in two sets with a pause
of a minute between them. Each run is a fresh ``run.py`` process with its
own seed; within a set the workloads take turns, so each workload's runs
spread over the whole set. For every end-to-end metric and workload the
script prints each set's median and quartiles
(``statistics.quantiles(values, n=4)``), the quartile spread as a share of
the median, the shift of the second median from the first, and the bound
from BENCHMARK.json. A spread or a shift in either direction above the
bound, or a share of failed ops that differs between the sets, is marked
FAIL. All runs are saved under ``bench/results/``.
"""

from __future__ import annotations

import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

SETS = 2
RUNS = 10  # seeds per workload and set
GAP_S = 60.0  # pause between the sets


def _one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    took = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out.update(workload=workload, seed=seed, took_s=took)
    return out


def _summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    # on SIGTERM unwind, so that the running run.py is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    runs = []
    for k in range(SETS):
        if k:
            time.sleep(GAP_S)
        for r in range(RUNS):
            for w in workloads:
                res = _one_run(w, 1000 * (k + 1) + r, spec["run_seconds"])
                res["set"] = k
                runs.append(res)
                figures = ", ".join(f"{m} {v['value']:.4f}" for m, v in res["metrics"].items())
                print(f"set {k + 1} {w} seed {res['seed']}: {figures}"
                      f" ({res['attempted']} ops, {res['failed']} failed, {res['took_s']:.0f} s)",
                      flush=True)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps(runs, indent=1))

    ok = True
    print(f"\n{'workload':11s} {'metric':12s} {'bound':>6s}  "
          + "  ".join(f"set {k + 1}: median [q1, q3] spread" for k in range(SETS))
          + "  shift")
    for w in workloads:
        sets = [[r for r in runs if r["workload"] == w and r["set"] == k] for k in range(SETS)]
        shares = {sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets}
        if len(shares) > 1 or not all(r["correct"] for s in sets for r in s):
            ok = False
            print(f"{w}: FAIL failed-op shares {sorted(shares)} or an incorrect run")
        for m in spec["end_to_end"]:
            cells, meds = [], []
            for s in sets:
                med, q1, q3, spread = _summary([r["metrics"][m["name"]]["value"] for r in s])
                meds.append(med)
                bad = spread > m["bound"]
                ok &= not bad
                cells.append(f"{med:.4f} [{q1:.4f}, {q3:.4f}] {spread:6.1%}{' FAIL' if bad else ''}")
            shift = (meds[1] - meds[0]) / meds[0]
            bad = abs(shift) > m["bound"]
            ok &= not bad
            print(f"{w:11s} {m['name']:12s} {m['bound']:6.0%}  " + "  ".join(cells)
                  + f"  {shift:+.1%}{' FAIL' if bad else ''}")
    print(f"\nruns saved to {out.relative_to(ROOT)}; {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
