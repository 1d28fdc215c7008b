"""Repeat the benchmark over seeds and report each metric's run-to-run spread.

Run from the repository root:

    python3 perfbench/spread.py --seeds 10                  # every workload
    python3 perfbench/spread.py --seeds 5 --workloads soliton_orbit
    python3 perfbench/spread.py --seeds 10 --trace --write perfbench/baseline.json
    python3 perfbench/spread.py --seeds 10 --against perfbench/baseline.json

For each workload it runs perfbench/run.py once per seed 1..N, one run at a
time, each for BENCHMARK.json's run_seconds, and prints each end-to-end
metric's median, quartiles and spread: the distance between the first and
third quartile as a share of the median.  A spread should stay below a third
of the metric's bound.  --against adds the shift of each median against an
earlier report; a shift for the worse beyond the bound fails.  --trace adds
one traced run per seed and prints each work count's values over the seeds.
--write stores everything as a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import COUNTS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """(result, env, elapsed seconds) of one benchmark run."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
    return json.loads(lines[-1]), env, elapsed


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--against", type=Path, default=None)
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args(argv)

    seconds = declared["run_seconds"]
    seeds = list(range(1, args.seeds + 1))
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    earlier = (json.loads(args.against.read_text(encoding="utf-8"))["workloads"]
               if args.against else {})
    report = {"run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        results, elapsed = [], []
        for seed in seeds:
            result, env, took = run(workload, seed, seconds, 0)
            results.append(result)
            elapsed.append(took)
            report["env"] = env
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} took {took:.1f} s " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        entry = {"seeds": seeds, "correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "run_elapsed_s": elapsed, "end_to_end": {}}
        ok &= entry["correct"] and entry["failed"] == 0
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {
                "unit": results[0]["metrics"][name]["unit"], "median": median, "q1": q1,
                "q3": q3, "spread": spread, "bound": bound, "values": values}
            steady = spread < bound / 3.0
            ok &= steady
            line = (f"  {name:12s} median {median:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                    f"spread {spread:.4f}  bound/3 {bound / 3:.4f}  {'ok' if steady else 'WIDE'}")
            if workload in earlier:
                shift = median / earlier[workload]["end_to_end"][name]["median"] - 1.0
                entry["end_to_end"][name]["shift"] = shift
                worse = shift if better[name] == "lower" else -shift
                ok &= worse <= bound
                line += f"  shift {shift:+.4f}{'' if worse <= bound else ' WORSE'}"
            print(line, flush=True)
        if args.trace:
            tables = {}
            for seed in seeds:
                result, _env, _took = run(workload, seed, seconds, 1)
                ok &= result["correct"]
                tables[seed] = {k: v["value"] for k, v in result["metrics"].items()}
            entry["per_layer"] = tables
            for name in COUNTS:
                values = sorted({t[name] for t in tables.values()})
                print(f"  {name:32s} over seeds: {values}", flush=True)
        report["workloads"][workload] = entry
    if args.write:
        args.write.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
