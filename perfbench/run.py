"""Time-to-certified-result benchmark for the lognls experiment harness.

Run from the repository root:

    python3 perfbench/run.py --workload soliton_orbit --seed 1 --seconds 30 --trace 0

The program is imported from ./src (pure Python: nothing to compile).  One
process runs one workload as a closed loop with one client: a warm-up
iteration, then iterations back to back until --seconds have passed.  Every
iteration's artifacts are checked and hashed.  With --trace 0 the run reports
the end-to-end metrics; with --trace 1 it alternates untraced and traced
iterations and reports the per-layer table.  Metric names and units are the
ones BENCHMARK.json declares.  Each metric is printed on its own line with
its unit; the last line of standard output is the result as one JSON object.
Full results, spans and artifact hashes go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from tracer import COUNTS, Tracer, instrumented, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5
MIN_ITERATIONS = 4

# A fresh interpreter imports the CLI and validates the workload's configs,
# the work a user pays before the first numeric call of `lognls run`.
SETUP_SNIPPET = """
import json, sys
sys.path.insert(0, sys.argv[1])
import lognls.cli
with open(sys.argv[2], encoding="utf-8") as fh:
    configs = json.load(fh)
for config in configs:
    lognls.cli.validate_config(config)
"""


def cap_threads(nproc: int) -> dict:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return {var: int(os.environ[var]) for var in THREAD_VARS}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lognls").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(nproc: int, threads: dict) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": source_digest(),
        "thread_caps": threads,
    }


def write_setup_configs(jobs) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    configs = OUT / "setup_configs.json"
    configs.write_text(json.dumps([job.config for job in jobs]), encoding="utf-8")
    return configs


def set_up_once(configs: Path) -> float:
    """Seconds a fresh interpreter takes to import the CLI and validate the configs."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(configs)],
                          cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    took = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
    return took


def artifact_hashes(out_dir: Path) -> dict[str, str]:
    return {p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(values, n=4))


class Run:
    """One workload and seed: iterations, their checks, and the figures."""

    def __init__(self, cli, jobs, out_dir: Path):
        self.cli = cli
        self.jobs = jobs
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None    # artifact hashes of the first iteration
        self.samples: list[tuple[bool, float, float, dict | None]] = []
        self.spans: list[list] = []
        self.setup: list[float] = []    # set-up seconds, --trace 0 only

    def _execute(self, tracer):
        """Every job in order; returns (wall, cpu, [(exit code, summary)])."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        results = []
        with instrumented(tracer) if tracer else nullcontext():
            cpu0, t0 = time.process_time(), time.perf_counter()
            root = tracer.begin("op") if tracer else None
            for job in self.jobs:
                entry = self.cli.run_config if job.entry == "run" else self.cli.run_sweep
                try:
                    code, summary = entry(job.config, str(self.out_dir / job.name))
                except Exception:
                    code, summary = None, {"pass": False, "exception": traceback.format_exc()}
                results.append((code, summary))
            if tracer:
                tracer.end(root)
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        return wall, cpu, results

    def iterate(self, traced: bool):
        from workloads import check_job     # imports numpy: only after cap_threads

        tracer = Tracer() if traced else None
        wall, cpu, results = self._execute(tracer)
        hashes = artifact_hashes(self.out_dir)
        if self.reference is None:
            self.reference = hashes
        for job, (code, summary) in zip(self.jobs, results):
            failures = check_job(self.out_dir / job.name, job, code, summary)
            if hashes != self.reference:
                failures.setdefault(0, []).append("artifacts differ from the first iteration")
            self.attempted += job.units
            self.failed += len(failures)
            self.problems.extend(f"{job.name}: {msg}" for msgs in failures.values()
                                 for msg in msgs)
        table = None
        if tracer:
            table = layer_metrics(tracer.spans)
            table["cli.bytes_written"] = sum((self.out_dir / p).stat().st_size for p in hashes)
            t0 = tracer.spans[0].start
            self.spans.append([[s.name, s.start - t0, s.end - t0, s.parent, s.attrs]
                               for s in tracer.spans])
        return wall, cpu, table

    def measure(self, seconds: float, trace: bool, setup_configs: Path | None):
        """Warm-up, then iterations for `seconds`.  With `setup_configs`, set-up is
        timed SETUP_RUNS times at even points of the run, between iterations and
        outside the measured time, so its samples see the same host as they do."""
        self.iterate(False)       # warm-up: caches, lazy imports, reference hashes
        start = time.perf_counter()
        paused = 0.0
        while len(self.samples) < MIN_ITERATIONS or time.perf_counter() - start - paused < seconds:
            measured = time.perf_counter() - start - paused
            setup_left = setup_configs and len(self.setup) < SETUP_RUNS
            if setup_left and measured >= len(self.setup) * seconds / SETUP_RUNS:
                t0 = time.perf_counter()
                self.setup.append(set_up_once(setup_configs))
                paused += time.perf_counter() - t0
                continue
            traced = trace and len(self.samples) % 2 == 1
            self.samples.append((traced,) + self.iterate(traced))
        while setup_configs and len(self.setup) < SETUP_RUNS:
            self.setup.append(set_up_once(setup_configs))

    def check_reproducible(self, workload: str, seed: int, source: str):
        """Compare with the artifacts of an earlier run of these configs and source."""
        record = OUT / "hashes" / f"{workload}-seed{seed}.json"
        configs = [job.config for job in self.jobs]
        if record.exists():
            prior = json.loads(record.read_text(encoding="utf-8"))
            if (prior.get("source_sha256"), prior.get("configs")) == (source, configs) \
                    and prior["artifacts"] != self.reference:
                self.problems.append("artifacts differ from an earlier run of this seed")
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps({"source_sha256": source, "configs": configs,
                                      "artifacts": self.reference}, indent=1), encoding="utf-8")

    def layer_figures(self) -> dict:
        tables = [s[3] for s in self.samples if s[0]]
        figures = {}
        for name in tables[0]:
            values = [t[name] for t in tables]
            if name in COUNTS and len(set(values)) != 1:
                self.problems.append(f"count {name} differs between iterations: {values}")
            figures[name] = (statistics.median(values), quartiles(values))
        traced = statistics.median(s[1] for s in self.samples if s[0])
        untraced = statistics.median(s[1] for s in self.samples if not s[0])
        figures["trace.overhead_frac"] = (traced / untraced - 1.0, None)
        return figures

    def end_to_end_figures(self) -> dict:
        figures = {}
        for name, idx in (("wall_s", 1), ("cpu_s", 2)):
            values = [s[idx] for s in self.samples]
            figures[name] = (statistics.median(values), quartiles(values))
        figures["setup_s"] = (statistics.median(self.setup), quartiles(self.setup))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        figures["peak_rss_mb"] = (rss_mb, None)
        return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "lognls" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} lacks src/lognls or BENCHMARK.json; run from a full checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    threads = cap_threads(nproc)
    sys.path.insert(0, str(SRC))
    import lognls
    import lognls.cli as cli
    from workloads import GENERATORS

    if args.workload not in GENERATORS:
        parser.error(f"--workload must be one of {sorted(GENERATORS)}")
    if Path(lognls.__file__).resolve().parent != SRC / "lognls":
        print(f"perfbench: imported lognls from {lognls.__file__}, not {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    env = environment(nproc, threads)
    jobs = GENERATORS[args.workload](args.seed)

    run = Run(cli, jobs, OUT / args.workload / "iteration")
    run.measure(args.seconds, bool(args.trace), None if args.trace else write_setup_configs(jobs))
    run.check_reproducible(args.workload, args.seed, env["source_sha256"])
    figures = run.layer_figures() if args.trace else run.end_to_end_figures()
    if set(figures) != set(units):
        run.problems.append(f"metrics {sorted(set(figures) ^ set(units))} differ from "
                            "BENCHMARK.json")

    counted = sum(1 for s in run.samples if s[0] == bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(run.samples)} iterations measured, {counted} in the figures below")
    for name, (value, q) in figures.items():
        spread = f"  q1 {q[0]:.6g}  q3 {q[2]:.6g}" if q else ""
        print(f"  {name:32s} {value:14.6g} {units.get(name, '?')}{spread}")
    if run.setup:
        print(f"  {'setup_s samples':32s} {len(run.setup):14d}")
    print(f"  {'fail_frac':32s} {run.failed / run.attempted:14.6g} frac"
          f"  ({run.failed} of {run.attempted} operations)")
    for msg in run.problems:
        print(f"  problem: {msg}")
    print("env " + json.dumps(env, sort_keys=True))
    print("artifacts " + json.dumps(run.reference, sort_keys=True))

    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "jobs": [job.config for job in jobs], "setup_s": run.setup,
        "iterations": [{"traced": s[0], "wall_s": s[1], "cpu_s": s[2]} for s in run.samples],
        "metrics": {k: {"value": v, "unit": units.get(k), "quartiles": q}
                    for k, (v, q) in figures.items()},
        "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
        "artifacts": run.reference, "spans": run.spans,
    }), encoding="utf-8")

    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, (v, _q) in figures.items() if k in units},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
