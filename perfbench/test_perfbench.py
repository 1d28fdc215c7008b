"""Self-tests of the benchmark harness.  Run: python3 -m pytest perfbench"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def _work_shape(jobs):
    """What fixes the amount of work: grid, time stepping and list lengths."""
    shape = []
    for job in jobs:
        cfg = job.config
        lists = {k: len(v) for k, v in cfg.items() if isinstance(v, list)}
        shape.append((job.entry, job.name, job.units, cfg["experiment"],
                       cfg.get("grid"), cfg.get("time"), cfg.get("initial", {}).get("kind"),
                       sorted(lists.items()), cfg["outputs"]))
    return shape


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed(name):
    generate = workloads.GENERATORS[name]
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)
    assert _work_shape(generate(7)) == _work_shape(generate(8))


def test_self_time_on_a_synthetic_span_tree():
    S = tracer.Span
    spans = [
        S("root", 0.0, 10.0, -1),
        S("a", 1.0, 4.0, 0),
        S("a1", 2.0, 3.0, 1),
        S("b", 5.0, 9.0, 0),
        S("b1", 5.5, 6.0, 3),
        S("b2", 7.0, 8.5, 3),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 0.5, 1.5])
    # overlapping children are counted once; a child is clipped to its parent
    spans = [S("p", 0.0, 10.0, -1), S("c", 0.0, 5.0, 0), S("d", 3.0, 8.0, 0),
             S("e", 9.0, 12.0, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def fft_closed_form(steps: int, sample_every: int, dim: int) -> tuple[int, int]:
    """(forward, inverse) transforms of one evolve call without snapshots off the
    sampling lattice: the fused loop does one pair for the first half step, one
    per step and one more per record before the last step; each observables
    call (the t=0 reference, then every record) does 1 forward and dim inverse.
    """
    records = [s for s in range(1, steps + 1) if s % sample_every == 0 or s == steps]
    loop = 1 + steps + sum(1 for s in records if s != steps)
    observables_calls = 2 + len(records)
    return loop + observables_calls, loop + dim * observables_calls


def test_closed_form_reproduces_the_measured_config():
    assert fft_closed_form(1000, 250, 2) == (1010, 1016)


# A small free evolution: 20 steps, a record every 5
SMALL_EVOLVE = {
    "experiment": "evolve",
    "model": {"family": "cubic_log_2d", "lambda": 1.0},
    "grid": {"dim": 2, "n": 128, "half_width": 20.0},
    "time": {"dt": 1e-3, "t_final": 0.02, "sample_every": 5},
    "initial": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0},
    "outputs": {"csv_path": "traj.csv", "summary_json_path": "summary.json"},
    "seed": 0,
}


def test_fft_probes_match_the_closed_form(tmp_path):
    import lognls.cli as cli

    trace = tracer.Tracer()
    with tracer.instrumented(trace):
        code, _summary = cli.run_config(SMALL_EVOLVE, str(tmp_path))
    assert code == 0
    ffts = [s for s in trace.spans if s.name == tracer.FFT]
    forward = sum(1 for s in ffts if not s.attrs["inverse"])
    assert (forward, len(ffts) - forward) == fft_closed_form(20, 5, 2)
    table = tracer.layer_metrics(trace.spans)
    assert table["grid.fft_calls"] == len(ffts)
    assert table["evolution.steps"] == 20
    assert table["evolution.records"] == 20 // 5 + 1


@pytest.fixture(scope="module")
def soliton_orbit_run(tmp_path_factory):
    """One soliton_orbit iteration: (job, exit code, summary, out dir)."""
    import lognls.cli as cli

    out = tmp_path_factory.mktemp("soliton_orbit")
    job, _scan = workloads.soliton_orbit(0)
    code, summary = cli.run_config(job.config, str(out))
    return job, code, summary, out


def test_artifact_checks_catch_a_tampered_orbit(soliton_orbit_run, tmp_path):
    job, code, summary, out = soliton_orbit_run
    assert workloads.check_job(out, job, code, summary) == {}
    assert workloads.check_job(out, job, 1, {"pass": False}) == {0: [
        "exit code 1, error=None"]}
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    orbit = copy / "orbit.csv"
    lines = orbit.read_text(encoding="utf-8").splitlines()
    column = next(ln for ln in lines if not ln.startswith("#")).split(",").index("mass")
    row = lines[-1].split(",")
    row[column] = repr(float(row[column]) * (1.0 + 1e-9))
    orbit.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n", encoding="utf-8")
    (failure,) = workloads.check_job(copy, job, code, summary)[0]
    assert "mass drift" in failure


def test_probes_are_removed_after_the_block():
    import lognls.evolution
    import lognls.model
    import numpy

    fftn = numpy.fft.fftn
    with tracer.instrumented(tracer.Tracer()):
        assert hasattr(lognls.evolution.observables, "__wrapped__")
        assert lognls.evolution.observables is lognls.model.observables
        assert numpy.fft.fftn is not fftn
    assert numpy.fft.fftn is fftn
    assert not hasattr(lognls.evolution.observables, "__wrapped__")
    assert lognls.evolution.observables is lognls.model.observables


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "soliton_orbit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
