"""Print the sha256 of every artifact of the determinism configs and perfbench seed 1.

Run from anywhere:

    python tools/artifact_hashes.py [DIR] > hashes.txt

It runs the eight configs of ``tests/test_acceptance.py::_DETERMINISM_CONFIGS``
and seed 1 of each workload in ``perfbench/workloads.py::GENERATORS`` through
``lognls.cli.run_config``/``run_sweep`` into DIR, which it keeps (a new or empty
directory; a temporary one, removed afterwards, when DIR is not given), and prints
one ``sha256  path`` line per artifact, sorted by path.  The program is
imported from ``src`` of the checkout that holds this script.  Diffing the
output of two checkouts, taken on the same machine, shows whether a change
moved any artifact; ``tools/artifact_diff.py`` on their two DIRs shows by how
much.  The exit code is 1 if any run did not exit 0.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for sub in ("src", "tests", "perfbench"):
    sys.path.insert(0, str(ROOT / sub))

from lognls.cli import run_config, run_sweep  # noqa: E402
from test_acceptance import _DETERMINISM_CONFIGS  # noqa: E402
from workloads import GENERATORS  # noqa: E402


def main(argv: list[str]) -> int:
    failed = []
    with nullcontext(argv[0]) if argv else tempfile.TemporaryDirectory() as root:
        out = Path(root)
        runs = [(run_config, config, f"determinism/{name}")
                for name, config in sorted(_DETERMINISM_CONFIGS.items())]
        runs += [(run_config if job.entry == "run" else run_sweep, job.config,
                  f"perfbench/{workload}/{job.name}")
                 for workload, generate in sorted(GENERATORS.items()) for job in generate(1)]
        for entry, config, where in runs:
            code, _ = entry(config, str(out / where))
            if code != 0:
                failed.append(f"{where}: exit {code}")
        files = {p.relative_to(out).as_posix(): p for p in out.rglob("*") if p.is_file()}
        for name in sorted(files):
            print(f"{hashlib.sha256(files[name].read_bytes()).hexdigest()}  {name}")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
