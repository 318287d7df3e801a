"""The scripts under benchmarks/ run to the end at a small size.

Each runs as its own process, as from a shell, with no PYTHONPATH, so each
must find this checkout's `src/` itself; it must exit 0 and print its
header lines.  `sanitize.py` is left out: it builds the kernel with
sanitizers and runs part of the suite, which takes about 22 s.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUNS = {  # script and arguments -> lines the output must start with
    "kernel_bench.py --n 20 --seeds 1": ["backends: ", "     n   k     nodes    leaves"],
    "scale_bench.py --n 50 --k 3": ["n=50 k=3 seed=0 ", "step        wall_s  maxrss_mib"],
    "mip_bench.py --n 20 --k 3 --form naive": ["n=20 k=3 form=naive seed=0 ", "export-mip: ",
                                                "split: ", "formulation: "],
    "mip_bench.py --n 20 --k 3 --form up": ["n=20 k=3 form=up seed=0 ", "export-mip: ",
                                             "split: ", "formulation: "],
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_benchmark_script_runs(run):
    script, *args = run.split()
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, str(ROOT / "benchmarks" / script), *args], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.splitlines()
    for head in RUNS[run]:
        assert any(line.startswith(head) for line in lines), (head, proc.stdout)
