"""Time `vapep export-mip` at one size, in a child process.

Generates an instance with `vapep generate --n N --k K --seed 0`, then
writes its integer program with `vapep export-mip --form FORM`, each in a
fresh interpreter that imports `vapep` from this checkout's `src/`.
Prints the wall time and peak resident set (`ru_maxrss`) of the export and
the size of the LP file.  A second child splits the export into load,
build, export (LP text) and write, each timed as `export-mip` runs them,
with the cyclic collector paused, and then builds once more under
`tracemalloc` to give the formulation's size in bytes per variable.

Usage:
    python3 benchmarks/mip_bench.py --n 3000 --k 3 --form up

The files go to a temporary directory that is removed afterwards unless
--dir names one to keep them in.
"""
import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

from scale_bench import SEED, run_child

# times the steps of export-mip on argv[1] (instance), argv[2] (form),
# argv[3] (LP file), then measures one more build under tracemalloc
SPLIT = """
import gc, sys, time, tracemalloc
from vapep import mipgen
from vapep.model import load_instance
build = getattr(mipgen, "build_" + sys.argv[2])
gc.disable()
t0 = time.perf_counter()
inst = load_instance(sys.argv[1])
t1 = time.perf_counter()
f = build(inst)
t2 = time.perf_counter()
text = mipgen.export_lp(f)
t3 = time.perf_counter()
with open(sys.argv[3], "w", encoding="utf-8", newline="") as fh:
    fh.write(text)
t4 = time.perf_counter()
nvars = len(f.vars)
del f, text
tracemalloc.start()
f = build(inst)
size = tracemalloc.get_traced_memory()[0]
print(t1 - t0, t2 - t1, t3 - t2, t4 - t3, nvars, size)
"""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, required=True, help="number of users")
    ap.add_argument("--k", type=int, required=True, help="number of resources")
    ap.add_argument("--form", choices=("naive", "up"), default="up")
    ap.add_argument("--dir", default=None, help="keep the instance and LP file here")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.dir or tmp)
        work.mkdir(parents=True, exist_ok=True)
        inst, lp = work / "instance.json", work / f"{args.form}.lp"
        run_child(["-m", "vapep.cli", "generate", "--n", str(args.n), "--k", str(args.k),
                   "--seed", str(SEED), "-o", str(inst)])
        wall, rss, _, _ = run_child(["-m", "vapep.cli", "export-mip", "--in", str(inst),
                                     "--form", args.form, "-o", str(lp)])
        print(f"n={args.n} k={args.k} form={args.form} seed={SEED} "
              f"python={sys.version.split()[0]}")
        print(f"export-mip: {wall:.2f} s wall, {rss:.1f} MiB peak RSS, "
              f"LP file {lp.stat().st_size / 1e6:.1f} MB")
        _, _, _, out = run_child(["-c", SPLIT, str(inst), args.form, str(lp)],
                                 stdout=subprocess.PIPE)
        load, build, export, write, nvars, size = out.split()
        print(f"split: load {float(load):.3f} s, build {float(build):.3f} s, "
              f"export {float(export):.3f} s, write {float(write):.3f} s")
        print(f"formulation: {nvars} variables, {int(size) / 2**20:.1f} MiB, "
              f"{int(size) / int(nvars):.0f} B per variable")
    return 0


if __name__ == "__main__":
    sys.exit(main())
