"""Time `vapep generate` and `vapep solve` at one size, each in a child process.

Generates an instance with `vapep generate --n N --k K --seed 0`, then
solves it with `vapep solve --in`, each in a fresh interpreter that imports
`vapep` from this checkout's `src/`.  Prints, per step, the wall time from
process start to exit, the child's peak resident set (`ru_maxrss` from
`os.wait4`) and its minor page faults (`ru_minflt`), plus the size of the
instance file.  Two more children split the two steps: one times
`generate` against `dump_instance` writing the same instance again; the
other times `load_instance`, the route `vapep solve` takes (the file's
bytes read by the compiled reader when the compiled backend is selected,
then the instance built), and then the reference route on the same file,
`json.load` on the file opened in text mode, against `instance_from_doc`.
Both run with the cyclic collector paused, as `dump_instance` and
`load_instance` pause it, and print their faults too.

Usage:
    python3 benchmarks/scale_bench.py --n 1000000 --k 3

The instance goes to a temporary directory that is removed afterwards
unless --dir names one to keep it in.
"""
import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SEED = 0


# times generate and dump_instance for argv[1:4] (n, k, seed), writing to
# the file named by argv[4]
GENERATE_SPLIT = """
import gc, sys, time
from vapep.generator import GeneratorConfig, generate
from vapep.model import dump_instance
gc.disable()
n, k, seed = map(int, sys.argv[1:4])
t0 = time.perf_counter()
inst = generate(GeneratorConfig(n=n, k=k, seed=seed))
t1 = time.perf_counter()
dump_instance(inst, sys.argv[4])
print(t1 - t0, time.perf_counter() - t1)
"""

# times load_instance on the file named by argv[1], then json.load (the file
# opened in text mode) and instance_from_doc on it
LOAD_SPLIT = """
import gc, json, sys, time
from vapep.model import instance_from_doc, load_instance
gc.disable()
t0 = time.perf_counter()
inst = load_instance(sys.argv[1])
t1 = time.perf_counter()
del inst
t2 = time.perf_counter()
with open(sys.argv[1], encoding="utf-8") as fh:
    doc = json.load(fh)
t3 = time.perf_counter()
instance_from_doc(doc)
print(t1 - t0, t3 - t2, time.perf_counter() - t3)
"""


def run_child(args: list, stdout=subprocess.DEVNULL) -> tuple[float, float, int, str]:
    """Wall seconds, peak RSS in MiB, minor page faults and standard output
    of `python args`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, text=True)
    out = proc.stdout.read() if proc.stdout else ""
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0, usage.ru_minflt, out  # Linux reports KiB


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, required=True, help="number of users")
    ap.add_argument("--k", type=int, required=True, help="number of steps")
    ap.add_argument("--dir", default=None, help="keep the instance here")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.dir or tmp)
        work.mkdir(parents=True, exist_ok=True)
        inst, out = work / "instance.json", work / "solution.json"
        steps = [
            ("generate", ["generate", "--n", str(args.n), "--k", str(args.k),
                          "--seed", str(SEED), "-o", str(inst)]),
            ("solve", ["solve", "--in", str(inst), "-o", str(out)]),
        ]
        print(f"n={args.n} k={args.k} seed={SEED} python={sys.version.split()[0]}")
        print(f"{'step':<9} {'wall_s':>8} {'maxrss_mib':>11} {'minflt':>9}")
        for name, argv in steps:
            wall, rss, faults, _ = run_child(["-m", "vapep.cli", *argv])
            print(f"{name:<9} {wall:>8.2f} {rss:>11.1f} {faults:>9}", flush=True)
        print(f"instance file: {inst.stat().st_size / 1e6:.1f} MB")
        again = work / "instance-split.json"
        _, _, faults, out = run_child(["-c", GENERATE_SPLIT, str(args.n), str(args.k),
                                       str(SEED), str(again)], stdout=subprocess.PIPE)
        made, dump = map(float, out.split())
        same = again.read_bytes() == inst.read_bytes()
        again.unlink()
        print(f"generate split (GC paused): generate {made:.2f} s, "
              f"dump_instance {dump:.2f} s, same bytes: {same}, minflt {faults}")
        _, _, faults, out = run_child(["-c", LOAD_SPLIT, str(inst)], stdout=subprocess.PIPE)
        load, parse, build = map(float, out.split())
        print(f"load split (GC paused): load_instance {load:.2f} s; "
              f"reference (text-mode read): json.load {parse:.2f} s, "
              f"instance_from_doc {build:.2f} s; minflt {faults}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
