"""Compare the pure-Python and compiled search kernels on one grid.

Runs the profile solver over generated instances with every available
backend and prints a small table: median wall time per backend, the median
number of search nodes the kernel entered, of complete leaves it tested and
of nodes its bound cut, the median nanoseconds per node (wall time over
nodes, so it includes preparation and `evaluate` calls), plus the speedup
of the compiled kernel when both are present.  Totals and search counters
are checked to match across backends while we are at it.

Usage:
    python3 benchmarks/kernel_bench.py
    python3 benchmarks/kernel_bench.py --k 4 --n 20,40 --ell 11 --seeds 5
    python3 benchmarks/kernel_bench.py --n 50,100,200,400,800 --seeds 1

From k=4 up the generator's default cap needs more profiles than the
solver's guard allows, so pass --ell there.
"""
import argparse
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # this checkout's vapep

from vapep import GeneratorConfig, available_backends, generate, get_backend, solve


def time_solve(inst, backend: str, ell) -> tuple[float, int, tuple[int, int, int]]:
    """Wall time, total weight and kernel (nodes, leaves, cuts) of one solve
    on the backend, which APEP_KERNEL selects; it stays set for the next
    solve to replace."""
    os.environ["APEP_KERNEL"] = backend
    kernel = get_backend(backend)
    search = kernel.profile_search
    counters = []

    def counted(*args):
        out = search(*args)  # (leaves, incumbent, nodes, cuts)
        counters.append((out[2], out[0], out[3]))
        return out

    kernel.profile_search = counted
    try:
        t0 = time.perf_counter()
        res = solve(inst, ell=ell)
        dt = time.perf_counter() - t0
    finally:
        kernel.profile_search = search
    return dt, res.total_weight, counters[0]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=3, help="steps per instance")
    ap.add_argument("--n", default="20,40,80",
                    help="comma-separated user counts")
    ap.add_argument("--ell", type=int, default=None,
                    help="user cap per solve (default: the solver's)")
    ap.add_argument("--seeds", type=int, default=3, help="instances per size")
    args = ap.parse_args()

    backends = available_backends()
    sizes = [int(v) for v in args.n.split(",") if v.strip()]
    print(f"backends: {', '.join(backends)}")
    print(f"{'n':>6} {'k':>3} {'nodes':>9} {'leaves':>9} {'cuts':>9}", end="")
    for b in backends:
        print(f" {b + ' (ms)':>14} {b + ' (ns/node)':>18}", end="")
    if len(backends) > 1:
        print(f" {'speedup':>8}", end="")
    print()

    for n in sizes:
        per_backend = {b: [] for b in backends}
        per_node = {b: [] for b in backends}
        counts = []
        for seed in range(args.seeds):
            inst = generate(GeneratorConfig(n=n, k=args.k, seed=seed))
            seen = set()
            for b in backends:
                dt, total, counters = time_solve(inst, b, args.ell)
                per_backend[b].append(dt)
                per_node[b].append(dt * 1e9 / max(counters[0], 1))
                seen.add((total, counters))
            if len(seen) != 1:
                raise SystemExit(f"backends disagree on n={n} seed={seed}")
            counts.append(counters)
        meds = {b: statistics.median(ts) for b, ts in per_backend.items()}
        print(f"{n:>6} {args.k:>3}", end="")
        for column in zip(*counts):
            print(f" {statistics.median(column):>9.0f}", end="")
        for b in backends:
            print(f" {meds[b] * 1000:>14.2f} {statistics.median(per_node[b]):>18.1f}",
                  end="")
        if len(backends) > 1 and meds.get("cython"):
            print(f" {meds['python'] / meds['cython']:>7.1f}x", end="")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
