"""Make one workload's inputs in a fresh interpreter and time it.

    PYTHONPATH=src python3 perfbench/make_inputs.py --workload W --seed S --dir D

`run.py` starts this script once per set-up, so that set-up time includes a
fresh `import vapep` and set-up memory stays out of the benchmark process.
It prints one JSON line: `seconds`, the time of `import vapep` plus making
the inputs, and `generate_s`, the part of it spent in `generator.generate`
(0 unless --trace names a file for the set-up's spans).
"""
from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, Inputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--trace", default=None, help="write the set-up's spans here")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    t0 = time.perf_counter()
    from vapep import cli
    if tracer:
        tracer.install()
    WORKLOADS[args.workload].make(Inputs(cli.main, Path(args.dir)), args.seed)
    seconds = time.perf_counter() - t0
    generate_s = 0.0
    if tracer:
        tracer.uninstall()
        tracer.write(args.trace)
        generate_s = sum(end - start for name, start, end, _ in tracer.spans
                         if name == "generator.generate")
    print(json.dumps({"seconds": seconds, "generate_s": generate_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
