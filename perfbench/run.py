"""Run one workload of the vapep benchmark and print its metrics.

Run from the root of a vapep checkout:

    python3 perfbench/run.py --workload profile --seed 1 --seconds 40 --trace 0

The script builds the compiled kernel in place, makes the workload's inputs
from the seed, then calls `vapep.cli.main` in this process, one operation
after another (one client, closed loop), in whole rounds until --seconds
of rounds have passed.  Set-up runs five times before the first round,
each in a fresh interpreter (make_inputs.py).  Every output is checked
afterwards (see check.py).  The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 untraced and traced rounds alternate, and the metrics are the
per-layer ones, taken from the traced rounds only and given per round.
Inputs, outputs and the span file go to `.perfbench/` in the checkout.
"""
from __future__ import annotations

import argparse
import gc
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
from pathlib import Path

from check import CheckError
from spans import Tracer
from workloads import WORKLOADS, Inputs

SETUP_REPEATS = 5  # set-ups per run; setup_s is their median


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_kernel(root: Path) -> None:
    """Compile vapep._kernels._core next to its sources (skipped when current)."""
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if proc.returncode != 0:
        fail(f"kernel build failed:\n{proc.stdout}")


class Runner:
    def __init__(self, workload, cli_main, work: Path, tracer: Tracer | None):
        self.workload = workload
        self.cli_main = cli_main
        self.work = work
        self.tracer = tracer
        self.records = []  # (round, op, seconds, exit code, output path)
        self.rounds_traced = 0
        self.setup_s: list[float] = []
        self.generate_s: list[float] = []

    def setup(self, root: Path, seed: int, trace_file: Path | None) -> None:
        """Make the workload's inputs once in a fresh interpreter, timing
        `import vapep` and the making."""
        shutil.rmtree(self.work / "in", ignore_errors=True)
        (self.work / "in").mkdir(parents=True)
        argv = [sys.executable, str(Path(__file__).with_name("make_inputs.py")),
                "--workload", self.workload.name, "--seed", str(seed),
                "--dir", str(self.work / "in")]
        if trace_file is not None:
            argv += ["--trace", str(trace_file)]
        proc = subprocess.run(argv, cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            fail(f"set-up exited with {proc.returncode}:\n{proc.stdout}")
        made = json.loads(proc.stdout.splitlines()[-1])
        self.setup_s.append(made["seconds"])
        self.generate_s.append(made["generate_s"])

    def ops(self, seed: int) -> list:
        """The ops of one round, on the inputs the last set-up wrote."""
        return self.workload.make(Inputs(self.cli_main, self.work / "in", write=False), seed)

    def round(self, index: int, ops: list, traced: bool) -> float:
        """Run every op once; return the summed wall time of the ops."""
        if traced:
            self.tracer.install()
        busy = 0.0
        try:
            for op in ops:
                out = self.work / "out" / f"r{index}_{op.name}.out"
                argv = op.argv + ["-o", str(out)]
                # each op starts with empty collector generations, as in a
                # fresh `vapep` process, so the collections it pays for do
                # not depend on the ops before it
                gc.collect()
                t0 = time.perf_counter()
                if traced:
                    code = self.tracer.call("cli.main", self.cli_main, argv)
                else:
                    code = self.cli_main(argv)
                seconds = time.perf_counter() - t0
                busy += seconds
                self.records.append((index, op, seconds, code, out))
        finally:
            if traced:
                self.tracer.uninstall()
                self.rounds_traced += 1
        return busy

    def check(self) -> tuple[int, bool]:
        """Check every output; return (failed operations, all outputs correct)."""
        verdicts: dict[tuple, object] = {}  # (op, output digest) -> weight or error
        failed_ids = set()
        correct = True
        by_round: dict[int, list] = {}
        for i, (rnd, op, _, code, out) in enumerate(self.records):
            if code != 0:
                print(f"perfbench: {op.name} exited with {code}", file=sys.stderr)
                failed_ids.add(i)
                continue
            text = out.read_text(encoding="utf-8")
            key = (op.name, hashlib.sha256(text.encode()).hexdigest())
            if key not in verdicts:
                try:
                    verdicts[key] = op.check(text)
                except Exception as exc:  # any malformed output is a failed check
                    verdicts[key] = CheckError(f"{type(exc).__name__}: {exc}")
            verdict = verdicts[key]
            if isinstance(verdict, CheckError):
                print(f"perfbench: {op.name} round {rnd}: {verdict}", file=sys.stderr)
                failed_ids.add(i)
                correct = False
            else:
                by_round.setdefault(rnd, []).append((i, op, verdict))
        if self.workload.round_check is not None:
            for rnd, items in by_round.items():
                try:
                    self.workload.round_check([(op, w) for _, op, w in items])
                except CheckError as exc:
                    print(f"perfbench: round {rnd}: {exc}", file=sys.stderr)
                    failed_ids.update(i for i, _, _ in items)
                    correct = False
        return len(failed_ids), correct


def layer_metrics(tracer: Tracer, rounds: int, generate_s: float,
                  overhead_s: float) -> dict:
    """Per-layer metrics per traced round, from the spans and counters."""
    total, self_t, calls = tracer.totals()
    counts = tracer.counts

    def per(x):
        return x / rounds

    profiles = counts.get("kernels.profiles", 0)
    search_s = self_t.get("kernels.profile_search", 0.0)
    evaluate_calls = calls.get("solver_profile.evaluate", 0)
    partitions = counts.get("wsp.partitions", 0)
    matched = tracer.child_calls("matching.assignment_cost", "wsp.solve_wsp")
    values = {
        "cli.self_s": (per(self_t.get("cli.main", 0.0)), "s"),
        "model.load_s": (per(total.get("model.load_instance", 0.0)), "s"),
        "model.build_s": (per(total.get("model.SolveResult.build", 0.0)), "s"),
        "model.to_json_s": (per(total.get("model.SolveResult.to_json", 0.0)), "s"),
        "model.omega_mask_calls": (per(counts.get("model.omega_mask_calls", 0)), "count"),
        "solver_profile.prep_s": (per(self_t.get("solver_profile.solve", 0.0)), "s"),
        "solver_profile.reconstruct_s": (
            per(total.get("solver_profile.best_relation_for_profile", 0.0)), "s"),
        "solver_profile.evaluate_calls": (per(evaluate_calls), "count"),
        "solver_profile.evaluate_s": (per(total.get("solver_profile.evaluate", 0.0)), "s"),
        "solver_profile.improvements": (
            per(counts.get("solver_profile.improvements", 0)), "count"),
        "kernels.search_s": (per(search_s), "s"),
        "kernels.profiles": (per(profiles), "count"),
        "kernels.profiles_per_s": (profiles / search_s if search_s else 0.0, "1/s"),
        "kernels.evaluate_share": (evaluate_calls / profiles if profiles else 0.0, "ratio"),
        "kernels.brute_s": (per(total.get("kernels.brute_search", 0.0)), "s"),
        "kernels.relations": (per(counts.get("kernels.relations", 0)), "count"),
        "matching.cost_calls": (per(calls.get("matching.assignment_cost", 0)), "count"),
        "matching.cost_s": (per(total.get("matching.assignment_cost", 0.0)), "s"),
        "matching.cost_cells": (per(counts.get("matching.cost_cells", 0)), "count"),
        "matching.assign_calls": (per(calls.get("matching.min_cost_assignment", 0)), "count"),
        "matching.assign_s": (per(total.get("matching.min_cost_assignment", 0.0)), "s"),
        "wsp.reduce_s": (per(total.get("wsp.reduce_sodu_bodu", 0.0)
                             + total.get("wsp.reduce_bode_sodu", 0.0)), "s"),
        "wsp.scan_s": (per(self_t.get("wsp.solve_wsp", 0.0)), "s"),
        "wsp.cost_calls": (per(counts.get("wsp.cost_calls", 0)), "count"),
        "wsp.matched_share": (matched / partitions if partitions else 0.0, "ratio"),
        "solver_brute.self_s": (per(self_t.get("solver_brute.solve_exhaustive", 0.0)), "s"),
        "mipgen.build_s": (per(total.get("mipgen.build_naive", 0.0)
                               + total.get("mipgen.build_up", 0.0)), "s"),
        "mipgen.export_s": (per(total.get("mipgen.export_lp", 0.0)), "s"),
        "mipgen.lp_bytes": (per(counts.get("mipgen.lp_bytes", 0)), "bytes"),
        "generator.generate_s": (generate_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one vapep benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "setup.py").is_file() or not (root / "src" / "vapep").is_dir():
        fail("run from the root of a vapep checkout (setup.py and src/vapep)")
    build_kernel(root)
    sys.path.insert(0, str(root / "src"))
    import vapep
    from vapep import cli

    backend = vapep.default_backend_name()
    if backend != "cython":
        fail(f"the compiled kernel is not in use (backend {backend!r}); "
             "refusing to time the pure-Python kernel")
    print(f"perfbench: workload={args.workload} seed={args.seed} backend={backend} "
          f"python={platform.python_version()} nproc={os.cpu_count()}")

    state = root / ".perfbench"
    work = state / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = Tracer() if args.trace else None
    runner = Runner(WORKLOADS[args.workload], cli.main, work, tracer)
    setup_trace = state / f"trace-{args.workload}-seed{args.seed}-setup.jsonl" if tracer else None
    try:
        # every set-up writes the same inputs; the rounds use the last one's
        for _ in range(SETUP_REPEATS):
            runner.setup(root, args.seed, setup_trace)
        ops = runner.ops(args.seed)
        (work / "out").mkdir()
        plain_s = traced_s = 0.0
        round_s = []
        rounds = 0
        # whole rounds (pairs of rounds when traced) until the next one would
        # end more than half a round past --seconds
        while True:
            if tracer is None:
                round_s.append(runner.round(rounds, ops, traced=False))
                rounds += 1
                last = round_s[-1]
            else:
                # untraced and traced, alternating which of the two runs first
                for traced in ((False, True) if rounds % 4 == 0 else (True, False)):
                    round_s.append(runner.round(rounds, ops, traced))
                    if traced:
                        traced_s += round_s[-1]
                    else:
                        plain_s += round_s[-1]
                    rounds += 1
                last = round_s[-1] + round_s[-2]
            loop_s = sum(round_s)
            if loop_s + last / 2 >= args.seconds:
                break
        # set-ups ran in child processes, so this is the peak of the rounds
        # (and of importing vapep); the checks come after
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, correct = runner.check()
        attempted = len(runner.records)
        # each operation's median time; runs that exited non-zero are left
        # out, unless every run of that operation did
        per_op: dict[str, list] = {}
        for _, op, s, code, _ in runner.records:
            per_op.setdefault(op.name, []).append((s, code))
        op_median = {}
        for name, runs in per_op.items():
            ok = [s for s, code in runs if code == 0]
            op_median[name] = statistics.median(ok or [s for s, _ in runs])
        if tracer is None:
            metrics = {
                "setup_s": {"value": statistics.median(runner.setup_s), "unit": "s"},
                "op_s": {"value": statistics.geometric_mean(op_median.values()), "unit": "s"},
                "ops_per_s": {"value": (attempted - failed) / loop_s, "unit": "1/s"},
                "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            }
        else:
            pairs = runner.rounds_traced
            metrics = layer_metrics(tracer, pairs, statistics.median(runner.generate_s),
                                    (traced_s - plain_s) / pairs)
            tracer.write(str(state / f"trace-{args.workload}-seed{args.seed}.jsonl"))
        for name, median in op_median.items():
            print(f"perfbench: op {name}: median {median:.4f} s over {len(per_op[name])}")
        print(f"perfbench: rounds={rounds} loop_s={loop_s:.3f} round_s="
              + " ".join(f"{s:.3f}" for s in round_s)
              + f" setups={len(runner.setup_s)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
