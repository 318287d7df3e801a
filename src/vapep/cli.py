"""Command line front end.

Subcommands:

* generate          write a benchmark instance as JSON
* solve             run an exact solver on an instance
* export-mip        write an integer-program file for an instance
* check-resilience  verify an extended plan against user attrition
* bench             time solvers over a parameter grid, CSV out

Exit codes: 0 success, 2 bad input (usage, malformed files, unsupported
combinations), 3 search-space guard tripped, 1 anything unexpected.
Set APEP_LOG=debug|info|... to see solver progress on stderr.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import logging
import os
import sys
import time

from . import _kernels
from .generator import GeneratorConfig, generate
from .mipgen import build_naive, build_up, export_lp
from .model import (
    GuardError,
    SolveResult,
    _gc_paused,
    canonical_json,
    dump_instance,
    load_instance,
)
from .resiliency import check_tau_resilient
from .solver_brute import solve_exhaustive
from .solver_profile import solve
from .wsp import lift_plan, load_wsp, reduce_bode_sodu, reduce_sodu_bodu, solve_wsp

log = logging.getLogger("vapep.cli")


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_generate(args) -> int:
    cfg = GeneratorConfig(
        n=args.n, k=args.k, tau=args.tau, alpha=args.alpha,
        q_sod=args.q_sod, seed=args.seed,
    )
    _write_text(dump_instance(generate(cfg)), args.output)
    return 0


def _solve_via_plan(instance) -> SolveResult:
    t0 = time.perf_counter()
    kinds = {c.kind for c in instance.constraints}
    if kinds <= {"sod_u", "bod_u"}:
        w = reduce_sodu_bodu(instance)
        origin = {s: s for s in w.steps}
        reduction = "duty_pairs"
    elif kinds <= {"sod_u", "bod_e"}:
        w, origin = reduce_bode_sodu(instance)
        reduction = "existence_binding"
    else:
        raise ValueError(
            "the plan solver handles only user duty pairs (sod_u/bod_u) or "
            "existence binding with user separation (bod_e/sod_u)"
        )
    plan, weight = solve_wsp(w)
    rel = lift_plan(plan, origin)
    meta = {
        "solver": "wsp",
        "reduction": reduction,
        "steps": w.k,
        "wall_time_s": time.perf_counter() - t0,
    }
    result = SolveResult.build(instance, rel, meta)
    if result.total_weight != weight:
        raise RuntimeError(
            f"plan reduction disagreed with direct evaluation: "
            f"{weight} != {result.total_weight}"
        )
    return result


def _cmd_solve(args) -> int:
    if args.solver != "profile" and (args.ell is not None or args.threads != 1):
        raise ValueError("--ell/--threads only apply to the profile solver")
    instance = load_instance(args.infile)
    if args.solver == "profile":
        result = solve(instance, ell=args.ell)
    elif args.solver == "brute":
        result = solve_exhaustive(instance)
    else:
        result = _solve_via_plan(instance)
    _write_text(result.to_json(instance), args.output)
    return 0


def _cmd_export_mip(args) -> int:
    build = build_up if args.form == "up" else build_naive
    # the formulation holds no reference cycles: with the collector paused
    # from its build to its release, no collection ever scans it
    with _gc_paused():
        _write_text(export_lp(build(load_instance(args.infile))), args.output)
    return 0


def _cmd_check_resilience(args) -> int:
    w = load_wsp(args.wsp)
    with open(args.plan, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not all(
        isinstance(us, list) for us in doc.values()
    ):
        raise ValueError("extended plan document must map steps to user lists")
    ok, witness = check_tau_resilient(w, doc, args.tau)
    out = {
        "resilient": ok,
        "tau": args.tau,
        "witness": None if witness is None else list(witness),
    }
    _write_text(canonical_json(out), args.output)
    return 0


def _parse_grid(text: str) -> dict:
    grid = {
        "n": None, "k": [None], "tau": [None], "alpha": [1],
        "seeds": 3, "solvers": ["profile"],
    }
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, eq, vals = part.partition("=")
        key = key.strip()
        if not eq or key not in grid:
            raise ValueError(f"bad grid entry {part!r}")
        items = [v.strip() for v in vals.split(",") if v.strip()]
        if not items:
            raise ValueError(f"empty grid entry {part!r}")
        if key == "solvers":
            for s in items:
                if s not in ("profile", "brute"):
                    raise ValueError(f"unknown bench solver {s!r}")
            grid[key] = items
        elif key == "seeds":
            grid[key] = int(items[0])
        else:
            grid[key] = [int(v) for v in items]
    if grid["n"] is None:
        raise ValueError("the grid needs at least n=...")
    if grid["seeds"] < 1:
        raise ValueError("seeds must be at least 1")
    return grid


_BENCH_COLS = [
    "n", "k", "tau", "alpha", "seed", "solver", "time_ms", "objective",
    "users", "sod_penalty", "card_penalty", "usercount_penalty", "auth_penalty",
]


def _cmd_bench(args) -> int:
    grid = _parse_grid(args.grid)
    rows = []
    for n, k, tau, alpha, solver in itertools.product(
        grid["n"], grid["k"], grid["tau"], grid["alpha"], grid["solvers"]
    ):
        group = []
        for seed in range(grid["seeds"]):
            cfg = GeneratorConfig(n=n, k=k, tau=tau, alpha=alpha, seed=seed)
            inst = generate(cfg)
            t0 = time.perf_counter()
            res = solve_exhaustive(inst) if solver == "brute" else solve(inst)
            ms = (time.perf_counter() - t0) * 1000.0
            cats = res.breakdown["by_category"]
            group.append([
                n, cfg.k, cfg.tau, alpha, seed, solver, round(ms, 3), res.total_weight,
                len(res.relation.assigned_users()), cats["sod"], cats["cardinality"],
                cats["user_count"], cats["authorizations"],
            ])
        means = [round(sum(col) / len(group), 3) for col in list(zip(*group))[6:]]
        rows += group + [group[0][:4] + ["mean", solver] + means]
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(_BENCH_COLS)
    writer.writerows(rows)
    _write_text(out.getvalue(), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vapep",
        description="Exact solvers for weighted authorization-policy design.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a benchmark instance as JSON")
    g.add_argument("--n", type=int, required=True, help="number of users")
    g.add_argument("--k", type=int, default=None, help="number of steps")
    g.add_argument("--tau", type=int, default=None, help="resilience margin")
    g.add_argument("--alpha", type=int, default=1, help="cost scale")
    g.add_argument("--q-sod", type=int, default=None, dest="q_sod",
                   help="number of separation pairs")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--out", dest="output", default=None)
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("solve", help="run an exact solver on an instance")
    s.add_argument("--in", dest="infile", required=True,
                   help="instance JSON file")
    s.add_argument("--solver", choices=("profile", "brute", "wsp"),
                   default="profile")
    s.add_argument("--ell", type=int, default=None,
                   help="user budget for the profile solver")
    s.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored by the profile solver, which "
                        "runs on one thread; the other solvers take only 1")
    s.add_argument("-o", "--out", dest="output", default=None)
    s.set_defaults(func=_cmd_solve)

    m = sub.add_parser("export-mip", help="write an integer program (LP text)")
    m.add_argument("--in", dest="infile", required=True,
                   help="instance JSON file")
    m.add_argument("--form", choices=("naive", "up"), default="naive")
    m.add_argument("-o", "--out", dest="output", default=None)
    m.set_defaults(func=_cmd_export_mip)

    c = sub.add_parser("check-resilience",
                       help="verify an extended plan against user attrition")
    c.add_argument("--wsp", required=True, help="plan instance JSON file")
    c.add_argument("--plan", required=True,
                   help="extended plan JSON file: {step: [users]}")
    c.add_argument("--tau", type=int, required=True)
    c.add_argument("-o", "--out", dest="output", default=None)
    c.set_defaults(func=_cmd_check_resilience)

    b = sub.add_parser("bench", help="time solvers over a parameter grid")
    b.add_argument("--grid", required=True,
                   help='e.g. "n=20,40;k=3;seeds=5;solvers=profile,brute"')
    b.add_argument("-o", "--out", dest="output", default=None)
    b.set_defaults(func=_cmd_bench)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process; parse_args does not change it."""
    return build_parser()


def main(argv=None) -> int:
    level = os.environ.get("APEP_LOG")
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper(), logging.INFO),
            format="%(levelname)s %(name)s: %(message)s",
        )
    args = _parser().parse_args(argv)
    try:
        _kernels.get_backend()  # an APEP_KERNEL naming no built backend is bad input
        return args.func(args)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
