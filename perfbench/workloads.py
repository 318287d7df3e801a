"""The two workloads: the inputs each one makes from a seed, the CLI
operations of one round, and the checks applied to every output.

Each workload joins two parts.  `profile` runs the profile solver at large
n (`profile_large_n`) and with a deep profile space (`profile_deep`);
`exact` runs the plan solver (`plan_wsp`), brute force and MIP export
(`brute_mip`).  A round is a fixed list of operations; a run repeats whole
rounds.  Inputs
come from `vapep generate` or, for the plan solver, from `instances.py`.
Reference results the checks need (a type-compressed solve, a brute-force
optimum, a built formulation) are computed once per input with the library
itself, outside any timed region, and reused for every round.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import check
from check import expect
from instances import duty_instance, existence_instance


@dataclass
class Op:
    """One CLI operation of a round; the runner appends `-o <output>`."""

    name: str
    argv: list
    check: Callable[[str], int]  # output text -> weight; raises CheckError
    group: Optional[str] = None  # ops on one instance, checked together
    ell: Optional[int] = None


@dataclass
class Workload:
    name: str
    make: Callable  # (Inputs, seed) -> list[Op], writing the inputs
    round_check: Optional[Callable] = None  # (list of (Op, weight)) -> None


class Inputs:
    """Writes a run's input files and caches what the checks derive from them.

    With `write=False` the files are taken as already written by an earlier
    set-up with the same seed, and only their paths are returned."""

    def __init__(self, cli_main, directory: Path, write: bool = True):
        self.cli_main = cli_main
        self.dir = directory
        self.write = write
        self._docs: dict[str, dict] = {}
        self._refs: dict[tuple, object] = {}

    def generated(self, name: str, n: int, k: int, seed: int) -> str:
        """Write an instance with `vapep generate`; return its path."""
        path = str(self.dir / f"{name}.json")
        if not self.write:
            return path
        code = self.cli_main(["generate", "--n", str(n), "--k", str(k),
                              "--seed", str(seed), "-o", path])
        if code != 0:
            raise RuntimeError(f"vapep generate exited with {code} for {name}")
        return path

    def written(self, name: str, doc: dict) -> str:
        """Write one of the benchmark's own instance documents."""
        path = self.dir / f"{name}.json"
        if self.write:
            path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return str(path)

    def doc(self, path: str) -> dict:
        if path not in self._docs:
            with open(path, encoding="utf-8") as fh:
                self._docs[path] = json.load(fh)
        return self._docs[path]

    def ref(self, key: tuple, compute: Callable):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]


# -- reference computations, with the library ------------------------------

def _instance(doc: dict):
    from vapep import instance_from_doc
    return instance_from_doc(doc)


def _profile_weight(doc: dict, ell: Optional[int]) -> int:
    from vapep import solve
    return solve(_instance(doc), ell=ell).total_weight


def _profile_result(doc: dict):
    from vapep import solve
    return solve(_instance(doc))


def _brute_weight(doc: dict) -> int:
    from vapep import solve_exhaustive
    return solve_exhaustive(_instance(doc)).total_weight


def _plan_weight(doc: dict) -> int:
    from vapep.cli import _solve_via_plan
    return _solve_via_plan(_instance(doc)).total_weight


# -- checks per kind of operation ------------------------------------------

def profile_check(inputs: Inputs, path: str, ell: Optional[int],
                  compressed: bool = False) -> Callable[[str], int]:
    """Weight, coverage, user cap and profile count; optionally the
    type-compressed copy's optimum."""
    def run(text: str) -> int:
        doc = inputs.doc(path)
        cap = check.generated_default_ell(doc) if ell is None else min(ell, len(doc["users"]))
        weight = check.check_profile_solve(doc, json.loads(text), cap)
        if compressed:
            want = inputs.ref(("compressed", path, cap), lambda: _profile_weight(
                check.type_compressed(doc, cap), cap))
            expect(weight == want,
                   f"weight {weight} != {want} on the type-compressed copy")
        return weight
    return run


def exact_check(inputs: Inputs, path: str, solver: str,
                references: tuple) -> Callable[[str], int]:
    """Weight and coverage, plus equality with other exact solvers."""
    compute = {
        "brute": _brute_weight,
        "plan": _plan_weight,
        "profile_all": lambda doc: _profile_weight(doc, len(doc["users"])),
    }

    def run(text: str) -> int:
        doc = inputs.doc(path)
        out = json.loads(text)
        weight = check.check_solution(doc, out)
        expect(out["meta"].get("solver") == solver,
               f"meta.solver {out['meta'].get('solver')!r} != {solver!r}")
        for name in references:
            want = inputs.ref((name, path), lambda: compute[name](doc))
            expect(weight == want, f"weight {weight} != {name} optimum {want}")
        return weight
    return run


def lp_check(inputs: Inputs, path: str, form: str) -> Callable[[str], int]:
    """The LP parses back and re-exports byte for byte, and evaluates to the
    profile solver's weight at the profile solver's relation."""
    def run(text: str) -> int:
        from vapep import eval_at, export_lp, parse_lp
        parsed = parse_lp(text)
        expect(export_lp(parsed) == text, "LP text does not re-export identically")
        doc = inputs.doc(path)
        best = inputs.ref(("profile", path), lambda: _profile_result(doc))
        f = dataclasses.replace(parsed, kind=form, resources=tuple(doc["resources"]),
                                users=tuple(doc["users"]))
        value = eval_at(f, best.relation)
        expect(value == best.total_weight,
               f"{form} LP evaluates to {value} at the optimum, not {best.total_weight}")
        return value
    return run


# -- workloads -------------------------------------------------------------

def _light_seed(start: int) -> int:
    """First generator seed from `start` whose three separation pairs (k=3)
    are distinct.  Those pairs depend on the seed and k only, so a two-user
    probe finds them."""
    from vapep import GeneratorConfig, generate
    seed = start
    while True:
        probe = generate(GeneratorConfig(n=2, k=3, seed=seed))
        if len({frozenset(c.scope) for c in probe.constraints
                if c.kind == "sod_u"}) == 3:
            return seed
        seed += 1


def _distinct_pairs(inputs: Inputs, path: str) -> None:
    scopes = [frozenset(e["scope"]) for e in inputs.doc(path)["constraints"]
              if e["type"] == "sod_u"]
    if len(set(scopes)) != 3:
        raise RuntimeError(f"{path}: expected three distinct separation pairs")


def make_profile_large_n(inputs: Inputs, seed: int) -> list:
    ops = []
    # generator seed 1 at n=50,000 repeats a separation pair, so its optimum
    # holds 9 users and the lexicographic tie-break dominates the solve
    specs = [("k3_n20000", 20000, 3, None, _light_seed(seed * 1000)),
             ("k4_n20000_ell5", 20000, 4, 5, seed * 1000 + 1),
             ("k3_n50000", 50000, 3, None, _light_seed(seed * 1000 + 300)),
             ("k3_n100000", 100000, 3, None, _light_seed(seed * 1000 + 600)),
             ("k3_n50000_heavy", 50000, 3, None, 1)]
    for name, n, k, ell, g in specs:
        path = inputs.generated(name, n, k, g)
        if inputs.write and k == 3 and ell is None and name != "k3_n50000_heavy":
            _distinct_pairs(inputs, path)
        argv = ["solve", "--in", path, "--threads", "1"]
        if ell is not None:
            argv += ["--ell", str(ell)]
        ops.append(Op(name, argv, profile_check(inputs, path, ell, compressed=True)))
    return ops


def make_profile_deep(inputs: Inputs, seed: int) -> list:
    ops = []
    for inst, n, k, ells in (("k4_n40", 40, 4, (11, 12)),
                             ("k3_n80", 80, 3, (30, 34, 38))):
        path = inputs.generated(inst, n, k, seed * 1000 + k)
        for ell in ells:
            ops.append(Op(f"{inst}_ell{ell}",
                          ["solve", "--in", path, "--threads", "1", "--ell", str(ell)],
                          profile_check(inputs, path, ell), group=inst, ell=ell))
    return ops


def deep_round_check(results: list) -> None:
    groups: dict[str, list] = {}
    for op, weight in results:
        if op.group is not None:
            groups.setdefault(op.group, []).append((op.ell, weight))
    for weights in groups.values():
        check.check_non_increasing(weights)


def _small_duty(seed: int) -> dict:
    """Three resources and six users, within the brute-force guard (n*k <= 24)."""
    return duty_instance(seed, 3, 6, 2)


def make_plan_wsp(inputs: Inputs, seed: int) -> list:
    # every large instance reduces to 10 plan steps, Bell(10) = 115,975 partitions
    specs = [("exist_k5_n20", existence_instance(seed, 5, 20, 5, 10)),
             ("exist_k6_n20", existence_instance(seed, 6, 20, 5, 10)),
             ("exist_k6_n24", existence_instance(seed, 6, 24, 5, 10)),
             ("exist_k7_n16", existence_instance(seed, 7, 16, 4, 10)),
             ("duty_k10_n16", duty_instance(seed, 10, 16, 22)),
             ("duty_k10_n24", duty_instance(seed, 10, 24, 22)),
             ("duty_small", _small_duty(seed))]
    ops = []
    for name, doc in specs:
        path = inputs.written(name, doc)
        refs = ("brute", "profile_all") if name == "duty_small" else ()
        ops.append(Op(name, ["solve", "--in", path, "--solver", "wsp"],
                      exact_check(inputs, path, "wsp", refs)))
    return ops


def make_brute_mip(inputs: Inputs, seed: int) -> list:
    ops = []
    for name, n, k in (("brute_k2_n12", 12, 2), ("brute_k3_n6", 6, 3)):
        path = inputs.generated(name, n, k, seed * 1000 + k)
        ops.append(Op(name, ["solve", "--in", path, "--solver", "brute"],
                      exact_check(inputs, path, "brute", ("profile_all",))))
    path = inputs.generated("mip_k3_n3000", 3000, 3, seed * 1000 + 3)
    for form in ("naive", "up"):
        ops.append(Op(f"mip_{form}_k3_n3000",
                      ["export-mip", "--in", path, "--form", form],
                      lp_check(inputs, path, form)))
    return ops


def make_profile(inputs: Inputs, seed: int) -> list:
    return make_profile_large_n(inputs, seed) + make_profile_deep(inputs, seed)


def make_exact(inputs: Inputs, seed: int) -> list:
    return make_plan_wsp(inputs, seed) + make_brute_mip(inputs, seed)


WORKLOADS = {
    w.name: w for w in (
        Workload("profile", make_profile, deep_round_check),
        Workload("exact", make_exact),
    )
}
