"""Tests of the benchmark's output checks.

Run from the root of the repository:

    python3 -m pytest perfbench/test_check.py -q

They show that a corrupted output counts as a failed operation, and that
the independent recomputations agree with the package on correct outputs.
"""
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import vapep  # noqa: E402
from vapep import cli  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402
from run import Runner  # noqa: E402
from spans import set_partitions_at_most  # noqa: E402
from workloads import Inputs, Op, Workload  # noqa: E402


def run_op(tmp_path, inputs, op, name="out"):
    """Run one op through the CLI; return a record as the runner keeps it."""
    out = tmp_path / f"{name}.json"
    code = cli.main(op.argv + ["-o", str(out)])
    return (0, op, 0.0, code, out)


def failed_of(tmp_path, records, round_check=None):
    runner = Runner(Workload("t", None, round_check), cli.main, tmp_path, None)
    runner.records = records
    return runner.check()


def corrupt(record, tmp_path, edit, name):
    """Copy of a record whose output document went through edit(doc)."""
    rnd, op, s, code, out = record
    doc = json.loads(out.read_text())
    edit(doc)
    bad = tmp_path / f"{name}.json"
    bad.write_text(vapep.canonical_json(doc))
    return (rnd, op, s, code, bad)


@pytest.fixture
def profile_op(tmp_path):
    inputs = Inputs(cli.main, tmp_path)
    path = inputs.generated("inst", 12, 3, 5)
    op = Op("solve", ["solve", "--in", path, "--ell", "6"],
            workloads.profile_check(inputs, path, 6, compressed=True))
    return run_op(tmp_path, inputs, op)


def test_correct_profile_output_passes(tmp_path, profile_op):
    assert profile_op[3] == 0
    assert failed_of(tmp_path, [profile_op]) == (0, True)


@pytest.mark.parametrize("edit", [
    lambda d: d.update(total_weight=d["total_weight"] + 1),
    lambda d: d["assignment"].popitem(),
    lambda d: d["meta"].update(profiles_enumerated=d["meta"]["profiles_enumerated"] + 1),
    lambda d: d["meta"].update(ell=5),
    lambda d: d["breakdown"]["by_category"].update(
        sod=d["breakdown"]["by_category"]["sod"] + 10,
        cardinality=d["breakdown"]["by_category"]["cardinality"] - 10),
    lambda d: d["breakdown"]["constraints"].__setitem__(
        slice(None), [d["breakdown"]["constraints"][0] - 1]
        + d["breakdown"]["constraints"][1:-1] + [d["breakdown"]["constraints"][-1] + 1]),
], ids=["weight_off_by_one", "dropped_user", "profiles_enumerated",
        "meta_ell", "category_shift", "constraint_order"])
def test_corrupted_profile_output_counts_as_failed(tmp_path, profile_op, edit):
    bad = corrupt(profile_op, tmp_path, edit, "bad")
    assert failed_of(tmp_path, [profile_op, bad]) == (1, False)


def test_dropped_resource_counts_as_failed(tmp_path, profile_op):
    def drop(doc):
        resource = next(iter(doc["assignment"].values()))[0]
        for rs in doc["assignment"].values():
            if resource in rs:
                rs.remove(resource)
    bad = corrupt(profile_op, tmp_path, drop, "bad")
    failed, correct = failed_of(tmp_path, [bad])
    assert (failed, correct) == (1, False)


def test_unparsable_output_counts_as_failed(tmp_path, profile_op):
    profile_op[4].write_text("{")
    assert failed_of(tmp_path, [profile_op]) == (1, False)


def test_nonzero_exit_counts_as_failed_but_not_incorrect(tmp_path, profile_op):
    rnd, op, s, _, out = profile_op
    assert failed_of(tmp_path, [(rnd, op, s, 2, out)]) == (1, True)


def test_optimum_rising_with_ell_fails_the_round(tmp_path):
    inputs = Inputs(cli.main, tmp_path)
    path = inputs.generated("inst", 10, 3, 2)
    records = []
    for ell in (4, 6):
        op = Op(f"ell{ell}", ["solve", "--in", path, "--ell", str(ell)],
                workloads.profile_check(inputs, path, ell), group="g", ell=ell)
        records.append(run_op(tmp_path, inputs, op, f"ell{ell}"))
    assert failed_of(tmp_path, records, workloads.deep_round_check) == (0, True)
    # a higher weight at the larger cap, consistent with its own breakdown
    op = records[1][1]
    op.check = lambda text: 10**9
    assert failed_of(tmp_path, records, workloads.deep_round_check) == (2, False)


def test_brute_and_plan_outputs_are_cross_checked(tmp_path):
    inputs = Inputs(cli.main, tmp_path)
    path = inputs.written("duty", workloads._small_duty(3))
    brute = run_op(tmp_path, inputs, Op(
        "brute", ["solve", "--in", path, "--solver", "brute"],
        workloads.exact_check(inputs, path, "brute", ("profile_all", "plan"))), "brute")
    plan = run_op(tmp_path, inputs, Op(
        "plan", ["solve", "--in", path, "--solver", "wsp"],
        workloads.exact_check(inputs, path, "wsp", ("brute", "profile_all"))), "plan")
    assert failed_of(tmp_path, [brute, plan]) == (0, True)
    # the plan output relabelled as brute output fails the solver check
    wrong = (0, brute[1], 0.0, 0, plan[4])
    assert failed_of(tmp_path, [wrong]) == (1, False)


def test_corrupted_lp_counts_as_failed(tmp_path):
    inputs = Inputs(cli.main, tmp_path)
    path = inputs.generated("mip", 30, 3, 4)
    records = []
    for form in ("naive", "up"):
        op = Op(form, ["export-mip", "--in", path, "--form", form],
                workloads.lp_check(inputs, path, form))
        records.append(run_op(tmp_path, inputs, op, form))
    assert failed_of(tmp_path, records) == (0, True)
    for rnd, op, s, code, out in records:
        text = out.read_text()
        bad = tmp_path / f"bad_{op.name}.lp"
        # double the objective coefficient of the quadratic user-count term,
        # the last constraint, which is positive at any complete relation
        last = f"p_c{len(inputs.doc(path)['constraints'])}"
        obj = next(line for line in text.splitlines() if line.startswith(" obj:"))
        assert f" 1 {last} " in obj
        bad.write_text(text.replace(obj, obj.replace(f" 1 {last} ", f" 2 {last} ")))
        assert failed_of(tmp_path, [(rnd, op, s, code, bad)]) == (1, False)


def test_solution_weight_matches_the_package_on_all_families():
    rng = random.Random(7)
    resources = ["a", "b", "c", "d"]
    users = [f"u{i}" for i in range(6)]
    doc = {
        "resources": resources,
        "users": users,
        "auth": {"pairs": [[u, rng.choice(resources)] for u in users],
                 "pair_penalty": [[rng.randint(0, 5) for _ in resources]
                                  for _ in users]},
        "constraints": [
            {"type": "sod_u", "scope": ["a", "b"], "slope": 3},
            {"type": "bod_u", "scope": ["b", "c"], "penalty": 2},
            {"type": "sod_e", "scope": ["c", "d"], "ell": 5},
            {"type": "bod_e", "scope": ["a", "d"], "ell": 7},
            {"type": "card_ub", "scope": ["a"], "t": 1, "slope": 4},
            {"type": "card_lb", "scope": ["d"], "t": 3},
            {"type": "user_count"},
            {"type": "user_count", "slope": 6},
        ],
    }
    inst = vapep.instance_from_doc(doc)
    subsets = [list(c) for r in range(len(resources) + 1)
               for c in itertools.combinations(resources, r)]
    for _ in range(300):
        assignment = {u: rng.choice(subsets) for u in users}
        rel = vapep.AuthorizationRelation.from_mapping(assignment)
        if not rel.is_complete(inst):
            with pytest.raises(check.CheckError):
                check.solution_weight(doc, assignment)
            continue
        want, breakdown = vapep.total_weight(inst, rel)
        assert check.solution_weight(doc, assignment) == (want, breakdown)


def test_closed_forms():
    assert check.complete_profiles(3, 16) == 242300
    assert check.complete_profiles(4, 12) == 17184987
    assert set_partitions_at_most(10, 10) == 115975  # Bell(10)
    assert set_partitions_at_most(4, 2) == 8  # S(4,1) + S(4,2)
    inst = vapep.generate(vapep.GeneratorConfig(n=50, k=3, seed=0))
    doc = vapep.instance_to_doc(inst)
    assert check.generated_default_ell(doc) == vapep.default_ell(inst)


def test_type_compressed_copy_keeps_the_optimum():
    inst = vapep.generate(vapep.GeneratorConfig(n=60, k=3, seed=1))
    doc = vapep.instance_to_doc(inst)
    small = check.type_compressed(doc, 4)
    assert len(small["users"]) < len(doc["users"])
    got = vapep.solve(vapep.instance_from_doc(small), ell=4).total_weight
    assert got == vapep.solve(inst, ell=4).total_weight
