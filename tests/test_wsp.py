"""Plan instances, the partition solver, and both reductions."""
import gc
import itertools
import json
import logging
import random
import time

import pytest

import vapep
from vapep import (
    AuthCost,
    GuardError,
    Instance,
    WspConstraint,
    WspInstance,
    disjoint,
    dump_wsp,
    lift_plan,
    load_wsp,
    must_differ,
    must_equal,
    reduce_bode_sodu,
    reduce_sodu_bodu,
    solve,
    solve_wsp,
    total_weight,
    wsp_from_doc,
    wsp_to_doc,
)
from vapep.matching import INF, assignment_cost, min_cost_assignment
from vapep.wsp import ADDITIVE, DISJOINT, MONOTONE, MUST_DIFFER, MUST_EQUAL, _rgs

import helpers


BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def test_rgs_enumerates_set_partitions_in_lex_order():
    for K, want in BELL.items():
        seen = [tuple(r) for r in _rgs(K)]
        assert len(seen) == want
        assert seen == sorted(seen)
        assert seen[0] == (0,) * K
        for r in seen:
            assert r[0] == 0
            for i in range(1, K):
                assert r[i] <= max(r[:i]) + 1


def test_wsp_constraint_validation():
    with pytest.raises(ValueError):
        must_equal("s1", "s1")
    with pytest.raises(ValueError):
        must_differ("s1", "s2", ell=0)
    with pytest.raises(ValueError):
        disjoint([], ["s1"])
    with pytest.raises(ValueError, match="penalty slope must be in"):
        disjoint(["s1"], ["s2"], 0)  # was read as slope 1
    with pytest.raises(ValueError):
        WspConstraint("sometimes_equal", ("s1", "s2"))
    with pytest.raises(ValueError):
        WspInstance(("s1",), ("u1",), (must_equal("s1", "s9"),), AuthCost({}))
    with pytest.raises(ValueError):
        WspInstance(("s1",), ("u1",), (), None)
    w = WspInstance(("s1", "s2"), ("u1",), (), AuthCost({}))
    assert w.step_mask(["s2"]) == 2
    with pytest.raises(ValueError) as err:
        w.step_mask(["s1", "s9"])
    assert str(err.value) == "unknown step 's9'"


@pytest.mark.parametrize("make, message", [
    (lambda: disjoint("ab", "c"), "disjoint groups must not be strings"),  # was (a, b), (c,)
    (lambda: WspConstraint(DISJOINT, "ab"), "disjoint groups must not be strings"),
    (lambda: disjoint(["s1"], ["s2", ["s3"]]), "disjoint groups must hold step names"),
    (lambda: WspConstraint(MUST_EQUAL, "ab"), "must_equal scope must be two step names"),
    (lambda: must_differ("s1", ["s2"]), "must_differ scope must be two step names"),
    (lambda: must_equal("s1", 2), "must_equal scope must be two step names"),
    (lambda: WspConstraint(DISJOINT, (["s1"],)), "disjoint needs two step groups"),
    (lambda: WspConstraint(DISJOINT, (["s1"], ["s2"]), spec=2),
     "disjoint needs a penalty curve"),
])
def test_wsp_constraint_scopes_are_step_names(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize("kind", [MUST_EQUAL, MUST_DIFFER])
def test_wsp_constraint_of_a_list_scope_is_hashable(kind):
    # a list scope was kept as given, so the constraint could not be hashed
    made = WspConstraint(kind, ["s1", "s2"])
    assert made.scope == ("s1", "s2")
    assert made == WspConstraint(kind, ("s1", "s2"))
    assert hash(made) == hash(WspConstraint(kind, ("s1", "s2")))


def test_null_slope_reads_as_absent_in_both_document_kinds():
    # a relation document read "slope": null as slope 1; a plan document
    # passed the null on and raised
    plan = {"steps": ["s1", "s2"], "users": ["u1"], "auth": {"pairs": [["u1", "s1"]]},
            "constraints": [{"type": "disjoint", "scope": [["s1"], ["s2"]], "slope": None}]}
    relation = {"resources": ["r1", "r2"], "users": ["u1"], "auth": {"pairs": [["u1", "r1"]]},
                "constraints": [{"type": "sod_u", "scope": ["r1", "r2"], "slope": None}]}
    linear = vapep.PenaltySpec.linear(1)
    assert wsp_from_doc(plan).constraints[0].spec == linear
    assert vapep.instance_from_doc(relation).constraints[0].spec == linear
    del plan["constraints"][0]["slope"]
    assert wsp_from_doc(plan).constraints[0].spec == linear


@pytest.mark.parametrize("scope", [["ab", "c"], [["s1"], "s2"], [["s1"], 2]])
def test_wsp_loader_reads_disjoint_groups_as_lists_only(scope):
    doc = {"steps": ["s1", "s2", "a", "b", "c"], "users": ["u1"], "auth": {"pairs": []},
           "constraints": [{"type": "disjoint", "scope": scope}]}
    with pytest.raises(ValueError, match=r"constraints\[0\]: disjoint scope is a pair of lists"):
        wsp_from_doc(doc)


def test_solve_wsp_single_step_picks_cheapest_user():
    w = WspInstance(
        ("s1",),
        ("u1", "u2"),
        (),
        AuthCost({"u2": frozenset({"s1"})}, 5),
    )
    plan, weight = solve_wsp(w)
    assert weight == 0
    assert plan == {"s1": "u2"}


def test_solve_wsp_must_differ_two_users():
    w = WspInstance(
        ("s1", "s2"),
        ("u1", "u2"),
        (must_differ("s1", "s2"),),
        AuthCost({u: frozenset({"s1", "s2"}) for u in ("u1", "u2")}, 5),
    )
    plan, weight = solve_wsp(w)
    assert weight == 0
    assert plan["s1"] != plan["s2"]


def test_solve_wsp_guard():
    steps = tuple(f"s{i}" for i in range(13))
    w = WspInstance(steps, ("u1",), (), AuthCost({}))
    with pytest.raises(GuardError):
        solve_wsp(w)


def test_solve_wsp_bounds_a_plan_with_nothing_to_prune():
    # 12 steps and users, no constraints, no authorizations: each of the
    # Bell(12) = 4,213,597 partitions costs 12, so the leaf bound alone
    # reaches every one; the interior bound cuts each second block
    steps = tuple(f"s{i}" for i in range(12))
    users = tuple(f"u{j}" for j in range(12))
    w = WspInstance(steps, users, (), AuthCost({}, 1))
    t0 = time.perf_counter()
    plan, weight = solve_wsp(w)
    assert time.perf_counter() - t0 < 1
    assert weight == 12
    assert set(plan.values()) == {"u0"}


def test_solve_wsp_matches_plan_space_oracle():
    rng = random.Random(71)
    for _ in range(60):
        w = helpers.rand_wsp(rng, k_max=4, n_max=5)
        plan, weight = solve_wsp(w)
        assert weight == helpers.plan_space_optimum(w)
        assert helpers.plan_weight(w, plan) == weight
        assert set(plan) == set(w.steps)


def flat_scan(w):
    """The partition scan without pruning: every partition with at most n
    blocks, in `_rgs` order, is matched unless its constraint weight alone
    reaches the incumbent; strictly better totals replace the incumbent."""
    K, n = w.k, w.n
    compiled = []
    for c in w.constraints:
        if c.kind == "disjoint":
            compiled.append((c, w.step_mask(c.scope[0]), w.step_mask(c.scope[1])))
        else:
            compiled.append((c, w._sindex[c.scope[0]], w._sindex[c.scope[1]]))
    inc = INF
    best = None
    for rgs in _rgs(K):
        p = max(rgs) + 1
        if p > n:
            continue
        blocks = [0] * p
        for i, g in enumerate(rgs):
            blocks[g] |= 1 << i
        cw = 0
        for c, a, b in compiled:
            if c.kind == "must_equal":
                cw += c.ell if rgs[a] != rgs[b] else 0
            elif c.kind == "must_differ":
                cw += c.ell if rgs[a] == rgs[b] else 0
            else:
                cw += c.spec(sum(1 for bm in blocks if bm & a and bm & b))
        if cw >= inc:
            continue
        costs = [[w.cost(u, bm) for u in range(n)] for bm in blocks]
        total = cw + assignment_cost(costs)
        if total < inc:
            inc = total
            best = list(rgs)
    blocks = [0] * (max(best) + 1)
    for i, g in enumerate(best):
        blocks[g] |= 1 << i
    match, _ = min_cost_assignment([[w.cost(u, bm) for u in range(n)] for bm in blocks])
    return {w.steps[i]: w.users[match[best[i]]] for i in range(K)}, inc


def rand_diff_wsp(rng):
    """A plan instance of up to 7 steps for the differential test."""
    K = rng.randint(1, 7)
    n = rng.randint(1, K + 2)  # n < K in about two fifths of the cases
    steps = tuple(f"s{i + 1}" for i in range(K))
    users = tuple(f"u{j + 1}" for j in range(n))
    cons = []
    for _ in range(rng.randint(0, 6)):
        pick = rng.random()
        if K >= 2 and pick < 0.35:
            a, b = rng.sample(steps, 2)
            cons.append(must_differ(a, b, rng.randint(1, 6)))
        elif K >= 2 and pick < 0.7:
            a, b = rng.sample(steps, 2)
            cons.append(must_equal(a, b, rng.randint(1, 6)))
        else:
            # the groups may overlap, and may even share every step
            ga = rng.sample(steps, rng.randint(1, K))
            gb = rng.sample(steps, rng.randint(1, K))
            cons.append(disjoint(ga, gb, helpers.rand_penalty(rng)))
    base = {u: frozenset(s for s in steps if rng.random() < 0.5) for u in users}
    mode = rng.random()
    if mode < 0.25:
        # a pair penalty of 0: every partition costs its constraint weight
        # alone, so many partitions tie at the optimum
        return WspInstance(steps, users, tuple(cons), AuthCost(base, 0))
    if mode < 0.5:
        pp = {(u, s): rng.randint(0, 3) for u in users for s in steps
              if rng.random() < 0.5}
        return WspInstance(steps, users, tuple(cons), AuthCost(base, pp))
    if mode < 0.75:
        # a cost that is not monotone in the step mask
        table = {(u, m): rng.randint(0, 4) for u in range(n) for m in range(1, 1 << K)}
        return WspInstance(steps, users, tuple(cons), None,
                           cost_fn=lambda u, m: table[u, m])
    return WspInstance(steps, users, tuple(cons), AuthCost(base, rng.randint(1, 3)))


def test_solve_wsp_matches_flat_scan(monkeypatch):
    rng = random.Random(80)
    ties = 0
    for _ in range(2000):
        w = rand_diff_wsp(rng)
        expected = flat_scan(w)
        for kernel in helpers.each_kernel(monkeypatch):
            assert solve_wsp(w) == expected, kernel
        ties += w.auth is not None and w.auth.pair_penalty == 0
    assert ties >= 400


def with_table_cost(rng, inst):
    """The instance with a custom cost read from a seeded table over every
    (user, resource subset): neither additive nor monotone."""
    table = {(u, rs): rng.randint(0, 4)
             for u in inst.users for rs in helpers.all_subsets(inst.resources)}
    return Instance(inst.resources, inst.users, inst.constraints,
                    AuthCost(inst.auth.base, 1, custom=lambda u, rs: table[u, rs]))


def rand_bode_sodu(rng):
    """A bod_e/sod_u relation instance whose reduction has at most 7 steps.
    At least two bindings, so that some resources have two steps, which pay
    for it once when they share a user; few authorizations, so that a step's
    cheapest user often pays for its resource."""
    while True:
        k = rng.randint(3, 4)
        resources = tuple(f"r{i + 1}" for i in range(k))
        users = tuple(f"u{j + 1}" for j in range(rng.randint(1, 4)))
        pairs = list(itertools.combinations(resources, 2))
        cons = [vapep.bod_e(a, b, rng.randint(1, 6))
                for a, b in rng.sample(pairs, rng.randint(2, len(pairs)))]
        cons += [vapep.sod_u(a, b, helpers.rand_penalty(rng))
                 for a, b in rng.sample(pairs, rng.randint(1, 3))]
        if sum(max(1, sum(r in c.scope for c in cons if c.kind == "bod_e"))
               for r in resources) <= 7:
            break
    base = {u: frozenset(r for r in resources if rng.random() < 0.2) for u in users}
    pp = rng.randint(1, 4) if rng.random() < 0.5 else {
        (u, r): rng.randint(0, 4) for u in users for r in resources}
    return Instance(resources, users, tuple(cons), AuthCost(base, pp))


def test_bode_sodu_plans_match_flat_scan(monkeypatch):
    # reduce_bode_sodu's cost, omega_mask of the union of the steps'
    # resources, is monotone but not additive in the step mask (two steps of
    # one resource cost it once), so only the block minima bound its
    # prefixes, and nothing does under a custom cost
    rng = random.Random(81)
    for trial in range(300):
        inst = rand_bode_sodu(rng)
        custom = trial % 4 == 3
        if custom:
            inst = with_table_cost(rng, inst)
        w, _ = reduce_bode_sodu(inst)
        assert w.k <= 7
        assert w._cost_shape == (None if custom else MONOTONE)
        expected = flat_scan(w)
        for kernel in helpers.each_kernel(monkeypatch):
            assert solve_wsp(w) == expected, kernel


def test_sodu_bodu_plans_match_flat_scan():
    # one step per resource: under a per-pair penalty matrix the cost is a
    # sum over the steps, so both terms bound a prefix; a custom cost gets
    # no interior bound
    rng = random.Random(82)
    for trial in range(300):
        inst = helpers.rand_instance(
            rng, n_max=6, k_max=7, families=("sod_u", "bod_u"), k_min=1,
            max_cons=8, allow_matrix=False,
        )
        pp = {(u, r): rng.randint(0, 4) for u in inst.users for r in inst.resources
              if rng.random() < 0.7}
        inst = Instance(inst.resources, inst.users, inst.constraints,
                        AuthCost(inst.auth.base, pp))
        custom = trial % 5 == 4
        if custom:
            inst = with_table_cost(rng, inst)
        w = reduce_sodu_bodu(inst)
        assert w._cost_shape == (None if custom else ADDITIVE)
        assert solve_wsp(w) == flat_scan(w)


def test_cost_shape_is_set_where_the_plan_is_built():
    steps, users = ("s1", "s2"), ("u1", "u2")
    assert WspInstance(steps, users, (), AuthCost({}, 2))._cost_shape == ADDITIVE
    assert WspInstance(steps, users, (), AuthCost({}, {("u1", "s1"): 3}))._cost_shape == ADDITIVE
    assert WspInstance(steps, users, (), None, cost_fn=lambda u, m: 0)._cost_shape is None
    assert WspInstance(steps, users, (), None, cost_fn=lambda u, m: 0,
                       _monotone=True)._cost_shape == MONOTONE


def logged_counters(caplog, monkeypatch, w, weight):
    """The fields of the log line a solve of w writes, the same on each
    kernel backend; the weight checked."""
    seen = []
    for kernel in helpers.each_kernel(monkeypatch):
        with caplog.at_level(logging.INFO, logger="vapep.wsp"):
            assert solve_wsp(w)[1] == weight
        msg = caplog.records[-1].getMessage()
        assert msg.startswith("plan solve:")
        fields = dict(kv.split("=") for kv in msg.split() if "=" in kv)
        assert "partitions" not in fields
        seen.append((kernel, fields))
    assert all(fields == seen[0][1] for _, fields in seen), seen
    return seen[0][1]


def test_solve_wsp_logs_search_counters(caplog, monkeypatch):
    # Without constraints or authorizations every partition costs one pair
    # penalty per step.  Written as a user cost_fn, which gets no interior
    # bound, the cost leaves only the leaf bound, which cuts every partition
    # after the first: S(6,1) + S(6,2) + S(6,3) = 122 partitions of 6 steps
    # into at most 3 blocks are reached and one is matched.
    steps = tuple(f"s{i}" for i in range(6))
    users = ("u1", "u2", "u3")
    w = WspInstance(steps, users, (), None, cost_fn=lambda u, m: m.bit_count())
    fields = logged_counters(caplog, monkeypatch, w, 6)
    assert fields["leaves"] == "122"
    assert fields["bound_cuts"] == "121"
    assert fields["matchings"] == "1"
    assert int(fields["nodes"]) > 122


def test_solve_wsp_logs_bounded_search_counters(caplog, monkeypatch):
    # The same plan under its authorization table: every prefix is bounded by
    # one penalty per step, 6, so after the first leaf each step's second
    # block is cut where the step is placed.  The walk enters the root and
    # the six steps of the first leaf, and cuts one child at each of steps
    # 1 to 5 (step 0 has only block 0 to join).
    steps = tuple(f"s{i}" for i in range(6))
    w = WspInstance(steps, ("u1", "u2", "u3"), (), AuthCost({}, 1))
    fields = logged_counters(caplog, monkeypatch, w, 6)
    assert fields["nodes"] == "7"
    assert fields["leaves"] == "1"
    assert fields["bound_cuts"] == "5"
    assert fields["matchings"] == "1"


def test_partition_evaluation_soundness():
    # the weight read off the partition a plan induces must equal direct
    # evaluation of the plan itself, for every plan
    rng = random.Random(72)
    for _ in range(40):
        w = helpers.rand_wsp(rng, k_max=3, n_max=4)
        for combo in itertools.product(w.users, repeat=w.k):
            plan = dict(zip(w.steps, combo))
            blocks = {}
            for s, u in plan.items():
                blocks.setdefault(u, set()).add(s)
            parts = list(blocks.values())
            total = 0
            for c in w.constraints:
                if c.kind in ("must_equal", "must_differ"):
                    together = any(
                        c.scope[0] in b and c.scope[1] in b for b in parts
                    )
                    violated = not together if c.kind == "must_equal" else together
                    total += c.ell if violated else 0
                else:
                    sa, sb = set(c.scope[0]), set(c.scope[1])
                    cnt = sum(1 for b in parts if b & sa and b & sb)
                    total += helpers.pen_value(c.spec, cnt)
            for u, held in blocks.items():
                total += w.cost(w.users.index(u), w.step_mask(held))
            assert total == helpers.plan_weight(w, plan)


def test_reduce_sodu_bodu_structure():
    inst = Instance(
        ("r1", "r2"),
        ("u1", "u2"),
        (vapep.sod_u("r1", "r2", 7),),
        AuthCost({"u1": frozenset({"r1", "r2"})}, 2),
    )
    w = reduce_sodu_bodu(inst)
    assert w.steps == ("r1", "r2")
    assert len(w.constraints) == 1
    assert w.constraints[0].kind == "must_differ"
    assert w.constraints[0].ell == 7

    empty = reduce_sodu_bodu(
        Instance(("r1",), ("u1",), (), AuthCost({"u1": frozenset({"r1"})}))
    )
    assert empty.constraints == ()


def test_reduce_sodu_bodu_penalty_is_f_of_one():
    spec = vapep.PenaltySpec.from_table([4, 9], tail_slope=2)
    inst = Instance(
        ("r1", "r2"),
        ("u1",),
        (vapep.bod_u("r1", "r2", spec),),
        AuthCost({}),
    )
    w = reduce_sodu_bodu(inst)
    assert w.constraints[0].kind == "must_equal"
    assert w.constraints[0].ell == 4


def test_reduce_sodu_bodu_rejects_other_families():
    inst = Instance(
        ("r1",), ("u1",), (vapep.card_lb("r1", 1),), AuthCost({})
    )
    with pytest.raises(ValueError):
        reduce_sodu_bodu(inst)
    with pytest.raises(ValueError) as err:
        reduce_bode_sodu(inst)
    assert str(err.value) == "reduction only handles bod_e/sod_u, got card_lb"


def test_sodu_bodu_reduction_equals_profile_solver():
    rng = random.Random(73)
    for _ in range(40):
        inst = helpers.rand_instance(
            rng, n_max=6, k_max=4, families=("sod_u", "bod_u"), k_min=1, max_cons=3
        )
        w = reduce_sodu_bodu(inst)
        _, weight = solve_wsp(w)
        assert weight == solve(inst, ell=inst.n).total_weight


def test_singleton_optima_for_sodu_only():
    # with only separation constraints some optimum assigns one user per
    # resource, which is exactly what the reduction searches over
    rng = random.Random(74)
    for _ in range(20):
        inst = helpers.rand_instance(
            rng, n_max=5, k_max=3, families=("sod_u",), k_min=2, max_cons=2
        )
        _, weight = solve_wsp(reduce_sodu_bodu(inst))
        assert weight == solve(inst, ell=inst.n).total_weight


def test_reduce_bode_sodu_worked_example_structure():
    cons = (
        vapep.bod_e("r1", "r2"),
        vapep.bod_e("r1", "r3"),
        vapep.bod_e("r3", "r4"),
        vapep.sod_u("r1", "r4", 1),
        vapep.sod_u("r2", "r4", 1),
    )
    inst = Instance(
        ("r1", "r2", "r3", "r4"),
        ("u1", "u2", "u3", "u4"),
        cons,
        AuthCost({u: frozenset({"r1", "r2", "r3", "r4"}) for u in ("u1", "u2", "u3", "u4")}),
    )
    w, origin = reduce_bode_sodu(inst)
    assert set(w.steps) == {"s1_2", "s1_3", "s2_1", "s3_1", "s3_4", "s4_3"}
    assert len(w.steps) == 6
    assert origin == {
        "s1_2": "r1",
        "s1_3": "r1",
        "s2_1": "r2",
        "s3_1": "r3",
        "s3_4": "r3",
        "s4_3": "r4",
    }
    eqs = [c for c in w.constraints if c.kind == "must_equal"]
    assert {tuple(sorted(c.scope)) for c in eqs} == {
        ("s1_2", "s2_1"),
        ("s1_3", "s3_1"),
        ("s3_4", "s4_3"),
    }
    dis = [c for c in w.constraints if c.kind == "disjoint"]
    assert len(dis) == 2


def test_reduce_bode_sodu_without_bindings_keeps_k_steps():
    inst = Instance(
        ("r1", "r2", "r3"),
        ("u1",),
        (vapep.sod_u("r1", "r2", 2),),
        AuthCost({}),
    )
    w, origin = reduce_bode_sodu(inst)
    assert len(w.steps) == 3
    assert sorted(origin.values()) == ["r1", "r2", "r3"]


def test_reduction_size_bound():
    rng = random.Random(75)
    for _ in range(40):
        inst = helpers.rand_instance(
            rng, n_max=4, k_max=4, families=("bod_e", "sod_u"), k_min=2, max_cons=4
        )
        w, _ = reduce_bode_sodu(inst)
        assert len(w.steps) <= inst.k * (inst.k - 1)


def test_bode_sodu_reduction_equals_profile_solver():
    rng = random.Random(76)
    for _ in range(40):
        inst = helpers.rand_instance(
            rng, n_max=5, k_max=3, families=("bod_e", "sod_u"), k_min=1, max_cons=3
        )
        w, origin = reduce_bode_sodu(inst)
        plan, weight = solve_wsp(w)
        direct = solve(inst, ell=inst.n).total_weight
        assert weight == direct
        lifted = lift_plan(plan, origin)
        assert total_weight(inst, lifted)[0] == weight


def test_lift_plan_worked_example():
    plan = {
        "s1_2": "u1",
        "s1_3": "u2",
        "s2_1": "u1",
        "s3_1": "u2",
        "s3_4": "u4",
        "s4_3": "u4",
    }
    origin = {
        "s1_2": "r1",
        "s1_3": "r1",
        "s2_1": "r2",
        "s3_1": "r3",
        "s3_4": "r3",
        "s4_3": "r4",
    }
    lifted = lift_plan(plan, origin)
    assert lifted.users_of("r1") == {"u1", "u2"}
    assert lifted.users_of("r2") == {"u1"}
    assert lifted.users_of("r3") == {"u2", "u4"}
    assert lifted.users_of("r4") == {"u4"}


def test_lift_plan_identity_without_bindings():
    plan = {"s1": "u2", "s2": "u1"}
    origin = {"s1": "r1", "s2": "r2"}
    lifted = lift_plan(plan, origin)
    assert lifted.users_of("r1") == {"u2"}
    assert lifted.users_of("r2") == {"u1"}


def test_lifted_weight_never_exceeds_plan_weight():
    rng = random.Random(77)
    for _ in range(30):
        inst = helpers.rand_instance(
            rng, n_max=4, k_max=3, families=("bod_e", "sod_u"), k_min=1, max_cons=3
        )
        w, origin = reduce_bode_sodu(inst)
        users = list(w.users)
        for _ in range(10):
            plan = {s: rng.choice(users) for s in w.steps}
            lifted = lift_plan(plan, origin)
            assert total_weight(inst, lifted)[0] <= helpers.plan_weight(w, plan)


def test_wsp_json_roundtrip():
    # plan files carry linear disjoint penalties only
    rng = random.Random(78)
    for _ in range(30):
        w = helpers.rand_wsp(rng, linear_only=True)
        doc = wsp_to_doc(w)
        again = wsp_from_doc(json.loads(json.dumps(doc)))
        assert wsp_to_doc(again) == doc
    doc["zz"] = 1
    with pytest.raises(ValueError):
        wsp_from_doc(doc)


def test_wsp_table_disjoint_not_serializable():
    steps = ("s1", "s2")
    base = {"u1": frozenset(steps)}
    w = WspInstance(
        steps,
        ("u1",),
        (disjoint(["s1"], ["s2"], vapep.PenaltySpec.from_table([2, 5], 1)),),
        AuthCost(base, 1),
    )
    with pytest.raises(ValueError):
        wsp_to_doc(w)


def test_wsp_per_pair_penalties_are_checked_and_not_serializable():
    # Instance raises for these keys; a plan instance accepted them, and
    # dump_wsp raised TypeError from json on the tuple keys.  Both kinds
    # give the same message.
    for key in (("zz", "s1"), ("u1", "s9"), ("zz", "s9")):
        for make in (Instance, WspInstance):
            with pytest.raises(ValueError) as err:
                make(("s1",), ("u1",), (), AuthCost({}, {key: 3}))
            assert str(err.value) == f"pair penalty for unknown pair {key!r}"
    w = WspInstance(("s1",), ("u1",), (), AuthCost({}, {("u1", "s1"): 3}))
    assert w.cost(0, 1) == 3
    with pytest.raises(ValueError) as err:
        dump_wsp(w)
    assert str(err.value) == "per-pair penalties are not serializable in plan documents"


def _cost_reference(base, pp, u, names, mask):
    """Authorization cost of user u holding the masked names, from the
    definition: each held name outside u's base adds its pair penalty."""
    held = [nm for i, nm in enumerate(names) if mask >> i & 1]
    return sum(
        (pp.get((u, nm), 1) if isinstance(pp, dict) else pp)
        for nm in held if nm not in base.get(u, ())
    )


def test_plan_cost_equals_relation_cost():
    # both instance kinds hold one authorization table; every way of
    # building it prices every (user, mask) alike
    rng = random.Random(85)
    kinds = set()
    for _ in range(150):
        k, n = rng.randint(1, 5), rng.randint(1, 7)
        names = tuple(f"x{i}" for i in rng.sample(range(9), k))
        users = tuple(f"v{j}" for j in rng.sample(range(20), n))
        base = {u: {nm for nm in names if rng.random() < 0.4}
                for u in rng.sample(users, rng.randint(0, n))}
        if rng.random() < 0.5:
            pp = rng.randint(0, 3)
        else:
            pp = {(rng.choice(users), rng.choice(names)): rng.randint(0, 4)
                  for _ in range(rng.randint(0, n * k))}
        kinds.add(type(pp))
        inst = Instance(names, users, (), AuthCost(base, pp))
        w = WspInstance(names, users, (), AuthCost(base, pp))
        built = [
            w,
            WspInstance(names, users, (), inst.auth,
                        _prebuilt=(inst._uindex, (inst._base_mask, inst._pen))),
            Instance(names, users, (), w.auth,
                     _prebuilt=(w._uindex, (w._base_mask, w._pen))),
        ]
        if k >= 2:
            a, b = rng.sample(names, 2)
            con = rng.choice([vapep.sod_u, vapep.bod_u])(a, b, rng.randint(1, 3))
            built.append(reduce_sodu_bodu(Instance(names, users, (con,), AuthCost(base, pp))))
        for mask in range(1 << k):
            want = [_cost_reference(base, pp, u, names, mask) for u in users]
            for other in [inst] + built:
                if isinstance(other, Instance):
                    cost, cost_row = other.omega_mask, other.omega_row
                else:
                    cost, cost_row = other.cost, other.cost_row
                assert [cost(ui, mask) for ui in range(n)] == want
                assert cost_row(mask) == want
    assert kinds == {int, dict}


def test_cost_rows_of_derived_plans_match_their_cells():
    # a row is every user's cost at once, also where a reduction shares one
    # row between the step masks of one resource mask
    rng = random.Random(86)
    for trial in range(40):
        inst = rand_bode_sodu(rng)
        if trial % 2:
            inst = with_table_cost(rng, inst)
        plans = [reduce_bode_sodu(inst)[0],
                 WspInstance(("s1", "s2", "s3"), inst.users, (), None,
                             cost_fn=lambda u, m: (u + 1) * m % 5)]
        if trial % 2:
            plans.append(reduce_sodu_bodu(Instance(inst.resources, inst.users, (), inst.auth)))
        for mask in range(1 << inst.k):
            assert inst.omega_row(mask) == [inst.omega_mask(u, mask) for u in range(inst.n)]
        for w in plans:
            for mask in range(1 << w.k):
                assert w.cost_row(mask) == [w.cost(u, mask) for u in range(w.n)]


def test_wsp_json_files(tmp_path):
    w = helpers.rand_wsp(random.Random(79))
    path = tmp_path / "w.json"
    path.write_text(dump_wsp(w))
    again = load_wsp(str(path))
    assert wsp_to_doc(again) == wsp_to_doc(w)


def test_wsp_loader_masks_and_errors(tmp_path):
    rng = random.Random(80)
    for _ in range(100):
        w = helpers.rand_wsp(rng, linear_only=True)
        doc = wsp_to_doc(w)
        pairs = doc["auth"]["pairs"]
        pairs += pairs[:2]  # repeated pairs
        rng.shuffle(pairs)  # out of user order
        again = wsp_from_doc(doc)
        assert wsp_to_doc(again) == wsp_to_doc(w)
        assert again._base_mask == [
            sum(1 << i for i, s in enumerate(w.steps) if s in w.auth.base[u])
            for u in w.users
        ]
    cases = [
        ([["u1"]], ["s1", "s2"], "auth.pairs entries must be [user, step]"),
        ([["u1", "s1"], ["ghost", "s1"]], ["s1", "s2"],
         "authorization for unknown user 'ghost'"),
        ([["u1", "s1"], ["u1", "s9"]], ["s1", "s2"],
         "authorization for unknown step 's9'"),
        ([["u1", "s1"]], ["s1", "s1"], "duplicate step name 's1'"),
        ([["u1", "s1"]], ["s1", ""], "step names must be non-empty strings"),
    ]
    for pairs, steps, message in cases:
        doc = {"steps": steps, "users": ["u1"], "auth": {"pairs": pairs}}
        with pytest.raises(ValueError) as err:
            wsp_from_doc(doc)
        assert str(err.value) == message
    path = tmp_path / "w.json"
    path.write_text(dump_wsp(helpers.rand_wsp(random.Random(81))))
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            load_wsp(str(path))
            assert gc.isenabled() is enabled
            with pytest.raises(FileNotFoundError):
                load_wsp(str(tmp_path / "missing.json"))
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


@pytest.mark.parametrize("change, message", [
    ({"auth": []}, "auth must be an object"),
    ({"auth": "x"}, "auth must be an object"),
    ({"constraints": {}}, "constraints must be a list"),
    ({"constraints": [5]}, "constraints[0] must be an object"),
    ({"constraints": [{"type": "must_equal"}]}, "constraints[0]: scope must be a list"),
    ({"constraints": [{"type": "disjoint", "scope": "s1"}]},
     "constraints[0]: scope must be a list"),
    ({"constraints": [{"type": "must_equal", "scope": ["s1", "s2"], "slope": 2}]},
     "constraints[0]: must_equal takes ell, not slope"),
    ({"constraints": [{"type": "disjoint", "scope": [["s1"], ["s2"]], "ell": 2}]},
     "constraints[0]: disjoint takes slope, not ell"),
    ({"constraints": [{"type": "must_differ", "scope": ["s1", "s2"]},
                      {"type": "sod_u", "scope": ["s1", "s2"]}]},
     "constraints[1]: unknown constraint type 'sod_u'"),
])
def test_wsp_loader_checks_the_document_shape(change, message):
    # as instance_from_doc checks them; these raised AttributeError or
    # TypeError, or named the letters of a string as unknown fields
    doc = {"steps": ["s1", "s2"], "users": ["u1"], "auth": {"pairs": [["u1", "s1"]]},
           "constraints": [{"type": "must_differ", "scope": ["s1", "s2"]}]}
    doc.update(change)
    with pytest.raises(ValueError) as err:
        wsp_from_doc(doc)
    assert str(err.value) == message


def test_dump_wsp_of_a_loaded_plan_is_unchanged_and_builds_no_base():
    # users holding several steps, pairs out of user order: the pairs are
    # written from the masks, as the walk over every (user, step) pair
    # through auth.base wrote them
    rng = random.Random(82)
    steps = [f"s{i}" for i in range(5)]
    users = [f"u{j}" for j in range(12)]
    pairs = [[u, s] for u in users for s in steps if rng.random() < 0.5]
    rng.shuffle(pairs)
    doc = {"steps": steps, "users": users, "auth": {"pairs": pairs, "pair_penalty": 3},
           "constraints": [{"type": "must_differ", "scope": ["s0", "s3"], "ell": 2}]}
    w = wsp_from_doc(doc)
    text = dump_wsp(w)
    assert "base" not in vars(w.auth)
    want = dict(wsp_to_doc(w), auth={"pairs": [
        [u, s] for u in w.users for s in w.steps if s in w.auth.base.get(u, ())
    ], "pair_penalty": 3})
    assert max(map(len, w.auth.base.values())) >= 3
    assert text == vapep.canonical_json(want)
    assert dump_wsp(wsp_from_doc(json.loads(text))) == text


def test_derived_cost_instances_not_serializable():
    inst = Instance(
        ("r1", "r2"),
        ("u1",),
        (vapep.bod_e("r1", "r2"),),
        AuthCost({}),
    )
    w, _ = reduce_bode_sodu(inst)
    assert w.cost_fn is not None
    with pytest.raises(ValueError):
        wsp_to_doc(w)
    with pytest.raises(ValueError) as err:
        w.authorized(0, 0)
    assert str(err.value) == "authorization base unavailable for derived instances"
