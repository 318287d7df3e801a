"""Constraint families: penalty curves, both evaluators, and the user cap."""
import random

import pytest

import vapep
from vapep import (
    AuthCost,
    AuthorizationRelation,
    Instance,
    PenaltySpec,
    eval_profile,
    eval_relation,
    profile_of,
    solve,
    wbound_suggestion,
)

import helpers


def rel_of(mapping):
    return AuthorizationRelation.from_mapping(mapping)


def test_penalty_linear_curve():
    f = PenaltySpec.linear(4)
    assert [f(z) for z in (-2, 0, 1, 2, 3)] == [0, 0, 4, 8, 12]


def test_penalty_table_curve_with_tail():
    f = PenaltySpec.from_table([2, 5, 5], tail_slope=3)
    assert [f(z) for z in (0, 1, 2, 3, 4, 5)] == [0, 2, 5, 5, 8, 11]


def test_penalty_validation():
    with pytest.raises(ValueError):
        PenaltySpec.linear(0)
    with pytest.raises(ValueError):
        PenaltySpec.linear(10**6 + 1)
    with pytest.raises(ValueError):
        PenaltySpec.from_table([3, 2])  # decreasing
    with pytest.raises(ValueError):
        PenaltySpec.from_table([0, 1])  # f(1) must be positive


def test_penalty_monotone_sampled():
    rng = random.Random(21)
    for _ in range(100):
        f = helpers.rand_penalty(rng)
        values = [f(z) for z in range(0, 12)]
        assert values == sorted(values)
        assert f(0) == 0 and f(1) >= 1


def test_factories_validate_scopes():
    with pytest.raises(ValueError):
        vapep.sod_u("r1", "r1")
    with pytest.raises(ValueError):
        vapep.bod_e("r2", "r2")
    with pytest.raises(ValueError):
        vapep.card_ub("r1", 0)
    with pytest.raises(ValueError):
        vapep.card_lb("r1", -1)
    with pytest.raises(ValueError):
        vapep.sod_e("r1", "r2", ell=0)
    with pytest.raises(ValueError):
        vapep.user_count(slope=0)


@pytest.mark.parametrize("kind, scope, extra", [
    ("sod_u", "ab", {}),  # was read as the scope ("a", "b")
    ("user_count", "", {"quadratic": True}),
    ("sod_u", ("r1", ["r2"]), {}),
    ("bod_e", (["r1"], "r2"), {}),
    ("card_lb", (7,), {"t": 1}),
])
def test_constraint_scopes_are_resource_names(kind, scope, extra):
    with pytest.raises(ValueError, match=f"{kind} scope"):
        vapep.Constraint(kind, scope, **extra)
    if kind == "sod_u" and not isinstance(scope, str):
        with pytest.raises(ValueError, match="sod_u scope"):
            vapep.sod_u(*scope)


def test_eval_relation_pinned_examples():
    sep = vapep.sod_u("r1", "r4", 1)
    rel = rel_of({"u1": ["r1"], "u2": ["r1"], "u4": ["r4"]})
    assert eval_relation(sep, rel) == 0

    bind = vapep.bod_u("r1", "r2", 1)
    rel = rel_of({"u1": ["r1"], "u2": ["r1", "r2"], "u3": ["r2"], "u4": ["r2"]})
    # one-sided differences have sizes 1 and 2
    assert eval_relation(bind, rel) == 2

    low = vapep.card_lb("r1", 3, 10)
    assert eval_relation(low, rel_of({"u1": ["r1"]})) == 20


def test_eval_relation_matches_set_reimplementation():
    rng = random.Random(22)
    checked = 0
    while checked < 200:
        inst = helpers.rand_instance(rng, max_cons=1)
        if not inst.constraints:
            continue
        rel = helpers.rand_relation(rng, inst, complete=False)
        by_res = {r: set(rel.users_of(r)) for r in inst.resources}
        want = helpers.constraint_weight(
            inst.constraints[0], by_res, set(rel.assigned_users())
        )
        assert eval_relation(inst.constraints[0], rel) == want
        checked += 1


def test_eval_profile_known_histogram():
    usr = vapep.UserProfile(
        {0b0001: 1, 0b0011: 2, 0b1110: 1, 0: 1}, ("r1", "r2", "r3", "r4")
    )
    assert eval_profile(vapep.sod_u("r1", "r2", 1), usr) == 2
    # cross-check against the relation that produced the histogram
    inst = Instance(
        ("r1", "r2", "r3", "r4"), ("u1", "u2", "u3", "u4", "u5"), (), AuthCost({})
    )
    rel = rel_of(
        {"u1": ["r1"], "u2": ["r1", "r2"], "u3": ["r1", "r2"], "u4": ["r2", "r3", "r4"]}
    )
    assert len(rel.users_of("r1") & rel.users_of("r2")) == 2
    assert eval_profile(vapep.sod_u("r1", "r2", 1), profile_of(inst, rel)) == 2


def test_eval_profile_on_all_empty_profile():
    usr = vapep.UserProfile({0: 6}, ("r1", "r2"))
    assert eval_profile(vapep.card_lb("r1", 2, 5), usr) == 10
    assert eval_profile(vapep.bod_e("r1", "r2", 9), usr) == 9
    assert eval_profile(vapep.sod_e("r1", "r2", 4), usr) == 4  # both sides empty
    assert eval_profile(vapep.sod_u("r1", "r2", 3), usr) == 0
    assert eval_profile(vapep.card_ub("r1", 2, 3), usr) == 0
    assert eval_profile(vapep.user_count(), usr) == 0


def test_eval_profile_agrees_with_eval_relation():
    rng = random.Random(23)
    checked = 0
    while checked < 500:
        inst = helpers.rand_instance(rng, max_cons=1)
        if not inst.constraints:
            continue
        rel = helpers.rand_relation(rng, inst, complete=False)
        usr = profile_of(inst, rel)
        c = inst.constraints[0]
        assert eval_profile(c, usr) == eval_relation(c, rel)
        checked += 1


def test_user_permutation_invariance():
    rng = random.Random(24)
    for _ in range(150):
        inst = helpers.rand_instance(rng, n_min=2, max_cons=1)
        if not inst.constraints:
            continue
        rel = helpers.rand_relation(rng, inst, complete=False)
        users = list(inst.users)
        perm = users[:]
        rng.shuffle(perm)
        sigma = dict(zip(users, perm))
        permuted = rel_of(
            {sigma[u]: rel.resources_of(u) for u in users if rel.resources_of(u)}
        )
        c = inst.constraints[0]
        assert eval_relation(c, permuted) == eval_relation(c, rel)
        # equal profiles imply equal weight
        assert profile_of(inst, permuted).counts == profile_of(inst, rel).counts


def test_zero_iff_table_predicate_holds():
    rng = random.Random(25)
    checked = 0
    while checked < 200:
        inst = helpers.rand_instance(rng, max_cons=1)
        if not inst.constraints or inst.constraints[0].kind == "user_count":
            continue
        c = inst.constraints[0]
        rel = helpers.rand_relation(rng, inst, complete=False)
        a = rel.users_of(c.scope[0])
        if c.kind in ("card_ub", "card_lb"):
            satisfied = len(a) <= c.t if c.kind == "card_ub" else len(a) >= c.t
        else:
            b = rel.users_of(c.scope[1])
            satisfied = {
                "sod_u": not (a & b),
                "bod_u": a == b,
                "sod_e": a != b,
                "bod_e": bool(a & b),
            }[c.kind]
        assert (eval_relation(c, rel) == 0) == satisfied
        checked += 1


def test_monotone_shrink_for_sod_and_upper_bound():
    rng = random.Random(26)
    for _ in range(200):
        inst = helpers.rand_instance(rng, k_min=2, max_cons=0)
        r1, r2 = inst.resources[0], inst.resources[1]
        c = vapep.sod_u(r1, r2, helpers.rand_penalty(rng)) if rng.random() < 0.5 else vapep.card_ub(r1, rng.randint(1, 3), helpers.rand_penalty(rng))
        rel = helpers.rand_relation(rng, inst, complete=False)
        smaller = rel_of(
            {
                u: [r for r in rel.resources_of(u) if rng.random() < 0.6]
                for u in inst.users
            }
        )
        assert eval_relation(c, smaller) <= eval_relation(c, rel)


def test_wbound_pinned_examples():
    cons = [vapep.card_lb(f"r{i + 1}", 5, 10) for i in range(10)]
    cons.append(vapep.user_count())
    assert wbound_suggestion(cons, 10) == 51
    assert wbound_suggestion([], 3) == 9
    # quadratic user count next to a family outside the safe list: no cap
    assert wbound_suggestion([vapep.user_count(), vapep.bod_e("r1", "r2")], 3) is None
    # linear user count alone: no cap either
    assert wbound_suggestion([vapep.user_count(5)], 3) is None


def test_wbound_table_only_uses_max_threshold():
    cons = [vapep.card_lb("r1", 4, 2), vapep.card_ub("r2", 1, 3)]
    assert wbound_suggestion(cons, 3) == 3 * 4 * 3


def test_wbound_cap_is_safe_on_small_instances():
    rng = random.Random(27)
    table_families = ("sod_u", "bod_u", "sod_e", "bod_e", "card_ub", "card_lb")
    for trial in range(50):
        if trial % 2 == 0:
            # quadratic user count plus shrink-safe families, linear lower bounds
            inst = helpers.rand_instance(
                rng, n_max=5, k_max=3, k_min=2, families=("sod_u", "bod_u", "card_ub"),
                max_cons=2,
            )
            extra = [vapep.user_count()]
            for _ in range(rng.randint(0, 2)):
                extra.append(
                    vapep.card_lb(rng.choice(inst.resources), rng.randint(1, 3), rng.randint(1, 9))
                )
            inst = Instance(
                inst.resources, inst.users, inst.constraints + tuple(extra), inst.auth
            )
        else:
            inst = helpers.rand_instance(
                rng, n_max=5, k_max=3, k_min=2, families=table_families, max_cons=3
            )
        assert wbound_suggestion(inst.constraints, inst.k) is not None
        best, fewest = helpers.exhaustive_optimum(inst)
        # the default cap never cuts off every optimal relation
        assert solve(inst).total_weight == best
        assert fewest <= vapep.default_ell(inst)
