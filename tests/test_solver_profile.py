"""Profile-space exact solver: counting, streaming, completion, solve."""
import logging
import math
import random
import time

import pytest

import vapep
from vapep import (
    AuthCost,
    AuthorizationRelation,
    GuardError,
    Instance,
    UserProfile,
    best_relation_for_profile,
    count_profiles,
    default_ell,
    enumerate_profiles,
    profile_of,
    solve,
    total_weight,
)
from vapep import solver_profile

import helpers


def test_count_profiles_small_values():
    assert count_profiles(1, 2) == 3
    assert count_profiles(2, 2) == 10
    assert count_profiles(10, 51) == math.comb(51 + 1023, 51)
    assert count_profiles(0, 4) == 1
    with pytest.raises(ValueError):
        count_profiles(-1, 2)
    with pytest.raises(ValueError):
        count_profiles(2, -1)


def test_enumerate_matches_count():
    for k in range(1, 5):
        for ell in range(0, 7):
            got = sum(1 for _ in enumerate_profiles(k, ell, n=max(ell, 1)))
            assert got == count_profiles(k, ell)


def test_count_complete_profiles_matches_enumeration():
    # each profile of m users is counted by every ell >= m
    for k in range(1, 5):
        by_users = [0] * 9
        for usr in enumerate_profiles(k, 8, n=8, require_complete=True):
            by_users[usr.assigned_count()] += 1
        for ell in range(9):
            assert solver_profile.count_complete_profiles(k, ell) == sum(by_users[:ell + 1])
    assert solver_profile.count_complete_profiles(3, 38) == 45347756
    with pytest.raises(ValueError):
        solver_profile.count_complete_profiles(2, -1)


def test_enumeration_is_lexicographic_and_well_formed():
    k, ell, n = 3, 4, 6
    subs = vapep.subset_order(k)
    seen = []
    for usr in enumerate_profiles(k, ell, n):
        assert sum(usr.counts.values()) == n
        assert sum(c for m, c in usr.counts.items() if m) <= ell
        seen.append(tuple(usr.counts.get(m, 0) for m in subs))
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen))


def test_enumerate_profiles_guards():
    for k, ell, n, message in ((2, 3, 2, "ell=3 exceeds the number of users n=2"),
                               (2, -1, 2, "need ell >= 0"), (0, 1, 2, "need k >= 1")):
        with pytest.raises(ValueError) as err:
            list(enumerate_profiles(k, ell, n=n))
        assert str(err.value) == message


def test_enumerate_complete_examples():
    only = list(enumerate_profiles(1, 1, n=3, require_complete=True))
    assert len(only) == 1
    assert only[0].counts == {1: 1, 0: 2}

    ten = list(enumerate_profiles(2, 2, n=5))
    assert len(ten) == 10

    single = list(enumerate_profiles(2, 1, n=5, require_complete=True))
    assert len(single) == 1
    assert single[0].counts == {0b11: 1, 0: 4}


def test_complete_stream_equals_filtered_full_stream():
    for k, ell in ((2, 3), (3, 4)):
        full = [
            tuple(sorted((m, c) for m, c in usr.counts.items() if m))
            for usr in enumerate_profiles(k, ell, n=ell)
            if usr.is_complete(k)
        ]
        pruned = [
            tuple(sorted((m, c) for m, c in usr.counts.items() if m))
            for usr in enumerate_profiles(k, ell, n=ell, require_complete=True)
        ]
        assert full == pruned


def test_observation_bounds_on_count():
    for k in range(1, 5):
        for ell in range(0, 7):
            c = count_profiles(k, ell)
            assert c <= 2 ** (ell + (1 << k) - 1)
            if ell >= 4:
                assert c <= min(2 ** (ell * k), ell ** ((1 << k) - 1)) + 1
    assert count_profiles(10, 51) <= min(2 ** (51 * 10), 51 ** 1023) + 1


def test_best_relation_single_slot_picks_cheapest_user():
    inst = Instance(
        ("r1",),
        ("u1", "u2"),
        (),
        AuthCost({"u1": frozenset({"r1"})}, 5),
    )
    usr = UserProfile({1: 1, 0: 1})
    rel, weight = best_relation_for_profile(inst, usr)
    assert weight == 0
    assert rel.resources_of("u1") == frozenset({"r1"})
    assert not rel.resources_of("u2")


@pytest.mark.parametrize("usr, message", [
    (UserProfile({1: 1}, ("r2",)), "profile resources do not match the instance"),
    (UserProfile({2: 1}), "profile mask 2 out of range for k=1"),
    (UserProfile({1: 3}), "profile assigns more users than the instance has"),
], ids=["other resources", "mask out of range", "too many users"])
def test_best_relation_rejects_a_profile_of_another_instance(usr, message):
    inst = Instance(("r1",), ("u1", "u2"), (), AuthCost({"u1": frozenset({"r1"})}, 5))
    with pytest.raises(ValueError) as err:
        best_relation_for_profile(inst, usr)
    assert str(err.value) == message


def test_best_relation_profile_roundtrip():
    rng = random.Random(41)
    for _ in range(50):
        inst = helpers.rand_instance(rng, n_max=5, k_max=3)
        rel = helpers.rand_relation(rng, inst, complete=False)
        usr = profile_of(inst, rel)
        built, weight = best_relation_for_profile(inst, usr)
        assert profile_of(inst, built).counts == usr.counts
        assert weight == total_weight(inst, built)[0]
        assert weight <= total_weight(inst, rel)[0]


def test_best_relation_beats_every_relation_with_same_profile():
    rng = random.Random(42)
    for _ in range(30):
        inst = helpers.rand_instance(rng, n_max=4, k_max=2)
        rel = helpers.rand_relation(rng, inst, complete=False)
        usr = profile_of(inst, rel)
        _, weight = best_relation_for_profile(inst, usr)
        target = usr.counts
        for mapping in helpers.iter_mappings(inst):
            counts = {}
            for rs in mapping.values():
                m = inst.resource_mask(rs)
                counts[m] = counts.get(m, 0) + 1
            if {m: c for m, c in counts.items() if c} != {
                m: c for m, c in target.items() if c
            }:
                continue
            assert weight <= helpers.mapping_weight(inst, mapping)


def test_default_ell_clamping():
    inst = Instance(
        tuple(f"r{i}" for i in range(1, 11)),
        tuple(f"u{j}" for j in range(1, 101)),
        tuple([vapep.card_lb(f"r{i}", 5, 10) for i in range(1, 11)] + [vapep.user_count()]),
        AuthCost({}),
    )
    assert default_ell(inst) == 51
    few = Instance(("r1", "r2"), ("u1",), (), AuthCost({}))
    assert default_ell(few) == 1  # clamped to n


def test_solve_trivial_single_resource():
    inst = Instance(("r1",), ("u1", "u2"), (), AuthCost({"u1": frozenset({"r1"})}, 5))
    res = solve(inst)
    assert res.total_weight == 0
    assert res.relation.resources_of("u1") == frozenset({"r1"})
    assert res.meta["solver"] == "profile"


def test_solve_pinned_lower_bound_example():
    # one resource wants two users but only one is authorized; adding an
    # unauthorized helper at penalty 1 beats paying the shortfall curve
    inst = Instance(
        ("r1",),
        ("u1", "u2", "u3"),
        (vapep.card_lb("r1", 2, 10),),
        AuthCost({"u1": frozenset({"r1"})}, 1),
    )
    res = solve(inst, ell=2)
    assert res.total_weight == 1
    assert helpers.exhaustive_optimum(inst)[0] == 1


def test_solve_cap_monotonicity():
    rng = random.Random(43)
    for _ in range(25):
        inst = helpers.rand_instance(rng, n_max=5, k_max=3)
        totals = [solve(inst, ell=ell).total_weight for ell in range(1, inst.n + 1)]
        assert totals == sorted(totals, reverse=True)
        assert solve(inst, ell=inst.n).total_weight == helpers.exhaustive_optimum(inst)[0]


def test_profiles_enumerated_independent_of_n():
    counts = set()
    for n in (20, 200):
        inst = Instance(
            ("r1", "r2"),
            tuple(f"u{j}" for j in range(1, n + 1)),
            (vapep.sod_u("r1", "r2", 3),),
            AuthCost({}, 1),
        )
        res = solve(inst, ell=4)
        counts.add(res.meta["profiles_enumerated"])
        assert res.meta["ell"] == 4
    assert len(counts) == 1


def test_solve_respects_user_cap_size():
    rng = random.Random(44)
    for _ in range(20):
        inst = helpers.rand_instance(rng, n_max=6, k_max=3)
        ell = rng.randint(1, inst.n)
        res = solve(inst, ell=ell)
        assert len(res.relation.assigned_users()) <= ell
        assert res.relation.size() <= ell * inst.k


def test_solve_backends_agree(monkeypatch):
    rng = random.Random(46)
    assert "python" in vapep.available_backends()
    for _ in range(10):
        inst = helpers.rand_instance(rng, n_max=5, k_max=3)
        docs = set()
        for name in helpers.each_kernel(monkeypatch):
            res = solve(inst)
            assert res.meta["backend"] == name
            doc = res.to_doc(inst)
            doc["meta"].pop("backend")
            docs.add(vapep.canonical_json(doc))
        assert len(docs) == 1


@pytest.mark.parametrize("backend", vapep.available_backends())
def test_solve_matches_unbounded_first_optimum(backend, monkeypatch):
    # the bounded search keeps the profile a full enumeration keeps: the
    # same relation and weight on every constraint kind, penalty tables,
    # uniform, per-pair and custom authorization costs
    monkeypatch.setenv("APEP_KERNEL", backend)
    rng = random.Random(47)
    kinds, costs, tested = set(), set(), 0
    for i in range(320):
        inst = helpers.rand_instance(rng, n_max=5, k_max=4 if i % 8 == 0 else 3,
                                     max_cons=6)
        if inst.k == 4 and inst.n > 3:
            continue
        if i % 5 == 0:
            inst = helpers.with_custom_cost(rng, inst)
        ell = rng.randint(1, inst.n)
        res = solve(inst, ell=ell)
        rel, weight = helpers.first_optimum(inst, ell)
        assert res.total_weight == weight, i
        assert res.relation.assignment == rel.assignment, i
        tested += 1
        kinds.update(c.kind for c in inst.constraints)
        costs.add("custom" if inst.auth.custom else
                  type(inst.auth.pair_penalty).__name__)
    assert kinds == set(helpers.FAMILIES)
    assert costs == {"int", "dict", "custom"}
    assert tested >= 300, tested


@pytest.mark.parametrize("backend", vapep.available_backends())
def test_coupled_bound_keeps_the_first_optimum(backend, monkeypatch):
    # the coupled bound weighs each user still to place against user_count,
    # card_lb and sod_u; on instances made of those constraints, with every
    # penalty kind, the search still keeps the first optimal profile
    monkeypatch.setenv("APEP_KERNEL", backend)
    rng = random.Random(49)
    for i in range(300):
        k = rng.randint(1, 3)
        n = rng.randint(1, 5)
        resources = tuple(f"r{r + 1}" for r in range(k))
        users = tuple(f"u{u + 1}" for u in range(n))
        base = {u: frozenset(r for r in resources if rng.random() < 0.5) for u in users}
        inst = Instance(resources, users, tuple(helpers.rand_coupled(rng, resources, n)),
                        AuthCost(base, rng.randint(0, 4)))
        ell = rng.randint(1, n)
        res = solve(inst, ell=ell)
        rel, weight = helpers.first_optimum(inst, ell)
        assert res.total_weight == weight, i
        assert res.relation.assignment == rel.assignment, i


def _logged_solve(caplog, inst, **kw):
    """One solve of inst, and the int fields of the solver's INFO line."""
    with caplog.at_level(logging.INFO, logger="vapep.solver"):
        res = solve(inst, **kw)
    msg = caplog.records[-1].getMessage()
    assert msg.startswith("profile solve:")
    return res, {k: int(v) for k, v in (kv.split("=") for kv in msg.split() if "=" in kv)}


@pytest.mark.parametrize("backend", vapep.available_backends())
def test_search_counters_pinned(backend, monkeypatch, caplog):
    # k=3 generator instances at seed 0: with the coupled bound the search
    # enters 568 and 2,403 nodes at n=50 and n=400, not 4,316 and 232,425;
    # the space counted in meta stays the same
    monkeypatch.setenv("APEP_KERNEL", backend)
    got = [_logged_solve(caplog, vapep.generate(vapep.GeneratorConfig(n=n, k=3, seed=0)))[1]
           for n in (50, 400)]
    assert got == [
        dict(k=3, n=50, ell=16, profiles=242300, nodes=568, leaves=17, bound_cuts=407,
             evaluate_calls=11, weight=65),
        dict(k=3, n=400, ell=16, profiles=242300, nodes=2403, leaves=446,
             bound_cuts=1705, evaluate_calls=12, weight=605),
    ]


@pytest.mark.skipif("cython" not in vapep.available_backends(),
                    reason="the compiled kernel is not built")
def test_k6_search_with_the_profile_guard_lifted(monkeypatch, caplog):
    # k=6, n=60 took 718M nodes before the coupled bound; the guard
    # refuses its 6.7e24-profile space, so it is lifted here
    monkeypatch.setenv("APEP_KERNEL", "cython")
    monkeypatch.setattr(solver_profile, "MAX_PROFILES", 10**30)
    _, got = _logged_solve(caplog, vapep.generate(vapep.GeneratorConfig(n=60, k=6, seed=0)))
    assert got["weight"] == 72
    assert got["nodes"] < 10**6, got


@pytest.mark.parametrize("backend", vapep.available_backends())
def test_card_lb_on_the_level_being_counted(backend, monkeypatch):
    # r1's last level is the full mask, whose children are leaves: there
    # the card_lb shortfall falls as the count grows, so a leaf that fails
    # the bound must not end the count loop, or a later optimum is missed
    base = {"u1": {"r1", "r3"}, "u2": {"r2", "r3"}, "u3": {"r1", "r3"},
            "u4": {"r1", "r2", "r3"}, "u5": {"r1", "r2", "r3"}}
    inst = Instance(("r1", "r2", "r3"), tuple(base), (vapep.card_lb("r1", 3, 9),),
                    AuthCost(base, 1))
    monkeypatch.setenv("APEP_KERNEL", backend)
    res = solve(inst, ell=3)
    rel, weight = helpers.first_optimum(inst, 3)
    assert res.total_weight == weight == 0
    assert res.relation.assignment == rel.assignment


@pytest.mark.parametrize("backend", vapep.available_backends())
def test_linear_user_count_with_a_penalty_table(backend, monkeypatch):
    # the kernels read a user_count's table as they read any other's
    spec = vapep.PenaltySpec.from_table([5, 6], 1)
    uc = vapep.Constraint("user_count", (), spec=spec)
    base = {"u1": {"a"}, "u2": {"b"}, "u3": {"a", "b"}}
    inst = Instance(("a", "b"), tuple(base), (uc,), AuthCost(base, 10))
    rel, weight = helpers.first_optimum(inst, 3)
    monkeypatch.setenv("APEP_KERNEL", backend)
    for res in [solve(inst), vapep.solve_exhaustive(inst)]:
        assert res.total_weight == weight == 5
        assert res.relation.assignment == rel.assignment


def _evaluate_bound_instance():
    """n=80 and k=3, sparse authorizations, a card_lb on every resource and
    one sod_e and one bod_e: a search bound by its evaluate calls."""
    rng = random.Random(83)
    users = tuple(f"u{i}" for i in range(80))
    resources = ("r0", "r1", "r2")
    base = {u: frozenset(r for r in resources if rng.random() < 0.05) for u in users}
    cons = [vapep.card_lb(r, rng.randint(4, 8), rng.randint(3, 9)) for r in resources]
    cons += [vapep.sod_e("r0", "r1", 7), vapep.bod_e("r1", "r2", 5)]
    return Instance(resources, users, tuple(cons), AuthCost(base, rng.randint(2, 6)))


def test_evaluate_bound_instance_pinned(monkeypatch):
    inst = _evaluate_bound_instance()
    results = [solve(inst, ell=14) for _ in helpers.each_kernel(monkeypatch)]
    assert [r.total_weight for r in results] == [48] * len(results)
    assert len({frozenset(r.relation.assignment.items()) for r in results}) == 1


def test_solve_logs_search_counters(caplog):
    inst = _evaluate_bound_instance()
    res, fields = _logged_solve(caplog, inst, ell=3)
    assert fields["profiles"] == res.meta["profiles_enumerated"]
    assert 0 < fields["leaves"] <= fields["profiles"]
    assert fields["nodes"] > fields["leaves"]
    assert 0 < fields["evaluate_calls"] <= fields["leaves"]
    assert fields["bound_cuts"] > 0
    assert fields["weight"] == res.total_weight
    doc = res.to_doc(inst)
    assert not {"nodes", "leaves", "bound_cuts", "evaluate_calls"} & set(doc["meta"])


def test_solve_explicit_ell_is_clamped():
    inst = Instance(("r1",), ("u1",), (), AuthCost({}, 1))
    assert solve(inst, ell=99).meta["ell"] == 1
    assert solve(inst, ell=0).meta["ell"] == 1


# --------------------------------------------------------------------------
# candidate columns: cheapest_users and the reconstruction built on it

def _reference_best_relation(inst, usr):
    """Reference reconstruction that matches every slot against all n users."""
    counts = {m: c for m, c in usr.counts.items() if m}
    slots = []
    for mask in vapep.subset_order(inst.k):
        slots.extend([mask] * counts.get(mask, 0))
    prof = UserProfile(dict(counts), inst.resources)
    cw = sum(vapep.eval_profile(c, prof) for c in inst.constraints)
    if not slots:
        return AuthorizationRelation({}), cw
    costs = [[inst.omega_mask(u, mask) for u in range(inst.n)] for mask in slots]
    match, om = vapep.min_cost_assignment(costs)
    assignment = {
        inst.users[u]: frozenset(inst.mask_resources(mask))
        for mask, u in zip(slots, match)
    }
    return AuthorizationRelation(assignment), om + cw


def _tied_instance(rng, cost):
    """Small instance whose authorization costs tie often.  `cost` is
    "uniform" (penalty 0 to 2), "matrix" (per-pair penalties) or "custom"."""
    n = rng.randint(1, 9)
    k = rng.randint(1, 3)
    resources = tuple(f"r{i + 1}" for i in range(k))
    users = tuple(f"u{j + 1}" for j in range(n))
    kinds = [frozenset(r for r in resources if rng.random() < 0.5) for _ in range(2)]
    base = {u: rng.choice(kinds) for u in users}
    cons = []
    for _ in range(rng.randint(0, 3)):
        c = helpers.rand_constraint(rng, resources)
        if c is not None:
            cons.append(c)
    if cost == "uniform":
        auth = AuthCost(base, rng.choice((0, 0, 1, 2)))
    elif cost == "matrix":
        pp = {(u, r): rng.randint(0, 2) for u in users for r in resources
              if rng.random() < 0.5}
        auth = AuthCost(base, pp)
    else:
        scale = {u: rng.randint(0, 2) for u in users}

        def custom(u, rs, base=base, scale=scale):
            return scale[u] * len(rs - base[u]) + min(len(rs), 1)

        auth = AuthCost(base, 1, custom=custom)
    return Instance(resources, users, tuple(cons), auth)


def _random_profile(rng, inst):
    subs = vapep.subset_order(inst.k)
    m = inst.n if rng.random() < 0.25 else rng.randint(0, inst.n)
    counts = {}
    for _ in range(m):
        mask = rng.choice(subs)
        counts[mask] = counts.get(mask, 0) + 1
    counts[0] = inst.n - m
    return UserProfile(counts)


@pytest.mark.parametrize("cost", ["uniform", "matrix", "custom"])
def test_cheapest_users_matches_full_sort(cost):
    rng = random.Random(f"cheapest:{cost}")
    for _ in range(150):
        inst = _tied_instance(rng, cost)
        masks = [0] + vapep.subset_order(inst.k)
        m = rng.randint(1, inst.n + 3)  # past n the lists stop at n users
        got = solver_profile.cheapest_users(inst, masks, m)
        for mask, users in zip(masks, got):
            want = sorted(
                range(inst.n), key=lambda u: (inst.omega_mask(u, mask), u)
            )[:m]
            assert users == want


def test_cheapest_users_prices_each_type_once_under_a_penalty_matrix(monkeypatch):
    # users with equal masks and penalty rows are priced once per mask: at
    # most 2^3 masks x 4^3 rows = 512 types for each of the 7 masks, where
    # pricing every user per mask takes 7n calls
    n, L = 20000, 20
    rng = random.Random(26)
    doc = vapep.instance_to_doc(vapep.generate(vapep.GeneratorConfig(n=n, k=3, seed=3)))
    doc["auth"]["pair_penalty"] = [[rng.randint(0, 3) for _ in range(3)] for _ in range(n)]
    inst = vapep.instance_from_doc(doc)
    masks = vapep.subset_order(3)
    calls = 0
    omega_mask = Instance.omega_mask

    def counted(self, ui, mask):
        nonlocal calls
        calls += 1
        return omega_mask(self, ui, mask)

    monkeypatch.setattr(Instance, "omega_mask", counted)
    got = solver_profile.cheapest_users(inst, masks, L)
    assert calls < n
    monkeypatch.undo()
    for mask, users in zip(masks, got):
        row = inst.omega_row(mask)
        assert users == sorted(range(n), key=lambda u: (row[u], u))[:L]


@pytest.mark.parametrize("cost", ["uniform", "matrix", "custom"])
def test_best_relation_matches_all_user_reconstruction(cost):
    rng = random.Random(f"reconstruct:{cost}")
    full = 0
    for _ in range(300):
        inst = _tied_instance(rng, cost)
        usr = _random_profile(rng, inst)
        full += usr.assigned_count() == inst.n
        rel, weight = best_relation_for_profile(inst, usr)
        want_rel, want_weight = _reference_best_relation(inst, usr)
        assert weight == want_weight
        assert rel.assignment == want_rel.assignment
    assert full >= 50  # m equal to n is covered


# --------------------------------------------------------------------------
# profile-space guard

def test_solve_refuses_huge_profile_space_before_preparation():
    def custom(u, rs):
        raise AssertionError("authorization costs read before the guard")

    inst = Instance(
        tuple(f"r{i}" for i in range(1, 5)),
        tuple(f"u{j}" for j in range(1, 41)),
        (),
        AuthCost({}, 1, custom=custom),
    )
    assert count_profiles(4, 21) > solver_profile.MAX_PROFILES
    with pytest.raises(GuardError) as err:
        solve(inst, ell=21)
    assert "--ell" in str(err.value)
    assert str(solver_profile.MAX_PROFILES) in str(err.value)


def test_profile_guard_boundary(monkeypatch):
    inst = Instance(
        ("r1", "r2"),
        tuple(f"u{j}" for j in range(1, 7)),
        (vapep.sod_u("r1", "r2", 3),),
        AuthCost({"u1": frozenset({"r1"})}, 1),
    )
    size = count_profiles(2, 4)
    monkeypatch.setattr(solver_profile, "MAX_PROFILES", size)
    assert solve(inst, ell=4).meta["profiles_enumerated"] <= size
    monkeypatch.setattr(solver_profile, "MAX_PROFILES", size - 1)
    with pytest.raises(GuardError):
        solve(inst, ell=4)


def test_preparation_guard_boundary():
    check = solver_profile.check_preparation
    # k=20 passes while ell + constraints <= 64; k=21 never does
    check(20, 1, 63)
    check(20, 64, 0)
    with pytest.raises(GuardError):
        check(20, 1, 64)
    with pytest.raises(GuardError) as err:
        check(21, 1, 0)
    assert "k=21, ell=1" in str(err.value)
    assert str(solver_profile.MAX_PREP_CELLS) in str(err.value)
    # large ell at small k stays within it: one resource, 10^6 users
    check(1, 10**6, 10)


def test_solve_refuses_a_huge_preparation_before_building_it():
    def custom(u, rs):
        raise AssertionError("authorization costs read before the guard")

    inst = Instance(
        tuple(f"r{i}" for i in range(1, 25)), ("u1", "u2"), (),
        AuthCost({}, 1, custom=custom),
    )
    # one profile per subset at ell=1: well within MAX_PROFILES
    assert count_profiles(24, 1) <= solver_profile.MAX_PROFILES
    t0 = time.perf_counter()
    with pytest.raises(GuardError) as err:
        solve(inst, ell=1)
    assert time.perf_counter() - t0 < 0.5
    assert "k=24, ell=1" in str(err.value)


@pytest.mark.parametrize("weight", [1 << 62, 1 << 63, 1 << 70])
def test_optima_at_or_past_two_to_the_62_raise(weight, monkeypatch):
    # the searches start from 2^62 as their incumbent; an optimum that heavy
    # used to surface as a TypeError or an internal RuntimeError, and costs
    # past int64 as an OverflowError from the compiled kernels
    inst = Instance(
        ("r1",), ("u1", "u2"), (),
        AuthCost({}, 1, custom=lambda u, rs: weight if rs else 0),
    )
    plan = vapep.WspInstance(("s1", "s2"), ("u1", "u2"), (vapep.must_differ("s1", "s2"),),
                             cost_fn=lambda ui, mask: weight)
    with pytest.raises(ValueError, match=r"2\^62"):
        vapep.solve_wsp(plan)
    for _ in helpers.each_kernel(monkeypatch):
        for run in (solve, vapep.solve_exhaustive):
            with pytest.raises(ValueError, match=r"2\^62"):
                run(inst)


def test_optimum_just_below_two_to_the_62_is_found(monkeypatch):
    top = (1 << 62) - 1
    inst = Instance(
        ("r1",), ("u1", "u2"), (),
        AuthCost({}, 1, custom=lambda u, rs: (top if u == "u2" else 1 << 62) if rs else 0),
    )
    for _ in helpers.each_kernel(monkeypatch):
        assert solve(inst).total_weight == top
        assert vapep.solve_exhaustive(inst).total_weight == top
    plan = vapep.WspInstance(("s1",), ("u1", "u2"), (),
                             cost_fn=lambda ui, mask: top if ui == 1 else 1 << 62)
    assert vapep.solve_wsp(plan) == ({"s1": "u2"}, top)
