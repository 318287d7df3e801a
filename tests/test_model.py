"""Core domain types: authorization costs, relations, profiles, JSON forms."""
import gc
import json
import random

import pytest

import vapep
from vapep import (
    AuthCost,
    AuthorizationRelation,
    Instance,
    SolveResult,
    UserProfile,
    big_omega,
    canonical_json,
    dump_instance,
    instance_from_doc,
    instance_to_doc,
    omega,
    profile_of,
    relation_from_doc,
    relation_to_doc,
    subset_order,
    total_weight,
    validate_relation,
)

import helpers


def small_instance(k=2, n=2, cons=(), base=None, pen=1):
    resources = tuple(f"r{i + 1}" for i in range(k))
    users = tuple(f"u{j + 1}" for j in range(n))
    if base is None:
        base = {u: frozenset(resources) for u in users}
    return Instance(resources, users, tuple(cons), AuthCost(base, pen))


def test_omega_authorized_pair_costs_nothing():
    inst = small_instance(base={"u1": frozenset({"r1", "r2"}), "u2": frozenset()})
    assert omega(inst, "u1", {"r1", "r2"}) == 0


def test_omega_unauthorized_pairs_add_up():
    inst = small_instance(base={"u1": frozenset(), "u2": frozenset()}, pen=1)
    assert omega(inst, "u1", {"r1", "r2"}) == 2
    assert omega(inst, "u1", ()) == 0


def test_omega_rejects_unknown_names():
    inst = small_instance()
    with pytest.raises(ValueError):
        omega(inst, "ghost", {"r1"})
    with pytest.raises(ValueError):
        omega(inst, "u1", {"r9"})


def test_resource_mask_reads_a_one_shot_iterator():
    inst = small_instance()
    assert inst.resource_mask(r for r in ("r2", "r1")) == 3
    with pytest.raises(ValueError) as err:  # read again to report
        inst.resource_mask(r for r in ("r1", "r9", "r8"))
    assert str(err.value) == "unknown resource 'r8'"
    assert inst.mask_resources(3) == ("r1", "r2")
    assert inst.mask_resources(-1) == inst.mask_resources(7) == ("r1", "r2")


def test_omega_matches_direct_sum_random():
    rng = random.Random(11)
    for _ in range(100):
        inst = helpers.rand_instance(rng)
        for u in inst.users:
            rs = [r for r in inst.resources if rng.random() < 0.5]
            want = sum(
                helpers.pair_pen(inst, u, r)
                for r in rs
                if r not in inst.auth.base.get(u, frozenset())
            )
            assert omega(inst, u, rs) == want


def test_omega_monotone_in_subset():
    rng = random.Random(12)
    for _ in range(200):
        inst = helpers.rand_instance(rng)
        u = rng.choice(inst.users)
        big = [r for r in inst.resources if rng.random() < 0.6]
        small = [r for r in big if rng.random() < 0.6]
        assert omega(inst, u, small) <= omega(inst, u, big)


def test_big_omega_empty_and_authorized():
    inst = small_instance(base={"u1": frozenset({"r1"}), "u2": frozenset({"r2"})})
    assert big_omega(inst, AuthorizationRelation.from_mapping({})) == 0
    inside = AuthorizationRelation.from_mapping({"u1": ["r1"], "u2": ["r2"]})
    assert big_omega(inst, inside) == 0


def test_big_omega_is_per_user_sum():
    rng = random.Random(13)
    for _ in range(100):
        inst = helpers.rand_instance(rng)
        rel = helpers.rand_relation(rng, inst, complete=False)
        want = sum(omega(inst, u, rel.resources_of(u)) for u in inst.users)
        assert big_omega(inst, rel) == want


def test_total_weight_no_constraints_authorized_zero():
    inst = small_instance()
    rel = AuthorizationRelation.from_mapping({"u1": ["r1"], "u2": ["r2"]})
    total, breakdown = total_weight(inst, rel)
    assert total == 0
    assert breakdown["omega"] == 0
    assert breakdown["constraints"] == []


def test_total_weight_matches_flat_recount():
    rng = random.Random(14)
    for _ in range(150):
        inst = helpers.rand_instance(rng)
        rel = helpers.rand_relation(rng, inst, complete=False)
        total, breakdown = total_weight(inst, rel)
        assert total == helpers.relation_weight(inst, rel)
        assert total == breakdown["omega"] + sum(breakdown["constraints"])
        cats = breakdown["by_category"]
        assert total == sum(cats.values())


def test_total_weight_lifted_plan_example():
    # four resources, three existence bindings, two separations; the known
    # good relation satisfies every constraint.
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
    rel = AuthorizationRelation.from_mapping(
        {"u1": ["r1", "r2"], "u2": ["r1", "r3"], "u4": ["r3", "r4"]}
    )
    assert rel.users_of("r1") == {"u1", "u2"}
    assert rel.users_of("r2") == {"u1"}
    assert rel.users_of("r3") == {"u2", "u4"}
    assert rel.users_of("r4") == {"u4"}
    _, breakdown = total_weight(inst, rel)
    assert breakdown["constraints"] == [0, 0, 0, 0, 0]


def test_profile_of_known_histogram():
    inst = Instance(
        ("r1", "r2", "r3", "r4"),
        ("u1", "u2", "u3", "u4", "u5"),
        (),
        AuthCost({}),
    )
    rel = AuthorizationRelation.from_mapping(
        {
            "u1": ["r1"],
            "u2": ["r1", "r2"],
            "u3": ["r1", "r2"],
            "u4": ["r2", "r3", "r4"],
        }
    )
    usr = profile_of(inst, rel)
    b = {r: inst.resource_mask([r]) for r in inst.resources}
    assert usr.counts[b["r1"]] == 1
    assert usr.counts[b["r1"] | b["r2"]] == 2
    assert usr.counts[b["r2"] | b["r3"] | b["r4"]] == 1
    assert usr.counts[0] == 1
    assert sum(usr.counts.values()) == 5


def test_profile_of_empty_relation():
    inst = small_instance(k=2, n=4)
    usr = profile_of(inst, AuthorizationRelation.from_mapping({}))
    assert usr.counts == {0: 4}


def test_profile_sums_match_relation_size():
    rng = random.Random(15)
    for _ in range(100):
        inst = helpers.rand_instance(rng)
        rel = helpers.rand_relation(rng, inst, complete=False)
        usr = profile_of(inst, rel)
        assert sum(usr.counts.values()) == inst.n
        weighted = sum(bin(m).count("1") * c for m, c in usr.counts.items())
        assert weighted == rel.size()


def test_relation_views_are_consistent():
    rng = random.Random(16)
    for _ in range(50):
        inst = helpers.rand_instance(rng)
        rel = helpers.rand_relation(rng, inst, complete=False)
        for u in inst.users:
            for r in inst.resources:
                assert (u in rel.users_of(r)) == (r in rel.resources_of(u))
        assert rel.assigned_users() == {u for u in inst.users if rel.resources_of(u)}
        complete = all(rel.users_of(r) for r in inst.resources)
        assert rel.is_complete(inst) == complete


def test_validate_relation_rejects_foreign_names():
    inst = small_instance()
    with pytest.raises(ValueError):
        validate_relation(inst, AuthorizationRelation.from_mapping({"zz": ["r1"]}))
    with pytest.raises(ValueError):
        validate_relation(inst, AuthorizationRelation.from_mapping({"u1": ["r9"]}))


def test_relation_rejects_a_string_entry():
    # a string is one resource name, not its characters; total_weight
    # accepted the split relation {a, b} without an error
    inst = Instance(("a", "b"), ("u1",), (), AuthCost({}))
    for make in (AuthorizationRelation, AuthorizationRelation.from_mapping):
        with pytest.raises(ValueError) as err:
            total_weight(inst, make({"u1": ["a"], "u2": "ab"}))
        assert str(err.value) == "relation entry of user 'u2' must not be a string"
    rel = AuthorizationRelation.from_mapping({"u1": ("a",), "u2": {"b"}})
    assert rel.assignment == {"u1": frozenset({"a"}), "u2": frozenset({"b"})}


def test_instance_without_an_authorization_cost_raises_value_error():
    # it raised AttributeError on None.base
    with pytest.raises(ValueError) as err:
        Instance(("r1",), ("u1",), (), None)
    assert str(err.value) == "an authorization cost is required"


def test_custom_cost_returning_a_bool_is_rejected():
    for value in (True, False):
        inst = small_instance()
        inst.auth.custom = lambda u, rs, value=value: value
        with pytest.raises(ValueError, match="must return a non-negative int"):
            inst.omega_mask(0, 1)


def test_subset_order_popcount_then_value():
    assert subset_order(3) == [1, 2, 4, 3, 5, 6, 7]
    for k in range(1, 6):
        order = subset_order(k)
        assert len(order) == (1 << k) - 1
        assert 0 not in order
        keys = [(bin(m).count("1"), m) for m in order]
        assert keys == sorted(keys)


def test_user_profile_aggregates():
    usr = UserProfile({0b01: 1, 0b11: 2, 0b1110: 1, 0: 1}, ("r1", "r2", "r3", "r4"))
    assert usr.bit("r1") == 0
    assert usr.bit("r3") == 2
    with pytest.raises(ValueError):
        usr.bit("r9")
    assert usr.cover(usr.bit("r1")) == 3  # users holding r1
    assert usr.cover(usr.bit("r2")) == 3
    assert usr.pair(usr.bit("r1"), usr.bit("r2")) == 2
    assert usr.one_sided(usr.bit("r1"), usr.bit("r2")) == 1
    assert usr.one_sided(usr.bit("r2"), usr.bit("r1")) == 1
    assert usr.n_users() == 5
    assert usr.assigned_count() == 4
    assert usr.is_complete(4)
    assert not UserProfile({0b0001: 1, 0: 3}).is_complete(2)


def test_instance_caps_and_name_validation():
    with pytest.raises(ValueError):
        Instance(tuple(f"r{i}" for i in range(31)), ("u1",), (), AuthCost({}))
    with pytest.raises(ValueError):
        Instance(("r1", "r1"), ("u1",), (), AuthCost({}))
    with pytest.raises(ValueError):
        Instance((), ("u1",), (), AuthCost({}))
    with pytest.raises(ValueError):
        Instance(("r1",), (), (), AuthCost({}))
    with pytest.raises(ValueError):
        Instance(("r1",), ("u1",), (), AuthCost({"u9": frozenset({"r1"})}))
    too_many = tuple(vapep.card_lb("r1", 1) for _ in range(10_001))
    with pytest.raises(ValueError):
        Instance(("r1",), ("u1",), too_many, AuthCost({}))


def test_constraint_scope_checked_against_instance():
    with pytest.raises(ValueError):
        small_instance(cons=(vapep.sod_u("r1", "r9"),))


def test_canonical_json_shape():
    text = canonical_json({"b": 1, "a": [1, 2]})
    assert text.endswith("\n")
    assert text.startswith("{\n  ")
    assert json.loads(text) == {"b": 1, "a": [1, 2]}
    # insertion order preserved, not sorted
    assert text.index('"b"') < text.index('"a"')


def test_instance_json_roundtrip_random():
    # the file format carries linear penalties only
    rng = random.Random(17)
    for _ in range(60):
        inst = helpers.rand_instance(rng, linear_only=True)
        doc = instance_to_doc(inst)
        back = instance_from_doc(json.loads(json.dumps(doc)))
        assert dump_instance(back) == dump_instance(inst)


def test_table_penalties_are_not_serializable():
    inst = small_instance(
        cons=(vapep.sod_u("r1", "r2", vapep.PenaltySpec.from_table([2, 5], 1)),)
    )
    with pytest.raises(ValueError):
        instance_to_doc(inst)
    custom = Instance(("r1",), ("u1",), (), AuthCost({}, 1, custom=lambda u, rs: 0))
    with pytest.raises(ValueError) as err:
        instance_to_doc(custom)
    assert str(err.value) == "custom authorization costs are not serializable"


def test_instance_json_rejects_unknown_fields():
    inst = helpers.rand_instance(random.Random(18), linear_only=True)
    doc = instance_to_doc(inst)
    doc["surprise"] = 1
    with pytest.raises(ValueError):
        instance_from_doc(doc)
    doc = instance_to_doc(inst)
    doc["auth"]["color"] = "red"
    with pytest.raises(ValueError):
        instance_from_doc(doc)


def test_constraint_penalty_alias():
    base = {
        "resources": ["r1", "r2"],
        "users": ["u1"],
        "auth": {"pairs": [["u1", "r1"]], "pair_penalty": 1},
    }
    doc = dict(base, constraints=[{"type": "sod_u", "scope": ["r1", "r2"], "penalty": 7}])
    inst = instance_from_doc(doc)
    assert inst.constraints[0].spec.slope == 7
    doc = dict(base, constraints=[{"type": "sod_u", "scope": ["r1", "r2"], "slope": 7}])
    assert instance_from_doc(doc).constraints[0].spec.slope == 7
    doc = dict(
        base,
        constraints=[{"type": "sod_u", "scope": ["r1", "r2"], "penalty": 7, "slope": 7}],
    )
    with pytest.raises(ValueError):
        instance_from_doc(doc)


def test_matrix_pair_penalty_roundtrip():
    doc = {
        "resources": ["r1", "r2"],
        "users": ["u1", "u2"],
        "auth": {
            "pairs": [["u1", "r1"]],
            "pair_penalty": [[3, 1], [2, 5]],
        },
        "constraints": [],
    }
    inst = instance_from_doc(doc)
    assert omega(inst, "u1", ["r2"]) == 1
    assert omega(inst, "u2", ["r1", "r2"]) == 7
    again = instance_from_doc(json.loads(dump_instance(inst)))
    assert dump_instance(again) == dump_instance(inst)


def test_relation_doc_roundtrip():
    rng = random.Random(19)
    for _ in range(40):
        inst = helpers.rand_instance(rng)
        rel = helpers.rand_relation(rng, inst, complete=False)
        doc = relation_to_doc(inst, rel)
        back = relation_from_doc(json.loads(json.dumps(doc)), inst)
        assert {u: back.resources_of(u) for u in inst.users} == {
            u: rel.resources_of(u) for u in inst.users
        }
    with pytest.raises(ValueError):
        relation_from_doc({"assignment": {"u1": ["r1"]}, "x": 1}, inst)


@pytest.mark.parametrize("doc, message", [
    ([], "relation document must be a JSON object"),
    ({}, "relation needs an 'assignment' object"),
    ({"assignment": [["u1", "a"]]}, "relation needs an 'assignment' object"),
    ({"assignment": {"u1": ["c"]}}, "relation mentions unknown resource 'c'"),
], ids=["not an object", "no assignment", "a list as assignment", "unknown resource"])
def test_load_relation_reads_and_checks_the_file(tmp_path, doc, message):
    inst = Instance(("a", "b"), ("u1", "u2"), (), AuthCost({"u1": frozenset("ab")}))
    path = tmp_path / "rel.json"
    path.write_text(json.dumps({"assignment": {"u2": ["b", "a"]}}))
    rel = vapep.load_relation(str(path), inst)
    assert rel.assignment == {"u2": frozenset("ab")}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        vapep.load_relation(str(path), inst)
    assert str(err.value) == message


def test_relation_doc_needs_lists_of_resource_names():
    inst = Instance(("a", "b"), ("u1",), (), AuthCost({"u1": frozenset("ab")}))
    assert relation_from_doc({"assignment": {"u1": ["a", "b"]}}, inst).resources_of(
        "u1") == frozenset("ab")
    for value in ["ab", 5, None, ("a",), {"a": 1}, [["a"]], ["a", 1]]:
        with pytest.raises(ValueError, match="list of resource names"):
            relation_from_doc({"assignment": {"u1": value}}, inst)


def test_meta_survives_roundtrip():
    inst = helpers.rand_instance(random.Random(20))
    inst.meta = {"note": "hello", "seed": 5}
    back = instance_from_doc(json.loads(dump_instance(inst)))
    assert back.meta == {"note": "hello", "seed": 5}


def test_solve_result_build_checks_completeness():
    inst = small_instance()
    with pytest.raises(ValueError):
        SolveResult.build(inst, AuthorizationRelation.from_mapping({"u1": ["r1"]}), {})
    rel = AuthorizationRelation.from_mapping({"u1": ["r1", "r2"]})
    res = SolveResult.build(inst, rel, {"solver": "x", "wall_time_s": 1.25})
    doc = res.to_doc(inst)
    assert "wall_time_s" not in doc["meta"]
    assert doc["total_weight"] == res.total_weight
    assert doc["assignment"] == {"u1": ["r1", "r2"]}


def test_pair_penalty_bounds():
    with pytest.raises(ValueError):
        AuthCost({}, -1)
    with pytest.raises(ValueError):
        AuthCost({}, 10**6 + 1)
    with pytest.raises(ValueError):
        AuthCost({}, {("u1", "r1"): -2})


# --------------------------------------------------------------------------
# the loader against a copy of the set-based, two-pass loader it replaced


def _reference_check_names(names, what, cap):
    names = tuple(names)
    if not names:
        raise ValueError(f"at least one {what} is required")
    if len(names) > cap:
        raise ValueError(f"at most {cap} {what}s are supported")
    seen = set()
    for nm in names:
        if not isinstance(nm, str) or not nm:
            raise ValueError(f"{what} names must be non-empty strings")
        if nm in seen:
            raise ValueError(f"duplicate {what} name {nm!r}")
        seen.add(nm)
    return names


def _reference_instance(resources, users, constraints, base, pp):
    """The fields `Instance(resources, users, constraints, AuthCost(base, pp))`
    held, computed as the set-based loader did: AuthCost first, then the name,
    scope and authorization checks, then a second pass for the masks."""
    from vapep.constraints import MAX_CONSTRAINTS, MAX_PENALTY
    from vapep.model import MAX_RESOURCES, MAX_USERS

    base = {u: frozenset(rs) for u, rs in base.items()}
    if not isinstance(pp, (int, dict)):
        raise ValueError("pair penalty must be an integer or per-pair penalties")
    if isinstance(pp, bool) or (isinstance(pp, int) and not 0 <= pp <= MAX_PENALTY):
        raise ValueError(f"pair penalty must be in [0, {MAX_PENALTY}]")
    if isinstance(pp, dict):
        for v in pp.values():
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v <= MAX_PENALTY:
                raise ValueError(f"pair penalties must be in [0, {MAX_PENALTY}]")
    resources = _reference_check_names(resources, "resource", MAX_RESOURCES)
    users = _reference_check_names(users, "user", MAX_USERS)
    constraints = tuple(constraints)
    if len(constraints) > MAX_CONSTRAINTS:
        raise ValueError(f"at most {MAX_CONSTRAINTS} constraints are supported")
    rindex = {r: i for i, r in enumerate(resources)}
    uindex = {u: i for i, u in enumerate(users)}
    for c in constraints:
        for r in c.scope:
            if r not in rindex:
                raise ValueError(f"constraint scope uses unknown resource {r!r}")
    for u, rs in base.items():
        if u not in uindex:
            raise ValueError(f"authorization for unknown user {u!r}")
        for r in rs:
            if r not in rindex:
                raise ValueError(f"authorization for unknown resource {r!r}")
    if isinstance(pp, dict):
        for (u, r) in pp:
            if u not in uindex or r not in rindex:
                raise ValueError(f"pair penalty for unknown pair ({u!r}, {r!r})")
    base_mask = [0] * len(users)
    for u, rs in base.items():
        m = 0
        for r in rs:
            m |= 1 << rindex[r]
        base_mask[uindex[u]] = m
    pen = None
    if isinstance(pp, dict):
        pen = [[pp.get((u, r), 1) for r in resources] for u in users]
    return {
        "users": users,
        "resources": resources,
        "base": base,
        "pair_penalty": pp,
        "base_mask": base_mask,
        "pen": pen,
    }


def _reference_from_doc(doc):
    """instance_from_doc as it was: pairs grouped into per-user sets."""
    from vapep import model

    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")
    model._reject_unknown(doc, model._TOP_KEYS, "instance")
    for key in ("resources", "users"):
        if not isinstance(doc.get(key), list):
            raise ValueError(f"instance needs a {key!r} list")
    auth_doc = doc.get("auth", {})
    if not isinstance(auth_doc, dict):
        raise ValueError("auth must be an object")
    model._reject_unknown(auth_doc, model._AUTH_KEYS, "auth")
    base: dict = {}
    for p in auth_doc.get("pairs", []):
        if not (isinstance(p, list) and len(p) == 2):
            raise ValueError("auth.pairs entries must be [user, resource]")
        base.setdefault(p[0], set()).add(p[1])
    pp = auth_doc.get("pair_penalty", 1)
    if isinstance(pp, list):
        users, resources = doc["users"], doc["resources"]
        if len(pp) != len(users) or any(
            not isinstance(row, list) or len(row) != len(resources) for row in pp
        ):
            raise ValueError("pair_penalty matrix must be |users| x |resources|")
        pp = {(u, r): row[i] for u, row in zip(users, pp) for i, r in enumerate(resources)}
    cons = tuple(
        model._constraint_from_doc(*c) for c in model._constraint_walk(doc, model._CON_KEYS, [])
    )
    if isinstance(auth_doc.get("pair_penalty"), dict):
        raise ValueError("pair penalty must be an integer or per-pair penalties")
    return _reference_instance(
        tuple(doc["resources"]), tuple(doc["users"]), cons, base, pp
    )


def _loaded_fields(inst):
    return {
        "users": inst.users,
        "resources": inst.resources,
        "base": inst.auth.base,
        "pair_penalty": inst.auth.pair_penalty,
        "base_mask": inst._base_mask,
        "pen": inst._pen,
    }


def _random_doc(rng):
    """A valid document: duplicate pairs, users without pairs, pairs out of
    user order, and a uniform or a per-pair penalty."""
    k, n = rng.randint(1, 5), rng.randint(1, 30)
    resources = [f"r{i}" for i in range(k)]
    users = [f"u{j}" for j in range(n)]
    rng.shuffle(users)
    pairs = [[u, r] for u in users for r in resources if rng.random() < 0.4]
    pairs += [list(rng.choice(pairs)) for _ in range(rng.randint(0, 5)) if pairs]
    rng.shuffle(pairs)
    if rng.random() < 0.5:
        pp = rng.randint(0, 3)
    else:
        pp = [[rng.randint(0, 3) for _ in resources] for _ in users]
    cons = []
    if k >= 2 and rng.random() < 0.5:
        cons.append({"type": "sod_u", "scope": rng.sample(resources, 2), "slope": 2})
    return {
        "resources": resources,
        "users": users,
        "auth": {"pairs": pairs, "pair_penalty": pp},
        "constraints": cons,
    }


def _break(rng, doc, fault):
    users, resources, pairs = doc["users"], doc["resources"], doc["auth"]["pairs"]
    at = rng.randint(0, len(pairs))
    if fault == "pair shape":
        bad = rng.choice([["u0"], ["u0", "r0", "r0"], "u0", {"u0": "r0"}, []])
        pairs.insert(at, bad)
    elif fault == "unknown user":
        pairs.insert(at, ["ghost", resources[0]])
    elif fault == "unknown resource":
        pairs.insert(at, [rng.choice(users), "r_ghost"])
    elif fault == "duplicate":
        names = rng.choice([users, resources])
        names.insert(rng.randint(0, len(names)), rng.choice(names))
    elif fault == "bad name":
        names = rng.choice([users, resources])
        names.insert(rng.randint(0, len(names)), rng.choice(["", 7, None, ["u1"]]))
    elif fault == "pair-penalty object":
        # a JSON object is no penalty; per-pair penalties come as a matrix
        doc["auth"]["pair_penalty"] = {"xy": 1}
    return doc


LOADER_FAULTS = {  # fault -> the start of the message it raises on its own
    "pair shape": "auth.pairs entries must be [user, resource]",
    "unknown user": "authorization for unknown user",
    "unknown resource": "authorization for unknown resource",
    "duplicate": "duplicate ",
    "bad name": ("user names must be", "resource names must be"),
    "pair-penalty object": "pair penalty must be an integer or per-pair penalties",
}


def _outcome(load, doc):
    try:
        return "ok", load(doc)
    except (ValueError, TypeError) as exc:
        # an unhashable name in a per-pair matrix's keys raises TypeError
        return type(exc).__name__, str(exc)


def _route_docs(rng, doc):
    """Documents on doc's names with a uniform penalty, whose pairs sit on
    either side of the loaders' in-order route (one pair per user, in user
    order), by name."""
    users, resources = doc["users"], doc["resources"]
    in_order = [[u, rng.choice(resources)] for u in users]
    at = rng.randrange(len(users))

    def edit(i, pair):
        return in_order[:i] + [pair] + in_order[i + 1:]

    shuffled = in_order[:]
    rng.shuffle(shuffled)
    extra = [users[at], rng.choice(resources)]
    variants = {
        "in order": (users, in_order),
        "shuffled": (users, shuffled),
        "repeated pair": (users, in_order[:at + 1] + [list(in_order[at])] + in_order[at + 1:]),
        "user without pairs": (users, in_order[:at] + in_order[at + 1:]),
        "one extra pair": (users, in_order[:at + 1] + [extra] + in_order[at + 1:]),
        "unknown resource": (users, edit(at, [users[at], "r_ghost"])),
        "unhashable resource": (users, edit(at, [users[at], [resources[0]]])),
        "unhashable user": (users, edit(at, [[users[at]], resources[0]])),
        "duplicate user": (users + [users[at]], in_order + [[users[at], resources[0]]]),
    }
    return {
        name: {"resources": resources, "users": names,
               "auth": {"pairs": pairs, "pair_penalty": 2}}
        for name, (names, pairs) in variants.items()
    }


def _constructed(doc, plan):
    """base and masks of the constructor route: the pairs grouped into
    per-user sets, then AuthCost and Instance (or WspInstance)."""
    base: dict = {}
    for u, r in doc["auth"]["pairs"]:
        base.setdefault(u, set()).add(r)
    auth = AuthCost(base, doc["auth"]["pair_penalty"])
    make = vapep.WspInstance if plan else Instance
    inst = make(tuple(doc["resources"]), tuple(doc["users"]), (), auth)
    return inst.auth.base, inst._base_mask


def test_loader_matches_set_based_loader_on_random_documents():
    rng = random.Random(31)
    routes = random.Random(38)
    seen = set()
    for i in range(400):
        doc = _random_doc(rng)
        text = json.dumps(doc)
        want = _reference_from_doc(json.loads(text))
        got = _loaded_fields(instance_from_doc(json.loads(text)))
        assert got == want
        assert json.loads(text) == doc  # the loader did not touch its input
        if i % 4:
            continue
        # both routes of the pair masks give the constructors' base, masks
        # and errors, for instance and plan documents
        for name, edge in _route_docs(routes, doc).items():
            want = _outcome(_reference_from_doc, edge)
            got = _outcome(lambda d: _loaded_fields(instance_from_doc(d)), edge)
            assert got == want, name
            built = _outcome(lambda d: _constructed(d, False), edge)
            if got[0] == "ok":
                got = "ok", (got[1]["base"], got[1]["base_mask"])
            assert got == built, name
            inst_doc, plan_doc = _as_plan_docs(edge)
            got = _plan_outcome(plan_doc)
            if got[0] == "ok":
                got = "ok", got[1][2:]
            assert got == _outcome(lambda d: _constructed(d, True), edge), name
            seen.add((name, got[0]))
    assert {name for name, _ in seen} == set(_route_docs(routes, _random_doc(rng)))
    assert ("in order", "ok") in seen and ("unknown resource", "ValueError") in seen
    assert ("unhashable resource", "TypeError") in seen


class _NoLookups(dict):
    def __getitem__(self, key):
        raise AssertionError(f"looked up {key!r}")


@pytest.mark.parametrize("plan", [False, True])
def test_pairs_in_user_order_need_no_user_lookups(plan):
    from vapep.model import _name_index, _pair_masks

    users = [f"u{j}" for j in range(6)]
    names = ["r0", "r1", "r2"]
    pairs = [[u, names[j % 3]] for j, u in enumerate(users)]
    uindex = _NoLookups(_name_index(users))
    masks = _pair_masks(pairs, "[user, resource]", users, uindex, names, 30)
    assert masks == [1, 2, 4, 1, 2, 4]
    with pytest.raises(AssertionError, match="looked up"):
        _pair_masks(pairs[::-1], "[user, resource]", users, uindex, names, 30)
    # the loaders take the route, and keep its masks
    doc = {"resources": names, "users": users, "auth": {"pairs": pairs}}
    if plan:
        doc["steps"] = doc.pop("resources")
        assert vapep.wsp_from_doc(doc)._base_mask == masks
    else:
        assert instance_from_doc(doc)._base_mask == masks


def _fault_docs():
    """(faults, document) for 600 random documents, each broken by one or
    two loader faults."""
    rng = random.Random(32)
    for i in range(600):
        faults = rng.sample(sorted(LOADER_FAULTS), 1 if i % 3 else 2)
        doc = _random_doc(rng)
        for fault in faults:
            _break(rng, doc, fault)
        yield faults, doc


def test_loader_error_messages_match_set_based_loader():
    hits = dict.fromkeys(LOADER_FAULTS, 0)
    for faults, doc in _fault_docs():
        text = json.dumps(doc)
        want = _outcome(_reference_from_doc, json.loads(text))
        got = _outcome(lambda d: _loaded_fields(instance_from_doc(d)), json.loads(text))
        assert got == want, faults
        assert want[0] != "ok", faults
        if len(faults) == 1:
            # a per-pair matrix can fail its shape check first
            hits[faults[0]] += want[1].startswith(LOADER_FAULTS[faults[0]])
    assert all(hits.values()), hits


def test_direct_instance_matches_set_based_construction():
    rng = random.Random(33)
    for _ in range(200):
        k, n = rng.randint(1, 4), rng.randint(1, 8)
        resources = tuple(f"r{i}" for i in range(k))
        users = tuple(f"u{j}" for j in range(n))
        base = {
            u: {r for r in resources if rng.random() < 0.5}
            for u in rng.sample(users, rng.randint(0, n))
        }
        pp = {
            (rng.choice(users + ("ghost",)), rng.choice(resources)): rng.randint(0, 3)
            for _ in range(rng.randint(0, 3))
        } or rng.randint(0, 2)
        want = _outcome(lambda _: _reference_instance(resources, users, (), base, pp), None)
        got = _outcome(
            lambda _: _loaded_fields(Instance(resources, users, (), AuthCost(base, pp))),
            None,
        )
        assert got == want


class _PairList(list):
    """A list subclass; the loaders take it as a pair, as isinstance does."""


def _as_plan_docs(doc):
    """doc's names and pairs, with a uniform penalty and no constraints, as
    an instance document and as a plan document whose steps are the
    resources."""
    auth = {"pairs": doc["auth"]["pairs"]}
    return (
        {"resources": doc["resources"], "users": doc["users"], "auth": auth},
        {"steps": doc["resources"], "users": doc["users"], "auth": auth},
    )


def _plan_outcome(doc):
    got = _outcome(vapep.wsp_from_doc, doc)
    if got[0] != "ok":
        return got
    w = got[1]
    return "ok", (w.users, w.steps, w.auth.base, w._base_mask)


def _head_faults(key: str) -> dict:
    """Edits that break the head of a document whose names sit under `key`,
    by name."""
    def auth(d, **change):
        return dict(d, auth=dict(d["auth"], **change))

    return {
        "not an object": lambda d: [d],
        "unknown field": lambda d: dict(d, extra=1, more=2),
        "names missing": lambda d: {f: v for f, v in d.items() if f != key},
        "names not a list": lambda d: dict(d, **{key: "r0"}),
        "users not a list": lambda d: dict(d, users=("u0", "u1")),
        "auth not an object": lambda d: dict(d, auth=[["u0", "r0"]]),
        "unknown auth field": lambda d: auth(d, weights=[]),
        "pair shape": lambda d: auth(d, pairs=d["auth"]["pairs"] + [["u0"]]),
        "pairs not a list": lambda d: auth(d, pairs=None),
        "unknown user": lambda d: auth(d, pairs=d["auth"]["pairs"] + [["ghost", "r0"]]),
        "unknown name": lambda d: auth(d, pairs=[["u0", "ghost"]] + d["auth"]["pairs"]),
        "unhashable name": lambda d: auth(d, pairs=d["auth"]["pairs"] + [["u0", ["r0"]]]),
        "duplicate user": lambda d: dict(d, users=["u0", "u1", "u0"]),
        "bad name": lambda d: dict(d, **{key: ["r0", 7]}),
        "too many names": lambda d: dict(d, **{key: [f"r{i}" for i in range(901)]}),
        "pair penalty object": lambda d: auth(d, pair_penalty={"xy": 1}),
    }


# (instance, plan) outcome of each head fault, as the two loaders gave them
# while each read its head in its own code
_HEAD_OUTCOMES = {
    "not an object": ("instance document must be a JSON object",
                      "plan instance document must be a JSON object"),
    "unknown field": ("unknown field(s) in instance: extra, more",
                      "unknown field(s) in plan instance: extra, more"),
    "names missing": ("instance needs a 'resources' list", "plan instance needs a 'steps' list"),
    "names not a list": ("instance needs a 'resources' list",
                         "plan instance needs a 'steps' list"),
    "users not a list": ("instance needs a 'users' list", "plan instance needs a 'users' list"),
    "auth not an object": ("auth must be an object",) * 2,
    "unknown auth field": ("unknown field(s) in auth: weights",) * 2,
    "pair shape": ("auth.pairs entries must be [user, resource]",
                   "auth.pairs entries must be [user, step]"),
    "pairs not a list": ("auth.pairs must be a list",) * 2,
    "unknown user": ("authorization for unknown user 'ghost'",) * 2,
    "unknown name": ("authorization for unknown resource 'ghost'",
                     "authorization for unknown step 'ghost'"),
    "unhashable name": (("TypeError", "unhashable type: 'list'"),) * 2,
    "duplicate user": ("duplicate user name 'u0'",) * 2,
    "bad name": ("resource names must be non-empty strings",
                 "step names must be non-empty strings"),
    "too many names": ("at most 30 resources are supported", "at most 900 steps are supported"),
    "pair penalty object": ("pair penalty must be an integer or per-pair penalties",) * 2,
}


def test_loaders_read_the_document_head_alike():
    doc = {"resources": ["r0", "r1"], "users": ["u0", "u1"],
           "auth": {"pairs": [["u0", "r0"], ["u1", "r1"]]}}
    inst_doc, plan_doc = _as_plan_docs(doc)
    inst_faults, plan_faults = _head_faults("resources"), _head_faults("steps")
    assert set(inst_faults) == set(_HEAD_OUTCOMES)
    for name, wants in _HEAD_OUTCOMES.items():
        got = (_outcome(instance_from_doc, inst_faults[name](inst_doc)),
               _outcome(vapep.wsp_from_doc, plan_faults[name](plan_doc)))
        assert got == tuple(w if type(w) is tuple else ("ValueError", w) for w in wants), name


def test_loader_errors_for_unhashable_and_subclassed_pairs():
    # An unhashable user or resource in a pair fails where the pairs are
    # read, in pair order, before the penalty matrix is, as grouping the
    # pairs into per-user sets does; a plan document reads its pairs alike.
    rng = random.Random(36)
    hits = dict.fromkeys(["ok", "TypeError", "ValueError", "TypeError before matrix"], 0)
    for i in range(400):
        doc = _random_doc(rng)
        users, resources, pairs = doc["users"], doc["resources"], doc["auth"]["pairs"]
        if i % 4:
            bad = rng.choice([
                [[users[0]], resources[0]],
                [{"u": users[0]}, resources[0]],
                [users[0], [resources[0]]],
                [users[0], {"r": resources[0]}],
            ])
            pairs.insert(rng.randint(0, len(pairs)), bad)
        fault = None
        if i % 2:
            fault = rng.choice(sorted(LOADER_FAULTS) + ["matrix shape"])
            if fault == "matrix shape":
                doc["auth"]["pair_penalty"] = [[1] * (len(resources) + 1)]
            else:
                _break(rng, doc, fault)
        if i % 3 == 0:
            doc["auth"]["pairs"] = [
                _PairList(p) if type(p) is list else p for p in doc["auth"]["pairs"]
            ]
        before = repr(doc)
        want = _outcome(_reference_from_doc, doc)
        got = _outcome(lambda d: _loaded_fields(instance_from_doc(d)), doc)
        assert got == want, (i, fault)
        assert repr(doc) == before  # the loader did not touch its input
        hits[want[0]] += 1
        if fault == "matrix shape" and want[0] == "TypeError":
            hits["TypeError before matrix"] += 1

        inst_doc, plan_doc = _as_plan_docs(doc)
        want = _outcome(_reference_from_doc, inst_doc)
        if want[0] == "ok":
            fields = want[1]
            want = "ok", (fields["users"], fields["resources"], fields["base"],
                          fields["base_mask"])
        else:
            want = want[0], want[1].replace("resource", "step")
        assert _plan_outcome(plan_doc) == want, (i, fault)
    assert all(hits.values()), hits


def test_unhashable_pair_user_fails_before_the_penalty_matrix():
    doc = {
        "resources": ["r0"],
        "users": ["u0"],
        "auth": {"pairs": [["u0", "r0"], [["u0"], "r0"]], "pair_penalty": [[1, 2]]},
    }
    with pytest.raises(TypeError, match="unhashable type: 'list'"):
        instance_from_doc(doc)
    assert _outcome(_reference_from_doc, doc) == ("TypeError", "unhashable type: 'list'")


def test_loaders_check_pair_penalties():
    # AuthCost's range checks run on the loaders' path too
    for pp in (-1, 10**7, True, [[0, -1], [1, 1]], [[0, 1.5], [1, 1]], [[0, 1], [True, 1]],
               [[0, 10**7], [1, 1]], 2, [[0, 1], [2, 3]]):
        doc = {
            "resources": ["r0", "r1"],
            "users": ["u0", "u1"],
            "auth": {"pairs": [["u0", "r0"], ["u1", "r1"]], "pair_penalty": pp},
        }
        want = _outcome(_reference_from_doc, doc)
        assert _outcome(lambda d: _loaded_fields(instance_from_doc(d)), doc) == want
        if not isinstance(pp, list):
            plan = {"steps": doc["resources"], "users": doc["users"], "auth": doc["auth"]}
            got = _outcome(vapep.wsp_from_doc, plan)
            assert got[0] == want[0] and (got[0] == "ok" or got[1] == want[1])


@pytest.mark.parametrize("pp", ["ab", None, 1.5, [[1]], {"x": 5}, {"u0r0": 5}])
def test_loaders_reject_pair_penalties_that_are_not_integers(pp):
    # these loaded before, and the solve then raised TypeError or an object
    # was misread; a matrix is a per-pair penalty in an instance document only
    auth = {"pairs": [["u0", "r0"]], "pair_penalty": pp}
    doc = {"resources": ["r0"], "users": ["u0"], "auth": auth}
    plan = {"steps": ["r0"], "users": ["u0"], "auth": auth}
    message = "pair penalty must be an integer or per-pair penalties"
    with pytest.raises(ValueError, match=message):
        vapep.wsp_from_doc(plan)
    if isinstance(pp, list):
        assert instance_from_doc(doc)._pen == [[1]]
    else:
        with pytest.raises(ValueError, match=message):
            instance_from_doc(doc)


@pytest.mark.parametrize("change, message", [
    ({"constraints": {}}, "constraints must be a list"),
    ({"constraints": [5]}, "constraints[0] must be an object"),
    ({"constraints": [{"type": "sod_u", "scope": "r0"}]}, "constraints[0]: scope must be a list"),
    ({"constraints": [{"type": "user_count", "weight": 1, "why": 0}]},
     "unknown field(s) in constraints[0]: weight, why"),
    ({"constraints": [{"type": "user_count"}, {"type": "sod_x"}]},
     "constraints[1]: unknown constraint type 'sod_x'"),
    ({"constraints": [{"type": "sod_u"}]}, "sod_u needs two distinct resources"),
    ({"constraints": 5, "meta": []}, "constraints must be a list"),
    ({"constraints": [], "meta": []}, "meta must be an object"),
    ({"constraints": 5, "auth": {"pair_penalty": [[1]]}},
     "pair_penalty matrix must be |users| x |resources|"),
    ({"constraints": [{"type": "sod_u", "scope": ["r0", "r1"], "t": 2}]},
     "constraints[0]: field 't' not valid for sod_u"),
    ({"constraints": [{"type": "sod_e", "scope": ["r0", "r1"], "slope": 2}]},
     "constraints[0]: field 'slope' not valid for sod_e"),
    ({"constraints": [{"type": "card_lb", "scope": ["r0"]}]},
     "constraints[0]: card_lb needs a threshold t"),
    ({"constraints": [{"type": "user_count", "scope": ["r0"]}]},
     "constraints[0]: user_count takes no scope"),
])
def test_instance_loader_checks_the_constraint_list(change, message):
    # the messages and their order; the set-based reference loader shares
    # the constraint-list walk, so it does not pin these
    doc = {"resources": ["r0", "r1"], "users": ["u0"], "auth": {"pairs": [["u0", "r0"]]}}
    doc.update(change)
    with pytest.raises(ValueError) as err:
        instance_from_doc(doc)
    assert str(err.value) == message


@pytest.mark.parametrize("field, value, message", [
    ("slope", 0, "penalty slope must be in"),
    ("penalty", 0, "penalty slope must be in"),
    ("slope", False, "penalty slope must be an integer"),
])
@pytest.mark.parametrize("entry", [
    {"type": "sod_u", "scope": ["r0", "r1"]},
    {"type": "bod_u", "scope": ["r0", "r1"]},
    {"type": "card_lb", "scope": ["r0"], "t": 1},
    {"type": "card_ub", "scope": ["r1"], "t": 1},
])
def test_loader_rejects_a_zero_or_false_slope(entry, field, value, message):
    # these were read as slope 1
    doc = {"resources": ["r0", "r1"], "users": ["u0"], "auth": {"pairs": [["u0", "r0"]]},
           "constraints": [dict(entry, **{field: value})]}
    with pytest.raises(ValueError, match=message):
        instance_from_doc(doc)


@pytest.mark.parametrize("scope", [["r0", ["r1"]], [["r0"], "r1"], ["r0", 1]])
def test_loader_rejects_scope_entries_that_are_not_names(scope):
    # an unhashable entry raised TypeError from the Instance constructor
    doc = {"resources": ["r0", "r1"], "users": ["u0"], "auth": {"pairs": [["u0", "r0"]]},
           "constraints": [{"type": "sod_u", "scope": scope}]}
    with pytest.raises(ValueError, match="sod_u scope entries must be resource names"):
        instance_from_doc(doc)


def _reference_user_types(masks, pen, m):
    """Instance.user_types as one pass over the users: keyed by mask under a
    uniform penalty and by (mask, penalty row) under a per-pair matrix."""
    keys = masks if pen is None else [(b, tuple(row)) for b, row in zip(masks, pen)]
    groups = {}
    for u, key in enumerate(keys):
        group = groups.get(key)
        if group is None:
            groups[key] = [u]
        elif len(group) < m:
            group.append(u)
    return groups


SCALE_CASES = [(20000, 3), (3000, 6)]


def _scale_doc(n, k):
    """A generated document with shuffled, repeated and missing pairs, and
    at k=6 a per-pair penalty matrix."""
    from vapep.generator import GeneratorConfig, generate

    rng = random.Random(37)
    doc = instance_to_doc(generate(GeneratorConfig(n=n, k=k, seed=5)))
    idle = set(rng.sample(doc["users"], n // 10))
    pairs = [p for p in doc["auth"]["pairs"] if p[0] not in idle]
    pairs += [list(p) for p in rng.sample(pairs, n // 20)]
    rng.shuffle(pairs)
    doc["auth"]["pairs"] = pairs
    if k == 6:
        doc["auth"]["pair_penalty"] = [
            [rng.randint(0, 3) for _ in doc["resources"]] for _ in doc["users"]
        ]
    return doc


@pytest.mark.parametrize("n, k", SCALE_CASES)
def test_loader_matches_set_based_loader_at_scale(n, k):
    # user_types stops early when m is 1 or 5 and passes over every user
    # when m is n; at k=6 the users are typed by mask and penalty row
    text = json.dumps(_scale_doc(n, k))
    want = _reference_from_doc(json.loads(text))
    inst = instance_from_doc(json.loads(text))
    assert _loaded_fields(inst) == want
    for m in (1, 5, n):
        got = inst.user_types(m)
        ref = _reference_user_types(want["base_mask"], want["pen"], m)
        assert list(got.items()) == list(ref.items())


@pytest.mark.parametrize("plan", [False, True])
def test_loaders_report_the_name_cap_without_a_bit_table(plan):
    # 10^5 resource (or step) names: a bit per name would take about
    # 0.7 GB of masks; the cap is reported as the constructors report it
    import tracemalloc

    names = [f"r{i}" for i in range(10**5)]
    pairs = [["u0", names[0]], ["u1", names[-1]], ["u1", names[7]]]
    if plan:
        doc = {"steps": names, "users": ["u0", "u1"], "auth": {"pairs": pairs}}
        load, message = vapep.wsp_from_doc, "at most 900 steps are supported"
    else:
        doc = {"resources": names, "users": ["u0", "u1"], "auth": {"pairs": pairs}}
        load, message = instance_from_doc, "at most 30 resources are supported"
        assert _outcome(_reference_from_doc, doc) == ("ValueError", message)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            load(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    # pair faults are still reported first
    pairs.insert(1, ["u0"])
    with pytest.raises(ValueError, match=r"auth.pairs entries must be \[user, "):
        load(doc)


def test_equal_authorized_sets_share_one_frozenset():
    auth = AuthCost({"u1": ["r1", "r2"], "u2": ("r2", "r1", "r2"), "u3": {"r1"}})
    assert auth.base["u1"] is auth.base["u2"]
    assert auth.base == {
        "u1": frozenset({"r1", "r2"}),
        "u2": frozenset({"r1", "r2"}),
        "u3": frozenset({"r1"}),
    }


# the messages of names missing from a set, one a line
_UNKNOWN_NAME_MESSAGES = """
import vapep
from vapep import mipgen
def message(f, *args):
    try:
        f(*args)
    except ValueError as exc:
        print(exc)
names = {"zz", "xx", "yy"}
message(vapep.Instance, ("r1",), ("u1",), (), vapep.AuthCost({"u1": names}))
message(vapep.WspInstance, ("s1",), ("u1",), (), vapep.AuthCost({"u1": names}))
inst = vapep.Instance(("r1",), ("u1",), (), vapep.AuthCost({"u1": {"r1"}}))
rel = vapep.AuthorizationRelation({"u1": names | {"r1"}})
message(vapep.validate_relation, inst, rel)
message(mipgen.eval_at, mipgen.build_naive(inst), rel)
message(vapep.omega, inst, "u1", names)
w = vapep.WspInstance(("s1",), ("u1",), (), vapep.AuthCost({}))
message(w.step_mask, names | {"s1"})
"""


def test_unknown_names_in_a_set_are_reported_whatever_the_hash_seed():
    # under these two seeds the set iterates 'zz' and 'yy' first
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(vapep.__file__))
    outs = set()
    for seed in ("1", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _UNKNOWN_NAME_MESSAGES], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert outs == {"authorization for unknown resource 'xx'\n"
                    "authorization for unknown step 'xx'\n"
                    "relation mentions unknown resource 'xx'\n"
                    "relation mentions unknown resource 'xx'\n"
                    "unknown resource 'xx'\n"
                    "unknown step 'xx'\n"}


# --------------------------------------------------------------------------
# load_instance and the cyclic collector


def test_load_instance_restores_gc_state(tmp_path, monkeypatch):
    from vapep import model

    good = tmp_path / "good.json"
    dump_instance(small_instance(), str(good))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"resources": ["r1"], "users": ["u1", "u1"]}))
    during = []
    real = model.instance_from_doc

    def spy(doc):
        during.append(gc.isenabled())
        return real(doc)

    monkeypatch.setattr(model, "instance_from_doc", spy)
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            assert model.load_instance(str(good)).users == ("u1", "u2")
            assert gc.isenabled() is enabled
            with pytest.raises(ValueError, match="duplicate user name 'u1'"):
                model.load_instance(str(bad))
            assert gc.isenabled() is enabled
            with pytest.raises(FileNotFoundError):
                model.load_instance(str(tmp_path / "missing.json"))
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    assert during == [False] * 4


def test_loaded_authorizations_are_keyed_by_the_user_names(tmp_path):
    # json.load gives every occurrence of a name its own string; the loaders
    # key the authorizations by the objects held in `users`, so no second
    # copy of each name stays alive with the instance
    rng = random.Random(35)
    inst = helpers.rand_instance(rng, n_min=5, n_max=8, k_min=2, allow_matrix=False)
    path = tmp_path / "inst.json"
    dump_instance(inst, str(path))
    loaded = vapep.load_instance(str(path))
    users = {u: u for u in loaded.users}
    assert loaded.auth.base
    assert all(u is users[u] for u in loaded.auth.base)

    steps = ("s1", "s2")
    w = vapep.WspInstance(steps, inst.users, (),
                          AuthCost({u: {"s1"} for u in inst.users}, 1))
    path = tmp_path / "plan.json"
    vapep.dump_wsp(w, str(path))
    plan = vapep.load_wsp(str(path))
    users = {u: u for u in plan.users}
    assert all(u is users[u] for u in plan.auth.base)


# --------------------------------------------------------------------------
# assignment serialization walks the relation in user-index order


def _reference_assignment(instance, rel):
    assignment = {}
    for u in instance.users:
        rs = rel.resources_of(u)
        if rs:
            assignment[u] = [r for r in instance.resources if r in rs]
    return assignment


def test_to_doc_orders_users_as_the_all_users_walk():
    inst = small_instance(k=3, n=6)
    mapping = {
        "u6": ["r3", "r1"],
        "u5": [],
        "u4": ["r2"],
        "u3": [],
        "u2": ["r1", "r2", "r3"],
        "u1": ["r3"],
    }
    rel = AuthorizationRelation.from_mapping(mapping)
    res = SolveResult.build(inst, rel, {"solver": "x"})
    want = _reference_assignment(inst, rel)
    assert list(want) == ["u1", "u2", "u4", "u6"]
    doc = res.to_doc(inst)
    assert canonical_json(doc["assignment"]) == canonical_json(want)
    old_doc = dict(doc, assignment=want)
    assert res.to_json(inst) == canonical_json(old_doc)
    assert canonical_json(relation_to_doc(inst, rel)) == canonical_json(
        {"assignment": want}
    )


def test_to_doc_matches_the_all_users_walk_random():
    rng = random.Random(34)
    for _ in range(100):
        inst = helpers.rand_instance(rng)
        rel = helpers.rand_relation(rng, inst, complete=False)
        items = list(rel.assignment.items())
        rng.shuffle(items)
        items += [(u, frozenset()) for u in rng.sample(inst.users, 1)]
        rel = AuthorizationRelation(dict(items))
        want = {"assignment": _reference_assignment(inst, rel)}
        assert canonical_json(relation_to_doc(inst, rel)) == canonical_json(want)


def test_to_doc_pairs_match_the_all_pairs_walk():
    rng = random.Random(35)
    for _ in range(100):
        inst = helpers.rand_instance(rng, linear_only=True)
        want = [
            [u, r]
            for u in inst.users
            for r in inst.resources
            if r in inst.auth.base.get(u, ())
        ]
        assert instance_to_doc(inst)["auth"]["pairs"] == want


# --------------------------------------------------------------------------
# canonical_json against json.dumps(indent=2)

_TEXT = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "/", "é", "中", " ",
         "\U0001F600", "\ud800", "a", "b", "z", "0", " "]


class _Name(str):
    pass


def _random_text(rng):
    return "".join(rng.choice(_TEXT) for _ in range(rng.randint(0, 6)))


def _random_scalar(rng):
    return rng.choice([
        lambda: _random_text(rng),
        lambda: rng.randint(-10**6, 10**6),
        lambda: rng.choice([2**63, 2**63 + 1, -(2**63) - 1, 10**30, -(10**40)]),
        lambda: rng.choice([True, False, None]),
        lambda: rng.choice([-0.0, 0.0, 1e16, 1.5e-300, 0.1, -2.5, float("nan"),
                            float("inf"), float("-inf")]),
    ])()


def _random_key(rng):
    return rng.choice([
        lambda: _random_text(rng),
        lambda: rng.randint(-5, 5),
        lambda: rng.choice([True, False, None, 1.5, -0.0, float("nan"), float("inf")]),
    ])()


def _random_tree(rng, depth):
    pick = rng.random()
    if depth == 0 or pick < 0.3:
        return _random_scalar(rng)
    if pick < 0.5:
        d = {}
        for _ in range(rng.randint(0, 4)):
            d[_random_key(rng)] = _random_tree(rng, depth - 1)
        return d
    if pick < 0.65:
        # rows of one width: the writer's one-format-string path
        width = rng.randint(1, 3)
        rows = [[_random_scalar(rng) for _ in range(width)]
                for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            rows = [tuple(r) for r in rows]
        return rows
    if pick < 0.75:
        return [_random_text(rng) if rng.random() < 0.5 else rng.randint(-9, 9)
                for _ in range(rng.randint(0, 5))]
    seq = [_random_tree(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    return tuple(seq) if rng.random() < 0.2 else seq


def _dumps_outcome(dump, doc):
    try:
        return dump(doc)
    except (TypeError, ValueError) as exc:
        return type(exc)


def test_canonical_json_matches_json_dumps_on_random_trees():
    from collections import OrderedDict
    from enum import IntEnum

    class Level(IntEnum):
        LOW = 3

    rng = random.Random(36)
    odd = 0
    for i in range(2000):
        doc = _random_tree(rng, rng.randint(0, 5))
        if i % 10 == 0:
            # a subclass somewhere sends the whole document to json.dumps
            doc = rng.choice([
                OrderedDict([("b", 1), ("a", [doc])]), [_Name("x\"y"), doc],
                {"level": Level.LOW, "doc": doc},
            ])
        elif i % 10 == 1:
            cycle = [1, doc]
            cycle.append(cycle)
            doc = {"x": [cycle]} if rng.random() < 0.5 else cycle
        elif i % 10 == 2:
            doc = [doc, {"bad": rng.choice([object(), {1, 2}, b"raw"])}]
        elif i % 10 == 3:
            doc = {(1, 2): doc} if rng.random() < 0.5 else [{"k": doc, (): 1}]
        want = _dumps_outcome(lambda d: json.dumps(d, indent=2) + "\n", doc)
        got = _dumps_outcome(canonical_json, doc)
        if isinstance(want, str):
            assert got == want
        else:
            odd += 1
            assert got is want, doc
    assert odd >= 500  # circular, unserializable and bad-key documents


def test_canonical_json_edge_documents():
    from collections import OrderedDict
    from enum import IntEnum

    class Level(IntEnum):
        LOW = 3

    shared = [1, 2]
    deep = []
    for _ in range(3000):
        deep = [deep]
    for doc in [
        {}, [], (), "", "\U0001F600\"\\", 0, -0.0, 2**64, True, None,
        float("nan"), {"a": {}, "b": [], "c": [[]], "d": [[], [1]]},
        [shared, shared], {1: "one", True: "t", None: "n", 2.5: "f"},
        [[1, "a"], [2, "b"], [3, None]], [(1, 2), [3, 4]], [[1, [2]], [3, [4]]],
        # values that the writer hands to json.dumps, inside ones it writes
        {"a": [OrderedDict([("z", [1, 2]), ("y", {"x": "w"})])], "b": 1},
        {"level": Level.LOW, "levels": [Level.LOW, 4], "rows": [[Level.LOW]]},
        {"name": _Name("x\"y"), "names": [_Name("a"), "b"], "ok": "z"},
        {_Name("key"): 1, "plain": [2]},
        {"a": {"b": {1: [1, 2], None: {"c": 2.5}}}, "d": ["e"]},
        {"mixed": [True, 1, 2.5, None, -0.0, float("inf")], "ints": [1, 2]},
    ]:
        assert canonical_json(doc) == json.dumps(doc, indent=2) + "\n"
    cycle = {"a": [1, 2]}
    cycle["self"] = {"again": cycle}
    for doc in [cycle, {"x": ["y"], "z": cycle}]:
        with pytest.raises(ValueError):
            json.dumps(doc, indent=2)
        with pytest.raises(ValueError):
            canonical_json(doc)
    with pytest.raises(RecursionError):
        json.dumps(deep, indent=2)
    with pytest.raises(RecursionError):
        canonical_json(deep)
