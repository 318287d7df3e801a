"""Resilient-plan encoding and the exhaustive resilience checker."""
import random

import pytest

from vapep import (
    AuthCost,
    GuardError,
    WspInstance,
    check_tau_resilient,
    encode_resilient,
    must_differ,
    must_equal,
    solve,
    wsp_from_encoded,
)

import helpers


def small_wsp():
    steps = ("s1", "s2", "s3")
    users = ("u1", "u2", "u3", "u4")
    cons = (must_differ("s1", "s2"), must_differ("s2", "s3"))
    base = {
        "u1": frozenset(["s1", "s2"]),
        "u2": frozenset(["s2", "s3"]),
        "u3": frozenset(["s1", "s3"]),
        "u4": frozenset(["s1", "s2", "s3"]),
    }
    return WspInstance(steps, users, cons, AuthCost(base, 1))


def test_encode_structure():
    w = small_wsp()
    inst = encode_resilient(w, tau=2, p_sod=7, p_card=5, p_a=3)
    assert inst.resources == w.steps
    assert inst.users == w.users
    cons = inst.constraints
    # one separation penalty per inequality pair, in order
    assert [c.kind for c in cons[:2]] == ["sod_u", "sod_u"]
    assert cons[0].scope == ("s1", "s2")
    assert cons[1].scope == ("s2", "s3")
    for c in cons[:2]:
        assert c.spec.slope == 7 and c.spec.table == ()
    # one lower cardinality bound per step at threshold tau + 1
    assert [c.kind for c in cons[2:5]] == ["card_lb"] * 3
    assert [c.scope[0] for c in cons[2:5]] == list(w.steps)
    for c in cons[2:5]:
        assert c.t == 3
        assert c.spec.slope == 5 and c.spec.table == ()
    # one quadratic pool-size term at the end
    assert cons[5].kind == "user_count" and cons[5].quadratic
    assert len(cons) == 6
    assert inst.auth.base == dict(w.auth.base)
    assert inst.auth.pair_penalty == 3


def test_encode_tau_zero_and_defaults():
    w = small_wsp()
    inst = encode_resilient(w, tau=0)
    for c in inst.constraints:
        if c.kind == "card_lb":
            assert c.t == 1
            assert c.spec.slope == 10
        elif c.kind == "sod_u":
            assert c.spec.slope == 10
    assert inst.auth.pair_penalty == 1


def test_encode_rejects_bad_input():
    steps = ("s1", "s2")
    users = ("u1", "u2")
    base = {u: frozenset(steps) for u in users}
    eq = WspInstance(steps, users, (must_equal("s1", "s2"),), AuthCost(base, 1))
    with pytest.raises(ValueError):
        encode_resilient(eq, 1)
    derived = WspInstance(steps, users, (), cost_fn=lambda ui, mask: 0)
    with pytest.raises(ValueError):
        encode_resilient(derived, 1)
    w = small_wsp()
    with pytest.raises(ValueError):
        encode_resilient(w, -1)
    with pytest.raises(ValueError):
        encode_resilient(w, True)


def test_roundtrip_recovers_plan_instance():
    w = small_wsp()
    back = wsp_from_encoded(encode_resilient(w, tau=1, p_sod=4, p_card=9, p_a=2))
    assert back.steps == w.steps
    assert back.users == w.users
    assert len(back.constraints) == len(w.constraints)
    for got, orig in zip(back.constraints, w.constraints):
        assert got.kind == "must_differ"
        assert got.scope == orig.scope
        assert got.ell == 1
    assert back.auth.base == dict(w.auth.base)
    assert back.auth.pair_penalty == 1


def test_tau_zero_is_plan_existence():
    rng = random.Random(411)
    for _ in range(40):
        w = helpers.rand_wsp(rng, k_max=3, n_max=4)
        plan_ext = {
            s: rng.sample(list(w.users), rng.randint(0, w.n)) for s in w.steps
        }
        ok, witness = check_tau_resilient(w, plan_ext, 0)
        assert ok == helpers.plan_exists_flat(
            w,
            {
                s: [
                    u
                    for u in plan_ext[s]
                    if w.authorized(w.users.index(u), si)
                ]
                for si, s in enumerate(w.steps)
            },
        )
        assert (witness is None) == ok
        if witness is not None:
            assert witness == ()


def test_disjoint_pools_resilient_by_pigeonhole():
    # three steps with three private users each: no two removals can empty
    # a pool, and no constraints couple the steps
    steps = ("s1", "s2", "s3")
    users = tuple(f"u{j}" for j in range(1, 10))
    base = {u: frozenset([steps[(j - 1) // 3]]) for j, u in enumerate(users, 1)}
    w = WspInstance(steps, users, (), AuthCost(base, 1))
    plan_ext = {s: [u for u in users if s in base[u]] for s in steps}
    ok, witness = check_tau_resilient(w, plan_ext, 2)
    assert ok and witness is None
    # removing all three users of one pool breaks it at tau = 3
    ok3, witness3 = check_tau_resilient(w, plan_ext, 3)
    assert not ok3
    assert witness3 == ("u1", "u2", "u3")


def test_random_agreement_with_flat_check():
    rng = random.Random(412)
    for _ in range(60):
        w = helpers.rand_wsp(rng, k_max=4, n_max=6)
        tau = rng.randint(0, 2)
        plan_ext = {
            s: rng.sample(list(w.users), rng.randint(0, min(3, w.n)))
            for s in w.steps
        }
        ok, witness = check_tau_resilient(w, plan_ext, tau)
        ok_flat, _ = helpers.resilient_flat(w, plan_ext, tau)
        assert ok == ok_flat
        if not ok:
            assert len(witness) == min(tau, w.n)
            assert all(u in w.users for u in witness)
            # removing the witness really does block every remaining plan
            gone = set(witness)
            left = {
                s: [
                    u
                    for u in plan_ext[s]
                    if u not in gone and w.authorized(w.users.index(u), si)
                ]
                for si, s in enumerate(w.steps)
            }
            assert not helpers.plan_exists_flat(w, left)


def test_witness_is_first_blocking_exclusion():
    # two steps sharing one pool of two users: removing either user blocks
    # the inequality, and the checker reports the lowest-index one
    steps = ("s1", "s2")
    users = ("u1", "u2", "u3")
    base = {"u1": frozenset(steps), "u2": frozenset(steps), "u3": frozenset()}
    w = WspInstance(steps, users, (must_differ("s1", "s2"),), AuthCost(base, 1))
    plan_ext = {"s1": ["u1", "u2"], "s2": ["u1", "u2"]}
    ok, witness = check_tau_resilient(w, plan_ext, 1)
    assert not ok
    assert witness == ("u1",)


def test_exclusion_guard():
    steps = ("s1",)
    users = tuple(f"u{j}" for j in range(1, 51))
    base = {u: frozenset(steps) for u in users}
    w = WspInstance(steps, users, (), AuthCost(base, 1))
    plan_ext = {"s1": list(users)}
    with pytest.raises(GuardError) as err:
        check_tau_resilient(w, plan_ext, 10)
    msg = str(err.value)
    assert "sufficient condition" in msg
    assert "C(50,10)" in msg


def test_plan_ext_validation():
    w = small_wsp()
    with pytest.raises(ValueError):
        check_tau_resilient(w, {"nope": ["u1"]}, 0)
    with pytest.raises(ValueError):
        check_tau_resilient(w, {"s1": ["ghost"]}, 0)
    for pool in ["u1", [["u1"]], [{"a": 1}]]:
        with pytest.raises(ValueError):
            check_tau_resilient(w, {"s1": pool}, 0)
    with pytest.raises(ValueError):
        check_tau_resilient(w, {"s1": ["u1"]}, -1)
    derived = WspInstance(
        ("s1",), ("u1",), (), cost_fn=lambda ui, mask: 0
    )
    with pytest.raises(ValueError):
        check_tau_resilient(derived, {"s1": ["u1"]}, 0)


def test_zero_penalty_optimum_is_resilient():
    # when the encoded optimum pays nothing for separation, coverage or
    # authorization, reading its assignment back as step pools passes the
    # exhaustive check
    rng = random.Random(413)
    seen = 0
    for _ in range(40):
        K = rng.randint(1, 3)
        n = rng.randint(K + 2, 6)
        tau = rng.randint(0, 1)
        steps = tuple(f"s{i + 1}" for i in range(K))
        users = tuple(f"u{j + 1}" for j in range(n))
        base = {
            u: frozenset(s for s in steps if rng.random() < 0.7) for u in users
        }
        cons = []
        if K >= 2 and rng.random() < 0.6:
            a, b = rng.sample(list(steps), 2)
            cons.append(must_differ(a, b))
        w = WspInstance(steps, users, tuple(cons), AuthCost(base, 1))
        inst = encode_resilient(w, tau, p_sod=50, p_card=50, p_a=1)
        res = solve(inst)
        cats = res.breakdown["by_category"]
        if cats["sod"] or cats["cardinality"] or cats["authorizations"]:
            continue
        seen += 1
        plan_ext = {
            s: sorted(res.relation.users_of(s)) for s in steps
        }
        ok, witness = check_tau_resilient(w, plan_ext, tau)
        assert ok, f"witness {witness} for {plan_ext}"
    assert seen >= 10
