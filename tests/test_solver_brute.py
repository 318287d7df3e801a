"""Exhaustive reference solver."""
import random
import time

import pytest

from vapep import AuthCost, GuardError, Instance, solve_exhaustive, total_weight

import helpers


def test_single_authorized_user():
    inst = Instance(("r1",), ("u1",), (), AuthCost({"u1": frozenset({"r1"})}, 3))
    res = solve_exhaustive(inst)
    assert res.total_weight == 0
    assert res.relation.resources_of("u1") == frozenset({"r1"})


def test_nobody_authorized_pays_one_assignment():
    inst = Instance(("r1",), ("u1", "u2"), (), AuthCost({}, 3))
    res = solve_exhaustive(inst)
    assert res.total_weight == 3
    assert res.relation.size() == 1


def test_guard_refuses_large_search_space():
    inst = Instance(
        tuple(f"r{i}" for i in range(1, 6)),
        tuple(f"u{j}" for j in range(1, 6)),
        (),
        AuthCost({}),
    )
    with pytest.raises(GuardError) as err:
        solve_exhaustive(inst)
    assert "2^24" in str(err.value) or "16777216" in str(err.value)


def test_one_user_brute_solve_refuses_before_enumerating():
    # n * k = 24 passes the relation guard, but the relation comes from the
    # profile solver at ell = n, whose preparation at k=24 is refused
    def custom(u, rs):
        raise AssertionError("authorization costs read before the guard")

    inst = Instance(tuple(f"r{i}" for i in range(1, 25)), ("u1",), (),
                    AuthCost({}, 1, custom=custom))
    t0 = time.perf_counter()
    with pytest.raises(GuardError) as err:
        solve_exhaustive(inst)
    assert time.perf_counter() - t0 < 0.5
    assert "k=24, ell=1" in str(err.value)


def test_matches_flat_oracle():
    rng = random.Random(51)
    for _ in range(40):
        inst = helpers.rand_instance(rng, n_max=4, k_max=3)
        res = solve_exhaustive(inst)
        best, _ = helpers.exhaustive_optimum(inst)
        assert res.total_weight == best
        assert res.relation.is_complete(inst)
        assert total_weight(inst, res.relation)[0] == res.total_weight
        assert res.meta["solver"] == "brute"


def test_tie_break_matches_profile_solver():
    # the lexicographically first optimal profile, finished with the
    # matching tie-break, from every complete profile with no bound
    rng = random.Random(52)
    for _ in range(40):
        inst = helpers.rand_instance(rng, n_max=4, k_max=3)
        res = solve_exhaustive(inst)
        rel, weight = helpers.first_optimum(inst, inst.n)
        assert res.total_weight == weight
        assert {u: res.relation.resources_of(u) for u in inst.users} == {
            u: rel.resources_of(u) for u in inst.users
        }


def test_weight_disagreement_raises(monkeypatch):
    from vapep._kernels import _ref

    search = _ref.brute_search

    def heavier(*args):
        best_total, best, leaves = search(*args)
        return best_total + 1, best, leaves

    monkeypatch.setattr(_ref, "brute_search", heavier)
    monkeypatch.setenv("APEP_KERNEL", "python")
    inst = Instance(("r1",), ("u1", "u2"), (), AuthCost({}, 3))
    with pytest.raises(RuntimeError, match="brute optimum 4 != profile optimum 3"):
        solve_exhaustive(inst)
