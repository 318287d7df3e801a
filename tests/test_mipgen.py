"""Integer-program builders, LP text round trips, point evaluation."""
import dataclasses
import gc
import hashlib
import json
import random
import time
from pathlib import Path

import pytest

import vapep
from vapep import (
    AuthCost,
    AuthorizationRelation,
    Formulation,
    GeneratorConfig,
    GuardError,
    Instance,
    build_naive,
    build_up,
    card_lb,
    eval_at,
    export_lp,
    generate,
    parse_lp,
    sod_u,
    total_weight,
    user_count,
)
from vapep import mipgen
from vapep.mipgen import Row, Var, _quad_cut_rows

import helpers

DATA = Path(__file__).with_name("data")


def family_instance(rng, n_max=6, k_max=3):
    """Random instance within the families both builders accept."""
    n = rng.randint(1, n_max)
    k = rng.randint(1, k_max)
    resources = tuple(f"r{i + 1}" for i in range(k))
    users = tuple(f"u{j + 1}" for j in range(n))
    cons = []
    if k >= 2 and rng.random() < 0.7:
        for _ in range(rng.randint(1, 2)):
            r1, r2 = rng.sample(resources, 2)
            cons.append(sod_u(r1, r2, rng.randint(1, 9)))
    for _ in range(rng.randint(0, 2)):
        cons.append(card_lb(rng.choice(resources), rng.randint(1, 3), rng.randint(1, 9)))
    if rng.random() < 0.7:
        cons.append(user_count())
    base = {u: frozenset(r for r in resources if rng.random() < 0.6) for u in users}
    if rng.random() < 0.3:
        pp = {
            (u, r): rng.randint(0, 4)
            for u in users
            for r in resources
            if rng.random() < 0.5
        }
        auth = AuthCost(base, pp)
    else:
        auth = AuthCost(base, rng.randint(0, 4))
    return Instance(resources, users, tuple(cons), auth)


def sod_fixture():
    resources = ("r1", "r2")
    users = ("u1", "u2")
    base = {"u1": frozenset(resources), "u2": frozenset(resources)}
    cons = (sod_u("r1", "r2", 10),)
    return Instance(resources, users, cons, AuthCost(base, 1))


# --------------------------------------------------------------------------
# builders

def test_naive_variable_counts():
    resources = ("r1", "r2")
    users = ("u1", "u2", "u3")
    cons = (
        sod_u("r1", "r2", 10),
        card_lb("r1", 1, 10),
        card_lb("r2", 1, 10),
        user_count(),
    )
    base = {u: frozenset(["r1"]) for u in users}
    f = build_naive(Instance(resources, users, cons, AuthCost(base, 1)))
    assert f.kind == "naive"
    names = f.var_names()
    xs = [v for v in names if v.startswith("x_r")]
    assert len(xs) == 6
    assert all(f.vars[v].binary for v in xs)
    assert xs[0] == "x_r1_u1" and xs[-1] == "x_r2_u3"
    sod_aux = [v for v in names if v.startswith("y_c1_")]
    assert len(sod_aux) == 3
    assert [v for v in names if v.startswith("p_c")] == ["p_c1", "p_c2", "p_c3", "p_c4"]
    assert "z" in names
    # unauthorized pairs carry their price in the objective
    obj = dict((name, coef) for coef, name in f.objective)
    assert obj.get("x_r2_u1") == 1
    assert "x_r1_u1" not in obj


def test_up_variable_counts_and_one_rows():
    resources = ("r1", "r2")
    users = ("u1", "u2", "u3")
    base = {u: frozenset(["r1"]) for u in users}
    f = build_up(Instance(resources, users, (), AuthCost(base, 1)))
    assert f.kind == "up"
    xs = [v for v in f.var_names() if v.startswith("xT")]
    assert len(xs) == 12
    assert f.rows[0].name == "one_u1"
    assert f.rows[1].name == "one_u2"
    assert f.rows[2].name == "one_u3"
    for row in f.rows[:3]:
        assert row.sense == "=" and row.rhs == 1
        assert len(row.terms) == 4
        assert all(coef == 1 for coef, _ in row.terms)
    # doubling the user count doubles the subset variables
    users6 = tuple(f"u{j}" for j in range(1, 7))
    base6 = {u: frozenset(["r1"]) for u in users6}
    f6 = build_up(Instance(resources, users6, (), AuthCost(base6, 1)))
    assert len([v for v in f6.var_names() if v.startswith("xT")]) == 24


def test_parabola_cuts_touch_square_everywhere():
    for n in range(1, 65):
        rows = _quad_cut_rows("p", n)
        for z in range(n + 1):
            best = 0
            for row in rows:
                coef_z = dict((name, coef) for coef, name in row.terms)["z"]
                best = max(best, row.rhs - coef_z * z)
            assert best == z * z, (n, z)


def test_builders_reject_unsupported_input():
    resources = ("r1", "r2")
    users = ("u1",)
    base = {"u1": frozenset(resources)}

    def inst(*cons):
        return Instance(resources, users, cons, AuthCost(base, 1))

    table = vapep.PenaltySpec.from_table([2, 5], 1)
    for bad in (
        inst(sod_u("r1", "r2", table)),
        inst(card_lb("r1", 1, table)),
        inst(vapep.bod_u("r1", "r2", 3)),
        inst(vapep.sod_e("r1", "r2", 3)),
        inst(user_count(4)),
        inst(user_count(), user_count()),
    ):
        with pytest.raises(ValueError):
            build_naive(bad)
        with pytest.raises(ValueError):
            build_up(bad)
    custom = Instance(
        resources,
        users,
        (),
        AuthCost(base, 1, custom=lambda u, rs: len(rs)),
    )
    with pytest.raises(ValueError):
        build_naive(custom)
    build_up(custom)  # subset form tabulates any cost hook


def guard_instance(custom=None):
    """2^30 * 10 subset variables, far over MAX_UP_VARS."""
    resources = tuple(f"r{i}" for i in range(1, 31))
    users = tuple(f"u{j}" for j in range(1, 11))
    base = {u: frozenset(resources) for u in users}
    return Instance(resources, users, (), AuthCost(base, 1, custom=custom))


def test_up_guard():
    with pytest.raises(GuardError) as err:
        build_up(guard_instance())
    assert f"the guard allows {mipgen.MAX_UP_VARS}" in str(err.value)


def test_up_guard_boundary(monkeypatch):
    # 2^2 * 4 = 16 subset variables: admitted at a limit of 16, and refused
    # when they are one more than the limit
    inst = Instance(("r1", "r2"), tuple(f"u{j}" for j in range(1, 5)), (),
                    AuthCost({}, 1))
    monkeypatch.setattr(mipgen, "MAX_UP_VARS", 16)
    assert len(build_up(inst).vars) == 16
    monkeypatch.setattr(mipgen, "MAX_UP_VARS", 15)
    with pytest.raises(GuardError):
        build_up(inst)


def test_up_guard_refuses_before_any_work():
    # names or costs made before the guard would exhaust memory here
    def cost(user, rs):
        raise AssertionError("the guard let a cost be asked for")

    t0 = time.perf_counter()
    with pytest.raises(GuardError):
        build_up(guard_instance(cost))
    assert time.perf_counter() - t0 < 0.5


def test_builders_restore_the_collector_state():
    inst = sod_fixture()
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            build_naive(inst)
            build_up(inst)
            assert gc.isenabled() is enabled
            with pytest.raises(GuardError):
                build_up(guard_instance())
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_row_sense_validation():
    with pytest.raises(ValueError):
        Row("bad", ((1, "x"),), "<=", 0)


def test_var_and_row_public_shape():
    assert [fd.name for fd in dataclasses.fields(Var)] == ["name", "lb", "ub", "binary"]
    assert [fd.name for fd in dataclasses.fields(Row)] == ["name", "terms", "sense", "rhs"]
    v = Var("x")
    assert (v.lb, v.ub, v.binary) == (0, None, False)
    assert repr(v) == "Var(name='x', lb=0, ub=None, binary=False)"
    assert repr(Var("z", 0, 5)) == "Var(name='z', lb=0, ub=5, binary=False)"
    assert repr(Var("b", binary=True)) == "Var(name='b', lb=0, ub=None, binary=True)"
    assert v == Var(name="x", lb=0, ub=None, binary=False)
    assert v != Var("x", binary=True) and v != Var("y")
    row = Row("c1", ((1, "x"), (-2, "y")), ">=", -3)
    assert repr(row) == "Row(name='c1', terms=((1, 'x'), (-2, 'y')), sense='>=', rhs=-3)"
    assert row == Row(name="c1", terms=((1, "x"), (-2, "y")), sense=">=", rhs=-3)
    assert row != Row("c1", ((1, "x"), (-2, "y")), "=", -3)
    assert row != Row("c1", ((-2, "y"), (1, "x")), ">=", -3)
    # slotted: a build holds tens of thousands of them
    assert not hasattr(v, "__dict__") and not hasattr(row, "__dict__")


def _priced_objective(inst, form: str) -> list:
    """The builder's objective from one omega_mask call per cell, in the
    builder's order: resource-major for naive, user-major for UP, then one
    unit term per constraint penalty variable."""
    k, n = inst.k, inst.n
    if form == "naive":
        cells = [(1 << ri, ui, f"x_r{ri + 1}_u{ui + 1}") for ri in range(k) for ui in range(n)]
    else:
        cells = [(mask, ui, f"xT{mask}_u{ui + 1}") for ui in range(n) for mask in range(1 << k)]
    priced = [(inst.omega_mask(ui, mask), name) for mask, ui, name in cells]
    pens = [(1, f"p_c{idx}") for idx in range(1, len(inst.constraints) + 1)]
    return [t for t in priced if t[0]] + pens


def test_objective_rows_match_per_cell_prices():
    rng = random.Random(1919)
    matrices = 0
    for _ in range(120):
        inst = family_instance(rng, n_max=7, k_max=4)
        matrices += isinstance(inst.auth.pair_penalty, dict)
        assert list(build_naive(inst).objective) == _priced_objective(inst, "naive")
        assert list(build_up(inst).objective) == _priced_objective(inst, "up")
        custom = _custom_cost(inst)
        assert list(build_up(custom).objective) == _priced_objective(custom, "up")
    assert matrices >= 20  # per-pair penalty matrices are drawn, not only uniform prices


def test_build_up_rejects_a_negative_custom_cost():
    inst = sod_fixture()
    for bad in (-1, 1.5, True):
        def cost(user, rs, bad=bad):
            return bad if user == "u2" and len(rs) == 2 else len(rs)
        hooked = Instance(inst.resources, inst.users, inst.constraints,
                          AuthCost(inst.auth.base, 1, custom=cost))
        with pytest.raises(ValueError, match="non-negative int"):
            build_up(hooked)


# --------------------------------------------------------------------------
# point evaluation

def test_eval_satisfied_instance_is_zero():
    inst = sod_fixture()
    rel = AuthorizationRelation.from_mapping({"u1": ["r1"], "u2": ["r2"]})
    assert eval_at(build_naive(inst), rel) == 0
    assert eval_at(build_up(inst), rel) == 0


def test_eval_single_sod_violation_costs_ten():
    inst = sod_fixture()
    rel = AuthorizationRelation.from_mapping({"u1": ["r1", "r2"], "u2": ["r2"]})
    assert eval_at(build_naive(inst), rel) == 10
    assert eval_at(build_up(inst), rel) == 10


def test_eval_three_way_agreement():
    rng = random.Random(811)
    for _ in range(100):
        inst = family_instance(rng)
        rel = AuthorizationRelation.from_mapping(
            helpers.rand_complete_mapping(rng, inst)
        )
        want, _ = total_weight(inst, rel)
        if inst.auth.custom is None:
            assert eval_at(build_naive(inst), rel) == want
        assert eval_at(build_up(inst), rel) == want


def test_eval_rejects_parsed_and_unknown_names():
    inst = sod_fixture()
    f = build_naive(inst)
    parsed = parse_lp(export_lp(f))
    rel = AuthorizationRelation.from_mapping({"u1": ["r1"], "u2": ["r2"]})
    with pytest.raises(ValueError):
        eval_at(parsed, rel)
    with pytest.raises(ValueError):
        eval_at(f, AuthorizationRelation.from_mapping({"ghost": ["r1"]}))
    with pytest.raises(ValueError):
        eval_at(f, AuthorizationRelation.from_mapping({"u1": ["nope"]}))


# --------------------------------------------------------------------------
# LP text

def test_minimal_lp_document():
    f = Formulation(
        name="tiny",
        kind="parsed",
        objective=(),
        vars={"b": Var("b", binary=True)},
        rows=[],
    )
    assert export_lp(f) == "\\ tiny\nMinimize\n obj:\nSubject To\nBinary\n b\nEnd\n"


def test_lp_round_trip_idempotent():
    rng = random.Random(812)
    for _ in range(12):
        inst = family_instance(rng, n_max=4, k_max=2)
        for build in (build_naive, build_up):
            if build is build_naive and inst.auth.custom is not None:
                continue
            f = build(inst)
            text = export_lp(f)
            back = parse_lp(text)
            assert back.kind == "parsed"
            assert back.name == f.name
            assert set(back.var_names()) == set(f.var_names())
            assert len(back.rows) == len(f.rows)
            assert export_lp(back) == text


def test_parse_lp_pins_structure():
    inst = sod_fixture()
    f = build_naive(inst)
    back = parse_lp(export_lp(f))
    for v in f.vars.values():
        got = back.vars[v.name]
        assert got.binary == v.binary
        assert got.lb == v.lb and got.ub == v.ub
    by_name = {r.name: r for r in back.rows}
    orig = {r.name: r for r in f.rows}
    assert set(by_name) == set(orig)
    for name, row in orig.items():
        assert by_name[name].sense == row.sense
        assert by_name[name].rhs == row.rhs
        assert sorted(by_name[name].terms, key=lambda t: t[1]) == sorted(
            row.terms, key=lambda t: t[1]
        )


def test_parse_lp_errors():
    with pytest.raises(ValueError):
        parse_lp("stray\nMinimize\n obj:\nEnd\n")
    with pytest.raises(ValueError):
        parse_lp("Minimize\n obj:\nSubject To\n r1: 1 x 5\nEnd\n")
    with pytest.raises(ValueError):
        parse_lp("Minimize\n obj:\nEnd\ntrailing\n")
    with pytest.raises(ValueError):
        parse_lp("Minimize\n obj: 1 2 x\nEnd\n")


def test_generated_instance_exports():
    inst = generate(GeneratorConfig(n=10, k=3, seed=4))
    f = build_naive(inst)
    back = parse_lp(export_lp(f))
    assert set(back.var_names()) == set(f.var_names())
    assert len([v for v in back.var_names() if v.startswith("x_r")]) == 30
    fup = build_up(inst)
    bup = parse_lp(export_lp(fup))
    assert len([v for v in bup.var_names() if v.startswith("xT")]) == 80
    rel = vapep.solve(inst).relation
    want, _ = total_weight(inst, rel)
    assert eval_at(f, rel) == want
    assert eval_at(fup, rel) == want


# --------------------------------------------------------------------------
# pinned output


def test_export_mip_output_is_pinned(tmp_path):
    # sha256 of `vapep export-mip` in both forms on `vapep generate` outputs,
    # recorded before the builders and the LP writer were last rewritten;
    # the grid covers k = 1 (no separation pair), the n = 3000, k = 3
    # benchmark instance and k = 4..6
    from vapep import cli
    pinned = json.loads((DATA / "export_mip_sha256.json").read_text())
    inst = tmp_path / "instance.json"
    out = tmp_path / "model.lp"
    for entry in pinned:
        assert cli.main(["generate", *entry["args"], "-o", str(inst)]) == 0
        for form in ("naive", "up"):
            argv = ["export-mip", "--in", str(inst), "--form", form, "-o", str(out)]
            assert cli.main(argv) == 0
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            assert digest == entry[form], (entry["args"], form)


def _custom_cost(inst):
    """inst with a non-additive cost hook: the priced pairs plus one per
    resource beyond the second."""
    def cost(user, rs):
        ui = inst.user_index(user)
        return inst.omega_mask(ui, inst.resource_mask(rs)) + max(0, len(rs) - 2)
    return Instance(inst.resources, inst.users, inst.constraints,
                    AuthCost(inst.auth.base, inst.auth.pair_penalty, custom=cost))


# sha256 of the reprs and LP texts of both builders over FAMILY_SEEDS
# family instances, recorded alongside export_mip_sha256.json
FAMILY_SEEDS = 200
FAMILY_SHA256 = {
    "naive_repr": "27b7c52e5d9fd44f878cf08be8c659ec70e37d9b10ae67b2c2b145cafaf8c874",
    "naive_lp": "308bfe28f5d945fb10a79239118a4a10db3aa320095b8e2dd876bd14bc26d717",
    "up_repr": "f2407d2de30afe10c635fa6d38cd9241fcd26de48e46df411c84341e40ed4d76",
    "up_lp": "569e865a46ba457160151bb718d2ddd1c8d3af619460a4ddea643fcbd2a8834f",
}


def test_builders_output_is_pinned():
    # LP text sorts terms and variables; only repr pins the term order
    # inside rows and the order of the vars dict
    rng = random.Random(1616)
    digests = {key: hashlib.sha256() for key in FAMILY_SHA256}
    for i in range(FAMILY_SEEDS):
        inst = family_instance(rng, n_max=7, k_max=4)
        for form, build, subject in (("naive", build_naive, inst),
                                     ("up", build_up, inst),
                                     ("up", build_up, _custom_cost(inst))):
            f = build(subject)
            digests[f"{form}_repr"].update(repr(f).encode())
            digests[f"{form}_lp"].update(export_lp(f).encode())
    got = {key: h.hexdigest() for key, h in digests.items()}
    assert got == FAMILY_SHA256
