"""End-to-end acceptance checks, one test per shipping criterion.

Every test is self-contained: it builds its own instances, uses only the
public package API plus the independent oracles in helpers, and prints one
pass/fail line under pytest -v.  Sizes are chosen so the whole module
finishes in a couple of minutes on an ordinary laptop.
"""
import random
import statistics
import time

import vapep
from vapep import (
    AuthCost,
    AuthorizationRelation,
    GeneratorConfig,
    Instance,
    WspInstance,
    bod_e,
    build_naive,
    build_up,
    canonical_json,
    check_tau_resilient,
    count_profiles,
    enumerate_profiles,
    eval_at,
    eval_relation,
    generate,
    instance_to_doc,
    lift_plan,
    must_differ,
    reduce_bode_sodu,
    reduce_sodu_bodu,
    sod_u,
    solve,
    solve_exhaustive,
    solve_wsp,
    total_weight,
    wbound_suggestion,
    wsp_from_encoded,
)
from vapep.mipgen import _quad_cut_rows

import helpers


def test_criterion_01_profile_matches_exhaustive_search():
    # 200 random mixed-family instances, both exact solvers, equal totals
    rng = random.Random(9101)
    t0 = time.perf_counter()
    for _ in range(200):
        inst = helpers.rand_instance(rng, n_max=5, k_max=3)
        a = solve(inst, ell=inst.n)
        b = solve_exhaustive(inst)
        assert a.total_weight == b.total_weight
        assert a.relation.is_complete(inst)
    assert time.perf_counter() - t0 < 60


def test_criterion_02_duty_pair_reduction_is_exact():
    # overlap/difference duty pairs: plan-space optimum equals relation optimum
    rng = random.Random(9102)
    for _ in range(100):
        inst = helpers.rand_instance(
            rng, n_max=6, k_max=4, families=("sod_u", "bod_u"), max_cons=4
        )
        _, weight = solve_wsp(reduce_sodu_bodu(inst))
        assert weight == solve(inst, ell=inst.n).total_weight


def test_criterion_03_existence_binding_reduction_is_exact():
    # existence binding plus user separation: reduced optimum equals the
    # relation optimum, and lifting the optimal plan preserves the weight
    rng = random.Random(9103)
    for _ in range(100):
        inst = helpers.rand_instance(
            rng, n_max=5, k_max=3, families=("bod_e", "sod_u"), max_cons=4
        )
        w, origin = reduce_bode_sodu(inst)
        plan, weight = solve_wsp(w)
        assert weight == solve(inst, ell=inst.n).total_weight
        lifted = lift_plan(plan, origin)
        assert total_weight(inst, lifted)[0] == weight


def test_criterion_04_worked_binding_example_is_free():
    # the four-resource relation that threads one shared user through every
    # binding pair and keeps the separated pairs apart pays no penalty
    resources = ("r1", "r2", "r3", "r4")
    users = ("u1", "u2", "u3", "u4")
    cons = (
        bod_e("r1", "r2"),
        bod_e("r1", "r3"),
        bod_e("r3", "r4"),
        sod_u("r1", "r4", 1),
        sod_u("r2", "r4", 1),
    )
    base = {u: frozenset(resources) for u in users}
    inst = Instance(resources, users, cons, AuthCost(base, 1))
    rel = AuthorizationRelation.from_mapping(
        {"u1": ["r1", "r2"], "u2": ["r1", "r3"], "u4": ["r3", "r4"]}
    )
    assert [eval_relation(c, rel) for c in cons] == [0, 0, 0, 0, 0]
    _, breakdown = total_weight(inst, rel)
    assert breakdown["constraints"] == [0, 0, 0, 0, 0]


def test_criterion_05_profile_counts_and_documented_bounds():
    for k in range(1, 5):
        for ell in range(0, 7):
            explicit = sum(
                1 for _ in enumerate_profiles(k, ell, max(ell, 1))
            )
            assert explicit == count_profiles(k, ell)
    for k in range(1, 5):
        m = (1 << k) - 1
        for ell in range(0, 7):
            assert count_profiles(k, ell) <= 2 ** (ell + m)
        for ell in range(4, 7):
            bound = min(2 ** (ell * k), ell ** m) + 1
            assert count_profiles(k, ell) <= bound


def test_criterion_06_optimum_stays_under_the_user_cap():
    # generated instances: the solver's own budget never exceeds the
    # justified cap, and the optimum authorizes at most ceil((10k+1)/2) users
    sizes = {3: 30, 4: 10, 5: 6, 6: 4, 7: 3, 8: 3}
    for k, n in sizes.items():
        cap = (10 * k + 1 + 1) // 2
        for seed in range(20):
            inst = generate(GeneratorConfig(n=n, k=k, seed=seed))
            res = solve(inst)
            assert len(res.relation.assigned_users()) <= cap
            assert res.meta["ell"] <= cap
    # the cap for k=10 comes out at 51
    inst10 = generate(GeneratorConfig(n=30, k=10, seed=0))
    assert wbound_suggestion(inst10.constraints, 10) == 51
    # lifting the budget past the cap never improves the optimum
    for seed in range(5):
        inst = generate(GeneratorConfig(n=30, k=3, seed=seed))
        assert solve(inst).total_weight == solve(inst, ell=24).total_weight


def test_criterion_07_profile_work_does_not_grow_with_n():
    # fixed k and budget: the enumeration count is identical for every user
    # count, and wall time grows at most quadratically (matching cost)
    ns = (50, 100, 200, 400)
    solve(generate(GeneratorConfig(n=50, k=3, seed=99)))  # warm up
    seen = {}
    times = {n: [] for n in ns}
    for seed in range(5):
        for n in ns:
            inst = generate(GeneratorConfig(n=n, k=3, seed=seed))
            t0 = time.perf_counter()
            res = solve(inst)
            times[n].append(time.perf_counter() - t0)
            seen.setdefault(seed, set()).add(res.meta["profiles_enumerated"])
    for seed, counts in seen.items():
        assert len(counts) == 1, f"seed {seed} enumerated {counts}"
    slow = statistics.median(times[400])
    fast = statistics.median(times[50])
    assert slow <= 0.25 + 24 * fast, (fast, slow)


def test_criterion_08_generator_conformance():
    for alpha in (1, 3):
        cfg = GeneratorConfig(n=80, k=8, alpha=alpha, seed=alpha)
        inst = generate(cfg)
        counts = [len(inst.auth.base[u]) for u in inst.users]
        assert all(1 <= c <= 3 for c in counts)
        kinds = [c.kind for c in inst.constraints]
        assert kinds.count("sod_u") == cfg.q_sod == 8
        assert kinds.count("card_lb") == 8
        assert kinds.count("user_count") == 1
        assert len(kinds) == 17
        for c in inst.constraints:
            if c.kind == "sod_u":
                assert c.spec.slope == 10 * alpha and not c.spec.table
            elif c.kind == "card_lb":
                assert c.t == cfg.tau + 1
                assert c.spec.slope == 10 and not c.spec.table
            else:
                assert c.quadratic
        assert inst.auth.pair_penalty == alpha
        assert {c.scope[0] for c in inst.constraints if c.kind == "card_lb"} == set(
            inst.resources
        )


def test_criterion_09_formulations_agree_with_the_weight_function():
    rng = random.Random(9109)
    for i in range(100):
        inst = generate(
            GeneratorConfig(
                n=rng.randint(2, 6),
                k=rng.randint(1, 3),
                tau=rng.randint(0, 2),
                alpha=rng.randint(1, 3),
                seed=i,
            )
        )
        rel = AuthorizationRelation.from_mapping(
            helpers.rand_complete_mapping(rng, inst)
        )
        want, _ = total_weight(inst, rel)
        assert eval_at(build_naive(inst), rel) == want
        assert eval_at(build_up(inst), rel) == want
    for n in range(1, 65):
        rows = _quad_cut_rows("p", n)
        for z in range(n + 1):
            envelope = 0
            for row in rows:
                coef = dict((name, c) for c, name in row.terms)["z"]
                envelope = max(envelope, row.rhs - coef * z)
            assert envelope == z * z


def test_criterion_10_clean_optima_are_resilient():
    # micro attrition scenarios whose encoded optimum pays nothing avoidable
    # (no separation, coverage or authorization penalty) pass the exhaustive
    # resilience check; a hand-built overloaded plan fails it with a witness
    found = 0
    seed = 0
    while found < 50 and seed < 400:
        seed += 1
        n = 4 + seed % 5
        k = 2 + seed % 2
        tau = seed % 3
        inst = generate(GeneratorConfig(n=n, k=k, tau=tau, seed=seed))
        res = solve(inst)
        cats = res.breakdown["by_category"]
        if cats["sod"] or cats["cardinality"] or cats["authorizations"]:
            continue
        w = wsp_from_encoded(inst)
        plan_ext = {s: sorted(res.relation.users_of(s)) for s in w.steps}
        ok, witness = check_tau_resilient(w, plan_ext, tau)
        assert ok, f"seed {seed}: witness {witness}"
        found += 1
    assert found == 50, f"only {found} clean optima in {seed} seeds"

    # two steps that must differ but share two users cannot survive losing one
    steps = ("s1", "s2")
    users = ("u1", "u2")
    base = {u: frozenset(steps) for u in users}
    w = WspInstance(steps, users, (must_differ("s1", "s2"),), AuthCost(base, 1))
    encoded = vapep.encode_resilient(w, 1)
    worst = solve(encoded)
    assert worst.total_weight > 0
    plan_ext = {"s1": ["u1", "u2"], "s2": ["u1", "u2"]}
    ok, witness = check_tau_resilient(w, plan_ext, 1)
    assert not ok
    assert witness == ("u1",)
    gone = set(witness)
    left = {
        s: [u for u in plan_ext[s] if u not in gone] for s in steps
    }
    assert not helpers.plan_exists_flat(w, left)


def test_criterion_11_everything_is_deterministic(monkeypatch):
    rng = random.Random(9111)
    # relation solvers: byte-identical result documents across runs at
    # fixed flags; backends agree on everything except the provenance field
    # naming the kernel that ran
    for _ in range(10):
        inst = helpers.rand_instance(rng, n_max=5, k_max=3)
        payloads = set()
        for b in helpers.each_kernel(monkeypatch):
            docs = {solve(inst, ell=inst.n).to_json(inst) for _ in range(2)}
            assert len(docs) == 1
            doc = solve(inst, ell=inst.n).to_doc(inst)
            assert doc["meta"].pop("backend") == b
            payloads.add(canonical_json(doc))
        monkeypatch.undo()  # the rest runs on the default kernel
        assert len(payloads) == 1
        assert len({solve_exhaustive(inst).to_json(inst) for _ in range(2)}) == 1
    # plan solver: identical plans and weights across runs
    for _ in range(10):
        w = helpers.rand_wsp(rng, k_max=4, n_max=5)
        assert len({str(solve_wsp(w)) for _ in range(3)}) == 1
    # generator: identical files for identical flags
    for seed in (0, 7, 31):
        cfg = GeneratorConfig(n=40, k=4, seed=seed)
        assert len(
            {canonical_json(instance_to_doc(generate(cfg))) for _ in range(3)}
        ) == 1
    # a full command-line round: generate, solve with 1 and 8 threads
    import subprocess
    import sys
    import tempfile
    with tempfile.TemporaryDirectory() as td:
        inst_file = f"{td}/inst.json"
        outs = []
        for threads in ("1", "8"):
            out_file = f"{td}/out_{threads}.json"
            for args in (
                ["generate", "--n", "14", "--k", "3", "--seed", "5",
                 "-o", inst_file],
                ["solve", "--in", inst_file, "--threads", threads,
                 "-o", out_file],
            ):
                proc = subprocess.run(
                    [sys.executable, "-m", "vapep.cli", *args],
                    capture_output=True,
                    text=True,
                )
                assert proc.returncode == 0, proc.stderr
            with open(out_file, "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]
