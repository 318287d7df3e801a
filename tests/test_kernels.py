"""Compiled and pure-Python search kernels must be interchangeable."""
import gc
import json
import random
import subprocess
import sys
import sysconfig
import tracemalloc
from itertools import accumulate
from pathlib import Path

import pytest

import vapep
from vapep import WspInstance, available_backends, default_backend_name, get_backend, solve_wsp
from vapep.matching import INF, TOO_HEAVY, assignment_cost
from vapep.model import subset_order
from vapep.solver_profile import _compile_constraints, _level_classes
from vapep.wsp import ADDITIVE, MONOTONE

import helpers
import kernel_build

needs_compiler = pytest.mark.skipif(
    not kernel_build.have_c_compiler(),
    reason="no C compiler on PATH to build the compiled kernel",
)


def test_python_backend_always_available():
    names = available_backends()
    assert "python" in names
    assert get_backend("python").NAME == "python"


@needs_compiler
def test_compiled_backend_is_built():
    # this build ships the compiled kernel; the fallback is for source installs
    assert "cython" in available_backends()
    assert get_backend("cython").NAME == "cython"


@needs_compiler
def test_default_backend_prefers_compiled(monkeypatch):
    monkeypatch.delenv("APEP_KERNEL", raising=False)
    assert default_backend_name() == "cython"


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        get_backend("fortran")


def test_backend_env_override(monkeypatch):
    monkeypatch.setenv("APEP_KERNEL", "python")
    assert get_backend(None).NAME == "python"
    monkeypatch.setenv("APEP_KERNEL", "nonsense")
    with pytest.raises(ValueError):
        get_backend(None)


@needs_compiler
def test_profile_solver_backends_bit_identical(monkeypatch):
    rng = random.Random(61)
    for _ in range(25):
        inst = helpers.rand_instance(rng, n_max=6, k_max=3)
        # each_kernel sets "cython", then "python"
        fast, ref = (vapep.solve(inst) for _ in helpers.each_kernel(monkeypatch))
        assert ref.total_weight == fast.total_weight
        assert ref.meta["profiles_enumerated"] == fast.meta["profiles_enumerated"]
        assert {u: ref.relation.resources_of(u) for u in inst.users} == {
            u: fast.relation.resources_of(u) for u in inst.users
        }
        assert ref.breakdown == fast.breakdown


@needs_compiler
def test_brute_solver_backends_bit_identical(monkeypatch):
    rng = random.Random(62)
    for _ in range(25):
        inst = helpers.rand_instance(rng, n_max=4, k_max=3)
        # each_kernel sets "cython", then "python"
        fast, ref = (vapep.solve_exhaustive(inst) for _ in helpers.each_kernel(monkeypatch))
        assert ref.total_weight == fast.total_weight
        assert ref.meta["relations_enumerated"] == fast.meta["relations_enumerated"]
        assert {u: ref.relation.resources_of(u) for u in inst.users} == {
            u: fast.relation.resources_of(u) for u in inst.users
        }


# --------------------------------------------------------------------------
# the kernels called directly, outside the solvers

def _kernel_case(rng, k, n, ell, coupled=False, cons=None):
    """Random constraints compiled for the kernels, and seeded
    profile-search inputs over them (all but k, ell and evaluate).  The
    constraints are of any kind, or with `coupled` those of
    `helpers.rand_coupled`, or `cons` when given.  The authorization rows
    are prefix sums of sorted random costs, as the solver builds them, one
    entry per count 0..ell."""
    resources = tuple(f"r{i + 1}" for i in range(k))
    users = tuple(f"u{j + 1}" for j in range(n))
    if cons is None and coupled:
        cons = helpers.rand_coupled(rng, resources, n)
    elif cons is None:
        cons = [c for c in (helpers.rand_constraint(rng, resources)
                            for _ in range(rng.randint(1, 6))) if c is not None]
    inst = vapep.Instance(resources, users, tuple(cons),
                          vapep.AuthCost({u: frozenset() for u in users}, 1))
    kinds, tvals, pkinds, pslopes, ptables, rA, rB = _compile_constraints(inst)
    subs = subset_order(k)
    clsA, clsB = _level_classes(kinds, rA, rB, subs)
    sufun = [0] * (len(subs) + 1)
    for j in range(len(subs) - 1, -1, -1):
        sufun[j] = sufun[j + 1] | subs[j]
    cheap = [list(accumulate(sorted(rng.randint(0, 3) for _ in range(ell)), initial=0))
             for _ in subs]
    return (kinds, tvals, pkinds, pslopes, ptables, rA, rB), (
        subs, cheap, kinds, tvals, pkinds, pslopes, ptables, clsA, clsB, sufun)


def _recording_evaluate(seed):
    """evaluate that logs each call and returns a seeded, non-increasing
    incumbent."""
    rng = random.Random(seed)
    calls = []
    inc = [INF]

    def evaluate(pairs, cw):
        calls.append((list(pairs), cw))
        inc[0] = min(inc[0], cw + rng.randint(0, 6))
        return inc[0]
    return evaluate, calls


@needs_compiler
def test_kernels_agree_call_for_call():
    rng = random.Random(71)
    kinds_seen, pkinds_seen, ks_seen = set(), set(), set()
    full_ell = False
    cut_cases = lb_cut_cases = 0
    for case in range(48):
        k = 1 + case % 4
        n = rng.randint(1, 5 if k == 4 else 7)
        ell = n if case % 3 == 0 else rng.randint(0, n)
        cons, args = _kernel_case(rng, k, n, ell)
        results = []
        for name in ("python", "cython"):
            evaluate, calls = _recording_evaluate(case)
            out = get_backend(name).profile_search(k, ell, *args, evaluate)
            results.append((out, calls))
        assert results[0] == results[1], (case, k, n, ell)
        cut_cases += results[0][0][3] > 0
        lb_cut_cases += results[0][0][3] > 0 and 5 in cons[0]
        kinds_seen.update(cons[0])
        pkinds_seen.update(cons[2])
        ks_seen.add(k)
        full_ell |= ell == n

        kinds, tvals, pkinds, pslopes, ptables, rA, rB = cons
        nb = max(1, min(n, 12 // k))
        subs_all = [0] + subset_order(k)
        otab = [[0] + [rng.randint(0, 4) for _ in subs_all[1:]] for _ in range(nb)]
        brute = [
            get_backend(name).brute_search(nb, k, subs_all, otab, kinds, rA, rB,
                                           tvals, pkinds, pslopes, ptables)
            for name in ("python", "cython")
        ]
        assert brute[0] == brute[1], (case, k, nb)
    # the seeded cases reach every constraint kind and every penalty kind
    # (0 slope, 1 table, 2 quadratic), k = 1..4 and ell = n; the bound cuts
    # nodes, also in cases with a card_lb, whose shortfall falls while its
    # last level (the full mask) is counted
    assert kinds_seen == set(range(7))
    assert pkinds_seen == {0, 1, 2}
    assert ks_seen == {1, 2, 3, 4} and full_ell
    assert cut_cases >= 20 and lb_cut_cases >= 8, (cut_cases, lb_cut_cases)


@needs_compiler
def test_kernels_agree_call_for_call_on_coupled_cases():
    # user_count of every penalty kind against card_lb and sod_u with
    # linear and table penalties: the constraints the coupled bound reads
    rng = random.Random(74)
    pkinds_seen, cut_cases = set(), 0
    for case in range(300):
        k = 1 + case % 3
        n = rng.randint(1, 7)
        ell = n if case % 4 == 0 else rng.randint(0, n)
        cons, args = _kernel_case(rng, k, n, ell, coupled=True)
        results = []
        for name in ("python", "cython"):
            evaluate, calls = _recording_evaluate(case)
            out = get_backend(name).profile_search(k, ell, *args, evaluate)
            results.append((out, calls))
        assert results[0] == results[1], (case, k, n, ell)
        cut_cases += results[0][0][3] > 0
        kinds, pkinds = cons[0], cons[2]
        pkinds_seen.update((kd, pk) for kd, pk in zip(kinds, pkinds))
    # user_count quadratic, linear and tabled; card_lb and sod_u linear and tabled
    assert pkinds_seen == {(6, 2), (6, 0), (6, 1), (5, 0), (5, 1), (0, 0), (0, 1)}
    assert cut_cases >= 150, cut_cases


class _Boom(Exception):
    pass


def _raise_on_call(pairs, cw):
    raise _Boom


@pytest.mark.parametrize("name", ["python", pytest.param("cython", marks=needs_compiler)])
def test_kernel_evaluate_errors_propagate(name):
    kb = get_backend(name)
    rng = random.Random(72)
    cons, args = _kernel_case(rng, 3, 5, 5)
    with pytest.raises(_Boom):
        kb.profile_search(3, 5, *args, _raise_on_call)
    evaluate, calls = _recording_evaluate(0)
    again = kb.profile_search(3, 5, *args, evaluate)
    ref_evaluate, ref_calls = _recording_evaluate(0)
    assert again == get_backend("python").profile_search(3, 5, *args, ref_evaluate)
    assert calls == ref_calls


@needs_compiler
def test_compiled_kernel_rejects_malformed_input():
    kb = get_backend("cython")
    cons, args = _kernel_case(random.Random(73), 3, 4, 4)
    subs, cheap, kinds, tvals, pkinds, pslopes, ptables, clsA, clsB, sufun = args
    C, M = len(kinds), len(subs)
    evaluate, _ = _recording_evaluate(0)

    def search(k=3, **over):
        a = dict(subs=subs, cheap=cheap, kinds=kinds, tvals=tvals, pkinds=pkinds,
                 pslopes=pslopes, ptables=ptables, clsA=clsA, clsB=clsB,
                 sufun=sufun)
        a.update(over)
        return kb.profile_search(k, 4, *a.values(), evaluate)

    bad_cls = [list(row) for row in clsA]
    bad_cls[-1].append(C)  # a counter index past the constraints
    with pytest.raises(ValueError):
        search(clsA=bad_cls)
    with pytest.raises(ValueError):
        search(sufun=sufun[:M])
    with pytest.raises(ValueError):
        search(cheap=cheap + [cheap[0]])
    with pytest.raises(ValueError):
        search(cheap=cheap[:-1])
    with pytest.raises(ValueError):  # a row without its count-4 entry
        search(cheap=cheap[:-1] + [cheap[-1][:-1]])
    with pytest.raises(ValueError):  # a row with an entry past ell
        search(cheap=[row + [9] for row in cheap])
    with pytest.raises(TypeError):
        search(cheap=cheap[:-1] + [cheap[-1][:-1] + ["9"]])
    with pytest.raises(ValueError):  # a cost below 0; past 2^62 reads as 2^62
        search(cheap=cheap[:-1] + [[-1] + cheap[-1][1:]])
    with pytest.raises(ValueError):
        search(k=64)
    with pytest.raises(ValueError):
        kb.profile_search(3, -1, *args, evaluate)
    # the well-formed call still runs after the rejections
    assert search() == get_backend("python").profile_search(
        3, 4, *args, _recording_evaluate(0)[0])

    rA, rB = cons[5:]
    subs_all = [0] + subs
    otab = [[0] * len(subs_all) for _ in range(2)]
    with pytest.raises(ValueError):  # a resource index past k
        kb.brute_search(2, 3, subs_all, otab, kinds, [3] * C, rB, tvals,
                        pkinds, pslopes, ptables)
    with pytest.raises(ValueError):  # a cost row missing a subset
        kb.brute_search(2, 3, subs_all, [otab[0], otab[1][:-1]], kinds, rA,
                        rB, tvals, pkinds, pslopes, ptables)
    with pytest.raises(ValueError):  # a cost below 0
        kb.brute_search(2, 3, subs_all, [otab[0], [-1] * len(subs_all)], kinds, rA,
                        rB, tvals, pkinds, pslopes, ptables)


# --------------------------------------------------------------------------
# the plan walk

def _solve_recorded(w, monkeypatch, name="python"):
    """Solve plan w on backend `name`; return the tables `solve_wsp` hands
    the kernel, (n, pairs, groups, incs, rest, bounded), and the kernel's
    counters, (nodes, leaves, bound_cuts, matchings)."""
    kb = get_backend(name)
    real = kb.plan_search
    seen = []

    def record(*args):
        seen.append(args[:6])
        seen.append(real(*args))
        return seen[-1]

    with monkeypatch.context() as m:
        m.setattr(kb, "plan_search", record)
        m.setenv("APEP_KERNEL", name)
        try:
            solve_wsp(w)
        except ValueError as err:
            assert str(err) == TOO_HEAVY
    return seen


def _plan_tables(w, monkeypatch):
    return _solve_recorded(w, monkeypatch)[0]


def _plan_callbacks(w):
    """block_min and leaf over plan w's cost rows, logging each call; leaf
    keeps its own incumbent, as solve_wsp's does."""
    calls = []
    inc = [INF]

    def block_min(bm):
        calls.append(bm)
        return min(w.cost(u, bm) for u in range(w.n))

    def leaf(blocks, cw):
        calls.append((list(blocks), cw))
        costs = [[w.cost(u, bm) for u in range(w.n)] for bm in blocks]
        inc[0] = min(inc[0], cw + assignment_cost(costs))
        return inc[0]
    return block_min, leaf, calls


def _rand_plan(rng, case):
    """A seeded plan of up to 6 steps and 4 users; its cost shape cycles
    through ADDITIVE (its own table), MONOTONE (a capped table cost) and
    none (a seeded cost per user and mask)."""
    w = helpers.rand_wsp(rng, k_max=6, n_max=4)
    if case % 3 == 1:
        cap = rng.randint(1, 6)
        return WspInstance(w.steps, w.users, w.constraints, None,
                           cost_fn=lambda u, m: min(cap, w.cost(u, m)), _monotone=True)
    if case % 3 == 2:
        table = {(u, m): rng.randint(0, 5) for u in range(w.n) for m in range(1, 1 << w.k)}
        return WspInstance(w.steps, w.users, w.constraints, None,
                           cost_fn=lambda u, m: table[u, m])
    return w


@needs_compiler
def test_plan_kernels_agree_call_for_call(monkeypatch):
    rng = random.Random(74)
    shapes, seen = set(), {"table": 0, "few_users": 0, "cuts": 0, "skipped_leaves": 0}
    for case in range(240):
        w = _rand_plan(rng, case)
        tables = _plan_tables(w, monkeypatch)
        results = []
        for name in ("python", "cython"):
            block_min, leaf, calls = _plan_callbacks(w)
            out = get_backend(name).plan_search(*tables, block_min, leaf)
            results.append((out, calls))
        assert results[0] == results[1], case
        nodes, leaves, cuts, matchings = results[0][0]
        shapes.add(w._cost_shape)
        seen["table"] += any(c.spec is not None and c.spec.table for c in w.constraints)
        seen["few_users"] += w.n < w.k
        seen["cuts"] += cuts > 0
        seen["skipped_leaves"] += leaves > matchings
    assert shapes == {ADDITIVE, MONOTONE, None}
    assert min(seen.values()) >= 20, seen


class _PlanBoom(Exception):
    pass


@pytest.mark.parametrize("name", ["python", pytest.param("cython", marks=needs_compiler)])
@pytest.mark.parametrize("where", ["block_min", "leaf"])
def test_plan_kernel_callback_errors_propagate(name, where, monkeypatch):
    kb = get_backend(name)
    w = WspInstance(("s1", "s2", "s3", "s4"), ("u1", "u2"), (vapep.must_differ("s1", "s2", 2),),
                    vapep.AuthCost({"u1": frozenset({"s1"})}, 1))
    tables = _plan_tables(w, monkeypatch)
    block_min, leaf, _ = _plan_callbacks(w)

    def boom(*args):
        raise _PlanBoom

    with pytest.raises(_PlanBoom):
        kb.plan_search(*tables, *((boom, leaf) if where == "block_min" else (block_min, boom)))
    block_min, leaf, calls = _plan_callbacks(w)
    again = kb.plan_search(*tables, block_min, leaf)
    block_min, leaf, ref_calls = _plan_callbacks(w)
    assert again == get_backend("python").plan_search(*tables, block_min, leaf)
    assert calls == ref_calls


@needs_compiler
def test_compiled_plan_kernel_rejects_malformed_tables():
    kb = get_backend("cython")
    # three steps, two users: a must_differ pair settled at step 2 and one
    # disjoint constraint whose groups hold steps 0 and 1
    n, pairs, groups, incs, rest = 2, [[], [], [0, 3, 0]], [[0, 1, 2], [0, 1, 2], []], [[1, 1, 1]], [0] * 4

    def search(block_min=lambda bm: bm.bit_count(), leaf=lambda blocks, cw: cw, **over):
        a = dict(n=n, pairs=pairs, groups=groups, incs=incs, rest=rest)
        a.update(over)
        return kb.plan_search(*a.values(), True, block_min, leaf)

    good = search()
    bad = [
        (ValueError, dict(n=-1)),
        (ValueError, dict(pairs=pairs[:2])),  # a row per step
        (ValueError, dict(groups=groups + [[]])),
        (ValueError, dict(rest=rest[:3])),  # K + 1 entries
        (ValueError, dict(incs=[[1, 1]])),  # K entries per disjoint constraint
        (ValueError, dict(pairs=[[], [], [0, 3]])),  # not triples
        (ValueError, dict(pairs=[[], [], [2, 3, 0]])),  # not an earlier step
        (ValueError, dict(pairs=[[], [], [-1, 3, 0]])),
        (ValueError, dict(pairs=[[], [], [0, 3, 2]])),  # equal is 0 or 1
        (ValueError, dict(pairs=[[], [], [0, -3, 0]])),  # a negative penalty
        (ValueError, dict(groups=[[1, 1, 2], [0, 1, 2], []])),  # no disjoint 1
        (ValueError, dict(groups=[[0, 8, 2], [0, 1, 2], []])),  # a mask past K steps
        (ValueError, dict(incs=[[1, -1, 1]])),
        (ValueError, dict(rest=[0, -1, 0, 0])),
        (ValueError, dict(pairs=[[]] * 25, groups=[[]] * 25, incs=[], rest=[0] * 26)),
        (TypeError, dict(pairs=[[], [], [0, "3", 0]])),
        (TypeError, dict(incs=[[1, 1.0, 1]])),
        (TypeError, dict(rest=None)),
        (OverflowError, dict(incs=[[1, -(1 << 64), 1]])),
        (TypeError, dict(block_min=lambda bm: "1")),
        (OverflowError, dict(block_min=lambda bm: -(1 << 64))),
        (TypeError, dict(leaf=lambda blocks, cw: None)),
    ]
    for error, over in bad:
        with pytest.raises(error):
            search(**over)
    # a table that makes one block meet a disjoint constraint twice at one
    # step: hits would pass K, where the twin's incs row ends
    with pytest.raises(ValueError):
        kb.plan_search(1, [[]], [[0, 1, 1, 0, 1, 1]], [[0]], [0, 0], True,
                       lambda bm: 0, lambda blocks, cw: cw)
    with pytest.raises(IndexError):
        get_backend("python").plan_search(1, [[]], [[0, 1, 1, 0, 1, 1]], [[0]], [0, 0], True,
                                          lambda bm: 0, lambda blocks, cw: cw)
    # the well-formed call still runs after the rejections
    assert search() == good == get_backend("python").plan_search(
        n, pairs, groups, incs, rest, True, lambda bm: bm.bit_count(), lambda blocks, cw: cw)


@pytest.mark.parametrize("weight", [1 << 62, (1 << 62) + 1, 1 << 63, 1 << 70])
def test_plan_kernels_agree_past_two_to_the_62(weight, monkeypatch):
    # costs at or past INF read as INF, and sums are exact, so both backends
    # cut where Python ints would: every partition weighs at least INF, and
    # solve_wsp raises TOO_HEAVY; the walk without an interior bound cuts
    # every leaf, the bounded one every child
    for monotone in (False, True):
        w = helpers.rand_wsp(random.Random(76), k_max=5, n_max=3)
        heavy = lambda u, m, w=w: weight if u else w.cost(u, m) + (1 << 62)
        w = WspInstance(w.steps, w.users, w.constraints, None, cost_fn=heavy,
                        _monotone=monotone)
        runs = [_solve_recorded(w, monkeypatch, name) for name in available_backends()]
        assert all(run == runs[0] for run in runs), (monotone, runs)
        nodes, leaves, cuts, matchings = runs[0][1]
        assert matchings == 0 and cuts > 0 and (leaves == 0) == monotone
    # and table entries that heavy, called directly: a penalty, an increment
    # and a rest bound
    tables = [
        (3, [[], [0, weight, 0], []], [[], [], []], [], [0] * 4),
        (3, [[], [], []], [[0, 1, 2], [0, 1, 2], []], [[weight, 1, 1]], [0] * 4),
        (3, [[], [], []], [[], [], []], [], [weight, weight, 0, 0]),
    ]
    for args in tables:
        results = []
        for name in available_backends():
            calls = []
            out = get_backend(name).plan_search(
                *args, True, lambda bm: calls.append(bm) or bm.bit_count(),
                lambda blocks, cw: calls.append((blocks, cw)) or cw + len(blocks))
            results.append((out, calls))
        assert all(r == results[0] for r in results), args


@needs_compiler
def test_sampler_kernels_agree_call_for_call():
    # the generator's mask draws: same masks and the same final state at
    # both ends of the state range, every k and the smallest, the
    # generator's and the largest count per user
    for state in (0, (1 << 64) - 1):
        for k in range(1, 31):
            for cmax in sorted({1, max(1, (k - 1) // 2), k}):
                for count in (0, 1, 257):
                    ref = get_backend("python").subset_masks(state, count, k, cmax)
                    fast = get_backend("cython").subset_masks(state, count, k, cmax)
                    assert fast == ref, (state, k, cmax, count)
                    masks, after = ref
                    assert len(masks) == count and 0 <= after < 1 << 64
                    assert all(1 <= m.bit_count() <= cmax and m >> k == 0 for m in masks)


@pytest.mark.parametrize("name", ["python", pytest.param("cython", marks=needs_compiler)])
@pytest.mark.parametrize("args, error", [
    ((0, 5, 3, 0), ValueError),  # cmax 0
    ((0, 5, 3, 4), ValueError),  # cmax above k
    ((0, 5, 31, 1), ValueError),  # k past 30
    ((0, 5, 1 << 70, 1), ValueError),
    ((0, -1, 3, 1), ValueError),  # negative count
    ((-1, 5, 3, 1), ValueError),  # state outside [0, 2^64)
    ((1 << 64, 5, 3, 1), ValueError),
    ((0.0, 5, 3, 1), TypeError),  # a non-int
    ((0, 5.0, 3, 1), TypeError),
    ((0, 5, "3", 1), TypeError),
    ((0, 5, 3, None), TypeError),
])
def test_sampler_kernels_reject_malformed_input_alike(name, args, error):
    with pytest.raises(error):
        get_backend(name).subset_masks(*args)


@needs_compiler
def test_compiled_kernel_compiles_without_warnings():
    cc = sysconfig.get_config_var("CC").split()
    source = Path(kernel_build.ROOT, "src/vapep/_kernels/_core.c")
    proc = subprocess.run(
        cc + ["-I", sysconfig.get_paths()["include"], "-Wall", "-Wextra",
              "-Werror", "-fsyntax-only", str(source)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    assert proc.returncode == 0, proc.stdout


@needs_compiler
def test_compiled_kernel_frees_buffers_on_every_path():
    # the C buffers come from PyMem, so tracemalloc sees any left behind
    kb = get_backend("cython")
    cons, args = _kernel_case(random.Random(72), 3, 5, 5)
    kinds, tvals, pkinds, pslopes, ptables, rA, rB = cons
    brute_args = (2, 3, [0] + args[0], [[1] * 8] * 2, kinds, rA, rB, tvals,
                  pkinds, pslopes, ptables)
    bad_cls = [list(row) for row in args[7]]
    bad_cls[0] += [0] * 7 + [-1]  # rejected after its buffer is allocated
    bad_cheap = args[1][:-1] + [args[1][-1][:-1]]  # rejected on the last row
    plan = (2, [[], [], [0, 3, 0]], [[0, 1, 2], [0, 1, 2], []], [[1, 1, 1]], [0] * 4, True)
    twice = (1, [[]], [[0, 1, 1, 0, 1, 1]], [[0]], [0, 0], True)  # fails in the walk

    def block_min(bm):
        return bm.bit_count()

    def leaf(blocks, cw):
        return cw + len(blocks)

    doc = {"resources": ["r1", "r2"], "users": ["u1", "u2", "u3"],
           "auth": {"pairs": [["u1", "r1"], ["u3", "r2"], ["u1", "r2"]], "pair_penalty": 2},
           "constraints": [{"type": "sod_u", "scope": ["r1", "r2"]}], "meta": {"n": [1.5]}}
    text = json.dumps(doc, indent=2)
    declined = [  # each stops the reader at a different point
        text.replace('"n"', '"\u00e9"'),  # not ASCII
        text.replace('"u2"', '"\\u00752"'), text.replace('"u2"', '"u\t2"'),
        text[:-1] + ', "meta": 1}', text.replace('"auth": {', '"auth": {"pairs": [], '),
        json.dumps({"auth": doc["auth"], **doc}), json.dumps(dict(doc, users=["u1", ""])),
        json.dumps(dict(doc, users=["u1", "u1"])),
        json.dumps(dict(doc, resources=["r1", "r1"], auth={"pairs": [["u1", "r1"]]})),
        json.dumps({"users": doc["users"], "auth": doc["auth"], "resources": doc["resources"]}),
        json.dumps(dict(doc, resources=["r1", "r2", "r3"])),  # more than cap=2 names
        text.replace('"r2"\n      ]', '"r2", "r2"\n      ]', 1),  # a 3-item pair
        text.replace('[\n        "u3"', '[\n        "u9"'),  # unknown user
        text.replace('"u1",\n        "r1"', '"u1",\n        "r9"'),  # unknown name
        text.replace('"meta": {', '"meta": {,'),  # scan_once raises
        text + " 1", text[:-30], json.dumps({k: v for k, v in doc.items() if k != "auth"}),
    ]
    # the reader reads a file's bytes
    text, declined = text.encode(), [bad.encode() for bad in declined]
    scan_once = json.JSONDecoder().scan_once
    names = tuple(f"u{j}" for j in range(40))
    bad_names = [names + (names[3],), names + ("",), (7,) + names]
    probes = [names[0], names[-1], "".join(["u", "99"]), 7, None, ("u", 1)]
    counted = [text, scan_once, names, names[0], probes[2], probes[5]] + declined
    refs_before = [sys.getrefcount(t) for t in counted]

    def rounds(count):
        for _ in range(count):
            head = kb.read_head(text, "resources", scan_once, 2)
            # counted outside the asserts, whose rewriting holds its operands
            refs = [sys.getrefcount(x) for x in head] + [sys.getrefcount(head[0]["users"])]
            # held by `head`, `x` and the argument; the users' index, also
            # by the doc, whose users it stands in for
            assert refs == [3, 4, 3, 3]
            del head
            for bad in declined:
                assert kb.read_head(bad, "resources", scan_once, 2) is None
            kb.plan_search(*plan, block_min, leaf)
            with pytest.raises(_Boom):
                kb.plan_search(*plan, block_min, _raise_on_call)
            with pytest.raises(ValueError):  # rejected after every buffer is allocated
                kb.plan_search(*plan[:4], [0, 0, 0, -1], True, block_min, leaf)
            with pytest.raises(ValueError):
                kb.plan_search(*twice, block_min, leaf)
            with pytest.raises(_Boom):
                kb.profile_search(3, 5, *args, _raise_on_call)
            with pytest.raises(ValueError):
                kb.profile_search(3, 5, *args[:-1], [0] * 3, _raise_on_call)
            with pytest.raises(ValueError):
                kb.profile_search(3, 5, *args[:7], bad_cls, *args[8:], _raise_on_call)
            with pytest.raises(ValueError):
                kb.profile_search(3, 5, args[0], bad_cheap, *args[2:], _raise_on_call)
            kb.profile_search(3, 5, *args, _recording_evaluate(0)[0])
            kb.brute_search(*brute_args)
            with pytest.raises(ValueError):
                kb.brute_search(*brute_args[:3], [[1] * 8, [1] * 7], *brute_args[4:])
            index = kb.name_index(names)
            assert [index.get(p) for p in probes] == [0, 39, None, None, None, None]
            assert sum(map(index.__contains__, probes)) == 2 and len(list(index)) == 40
            with pytest.raises(KeyError):
                index[probes[2]]
            with pytest.raises(TypeError):
                index.get([])
            del index
            for bad in bad_names:
                assert kb.name_index(bad) is None
            kb.subset_masks((1 << 64) - 1, 3, 30, 30)  # masks past the cached small ints
            with pytest.raises(ValueError):
                kb.subset_masks(1 << 64, 3, 30, 30)
            with pytest.raises(TypeError):
                kb.subset_masks(0, 3, 30, 30.0)

    rounds(20)
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        rounds(1000)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # a leaked buffer of even one int64 per round would add 8 kB
    assert grown < 4096, grown
    assert [sys.getrefcount(t) for t in counted] == refs_before
