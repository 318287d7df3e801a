"""Compiled and pure-Python search kernels must be interchangeable."""
import gc
import random
import subprocess
import sysconfig
import tracemalloc
from itertools import accumulate
from pathlib import Path

import pytest

import vapep
from vapep import available_backends, default_backend_name, get_backend
from vapep.matching import INF
from vapep.model import subset_order
from vapep.solver_profile import _compile_constraints, _level_classes

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
def test_profile_solver_backends_bit_identical():
    rng = random.Random(61)
    for _ in range(25):
        inst = helpers.rand_instance(rng, n_max=6, k_max=3)
        ref = vapep.solve(inst, backend="python")
        fast = vapep.solve(inst, backend="cython")
        assert ref.total_weight == fast.total_weight
        assert ref.meta["profiles_enumerated"] == fast.meta["profiles_enumerated"]
        assert {u: ref.relation.resources_of(u) for u in inst.users} == {
            u: fast.relation.resources_of(u) for u in inst.users
        }
        assert ref.breakdown == fast.breakdown


@needs_compiler
def test_brute_solver_backends_bit_identical():
    rng = random.Random(62)
    for _ in range(25):
        inst = helpers.rand_instance(rng, n_max=4, k_max=3)
        ref = vapep.solve_exhaustive(inst, backend="python")
        fast = vapep.solve_exhaustive(inst, backend="cython")
        assert ref.total_weight == fast.total_weight
        assert ref.meta["relations_enumerated"] == fast.meta["relations_enumerated"]
        assert {u: ref.relation.resources_of(u) for u in inst.users} == {
            u: fast.relation.resources_of(u) for u in inst.users
        }


# --------------------------------------------------------------------------
# the kernels called directly, outside the solvers

def _kernel_case(rng, k, n, ell):
    """Random constraints compiled for the kernels, and seeded
    profile-search inputs over them (all but k, ell and evaluate).  The
    authorization rows are prefix sums of sorted random costs, as the solver
    builds them, one entry per count 0..ell."""
    resources = tuple(f"r{i + 1}" for i in range(k))
    users = tuple(f"u{j + 1}" for j in range(n))
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

    def rounds(count):
        for _ in range(count):
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
