"""The twin profile and brute kernels on weights at and past INF = 2^62.

Property-based twin of the call-for-call tests in `tests/test_kernels.py`,
whose `_kernel_case` it uses for the constraints: hypothesis draws the
authorization tables (`cheap`, `otab`) and the values `evaluate` returns
from small weights and from weights about INF, which both kernels read
clamped to INF.  The compiled and pure-Python kernels must then make the
same `evaluate` calls and return the same results.  The examples are
derandomized and bounded, so every run checks the same cases; one case
that the draws rarely reach is written out.
"""
import random

import pytest

from vapep import get_backend, sod_u
from vapep.matching import INF
from vapep.model import subset_order

from test_kernels import _kernel_case, needs_compiler

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_HEAVY = [INF - 1, INF, 1 << 63, 1 << 70]
_WEIGHTS = st.integers(0, 6) | st.sampled_from(_HEAVY)
_RETURNS = st.integers(0, 40) | st.sampled_from(_HEAVY)


@st.composite
def _shapes(draw, n_max):
    """(seed, k, n, ell) of a `_kernel_case`."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, n_max))
    return draw(st.integers(0, 2**32)), k, n, draw(st.integers(0, n))


def _evaluate(returns):
    """evaluate that logs each call and returns the drawn values in turn."""
    calls = []

    def evaluate(pairs, cw):
        calls.append((list(pairs), cw))
        return returns[(len(calls) - 1) % len(returns)]
    return evaluate, calls


@needs_compiler
def test_profile_kernels_agree_on_heavy_weights():
    seen = set()

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @hypothesis.given(_shapes(6), st.data())
    def check(shape, data):
        seed, k, n, ell = shape
        _, args = _kernel_case(random.Random(seed), k, n, ell)
        cheap = [data.draw(st.lists(_WEIGHTS, min_size=ell + 1, max_size=ell + 1))
                 for _ in args[1]]
        returns = data.draw(st.lists(_RETURNS, min_size=1, max_size=6))
        results = []
        for name in ("python", "cython"):
            evaluate, calls = _evaluate(returns)
            out = get_backend(name).profile_search(k, ell, args[0], cheap, *args[2:], evaluate)
            results.append((out, calls))
        assert results[0] == results[1], (shape, cheap, returns)
        seen.add(results[0][0][1] < INF)

    check()
    # searches that end with an incumbent and searches that find none
    assert seen == {True, False}


@needs_compiler
def test_brute_kernels_agree_on_heavy_weights():
    seen = set()

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @hypothesis.given(_shapes(4), st.data())
    def check(shape, data):
        seed, k, n, _ = shape
        cons, _ = _kernel_case(random.Random(seed), k, n, n)
        kinds, tvals, pkinds, pslopes, ptables, rA, rB = cons
        nb = min(n, 8 // k)
        subs_all = [0] + subset_order(k)
        otab = [data.draw(st.lists(_WEIGHTS, min_size=len(subs_all), max_size=len(subs_all)))
                for _ in range(nb)]
        results = [
            get_backend(name).brute_search(nb, k, subs_all, otab, kinds, rA, rB,
                                           tvals, pkinds, pslopes, ptables)
            for name in ("python", "cython")
        ]
        assert results[0] == results[1], (shape, otab)
        seen.add(results[0][0] < INF)

    check()
    assert seen == {True, False}


@needs_compiler
def test_profile_kernels_cut_where_the_bound_passes_the_int64_range():
    # a user at {r1} for INF - 1 and one at {r1, r2} for INF bring the
    # authorization bound to 2^63 - 1, and the shared user adds sod_u's 1:
    # both kernels must cut that leaf, as Python ints do, and every other
    # complete profile weighs at least INF, so they call nothing
    _, args = _kernel_case(random.Random(0), 2, 2, 2, cons=[sod_u("r1", "r2")])
    assert args[0] == [1, 2, 3]
    cheap = [[0, INF - 1, INF - 1], [0, INF, INF], [0, INF, INF]]
    for name in ("python", "cython"):
        evaluate, calls = _evaluate([0])
        leaves, inc, _, cuts = get_backend(name).profile_search(
            2, 2, args[0], cheap, *args[2:], evaluate)
        assert (leaves, inc, calls) == (0, INF, []) and cuts > 0, name
