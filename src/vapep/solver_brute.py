"""Reference solver: enumerate every relation outright.

Only viable for toy sizes; a guard refuses anything beyond 2^24 relations.
Useful as ground truth for the profile solver and in tests.
"""
from __future__ import annotations

import logging
import time
from typing import Optional

from . import _kernels
from .constraints import eval_profile
from .matching import INF, TOO_HEAVY
from .model import (
    GuardError,
    Instance,
    SolveResult,
    UserProfile,
    subset_order,
)
from .solver_profile import _compile_constraints, best_relation_for_profile, enumerate_profiles

log = logging.getLogger("vapep.solver")

MAX_RELATIONS_LOG2 = 24


def solve_exhaustive(instance: Instance, backend: Optional[str] = None) -> SolveResult:
    """Minimum-weight complete relation by full enumeration.

    The whole space is walked with users outermost and subsets in
    (popcount, value) order; the returned relation is the canonical
    representative of the verified optimum under the same tie-break rule
    the profile solver uses.
    """
    t0 = time.perf_counter()
    k, n = instance.k, instance.n
    if n * k > MAX_RELATIONS_LOG2:
        raise GuardError(
            f"brute force needs (2^{k})^{n} = 2^{n * k} relations; "
            f"the guard allows at most 2^{MAX_RELATIONS_LOG2}"
        )
    kb = _kernels.get_backend(backend)
    subs_all = [0] + subset_order(k)
    # costs capped at INF, which no relation that holds one can beat, so
    # that the compiled kernel's int64 holds them
    otab = [
        [min(instance.omega_mask(u, mask), INF) for mask in subs_all]
        for u in range(n)
    ]
    kinds, tvals, pkinds, pslopes, ptables, rA, rB = _compile_constraints(instance)
    best_total, _, leaves = kb.brute_search(
        n, k, subs_all, otab, kinds, rA, rB, tvals, pkinds, pslopes, ptables
    )
    if best_total >= INF:  # a complete relation always exists, but may weigh too much
        raise ValueError(TOO_HEAVY)
    # Canonical representative of the optimum: the lexicographically first
    # complete profile whose cheapest completion reaches the exhaustively
    # verified minimum, finished with the matching tie-break.  This is the
    # same rule the profile solver applies, so ties never diverge.
    relation = None
    for stream in enumerate_profiles(k, n, n, require_complete=True):
        usr = UserProfile(dict(stream.counts), instance.resources)
        if sum(eval_profile(c, usr) for c in instance.constraints) > best_total:
            continue
        rel, w = best_relation_for_profile(instance, usr)
        if w == best_total:
            relation = rel
            break
    if relation is None:  # pragma: no cover - the optimum always has a profile
        raise RuntimeError("internal: optimum not reproducible from any profile")
    meta = {
        "solver": "brute",
        "backend": kb.NAME,
        "relations_enumerated": leaves,
        "wall_time_s": time.perf_counter() - t0,
    }
    log.info("brute solve: k=%d n=%d leaves=%d weight=%d", k, n, leaves, best_total)
    return SolveResult.build(instance, relation, meta)
