"""Reference solver: enumerate every relation outright.

Only viable for toy sizes; a guard refuses anything beyond 2^24 relations.
The enumeration checks, independently of the profile search, the weight of
the relation that the profile solver returns at ell = n.
"""
from __future__ import annotations

import logging
import time

from . import _kernels
from .model import GuardError, Instance, SolveResult, subset_order
from .solver_profile import _compile_constraints, check_preparation, solve

log = logging.getLogger("vapep.solver")

MAX_RELATIONS_LOG2 = 24


def solve_exhaustive(instance: Instance) -> SolveResult:
    """Minimum-weight complete relation by full enumeration.

    The brute kernel walks every relation for the optimum's weight; the
    relation is the canonical one of `solve(instance, ell=n)`, and
    RuntimeError is raised if their weights differ.  With one user, `solve`'s
    preparation, which ranks all 2^k subsets, costs more than the enumeration.
    """
    t0 = time.perf_counter()
    k, n = instance.k, instance.n
    if n * k > MAX_RELATIONS_LOG2:
        raise GuardError(
            f"brute force needs (2^{k})^{n} = 2^{n * k} relations; "
            f"the guard allows at most 2^{MAX_RELATIONS_LOG2}"
        )
    # the relation comes from solve(ell=n), so its guard applies first
    check_preparation(k, n, len(instance.constraints))
    kb = _kernels.get_backend()
    subs_all = [0] + subset_order(k)
    otab = [[instance.omega_mask(u, mask) for mask in subs_all] for u in range(n)]
    kinds, tvals, pkinds, pslopes, ptables, rA, rB = _compile_constraints(instance)
    best_total, _, leaves = kb.brute_search(
        n, k, subs_all, otab, kinds, rA, rB, tvals, pkinds, pslopes, ptables
    )
    # raises ValueError(TOO_HEAVY) when the enumeration found nothing below INF
    canonical = solve(instance, ell=n)
    if canonical.total_weight != best_total:
        raise RuntimeError(f"internal: brute optimum {best_total} != profile "
                           f"optimum {canonical.total_weight}")
    meta = {
        "solver": "brute",
        "backend": kb.NAME,
        "relations_enumerated": leaves,
        "wall_time_s": time.perf_counter() - t0,
    }
    log.info("brute solve: k=%d n=%d leaves=%d weight=%d", k, n, leaves, best_total)
    return SolveResult.build(instance, canonical.relation, meta)
