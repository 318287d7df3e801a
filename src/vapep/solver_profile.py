"""Exact solver that searches user profiles instead of relations.

A complete relation is determined up to user identity by its profile (how
many users hold each subset); constraint weight only depends on the profile,
and the cheapest relation realizing a profile is a min-cost assignment of
subset slots to users.  Searching all complete profiles with at most `ell`
assigned users is therefore exact whenever some optimum uses at most `ell`
users.  The profile space, C(ell + 2^k - 1, ell) profiles, is independent
of n; the kernel walks it depth first and cuts every subtree whose lower
bound (constraint terms that only grow, `card_lb` shortfalls less the
remaining budget, the cheapest users per subset) reaches the incumbent.
"""
from __future__ import annotations

import heapq
import logging
import math
import time
from itertools import accumulate
from typing import Iterator, Optional

from . import _kernels
from .constraints import eval_profile, wbound_suggestion
from .matching import INF, assignment_cost, min_cost_assignment
from .model import (
    AuthorizationRelation,
    GuardError,
    Instance,
    SolveResult,
    UserProfile,
    subset_order,
)

log = logging.getLogger("vapep.solver")

MAX_PROFILES = 10**9


def count_profiles(k: int, ell: int) -> int:
    """Number of profiles over k resources with at most ell assigned users."""
    if k < 0 or ell < 0:
        raise ValueError("need k >= 0 and ell >= 0")
    return math.comb(ell + (1 << k) - 1, ell)


def count_complete_profiles(k: int, ell: int) -> int:
    """Number of those profiles that cover all k resources, by
    inclusion-exclusion over the t resources left uncovered."""
    if k < 0 or ell < 0:
        raise ValueError("need k >= 0 and ell >= 0")
    return sum(
        (-1) ** t * math.comb(k, t) * math.comb(ell + (1 << (k - t)) - 1, ell)
        for t in range(k + 1)
    )


def enumerate_profiles(
    k: int, ell: int, n: int, require_complete: bool = False
) -> Iterator[UserProfile]:
    """Stream profiles in ascending lexicographic order of their count vectors.

    Impractical beyond small k; the solver uses the kernels instead.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if ell > n:
        raise ValueError(f"ell={ell} exceeds the number of users n={n}")
    if ell < 0:
        raise ValueError("need ell >= 0")
    subs = subset_order(k)
    M = len(subs)
    full = (1 << k) - 1
    val = [0] * (M + 1)
    budb = [0] * (M + 2)
    covb = [0] * (M + 2)
    budb[0] = ell
    j = 0
    down = True
    while True:
        if down:
            b = budb[j]
            if b == 0 or j == M:
                if not require_complete or covb[j] == full:
                    counts = {subs[jj]: val[jj] for jj in range(j) if val[jj]}
                    counts[0] = n - sum(counts.values())
                    yield UserProfile(counts)
                down = False
                j -= 1
                continue
            val[j] = 0
            covb[j + 1] = covb[j]
            budb[j + 1] = b
            j += 1
            continue
        if j < 0:
            return
        c = val[j]
        if c >= budb[j]:
            val[j] = 0
            j -= 1
            continue
        val[j] = c + 1
        budb[j + 1] = budb[j] - c - 1
        covb[j + 1] = covb[j] | subs[j]
        j += 1
        down = True


def _profile_counts(instance: Instance, usr: UserProfile) -> dict[int, int]:
    if usr.resources is not None and tuple(usr.resources) != instance.resources:
        raise ValueError("profile resources do not match the instance")
    k, n = instance.k, instance.n
    counts = {}
    for m, c in usr.counts.items():
        if m >= (1 << k):
            raise ValueError(f"profile mask {m} out of range for k={k}")
        if m:
            counts[m] = c
    if sum(counts.values()) > n:
        raise ValueError("profile assigns more users than the instance has")
    return counts


def cheapest_users(instance: Instance, masks: list[int], m: int) -> list[list[int]]:
    """For each mask, the min(m, n) users of least `omega_mask` cost, ordered
    by (cost, user index).

    Under a uniform pair penalty without a custom cost, a user's cost depends
    only on its authorized mask, so only the first m users of each mask type
    (`Instance.users_by_base`, one pass per instance) can be chosen and each
    mask ranks at most 2^k * m users.  Per-pair matrices and custom costs
    rank all n users per mask.
    """
    n = instance.n
    m = min(m, n)
    if instance.auth.custom is not None or instance._pen is not None:
        return [
            heapq.nsmallest(
                m, range(n), key=lambda u: (instance.omega_mask(u, mask), u)
            )
            for mask in masks
        ]
    types = instance.users_by_base(m)
    out = []
    for mask in masks:
        ranked = []
        for group in types.values():
            w = instance.omega_mask(group[0], mask)
            ranked.extend((w, u) for u in group[:m])
        ranked.sort()
        out.append([u for _, u in ranked[:m]])
    return out


def _slot_matrix(
    instance: Instance, groups: list[tuple[int, int, list[int]]]
) -> tuple[list[int], list[int], list[list[int]]]:
    """Slots, candidate columns and `omega_mask` cost matrix of a profile
    given as (mask, count, `cheapest_users` of the mask) groups in subset
    order.  Each mask offers its m cheapest users, m = len(slots); the
    columns are in ascending user order (`best_relation_for_profile` says
    why that is exact).
    """
    slots: list[int] = []
    for mask, c, _ in groups:
        slots.extend([mask] * c)
    m = len(slots)
    cols = sorted(set().union(*(us[:m] for _, _, us in groups)))
    costs = [[instance.omega_mask(u, mask) for u in cols] for mask in slots]
    return slots, cols, costs


def best_relation_for_profile(
    instance: Instance, usr: UserProfile
) -> tuple[AuthorizationRelation, int]:
    """Cheapest relation realizing the profile, and its total weight.

    Slots are subset copies in (popcount, value) order; users are matched by
    minimum authorization cost with the lexicographic tie-break.

    Only the m = len(slots) cheapest users of each slot mask are offered as
    columns, which gives the same answer as matching over all n users: if
    the lexicographically first optimum over all users gave a slot with mask
    s a user u outside the m cheapest for s, one of those m users would be
    left unused by the other m - 1 slots, and swapping it in for u would
    either cost less (contradicting optimality) or cost the same with a
    smaller user index (contradicting lexicographic minimality).  The
    candidate columns are in ascending user order, so the tie-break over
    their positions is the tie-break over users.
    """
    counts = _profile_counts(instance, usr)
    prof = UserProfile(dict(counts), instance.resources)
    cw = sum(eval_profile(c, prof) for c in instance.constraints)
    masks = [mask for mask in subset_order(instance.k) if mask in counts]
    if not masks:
        return AuthorizationRelation({}), cw
    ranked = cheapest_users(instance, masks, sum(counts.values()))
    slots, cols, costs = _slot_matrix(
        instance, [(mask, counts[mask], us) for mask, us in zip(masks, ranked)]
    )
    match, om = min_cost_assignment(costs)
    assignment = {
        instance.users[cols[j]]: frozenset(instance.mask_resources(mask))
        for mask, j in zip(slots, match)
    }
    return AuthorizationRelation(assignment), om + cw


def _compile_constraints(instance: Instance):
    """Flatten constraints into parallel arrays the kernels understand."""
    kind_code = {
        "sod_u": 0,
        "bod_u": 1,
        "sod_e": 2,
        "bod_e": 3,
        "card_ub": 4,
        "card_lb": 5,
        "user_count": 6,
    }
    kinds, tvals, pkinds, pslopes, ptables, rA, rB = [], [], [], [], [], [], []
    for c in instance.constraints:
        kinds.append(kind_code[c.kind])
        if c.kind in ("sod_e", "bod_e"):
            tvals.append(c.ell)
            pkinds.append(0)
            pslopes.append(0)
            ptables.append(())
        elif c.kind == "user_count":
            tvals.append(0)
            if c.quadratic:
                pkinds.append(2)
                pslopes.append(0)
                ptables.append(())
            else:
                pkinds.append(0)
                pslopes.append(c.spec.slope)
                ptables.append(())
        else:
            tvals.append(c.t if c.t is not None else 0)
            pkinds.append(1 if c.spec.table else 0)
            pslopes.append(c.spec.slope)
            ptables.append(c.spec.table)
        idx = [instance._rindex[r] for r in c.scope]
        rA.append(idx[0] if idx else 0)
        rB.append(idx[1] if len(idx) > 1 else 0)
    return kinds, tvals, pkinds, pslopes, ptables, rA, rB


def _level_classes(kinds, rA, rB, subs):
    """Which counter each level bumps per constraint (A, B or none)."""
    clsA, clsB = [], []
    for mask in subs:
        la, lb = [], []
        for i, kd in enumerate(kinds):
            a = mask >> rA[i] & 1
            b = mask >> rB[i] & 1
            if kd in (0, 3):  # count users holding both
                if a and b:
                    la.append(i)
            elif kd in (1, 2):  # one-sided counts
                if a and not b:
                    la.append(i)
                elif b and not a:
                    lb.append(i)
            elif kd in (4, 5):  # cardinality of one resource
                if a:
                    la.append(i)
        clsA.append(la)
        clsB.append(lb)
    return clsA, clsB


class _Search:
    """Incumbent and candidate evaluation for the profile kernel."""

    def __init__(self, instance, subs, cands):
        self.instance = instance
        self.subs = subs
        self.cands = cands
        self.incumbent = INF
        self.best_pairs = None
        self.calls = 0

    def evaluate(self, pairs, cw):
        self.calls += 1
        _, _, costs = _slot_matrix(
            self.instance, [(self.subs[j], c, self.cands[j]) for j, c in pairs]
        )
        total = cw + assignment_cost(costs)
        if total < self.incumbent:
            self.incumbent = total
            self.best_pairs = list(pairs)
        return self.incumbent


def default_ell(instance: Instance) -> int:
    """The cap solve() uses when none is given: suggestion clamped to [k, n]."""
    sug = wbound_suggestion(instance.constraints, instance.k)
    if sug is None:
        sug = instance.n
    return min(instance.n, max(instance.k, sug))


def solve(
    instance: Instance,
    ell: Optional[int] = None,
    threads: int = 1,
    backend: Optional[str] = None,
) -> SolveResult:
    """Exact minimum-weight complete relation via profile search.

    The kernel searches complete profiles with at most ell users by branch
    and bound and keeps the lexicographically first optimal profile, the
    one a full enumeration would keep; `best_relation_for_profile` then
    picks its relation with the lexicographic tie-break.
    `meta["profiles_enumerated"]` is the number of complete profiles in the
    space, a function of (k, ell) alone, not the number the search visited;
    that work (nodes, leaves, bound cuts and `evaluate` calls) goes to the
    log at INFO level.

    `threads` is accepted for compatibility and has no effect: the search
    runs on one thread, and the result is the same for every value.

    Raises GuardError, before any authorization cost is read, when the
    profile space exceeds MAX_PROFILES.
    """
    t0 = time.perf_counter()
    k, n = instance.k, instance.n
    if ell is None:
        L = default_ell(instance)
    else:
        L = max(1, min(n, int(ell)))
    kb = _kernels.get_backend(backend)
    subs = subset_order(k)
    M = len(subs)
    total_profiles = count_profiles(k, L)
    if total_profiles > MAX_PROFILES:
        raise GuardError(
            f"profile search needs C({L}+{1 << k}-1, {L}) = {total_profiles} "
            f"profiles; the guard allows {MAX_PROFILES}. Pass a smaller --ell "
            f"(optimal only among solutions with that many users) or cut k"
        )
    by_cost = cheapest_users(instance, subs, L)
    # cheap[j][c]: summed cost of the c cheapest users for subs[j], c = 0..L
    cheap = [
        list(accumulate((instance.omega_mask(u, mask) for u in us), initial=0))
        for us, mask in zip(by_cost, subs)
    ]
    kinds, tvals, pkinds, pslopes, ptables, rA, rB = _compile_constraints(instance)
    clsA, clsB = _level_classes(kinds, rA, rB, subs)
    sufun = [0] * (M + 1)
    for j in range(M - 1, -1, -1):
        sufun[j] = sufun[j + 1] | subs[j]

    st = _Search(instance, subs, by_cost)
    leaves, _, nodes, cuts = kb.profile_search(
        k, L, subs, cheap, kinds, tvals, pkinds, pslopes, ptables,
        clsA, clsB, sufun, st.evaluate,
    )

    counts = {subs[j]: c for j, c in st.best_pairs}
    counts[0] = n - sum(counts.values())
    profile = UserProfile(counts, instance.resources)
    relation, total = best_relation_for_profile(instance, profile)
    if total != st.incumbent:  # pragma: no cover - internal consistency check
        raise RuntimeError(
            f"internal: search total {st.incumbent} != reconstructed {total}"
        )
    profiles = count_complete_profiles(k, L)
    meta = {
        "solver": "profile",
        "backend": kb.NAME,
        "ell": L,
        "profiles_enumerated": profiles,
        "wall_time_s": time.perf_counter() - t0,
    }
    log.info(
        "profile solve: k=%d n=%d ell=%d profiles=%d nodes=%d leaves=%d "
        "bound_cuts=%d evaluate_calls=%d weight=%d",
        k, n, L, profiles, nodes, leaves, cuts, st.calls, total,
    )
    return SolveResult.build(instance, relation, meta)
