"""Exact solver that searches user profiles instead of relations.

A complete relation is determined up to user identity by its profile (how
many users hold each subset); constraint weight only depends on the profile,
and the cheapest relation realizing a profile is a min-cost assignment of
subset slots to users.  Enumerating all complete profiles with at most `ell`
assigned users is therefore exact whenever some optimum uses at most `ell`
users, and the enumeration size C(ell + 2^k - 1, ell) is independent of n.
"""
from __future__ import annotations

import heapq
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
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
    only on its authorized mask, so one pass keeps the first m users of each
    mask type and each mask then ranks at most 2^k * m users.  Per-pair
    matrices and custom costs rank all n users per mask.
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
    types: dict[int, list[int]] = {}
    for u, base in enumerate(instance._base_mask):
        group = types.get(base)
        if group is None:
            types[base] = [u]
        elif len(group) < m:
            group.append(u)
    out = []
    for mask in masks:
        ranked = []
        for group in types.values():
            w = instance.omega_mask(group[0], mask)
            ranked.extend((w, u) for u in group)
        ranked.sort()
        out.append([u for _, u in ranked[:m]])
    return out


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
    slots: list[int] = []
    for mask in subset_order(instance.k):
        slots.extend([mask] * counts.get(mask, 0))
    prof = UserProfile(dict(counts), instance.resources)
    cw = sum(eval_profile(c, prof) for c in instance.constraints)
    if not slots:
        return AuthorizationRelation({}), cw
    cands = cheapest_users(instance, sorted(set(slots)), len(slots))
    cols = sorted(set().union(*cands))
    costs = [[instance.omega_mask(u, mask) for u in cols] for mask in slots]
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
    """Per-worker incumbent and candidate evaluation for the profile kernel."""

    def __init__(self, instance, subs, cands):
        self.instance = instance
        self.subs = subs
        self.cands = cands
        self.incumbent = INF
        self.best_pairs = None

    def evaluate(self, pairs, cw):
        inst = self.instance
        m = sum(c for _, c in pairs)
        cols: set[int] = set()
        slots = []
        for j, c in pairs:
            slots.extend([self.subs[j]] * c)
            cols.update(self.cands[j][:m])
        col_list = sorted(cols)
        costs = [[inst.omega_mask(u, mask) for u in col_list] for mask in slots]
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
    """Exact minimum-weight complete relation via profile enumeration.

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
    minw = [instance.omega_mask(us[0], mask) for us, mask in zip(by_cost, subs)]
    kinds, tvals, pkinds, pslopes, ptables, rA, rB = _compile_constraints(instance)
    clsA, clsB = _level_classes(kinds, rA, rB, subs)
    sufun = [0] * (M + 1)
    for j in range(M - 1, -1, -1):
        sufun[j] = sufun[j + 1] | subs[j]

    def run(first_count: int) -> tuple[int, _Search]:
        st = _Search(instance, subs, by_cost)
        emitted, _ = kb.profile_search(
            k, L, subs, minw, kinds, tvals, pkinds, pslopes, ptables,
            clsA, clsB, sufun, st.evaluate, first_count,
        )
        return emitted, st

    if threads <= 1:
        emitted, st = run(-1)
        best_total, best_pairs = st.incumbent, st.best_pairs
    else:
        emitted = 0
        best_total, best_pairs = INF, None
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for em, st in pool.map(run, range(L + 1)):
                emitted += em
                # partitions ascend by the first count, matching lex order
                if st.incumbent < best_total:
                    best_total, best_pairs = st.incumbent, st.best_pairs

    counts = {subs[j]: c for j, c in best_pairs}
    counts[0] = n - sum(counts.values())
    profile = UserProfile(counts, instance.resources)
    relation, total = best_relation_for_profile(instance, profile)
    if total != best_total:  # pragma: no cover - internal consistency check
        raise RuntimeError(
            f"internal: search total {best_total} != reconstructed {total}"
        )
    meta = {
        "solver": "profile",
        "backend": kb.NAME,
        "ell": L,
        "profiles_enumerated": emitted,
        "wall_time_s": time.perf_counter() - t0,
    }
    log.info(
        "profile solve: k=%d n=%d ell=%d threads=%d profiles=%d weight=%d",
        k, n, L, threads, emitted, total,
    )
    return SolveResult.build(instance, relation, meta)
