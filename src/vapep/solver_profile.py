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

That bound lets each `card_lb` shortfall shrink by every user still to
place, as if those users were free.  A second test weighs them: for each
number e of users still to place it adds what `user_count` gains from e
more users to the larger of two lower bounds on the `card_lb` and `sod_u`
part, the shortfalls less e, and the shortfalls as they stand plus e times
the least net gain of a remaining subset (what each user there adds to
`sod_u` at least, less what it takes off `card_lb` at most).  A count rises
by at most one per user and every penalty is non-decreasing, so both are
lower bounds, and a subtree is cut when no e brings the sum below the
incumbent.  On generated k=3 instances the generator's `card_lb` asks for
n // 20 + 1 users, more than the cap from n = 320 up: the first bound then
cuts almost nothing, and the second keeps the search at a few thousand
nodes for every n.
"""
from __future__ import annotations

import logging
import math
import time
from itertools import accumulate
from typing import Iterator, Optional

from . import _kernels
from .constraints import eval_profile, wbound_suggestion
from .matching import INF, TOO_HEAVY, assignment_cost, min_cost_assignment
from .model import (
    AuthorizationRelation,
    GuardError,
    Instance,
    SolveResult,
    UserProfile,
    _user_name,
    subset_order,
)

log = logging.getLogger("vapep.solver")

MAX_PROFILES = 10**9
# The preparation builds, for each of the 2^k - 1 subsets, a cost row of
# ell + 1 entries, a candidate list of ell users, constraint classes and a
# fixed set of small tables, which weigh about as much as 64 constraints.
# Measured at ell=1 from `vapep generate --n 3 --seed 0` (2k + 1
# constraints): k=20 in 19 s and 840 MiB, k=21 in 36 s and 1.7 GiB; with no
# constraints k=20 in 9 s and 603 MiB.  2^27 cells admits k=20 while
# ell + constraints <= 64 and refuses k=21 for every instance.
PREP_SUBSET_CELLS = 64
MAX_PREP_CELLS = 1 << 27


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

    Users of one type (`Instance.user_types`, one pass per instance) cost the
    same on every mask, so only the first m users of each type can be chosen:
    each mask prices each type once, on its first user, and ranks at most m
    users per type.
    """
    n = instance.n
    m = min(m, n)
    types = [group[:m] for group in instance.user_types(m).values()]
    out = []
    for mask in masks:
        costs = [instance.omega_mask(group[0], mask) for group in types]
        # w * n + u orders as (w, u) does, and ints sort faster than pairs
        ranked = sorted([w * n + u for w, group in zip(costs, types) for u in group])
        out.append([key % n for key in ranked[:m]])
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
        _user_name(instance, cols[j]): frozenset(instance.mask_resources(mask))
        for mask, j in zip(slots, match)
    }
    return AuthorizationRelation(assignment), om + cw


_KIND_CODES = {
    "sod_u": 0, "bod_u": 1, "sod_e": 2, "bod_e": 3,
    "card_ub": 4, "card_lb": 5, "user_count": 6,
}


def _compile_constraints(instance: Instance):
    """Flatten constraints into parallel arrays the kernels understand."""
    cons = instance.constraints
    specs = [c.spec for c in cons]
    scopes = [[instance._rindex[r] for r in c.scope] for c in cons]
    kinds = [_KIND_CODES[c.kind] for c in cons]
    tvals = [c.ell if c.ell is not None else c.t or 0 for c in cons]
    pkinds = [2 if c.quadratic else 1 if c.spec and c.spec.table else 0 for c in cons]
    pslopes = [sp.slope if sp else 0 for sp in specs]
    ptables = [sp.table if sp else () for sp in specs]
    rA = [idx[0] if idx else 0 for idx in scopes]
    rB = [idx[1] if len(idx) > 1 else 0 for idx in scopes]
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


def check_preparation(k: int, ell: int, constraints: int) -> None:
    """Raise GuardError, allocating nothing, when preparing a profile search
    over k resources, at most ell users and the given number of constraints
    needs more than MAX_PREP_CELLS cells, 2^k * (ell + constraints + 64)."""
    cells = (1 << k) * (ell + constraints + PREP_SUBSET_CELLS)
    if cells > MAX_PREP_CELLS:
        raise GuardError(
            f"profile search at k={k}, ell={ell} prepares 2^{k} * ({ell} + "
            f"{constraints} constraints + {PREP_SUBSET_CELLS}) = {cells} cells; "
            f"the guard allows {MAX_PREP_CELLS}. Cut k"
        )


def default_ell(instance: Instance) -> int:
    """The cap solve() uses when none is given: suggestion clamped to [k, n]."""
    sug = wbound_suggestion(instance.constraints, instance.k)
    if sug is None:
        sug = instance.n
    return min(instance.n, max(instance.k, sug))


def solve(instance: Instance, ell: Optional[int] = None) -> SolveResult:
    """Exact minimum-weight complete relation via profile search.

    The kernel searches complete profiles with at most ell users by branch
    and bound and keeps the lexicographically first optimal profile, the
    one a full enumeration would keep; `best_relation_for_profile` then
    picks its relation with the lexicographic tie-break.
    `meta["profiles_enumerated"]` is the number of complete profiles in the
    space, a function of (k, ell) alone, not the number the search visited;
    that work (nodes, leaves, bound cuts and `evaluate` calls) goes to the
    log at INFO level.

    The search runs in the kernel that APEP_KERNEL selects
    (`_kernels.get_backend`), whose name goes to `meta["backend"]`.

    Raises GuardError, before any authorization cost is read or any
    per-subset table is built, when the profile space exceeds MAX_PROFILES
    or the preparation exceeds MAX_PREP_CELLS (`check_preparation`).
    """
    t0 = time.perf_counter()
    k, n = instance.k, instance.n
    if ell is None:
        L = default_ell(instance)
    else:
        L = max(1, min(n, int(ell)))
    kb = _kernels.get_backend()
    total_profiles = count_profiles(k, L)
    if total_profiles > MAX_PROFILES:
        raise GuardError(
            f"profile search needs C({L}+{1 << k}-1, {L}) = {total_profiles} "
            f"profiles; the guard allows {MAX_PROFILES}. Pass a smaller --ell "
            f"(optimal only among solutions with that many users) or cut k"
        )
    check_preparation(k, L, len(instance.constraints))
    subs = subset_order(k)
    M = len(subs)
    by_cost = cheapest_users(instance, subs, L)
    # cheap[j][c]: summed cost of the c cheapest users for subs[j], c = 0..L
    cheap = [
        list(accumulate((instance.omega_mask(u, mask) for u in us), initial=0))
        for us, mask in zip(by_cost, subs)
    ]
    for row in cheap:
        if row[-1] >= INF:
            # capped at INF, which keeps it a lower bound and within the
            # compiled kernel's int64; rows never fall, so the last is largest
            row[:] = [min(w, INF) for w in row]
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
    if st.best_pairs is None:
        raise ValueError(TOO_HEAVY)

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
