"""Resilient-plan tooling.

An extended plan gives each step a pool of users.  It is tau-resilient when,
after removing any tau users, every step can still be covered by an
authorized user from its pool without violating the plan constraints.
`encode_resilient` turns the search for a cheap resilient extended plan into
an authorization-relation instance: separation pairs become user-overlap
penalties, every step demands at least tau+1 users, and a quadratic term
keeps the total user pool small.  Any solution of the encoded instance with
zero separation, cardinality and authorization penalties is tau-resilient.
"""
from __future__ import annotations

import itertools
import logging
import math
from typing import Iterable, Mapping, Optional

from .constraints import MAX_PENALTY, card_lb, sod_u, user_count
from .model import GuardError, Instance, _auth_of_masks
from .wsp import MUST_DIFFER, WspInstance, must_differ

log = logging.getLogger("vapep.resiliency")

MAX_EXCLUSION_SETS = 10**6


def encode_resilient(
    wsp: WspInstance,
    tau: int,
    p_sod: int = 10,
    p_card: int = 10,
    p_a: int = 1,
) -> Instance:
    """Encode a separation-only plan instance as a relation instance."""
    if not isinstance(tau, int) or isinstance(tau, bool) or tau < 0:
        raise ValueError("tau must be a non-negative integer")
    if tau + 1 > MAX_PENALTY:
        raise ValueError("tau is too large")
    if wsp.auth is None:
        raise ValueError("encoding needs an authorization base")
    cons = []
    for c in wsp.constraints:
        if c.kind != MUST_DIFFER:
            raise ValueError(f"encoding only handles separation pairs, got {c.kind}")
        cons.append(sod_u(c.scope[0], c.scope[1], p_sod))
    for s in wsp.steps:
        cons.append(card_lb(s, tau + 1, p_card))
    cons.append(user_count())
    return Instance(
        resources=wsp.steps,
        users=wsp.users,
        constraints=tuple(cons),
        auth=_auth_of_masks(wsp._base_mask, wsp.users, wsp.steps, p_a),
        _prebuilt=(wsp._uindex, (wsp._base_mask, None)),
    )


def wsp_from_encoded(instance: Instance) -> WspInstance:
    """Recover the plan instance behind an encoded relation instance."""
    cons = tuple(
        must_differ(c.scope[0], c.scope[1])
        for c in instance.constraints
        if c.kind == "sod_u"
    )
    return WspInstance(
        steps=instance.resources,
        users=instance.users,
        constraints=cons,
        auth=_auth_of_masks(instance._base_mask, instance.users, instance.resources, 1),
        _prebuilt=(instance._uindex, (instance._base_mask, None)),
    )


def _valid_plan_exists(wsp: WspInstance, binary: list[tuple[int, int, bool]],
                       pools: list[list[int]], order: list[int]) -> bool:
    """Backtracking search for an authorized plan drawing from per-step pools,
    under the plan's step-pair constraints `binary`, given as (step, step,
    must be equal), and its disjoint groups."""
    K = len(pools)
    assigned: dict[int, int] = {}

    def ok(si: int, ui: int) -> bool:
        for a, b, eq in binary:
            if a == si and b in assigned:
                if (assigned[b] == ui) != eq:
                    return False
            elif b == si and a in assigned:
                if (assigned[a] == ui) != eq:
                    return False
        return True

    def full_check() -> bool:
        for c in wsp.constraints:
            if c.kind != "disjoint":
                continue
            ua = {assigned[wsp._sindex[s]] for s in c.scope[0]}
            ub = {assigned[wsp._sindex[s]] for s in c.scope[1]}
            if ua & ub:
                return False
        return True

    def rec(d: int) -> bool:
        if d == K:
            return full_check()
        si = order[d]
        for ui in pools[si]:
            if ok(si, ui):
                assigned[si] = ui
                if rec(d + 1):
                    return True
                del assigned[si]
        return False

    return rec(0)


def check_tau_resilient(
    wsp: WspInstance,
    plan_ext: Mapping[str, Iterable[str]],
    tau: int,
) -> tuple[bool, Optional[tuple[str, ...]]]:
    """Exhaustively verify tau-resilience of an extended plan.

    Tries every tau-subset of users in index order; the first subset whose
    removal leaves some step uncoverable is returned as the witness.
    """
    if not isinstance(tau, int) or isinstance(tau, bool) or tau < 0:
        raise ValueError("tau must be a non-negative integer")
    if wsp.auth is None:
        raise ValueError("resilience needs an authorization base")
    n = wsp.n
    if tau <= n and math.comb(n, tau) > MAX_EXCLUSION_SETS:
        raise GuardError(
            f"checking tau={tau} over n={n} users needs C({n},{tau}) = "
            f"{math.comb(n, tau)} exclusion sets; the guard allows "
            f"{MAX_EXCLUSION_SETS}. Consider the sufficient condition instead: "
            f"solve the encode_resilient instance and check that its optimum "
            f"has zero separation, cardinality and authorization penalties."
        )
    pools_full: list[list[int]] = [[] for _ in wsp.steps]
    for s, us in plan_ext.items():
        if s not in wsp._sindex:
            raise ValueError(f"extended plan mentions unknown step {s!r}")
        si = wsp._sindex[s]
        if isinstance(us, str):
            raise ValueError(f"extended plan step {s!r} needs a list of user names")
        for u in us:
            if not isinstance(u, str):
                raise ValueError(f"extended plan step {s!r} lists a non-string user {u!r}")
            if u not in wsp._uindex:
                raise ValueError(f"extended plan mentions unknown user {u!r}")
            ui = wsp._uindex[u]
            if wsp.authorized(ui, si):
                pools_full[si].append(ui)
    for p in pools_full:
        p.sort()
    # compiled once, for every exclusion set
    binary = [
        (wsp._sindex[c.scope[0]], wsp._sindex[c.scope[1]], c.kind == "must_equal")
        for c in wsp.constraints
        if c.kind != "disjoint"
    ]
    for T in itertools.combinations(range(n), min(tau, n)):
        excl = set(T)
        pools = [[u for u in p if u not in excl] for p in pools_full]
        order = sorted(range(wsp.k), key=lambda si: (len(pools[si]), si))
        if not _valid_plan_exists(wsp, binary, pools, order):
            witness = tuple(wsp.users[u] for u in T)
            log.info("not resilient: removing %s blocks the plan", witness)
            return False, witness
    return True, None
