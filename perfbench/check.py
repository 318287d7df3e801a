"""Output checks that do not rely on the solver under test.

`solution_weight` recomputes the authorization cost and the weight of every
constraint family from the instance document and the written assignment,
with plain set arithmetic.  The other helpers give closed forms the solver
output must match.  Each check raises `CheckError` with a message naming
what disagreed; the benchmark counts such an operation as failed.
"""
from __future__ import annotations

import math

CATEGORY = {
    "sod_u": "sod",
    "sod_e": "sod",
    "card_ub": "cardinality",
    "card_lb": "cardinality",
    "user_count": "user_count",
    "bod_u": "other",
    "bod_e": "other",
}


class CheckError(Exception):
    """An output disagreed with an independent computation."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _slope(entry: dict) -> int:
    """Linear penalty slope of a constraint entry, 1 when absent."""
    slope = entry.get("slope")
    if slope is None:
        slope = entry.get("penalty")
    return 1 if slope is None else slope


def constraint_weight(entry: dict, holders: dict, assigned: set) -> int:
    """Weight of one constraint entry given each resource's set of users."""
    kind = entry["type"]

    def f(z: int) -> int:
        return _slope(entry) * z if z > 0 else 0

    if kind == "user_count":
        z = len(assigned)
        if entry.get("slope") is None and entry.get("penalty") is None:
            return z * z
        return f(z)
    scope = entry["scope"]
    a = holders[scope[0]]
    if kind == "card_ub":
        return f(len(a) - entry["t"])
    if kind == "card_lb":
        return f(entry["t"] - len(a))
    b = holders[scope[1]]
    if kind == "sod_u":
        return f(len(a & b))
    if kind == "bod_u":
        return f(max(len(a - b), len(b - a)))
    if kind == "sod_e":
        return entry.get("ell", 1) if a == b else 0
    if kind == "bod_e":
        return 0 if a & b else entry.get("ell", 1)
    raise CheckError(f"unknown constraint type {kind!r}")


def solution_weight(instance: dict, assignment: dict) -> tuple[int, dict]:
    """Total weight of an assignment and its breakdown, from the documents.

    Raises CheckError when the assignment names an unknown user or resource
    or leaves a resource uncovered.
    """
    resources = instance["resources"]
    users = instance["users"]
    known_users = set(users)
    holders = {r: set() for r in resources}
    assigned = set()
    for u, rs in assignment.items():
        expect(u in known_users, f"assignment names unknown user {u!r}")
        for r in rs:
            expect(r in holders, f"assignment names unknown resource {r!r}")
            holders[r].add(u)
        if rs:
            assigned.add(u)
    uncovered = [r for r in resources if not holders[r]]
    expect(not uncovered, f"resources left uncovered: {uncovered}")

    auth = instance.get("auth", {})
    granted = {(u, r) for u, r in auth.get("pairs", [])}
    pp = auth.get("pair_penalty", 1)
    if isinstance(pp, list):
        uidx = {u: i for i, u in enumerate(users)}
        ridx = {r: i for i, r in enumerate(resources)}
    omega = 0
    for u, rs in assignment.items():
        for r in set(rs):
            if (u, r) not in granted:
                omega += pp[uidx[u]][ridx[r]] if isinstance(pp, list) else pp

    per = [constraint_weight(e, holders, assigned) for e in instance["constraints"]]
    cats = {"authorizations": omega, "sod": 0, "cardinality": 0,
            "user_count": 0, "other": 0}
    for e, w in zip(instance["constraints"], per):
        cats[CATEGORY[e["type"]]] += w
    return omega + sum(per), {"omega": omega, "constraints": per,
                              "by_category": cats}


def check_solution(instance: dict, out: dict) -> int:
    """Check a solve output against the recomputed weight; return the weight."""
    total, breakdown = solution_weight(instance, out["assignment"])
    expect(out["total_weight"] == total,
           f"total_weight {out['total_weight']} != recomputed {total}")
    expect(out["breakdown"] == breakdown,
           f"breakdown {out['breakdown']} != recomputed {breakdown}")
    return total


def complete_profiles(k: int, ell: int) -> int:
    """Profiles over k resources with at most ell users that cover every
    resource, by inclusion-exclusion over the resources left out."""
    return sum(
        (-1) ** (k - s) * math.comb(k, s) * math.comb(ell + (1 << s) - 1, ell)
        for s in range(k + 1)
    )


def generated_default_ell(instance: dict) -> int:
    """The user cap the profile solver documents for generated instances.

    Those instances hold separation pairs, linear lower cardinality bounds
    and one quadratic user count; dropping a user then pays off beyond
    (sum of lower-bound slopes + 2) // 2 users.  Clamped to [k, n].
    """
    kinds = {e["type"] for e in instance["constraints"]}
    expect(kinds <= {"sod_u", "card_lb", "user_count"},
           f"no documented default cap for constraint types {sorted(kinds)}")
    expect(any(e["type"] == "user_count" and e.get("slope") is None
               and e.get("penalty") is None for e in instance["constraints"]),
           "no quadratic user count, so no documented default cap")
    s = sum(_slope(e) for e in instance["constraints"] if e["type"] == "card_lb")
    k, n = len(instance["resources"]), len(instance["users"])
    return min(n, max(k, (s + 2) // 2))


def check_profile_solve(instance: dict, out: dict, ell: int) -> int:
    """Checks for a profile solve run with user cap ell; return the weight."""
    total = check_solution(instance, out)
    users = sum(1 for rs in out["assignment"].values() if rs)
    expect(users <= ell, f"{users} users assigned, cap is {ell}")
    meta = out["meta"]
    expect(meta.get("ell") == ell, f"meta.ell {meta.get('ell')} != {ell}")
    want = complete_profiles(len(instance["resources"]), ell)
    expect(meta.get("profiles_enumerated") == want,
           f"profiles_enumerated {meta.get('profiles_enumerated')} != {want}")
    return total


def type_compressed(instance: dict, ell: int) -> dict:
    """Copy of an instance keeping the first ell users of each authorized set.

    Users with equal authorized sets are interchangeable under a uniform pair
    penalty, and an optimum needs at most ell users, so the copy has the same
    optimal weight under the cap ell.
    """
    expect(isinstance(instance["auth"].get("pair_penalty", 1), int),
           "type compression needs a uniform pair penalty")
    base: dict[str, set] = {}
    for u, r in instance["auth"]["pairs"]:
        base.setdefault(u, set()).add(r)
    seen: dict[frozenset, int] = {}
    keep = []
    for u in instance["users"]:
        t = frozenset(base.get(u, ()))
        if seen.get(t, 0) < ell:
            seen[t] = seen.get(t, 0) + 1
            keep.append(u)
    kept = set(keep)
    doc = dict(instance)
    doc["users"] = keep
    doc["auth"] = dict(instance["auth"])
    doc["auth"]["pairs"] = [p for p in instance["auth"]["pairs"] if p[0] in kept]
    return doc


def check_non_increasing(weights: list[tuple[int, int]]) -> None:
    """Optima of one instance, as (ell, weight), must not rise with ell."""
    ordered = sorted(weights)
    for (l1, w1), (l2, w2) in zip(ordered, ordered[1:]):
        expect(w2 <= w1, f"optimum rose from {w1} at ell={l1} to {w2} at ell={l2}")

