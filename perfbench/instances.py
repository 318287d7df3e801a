"""The benchmark's own seeded instances for the plan solver.

`vapep generate` writes instances with lower cardinality bounds and a user
count, which the plan solver rejects, so the plan workloads build relation
instances here: one family holds only user separation and user binding
pairs (`sod_u`/`bod_u`, one plan step per resource), the other existence
binding with user separation (`bod_e`/`sod_u`, one plan step per resource
and binding partner).  The same seed always gives the same document.
"""
from __future__ import annotations

import itertools
import random


def _base(rng: random.Random, k: int, n: int, resources: list, users: list):
    """Authorization pairs: each user holds one to max(1, k // 3) resources."""
    pairs = []
    for u in users:
        held = sorted(rng.sample(range(k), rng.randint(1, max(1, k // 3))))
        pairs.extend([u, resources[i]] for i in held)
    return pairs


def duty_instance(seed: int, k: int, n: int, pairs: int) -> dict:
    """k resources, n users, `pairs` separation or binding duties."""
    rng = random.Random(f"duty:{seed}:{k}:{n}:{pairs}")
    resources = [f"r{i + 1}" for i in range(k)]
    users = [f"u{j + 1}" for j in range(n)]
    cons = []
    for a, b in rng.sample(list(itertools.combinations(resources, 2)), pairs):
        kind = "sod_u" if rng.random() < 0.6 else "bod_u"
        cons.append({"type": kind, "scope": [a, b], "slope": rng.randint(1, 4)})
    return {
        "resources": resources,
        "users": users,
        "auth": {"pairs": _base(rng, k, n, resources, users), "pair_penalty": 2},
        "constraints": cons,
    }


def existence_instance(seed: int, k: int, n: int, bindings: int, steps: int) -> dict:
    """k resources with `bindings` existence-binding pairs chosen so that the
    plan reduction has exactly `steps` steps, plus separation pairs between
    resources that are not bound."""
    rng = random.Random(f"existence:{seed}:{k}:{n}:{bindings}:{steps}")
    resources = [f"r{i + 1}" for i in range(k)]
    users = [f"u{j + 1}" for j in range(n)]
    all_pairs = list(itertools.combinations(range(k), 2))
    while True:
        bound = rng.sample(all_pairs, bindings)
        degree = [0] * k
        for a, b in bound:
            degree[a] += 1
            degree[b] += 1
        if sum(max(1, d) for d in degree) == steps:
            break
    cons = [
        {"type": "bod_e", "scope": [resources[a], resources[b]],
         "ell": rng.randint(2, 6)}
        for a, b in bound
    ]
    free = [p for p in all_pairs if p not in bound]
    for a, b in rng.sample(free, min(len(free), k // 2)):
        cons.append({"type": "sod_u", "scope": [resources[a], resources[b]],
                     "slope": rng.randint(1, 4)})
    return {
        "resources": resources,
        "users": users,
        "auth": {"pairs": _base(rng, k, n, resources, users), "pair_penalty": 2},
        "constraints": cons,
    }
