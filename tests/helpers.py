"""Independent reference implementations used to cross-check the package.

Everything here recomputes weights from first principles with plain set
arithmetic and flat exhaustive enumeration.  Nothing below reuses solver
internals; the only package imports are the public data types, so these
oracles stay meaningful as a second opinion.
"""
from __future__ import annotations

import itertools

import vapep


# --------------------------------------------------------------------------
# kernel selection, for tests that run on every built backend

def each_kernel(monkeypatch):
    """Set APEP_KERNEL to each built kernel backend in turn, yielding its
    name."""
    for name in vapep.available_backends():
        monkeypatch.setenv("APEP_KERNEL", name)
        yield name


# --------------------------------------------------------------------------
# penalty curves and constraint weights, recomputed from the definitions

def pen_value(spec, z: int) -> int:
    """f(z) for a penalty spec, recomputed without calling the spec."""
    if z <= 0:
        return 0
    if spec.table:
        if z <= len(spec.table):
            return spec.table[z - 1]
        return spec.table[-1] + spec.slope * (z - len(spec.table))
    return spec.slope * z


def constraint_weight(c, users_by_resource: dict, assigned: set) -> int:
    """Set-theoretic weight of one constraint given A(r) sets."""
    if c.kind == "user_count":
        z = len(assigned)
        return z * z if c.quadratic else pen_value(c.spec, z)
    a = users_by_resource[c.scope[0]]
    if c.kind == "card_ub":
        return pen_value(c.spec, len(a) - c.t)
    if c.kind == "card_lb":
        return pen_value(c.spec, c.t - len(a))
    b = users_by_resource[c.scope[1]]
    if c.kind == "sod_u":
        return pen_value(c.spec, len(a & b))
    if c.kind == "bod_u":
        return pen_value(c.spec, max(len(a - b), len(b - a)))
    if c.kind == "sod_e":
        return c.ell if a == b else 0
    if c.kind == "bod_e":
        return 0 if a & b else c.ell
    raise AssertionError(f"unknown kind {c.kind}")


def pair_pen(inst, u: str, r: str) -> int:
    pp = inst.auth.pair_penalty
    if isinstance(pp, dict):
        return pp.get((u, r), 1)
    return pp


def mapping_weight(inst, mapping: dict) -> int:
    """Total weight of a user -> resource-set mapping, recomputed flat."""
    users_by_resource = {r: set() for r in inst.resources}
    assigned = set()
    om = 0
    for u in inst.users:
        rs = set(mapping.get(u, ()))
        if rs:
            assigned.add(u)
        for r in rs:
            users_by_resource[r].add(u)
        if inst.auth.custom is not None:
            if rs:
                om += inst.auth.custom(u, frozenset(rs))
        else:
            base = inst.auth.base.get(u, frozenset())
            om += sum(pair_pen(inst, u, r) for r in rs if r not in base)
    return om + sum(
        constraint_weight(c, users_by_resource, assigned) for c in inst.constraints
    )


def relation_weight(inst, rel) -> int:
    return mapping_weight(inst, {u: rel.resources_of(u) for u in inst.users})


# --------------------------------------------------------------------------
# exhaustive optimum over every complete relation

def all_subsets(resources) -> list[frozenset]:
    out = []
    for size in range(len(resources) + 1):
        for combo in itertools.combinations(resources, size):
            out.append(frozenset(combo))
    return out


def iter_mappings(inst):
    subsets = all_subsets(inst.resources)
    for combo in itertools.product(subsets, repeat=inst.n):
        yield dict(zip(inst.users, combo))


def exhaustive_optimum(inst) -> tuple[int, int]:
    """(minimum weight over complete relations, fewest users among optima)."""
    k = inst.k
    best = None
    best_users = None
    for mapping in iter_mappings(inst):
        covered = set()
        for rs in mapping.values():
            covered |= rs
        if len(covered) != k:
            continue
        w = mapping_weight(inst, mapping)
        nu = sum(1 for rs in mapping.values() if rs)
        if best is None or w < best:
            best, best_users = w, nu
        elif w == best and nu < best_users:
            best_users = nu
    return best, best_users


# --------------------------------------------------------------------------
# profile-space oracle: the first optimum in lexicographic profile order

def first_optimum(inst, ell: int):
    """(relation, weight) of the first optimal complete profile with at most
    ell users, taken from every such profile in lexicographic order with no
    bound.  It shares the public profile stream and reconstruction with the
    profile solver, but none of its search."""
    best = None
    for usr in vapep.enumerate_profiles(inst.k, ell, inst.n, require_complete=True):
        rel, weight = vapep.best_relation_for_profile(inst, usr)
        if best is None or weight < best[1]:
            best = rel, weight
    return best


# --------------------------------------------------------------------------
# matching oracle: flat minimum over injections, lexicographic tie-break

def injection_optimum(costs) -> tuple[tuple[int, ...], int]:
    m, n = len(costs), len(costs[0]) if costs else 0
    best = None
    best_assign = None
    for cols in itertools.permutations(range(n), m):
        w = sum(costs[i][cols[i]] for i in range(m))
        if best is None or w < best:
            best, best_assign = w, cols
        elif w == best and cols < best_assign:
            best_assign = cols
    return best_assign, best


# --------------------------------------------------------------------------
# plan-space oracle for step instances

def plan_weight(w, plan: dict) -> int:
    """Weight of a full step -> user plan, recomputed from the definitions."""
    total = 0
    for c in w.constraints:
        if c.kind == "must_equal":
            total += 0 if plan[c.scope[0]] == plan[c.scope[1]] else c.ell
        elif c.kind == "must_differ":
            total += c.ell if plan[c.scope[0]] == plan[c.scope[1]] else 0
        else:  # disjoint groups
            pa = {plan[s] for s in c.scope[0]}
            pb = {plan[s] for s in c.scope[1]}
            total += pen_value(c.spec, len(pa & pb))
    for ui, user in enumerate(w.users):
        mask = 0
        for si, s in enumerate(w.steps):
            if plan[s] == user:
                mask |= 1 << si
        total += w.cost(ui, mask)
    return total


def plan_space_optimum(w) -> int:
    best = None
    for combo in itertools.product(w.users, repeat=w.k):
        weight = plan_weight(w, dict(zip(w.steps, combo)))
        if best is None or weight < best:
            best = weight
    return best


# --------------------------------------------------------------------------
# flat resiliency double-check

def plan_exists_flat(w, pools: dict) -> bool:
    """Is there a zero-violation plan drawing each step from its pool?"""
    steps = list(w.steps)
    if any(not pools.get(s) for s in steps):
        return False
    for combo in itertools.product(*(pools[s] for s in steps)):
        plan = dict(zip(steps, combo))
        ok = True
        for c in w.constraints:
            if c.kind == "must_differ" and plan[c.scope[0]] == plan[c.scope[1]]:
                ok = False
                break
            if c.kind == "must_equal" and plan[c.scope[0]] != plan[c.scope[1]]:
                ok = False
                break
            if c.kind == "disjoint":
                pa = {plan[s] for s in c.scope[0]}
                pb = {plan[s] for s in c.scope[1]}
                if pa & pb:
                    ok = False
                    break
        if ok and all(
            w.authorized(w.users.index(plan[s]), si) for si, s in enumerate(steps)
        ):
            return True
    return False


def resilient_flat(w, plan_ext: dict, tau: int) -> tuple[bool, tuple | None]:
    """Check every exclusion of at most tau users by flat plan enumeration."""
    users = list(w.users)
    pools = {
        s: [u for u in plan_ext.get(s, ()) if w.authorized(users.index(u), si)]
        for si, s in enumerate(w.steps)
    }
    for size in range(min(tau, len(users)) + 1):
        for excl in itertools.combinations(users, size):
            gone = set(excl)
            left = {s: [u for u in pool if u not in gone] for s, pool in pools.items()}
            if not plan_exists_flat(w, left):
                return False, excl
    return True, None


# --------------------------------------------------------------------------
# random builders shared across test modules

FAMILIES = ("sod_u", "bod_u", "sod_e", "bod_e", "card_ub", "card_lb", "user_count")


def rand_penalty(rng, linear_only=False) -> vapep.PenaltySpec:
    if linear_only or rng.random() < 0.5:
        return vapep.PenaltySpec.linear(rng.randint(1, 9))
    vals = []
    v = 0
    for _ in range(rng.randint(1, 3)):
        v += rng.randint(1, 5)
        vals.append(v)
    return vapep.PenaltySpec.from_table(vals, rng.randint(1, 4))


def rand_constraint(rng, resources, families=FAMILIES, linear_only=False):
    fam = rng.choice(list(families))
    if fam == "user_count":
        return vapep.user_count() if rng.random() < 0.5 else vapep.user_count(rng.randint(1, 5))
    if fam in ("card_ub", "card_lb"):
        r = rng.choice(resources)
        t = rng.randint(1, 3)
        spec = rand_penalty(rng, linear_only)
        return vapep.card_ub(r, t, spec) if fam == "card_ub" else vapep.card_lb(r, t, spec)
    if len(resources) < 2:
        return None
    r1, r2 = rng.sample(list(resources), 2)
    if fam == "sod_u":
        return vapep.sod_u(r1, r2, rand_penalty(rng, linear_only))
    if fam == "bod_u":
        return vapep.bod_u(r1, r2, rand_penalty(rng, linear_only))
    if fam == "sod_e":
        return vapep.sod_e(r1, r2, rng.randint(1, 9))
    return vapep.bod_e(r1, r2, rng.randint(1, 9))


def rand_coupled(rng, resources, n) -> list:
    """Constraints that the profile kernels' coupled bound reads: a
    user_count that is quadratic, linear or a penalty table, one to k card_lb
    with thresholds up to n + 1 and, when k > 1, one or two sod_u; the
    card_lb and sod_u penalties are linear or tables."""
    pick = rng.randrange(3)
    if pick == 2:
        table = sorted(rng.randint(1, 9) for _ in range(rng.randint(1, 3)))
        spec = vapep.PenaltySpec.from_table(table, rng.randint(1, 4))
        cons = [vapep.Constraint("user_count", (), spec=spec)]
    else:
        cons = [vapep.user_count() if pick == 0 else vapep.user_count(rng.randint(1, 5))]
    for _ in range(rng.randint(1, len(resources))):
        cons.append(vapep.card_lb(rng.choice(resources), rng.randint(1, n + 1),
                                  rand_penalty(rng)))
    if len(resources) > 1:
        for _ in range(rng.randint(1, 2)):
            cons.append(vapep.sod_u(*rng.sample(list(resources), 2), rand_penalty(rng)))
    return cons


def rand_instance(
    rng,
    n_max=5,
    k_max=3,
    families=FAMILIES,
    max_cons=4,
    n_min=1,
    k_min=1,
    allow_matrix=True,
    linear_only=False,
):
    n = rng.randint(n_min, n_max)
    k = rng.randint(k_min, k_max)
    resources = tuple(f"r{i + 1}" for i in range(k))
    users = tuple(f"u{j + 1}" for j in range(n))
    cons = []
    for _ in range(rng.randint(0, max_cons)):
        c = rand_constraint(rng, resources, families, linear_only)
        if c is not None:
            cons.append(c)
    base = {
        u: frozenset(r for r in resources if rng.random() < 0.6) for u in users
    }
    if allow_matrix and rng.random() < 0.3:
        pp = {
            (u, r): rng.randint(0, 4)
            for u in users
            for r in resources
            if rng.random() < 0.5
        }
        auth = vapep.AuthCost(base, pp)
    else:
        auth = vapep.AuthCost(base, rng.randint(0, 4))
    return vapep.Instance(resources, users, tuple(cons), auth)


def with_custom_cost(rng, inst):
    """The instance with a seeded custom authorization cost: a per-user
    multiple of the unauthorized resources, plus one for any assignment."""
    base = inst.auth.base
    scale = {u: rng.randint(0, 3) for u in inst.users}

    def custom(u, rs):
        return scale[u] * len(rs - base.get(u, frozenset())) + min(len(rs), 1)

    return vapep.Instance(inst.resources, inst.users, inst.constraints,
                          vapep.AuthCost(base, 1, custom=custom))


def rand_complete_mapping(rng, inst) -> dict:
    """Random user -> resource-set mapping patched to cover every resource."""
    mapping = {
        u: {r for r in inst.resources if rng.random() < 0.4} for u in inst.users
    }
    for r in inst.resources:
        if not any(r in rs for rs in mapping.values()):
            mapping[rng.choice(list(inst.users))].add(r)
    return mapping


def rand_relation(rng, inst, complete=True):
    if complete:
        mapping = rand_complete_mapping(rng, inst)
    else:
        mapping = {
            u: {r for r in inst.resources if rng.random() < 0.4} for u in inst.users
        }
    return vapep.AuthorizationRelation.from_mapping(mapping)


def rand_wsp(rng, k_max=4, n_max=5, with_disjoint=True, linear_only=False) -> vapep.WspInstance:
    K = rng.randint(1, k_max)
    n = rng.randint(1, n_max)
    steps = tuple(f"s{i + 1}" for i in range(K))
    users = tuple(f"u{j + 1}" for j in range(n))
    cons = []
    for _ in range(rng.randint(0, 3)):
        pick = rng.random()
        if K >= 2 and pick < 0.4:
            a, b = rng.sample(list(steps), 2)
            cons.append(vapep.must_differ(a, b, rng.randint(1, 9)))
        elif K >= 2 and pick < 0.8:
            a, b = rng.sample(list(steps), 2)
            cons.append(vapep.must_equal(a, b, rng.randint(1, 9)))
        elif with_disjoint:
            ga = rng.sample(list(steps), rng.randint(1, K))
            gb = rng.sample(list(steps), rng.randint(1, K))
            cons.append(vapep.disjoint(ga, gb, rand_penalty(rng, linear_only)))
    base = {u: frozenset(s for s in steps if rng.random() < 0.6) for u in users}
    return vapep.WspInstance(steps, users, tuple(cons), vapep.AuthCost(base, rng.randint(0, 4)))
