"""Plan-style instances: one user per step, weighted equality constraints.

A plan assigns each step exactly one user.  Grouping steps by their assigned
user yields a set partition, and constraint weight only depends on that
partition, so a scan of the partitions (restricted growth strings) plus a
min-cost matching of blocks to users solves the problem exactly.  The scan
is depth first, in the manner of the pattern-based branch and bound of
Karapetyan, Parkes, Gutin and Gagarin (JAIR 2019): it cuts every prefix
whose constraint weight plus a lower bound on the authorization cost of any
completion reaches the best plan found so far.  That bound needs to know
how the cost grows with a block, which the instance records where it is
built: under its own authorization table (a sum over the steps) both the
open blocks and the unplaced steps count, under `reduce_bode_sodu`'s cost
(monotone in the steps) only the open blocks, and under any other
`cost_fn` nothing until a partition is complete.  Such a plan may reach all
Bell(K) partitions: Bell(12) is about 4.2 million, which the compiled walk
(`_kernels.plan_search`) visits in 0.09 to 0.2 s on a 2-vCPU machine (about
5 s in Python), and a guard refuses more than 12 steps.

Two reductions connect these instances to authorization relations:
one for instances with only user-based separation/binding constraints, and
one for existence-based binding plus user-based separation, which expands
each resource into per-partner steps.
"""
from __future__ import annotations

import logging
import time
from dataclasses import KW_ONLY, InitVar, dataclass
from operator import add
from typing import Callable, Dict, Iterator, Optional

from . import _kernels
from .constraints import MAX_PENALTY, PenaltySpec
from .matching import INF, TOO_HEAVY, assignment_cost, min_cost_assignment
from .model import (
    AuthCost,
    AuthorizationRelation,
    GuardError,
    Instance,
    _PAIR_PENALTY_TYPE,
    _auth_tables,
    _constraint_walk,
    _cost_row,
    _doc_head,
    _dump_doc,
    _from_pairs,
    _gc_paused,
    _index_names,
    _index_users,
    _instance_doc,
    _load_doc,
    _names_mask,
    _row_sum,
    _user_name,
    _users_of_index,
)

log = logging.getLogger("vapep.wsp")

MAX_STEPS = 900
MAX_STEPS_EXACT = 12

MUST_EQUAL = "must_equal"
MUST_DIFFER = "must_differ"
DISJOINT = "disjoint"

ADDITIVE = "additive"
MONOTONE = "monotone"

Plan = Dict[str, str]


@dataclass(frozen=True)
class WspConstraint:
    kind: str
    scope: tuple
    ell: Optional[int] = None
    spec: Optional[PenaltySpec] = None

    def __post_init__(self):
        if self.kind in (MUST_EQUAL, MUST_DIFFER):
            if len(self.scope) != 2 or self.scope[0] == self.scope[1]:
                raise ValueError(f"{self.kind} needs two distinct steps")
            if isinstance(self.scope, str) or not all(isinstance(s, str) for s in self.scope):
                raise ValueError(f"{self.kind} scope must be two step names")
            ell = 1 if self.ell is None else self.ell
            if not isinstance(ell, int) or isinstance(ell, bool) or not 1 <= ell <= MAX_PENALTY:
                raise ValueError(f"{self.kind} penalty must be in [1, {MAX_PENALTY}]")
            object.__setattr__(self, "ell", ell)
            object.__setattr__(self, "scope", tuple(self.scope))
        elif self.kind == DISJOINT:
            if len(self.scope) != 2:
                raise ValueError("disjoint needs two step groups")
            if any(isinstance(g, str) for g in self.scope):
                raise ValueError("disjoint groups must not be strings")
            a, b = tuple(self.scope[0]), tuple(self.scope[1])
            if not a or not b:
                raise ValueError("disjoint groups must be non-empty")
            if not all(isinstance(s, str) for s in a + b):
                raise ValueError("disjoint groups must hold step names")
            object.__setattr__(self, "scope", (a, b))
            spec = self.spec if self.spec is not None else PenaltySpec()
            if not isinstance(spec, PenaltySpec):
                raise ValueError("disjoint needs a penalty curve")
            object.__setattr__(self, "spec", spec)
        else:
            raise ValueError(f"unknown plan constraint kind {self.kind!r}")


def must_equal(s1: str, s2: str, ell: int = 1) -> WspConstraint:
    return WspConstraint(MUST_EQUAL, (s1, s2), ell=ell)


def must_differ(s1: str, s2: str, ell: int = 1) -> WspConstraint:
    return WspConstraint(MUST_DIFFER, (s1, s2), ell=ell)


def disjoint(group_a, group_b, spec=None) -> WspConstraint:
    if not isinstance(spec, PenaltySpec):
        spec = PenaltySpec.linear(1 if spec is None else spec)
    return WspConstraint(DISJOINT, (group_a, group_b), spec=spec)


@dataclass
class WspInstance:
    steps: tuple[str, ...]
    users: tuple[str, ...]
    constraints: tuple[WspConstraint, ...]
    auth: Optional[AuthCost] = None
    cost_fn: Optional[Callable[[int, int], int]] = None  # (user idx, step mask)
    _: KW_ONLY
    # (user index or None, (masks, penalty rows or None) or None), as on
    # `Instance`
    _prebuilt: InitVar[Optional[tuple]] = None
    # set by a builder that knows its cost_fn never falls as steps are added
    _monotone: InitVar[bool] = False
    # a builder's whole-row form of cost_fn: mask -> [cost_fn(u, mask) for u]
    _row_fn: InitVar[Optional[Callable[[int], list[int]]]] = None

    def __post_init__(self, _prebuilt, _monotone, _row_fn):
        uindex, tables = _prebuilt or (None, None)
        self.steps, self._sindex = _index_names(self.steps, "step", MAX_STEPS)
        _index_users(self, uindex)
        self.constraints = tuple(self.constraints)
        for c in self.constraints:
            names = c.scope[0] + c.scope[1] if c.kind == DISJOINT else c.scope
            for s in names:
                if s not in self._sindex:
                    raise ValueError(f"constraint scope uses unknown step {s!r}")
        if self.auth is None:
            if self.cost_fn is None:
                raise ValueError("an authorization cost (auth or cost_fn) is required")
            tables = [0] * self.n, None
        self._base_mask, self._pen = _auth_tables(  # _pen None: uniform
            self.auth, tables, self._uindex, self._sindex, "step"
        )
        # what `solve_wsp` may assume of cost(u, B) for its interior bound:
        # ADDITIVE, a sum over the steps of B; MONOTONE, never smaller for a
        # superset of B; None, nothing
        self._cost_shape = (ADDITIVE if self.cost_fn is None
                            else MONOTONE if _monotone else None)
        self._row_fn = _row_fn

    @property
    def k(self) -> int:
        return len(self.steps)

    @property
    def n(self) -> int:
        return len(self._uindex)

    def step_mask(self, names) -> int:
        return _names_mask(self._sindex, names, "unknown step")

    def cost(self, ui: int, mask: int) -> int:
        """Authorization cost for user index ui covering the masked steps."""
        if mask == 0:
            return 0
        if self.cost_fn is not None:
            return self.cost_fn(ui, mask)
        extra = mask & ~self._base_mask[ui]
        if self._pen is None:
            return self.auth.pair_penalty * extra.bit_count()
        return _row_sum(self._pen[ui], extra)

    def cost_row(self, mask: int) -> list[int]:
        """cost(u, mask) for every user index u, in one call; callers must
        not modify the list, which may be shared."""
        if mask == 0:
            return [0] * self.n
        if self._row_fn is not None:
            return self._row_fn(mask)
        if self.cost_fn is not None:
            fn = self.cost_fn
            return [fn(u, mask) for u in range(self.n)]
        return _cost_row(self._base_mask, self._pen, self.auth, mask)

    def authorized(self, ui: int, si: int) -> bool:
        if self.auth is None:
            raise ValueError("authorization base unavailable for derived instances")
        return bool(self._base_mask[ui] >> si & 1)


WspInstance.users = _users_of_index


def _rgs(K: int) -> Iterator[list[int]]:
    """Restricted growth strings of length K in lexicographic order, the
    order in which `solve_wsp` walks the partitions.

    Yields its working list; callers must copy if they keep a reference.
    """
    a = [0] * K
    mx = [0] * K  # max of a[: i + 1]
    while True:
        yield a
        i = K - 1
        while i > 0 and a[i] == mx[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        mx[i] = mx[i - 1] if mx[i - 1] >= a[i] else a[i]
        for t in range(i + 1, K):
            a[t] = 0
            mx[t] = mx[t - 1]


def solve_wsp(w: WspInstance) -> tuple[Plan, int]:
    """Exact minimum-weight plan.

    A depth-first walk over restricted growth strings visits the partitions
    of the steps into at most n blocks in the lexicographic order of `_rgs`:
    step i joins blocks 0..p-1 in turn and then opens block p, while p < n.
    Constraint weight grows along the walk: a `must_equal` or `must_differ`
    pair is settled at the later of its two steps, and a `disjoint` pair adds
    f(h+1) - f(h) when a step makes one more block meet both of its groups,
    h blocks having met both before.  Penalties are non-negative and f is
    non-decreasing, so the weight of a prefix never exceeds that of any
    partition below it, and a subtree is cut once its prefix weight reaches
    the incumbent.

    Placing step i in a block also cuts that child once the prefix weight
    plus an authorization bound reaches the incumbent.  Blocks only grow and
    never merge, and a matching gives each final block its own user, so
    under a cost that never falls as steps join a block (`MONOTONE`), the
    minimum over users of each open block's cost (one cached row per block
    mask) sums to at most the matching of any completion.  Under the
    instance's own authorization table (`ADDITIVE`, the cost of a block is
    the sum of its steps' costs), each unplaced step also adds at least the
    minimum of its own cost, to whichever block it joins, so the singleton
    minima of the unplaced steps add to the bound; a block's row is the sum
    of the rows of the block before step i joined it and of step i.  Any
    other `cost_fn` gets neither term.  At a leaf the sum of the blocks' row
    minima bounds the matching; the leaf is skipped when the weight plus
    that sum reaches the incumbent, and is matched otherwise.

    The walk runs in the search kernel (`plan_search`, chosen as
    `APEP_KERNEL` says), which keeps each block mask's minimum; this function
    builds the constraint tables, one cost row per block mask (`cost_row`)
    and the matchings.

    The result is the one of a flat scan that matches every partition with
    at most n blocks and keeps strictly better totals.  Both visit the
    partitions in the same order, and every partition that is cut or skipped
    here has a total of at least the incumbent at that point, so the flat
    scan would not take it either.  The incumbent therefore changes at the
    same partitions with the same values, and the first optimum is kept.
    The block-to-user matching of that partition breaks ties toward smaller
    user indices per block.
    """
    t0 = time.perf_counter()
    K, n = w.k, w.n
    if K > MAX_STEPS_EXACT:
        raise GuardError(
            f"plan search over {K} steps needs Bell({K}) partitions; "
            f"the guard allows at most {MAX_STEPS_EXACT} steps"
        )
    # pairs[i]: flat (earlier step, penalty, must be equal) triples settled
    # at step i; groups[i]: flat (disjoint index, group mask a, group mask b)
    # triples for the disjoint constraints whose groups hold step i; incs[d]:
    # the increments f(h+1) - f(h) of disjoint constraint d, h < K
    pairs: list[list[int]] = [[] for _ in range(K)]
    groups: list[list[int]] = [[] for _ in range(K)]
    incs: list[list[int]] = []
    for c in w.constraints:
        if c.kind == DISJOINT:
            a, b = w.step_mask(c.scope[0]), w.step_mask(c.scope[1])
            for i in range(K):
                if (a | b) >> i & 1:
                    groups[i] += (len(incs), a, b)
            incs.append([c.spec(h + 1) - c.spec(h) for h in range(K)])
        else:
            s, t = sorted((w._sindex[c.scope[0]], w._sindex[c.scope[1]]))
            pairs[t] += (s, c.ell, c.kind == MUST_EQUAL)
    shape = w._cost_shape
    rows: dict[int, list[int]] = {}  # block mask -> cost row

    def block_min(bm: int) -> int:
        """min_u cost(u, bm); builds and caches the row of bm."""
        row = rows.get(bm)
        if row is None:
            top = 1 << (bm.bit_length() - 1)
            if shape == ADDITIVE and bm != top:
                # row(B) = row(B minus its highest step) + row(that step): the
                # walk asks for B once B minus its highest step has a row, as
                # the block step i joined, and `rest` builds every singleton's
                row = list(map(add, rows[bm ^ top], rows[top]))
            else:
                row = w.cost_row(bm)
            rows[bm] = row
        return min(row)

    # rest[i]: the singleton minima of steps i..K-1, under an additive cost
    rest = [0] * (K + 1)
    if shape == ADDITIVE:
        for i in range(K - 1, -1, -1):
            rest[i] = rest[i + 1] + block_min(1 << i)
    inc = INF
    best: Optional[tuple[list[int], list[list[int]]]] = None  # (blocks, cost rows)

    def leaf(blocks: list[int], cw: int) -> int:
        nonlocal inc, best
        costs = [rows[bm] for bm in blocks]
        total = cw + assignment_cost(costs)
        if total < inc:
            inc = total
            best = blocks, costs
        return inc

    nodes, leaves, bound_cuts, matchings = _kernels.get_backend().plan_search(
        n, pairs, groups, incs, rest, shape is not None, block_min, leaf)
    if best is None:
        raise ValueError(TOO_HEAVY)
    blocks, costs = best
    match, _ = min_cost_assignment(costs)
    block_of = [g for i in range(K) for g, bm in enumerate(blocks) if bm >> i & 1]
    plan = {w.steps[i]: _user_name(w, match[block_of[i]]) for i in range(K)}
    log.info(
        "plan solve: steps=%d users=%d nodes=%d leaves=%d bound_cuts=%d "
        "matchings=%d weight=%d (%.3fs)",
        K, n, nodes, leaves, bound_cuts, matchings, inc, time.perf_counter() - t0,
    )
    return plan, inc


# --------------------------------------------------------------------------
# reductions


def reduce_sodu_bodu(instance: Instance) -> WspInstance:
    """Separation/binding-of-duty (user form) as a plan problem.

    Steps are the resources themselves; each separation constraint becomes a
    weighted inequality with penalty f(1), each binding one an equality.
    Optimal weights coincide because some optimum assigns one user per
    resource.
    """
    cons = []
    for c in instance.constraints:
        if c.kind == "sod_u":
            cons.append(must_differ(c.scope[0], c.scope[1], c.spec(1)))
        elif c.kind == "bod_u":
            cons.append(must_equal(c.scope[0], c.scope[1], c.spec(1)))
        else:
            raise ValueError(f"reduction only handles sod_u/bod_u, got {c.kind}")
    if instance.auth.custom is not None:
        return WspInstance(instance.resources, instance.users, tuple(cons),
                           cost_fn=instance.omega_mask)
    return WspInstance(instance.resources, instance.users, tuple(cons), instance.auth,
                       _prebuilt=(instance._uindex, (instance._base_mask, instance._pen)))


def reduce_bode_sodu(instance: Instance) -> tuple[WspInstance, dict[str, str]]:
    """Existence-binding plus user-separation as a plan problem.

    Every resource r_i splits into one step per binding partner (or a single
    step when it has none); a binding pair (r_i, r_j) pins the two facing
    steps to the same user, and a separation pair penalizes users shared by
    the two step groups.  Lifting an optimal plan back (union of step users
    per resource) preserves the optimal weight.  The derived instance has at
    most k(k-1) steps.
    """
    k = instance.k
    partners: list[set[int]] = [set() for _ in range(k)]
    for c in instance.constraints:
        if c.kind == "bod_e":
            i1 = instance._rindex[c.scope[0]]
            i2 = instance._rindex[c.scope[1]]
            partners[i1].add(i2)
            partners[i2].add(i1)
        elif c.kind != "sod_u":
            raise ValueError(f"reduction only handles bod_e/sod_u, got {c.kind}")
    steps: list[str] = []
    origin: dict[str, str] = {}
    group: list[list[str]] = [[] for _ in range(k)]
    res_of_step: list[int] = []
    for i in range(k):
        if partners[i]:
            for j in sorted(partners[i]):
                name = f"s{i + 1}_{j + 1}"
                group[i].append(name)
                origin[name] = instance.resources[i]
                steps.append(name)
                res_of_step.append(i)
        else:
            name = f"s{i + 1}"
            group[i].append(name)
            origin[name] = instance.resources[i]
            steps.append(name)
            res_of_step.append(i)
    cons = []
    for c in instance.constraints:
        i1 = instance._rindex[c.scope[0]]
        i2 = instance._rindex[c.scope[1]]
        if c.kind == "bod_e":
            cons.append(
                must_equal(f"s{i1 + 1}_{i2 + 1}", f"s{i2 + 1}_{i1 + 1}", c.ell)
            )
        else:
            cons.append(disjoint(group[i1], group[i2], c.spec))

    rmasks: dict[int, int] = {}  # step mask -> resource mask
    rrows: dict[int, list[int]] = {}  # resource mask -> omega_mask row

    def resource_mask(mask: int) -> int:
        rmask = rmasks.get(mask)
        if rmask is None:
            rmask = 0
            bits = mask
            while bits:
                low = bits & -bits
                rmask |= 1 << res_of_step[low.bit_length() - 1]
                bits ^= low
            rmasks[mask] = rmask
        return rmask

    def cost_fn(ui: int, mask: int) -> int:
        return instance.omega_mask(ui, resource_mask(mask))

    def cost_row(mask: int) -> list[int]:
        # one row per resource mask, at most 2^k - 1 of them, shared by the
        # step masks that map to it
        rmask = resource_mask(mask)
        row = rrows.get(rmask)
        if row is None:
            row = rrows[rmask] = instance.omega_row(rmask)
        return row

    wsp = WspInstance(
        steps=tuple(steps),
        users=instance.users,
        constraints=tuple(cons),
        auth=None,
        cost_fn=cost_fn,
        # omega_mask is monotone in the resource mask, and so in the step
        # mask, unless a custom cost says otherwise
        _monotone=instance.auth.custom is None,
        _row_fn=cost_row,
    )
    return wsp, origin


def lift_plan(plan: Plan, origin: dict[str, str]) -> AuthorizationRelation:
    """Relation induced by a plan: each resource collects its steps' users."""
    assign: dict[str, set] = {}
    for s, u in plan.items():
        assign.setdefault(u, set()).add(origin[s])
    return AuthorizationRelation.from_mapping(assign)


# --------------------------------------------------------------------------
# documents

_WSP_KEYS = {"steps", "users", "auth", "constraints"}
_WSP_CON_KEYS = {"type", "scope", "ell", "slope"}


def wsp_from_doc(doc: dict) -> WspInstance:
    """The plan instance a JSON document describes, read as
    `instance_from_doc` reads its own, through the same `model` helpers."""
    users, steps, pairs, uindex, masks, pp = _doc_head(
        doc, "plan instance", _WSP_KEYS, "steps", "[user, step]", MAX_STEPS
    )
    cons = []
    for where, entry, kind, scope in _constraint_walk(doc, _WSP_CON_KEYS):
        if kind in (MUST_EQUAL, MUST_DIFFER):
            if entry.get("slope") is not None:
                raise ValueError(f"{where}: {kind} takes ell, not slope")
            cons.append(WspConstraint(kind, scope, ell=entry.get("ell", 1)))
        elif kind == DISJOINT:
            if entry.get("ell") is not None:
                raise ValueError(f"{where}: disjoint takes slope, not ell")
            if len(scope) != 2 or not all(isinstance(g, list) for g in scope):
                raise ValueError(f"{where}: disjoint scope is a pair of lists")
            slope = entry.get("slope")  # null reads as absent, as in relation documents
            cons.append(
                disjoint(scope[0], scope[1], PenaltySpec.linear(1 if slope is None else slope))
            )
        else:
            raise ValueError(f"{where}: unknown constraint type {kind!r}")
    if isinstance(pp, dict):  # a JSON object; plan documents take an int only
        raise ValueError(_PAIR_PENALTY_TYPE)
    return _from_pairs(WspInstance, users, steps, pairs, uindex, masks, pp, tuple(cons))


def wsp_to_doc(w: WspInstance) -> dict:
    if w.auth is None:
        raise ValueError("derived plan instances are not serializable")
    if isinstance(w.auth.pair_penalty, dict):
        raise ValueError("per-pair penalties are not serializable in plan documents")
    cons = []
    for c in w.constraints:
        if c.kind == DISJOINT:
            if c.spec.table:
                raise ValueError("penalty tables are not serializable")
            cons.append(
                {"type": c.kind, "scope": [list(c.scope[0]), list(c.scope[1])],
                 "slope": c.spec.slope}
            )
        else:
            cons.append({"type": c.kind, "scope": list(c.scope), "ell": c.ell})
    return _instance_doc(w, "steps", w.auth.pair_penalty, cons)


def load_wsp(path: str) -> WspInstance:
    return _load_doc(path, wsp_from_doc, "steps", MAX_STEPS)


@_gc_paused()  # the document holds no cycles
def dump_wsp(w: WspInstance, path: Optional[str] = None) -> str:
    return _dump_doc(wsp_to_doc(w), path)
