"""Problem instances, authorization relations, user profiles and JSON I/O.

Resource subsets are bitmasks over the instance's resource order (bit i is
resources[i]); k is capped at 30 so masks stay cheap machine ints.

Relation instances (`Instance`) and plan instances (`wsp.WspInstance`)
share one per-user authorization table, built or taken by `_auth_tables`:
each user's authorized mask (`_base_mask`) and, under per-pair penalties,
each user's penalty row (`_pen`, priced by `_row_sum`).

They also share one document layer; `wsp` keeps only what is specific to
plans.  Both loaders read the document head in `_doc_head`, walk the
constraint list in `_constraint_walk` and build the instance in
`_from_pairs`; both writers write through `_instance_doc` and `_dump_doc`.
`load_instance` and `wsp.load_wsp` read the file as bytes and hand them to
the compiled reader (`_core.read_head`) when the compiled backend is
selected.  It builds the users' index and masks straight from the bytes,
with no object per user and none per `[user, name]` pair, and no decoded
copy of the text; the document it returns holds them in place of the users
list (`_ReadUsers`).  That index is the compiled `NameIndex`, a table of
positions with no object per user, which every instance keeps as its
users' index under the compiled backend (`_user_index`); the reader's keeps
the names themselves as one byte table, so such an instance builds its
`users` tuple only when something reads it, and `_user_name` gives one name
without it.  Under the pure-Python backend the index is `_name_index`'s
dict.  What the reader declines, and every document under the pure-Python
backend or given to `instance_from_doc` or `wsp_from_doc`, is parsed by
`json.loads` from the text a text-mode read gives (`_text`); `_doc_head`
then builds the users' index over their tuple (`_user_index`, so these
instances keep the compiled index too) and the masks in one walk over the
pairs, as the reader reads them (`_pair_masks`): the first faulty pair
raises, with the message a per-pair loader would give.  Both routes check
the rest of the document in the same code, so they give the same instance
or the same error.
`AuthCost.base`, and the (user, resource) dict of a per-pair penalty
matrix, are built only when something reads them (`_OnFirstRead`).
"""
from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from dataclasses import KW_ONLY, InitVar, dataclass
from functools import partial
from itertools import chain, compress, islice, product, repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, Mapping, Optional, Union

from . import _kernels
from .constraints import (
    CARD_LB,
    CARD_UB,
    MAX_CONSTRAINTS,
    MAX_PENALTY,
    Constraint,
    PenaltySpec,
    eval_relation,
)

MAX_RESOURCES = 30
MAX_USERS = 10**6
_PAIR_PENALTY_TYPE = "pair penalty must be an integer or per-pair penalties"


class GuardError(RuntimeError):
    """A search-space guard tripped; the request is too large to run exactly."""


def subset_order(k: int) -> list[int]:
    """Non-empty subset masks of k resources, ordered by (popcount, value)."""
    return sorted(range(1, 1 << k), key=lambda m: (m.bit_count(), m))


@dataclass
class AuthCost:
    """Additive authorization cost: each unauthorized (user, resource) pair
    in an assignment adds its pair penalty.  `custom` swaps in an arbitrary
    monotone per-(user, subset) cost for library users; it must return 0 for
    the empty set and is not serializable.

    An AuthCost made from authorized masks (`_auth_of_masks`) builds `base`
    on its first read; the solvers read the instance's masks instead.
    """

    base: dict[str, frozenset[str]]
    pair_penalty: Union[int, dict[tuple[str, str], int]] = 1
    custom: Optional[Callable[[str, frozenset], int]] = None

    def __post_init__(self):
        sets = list(map(frozenset, self.base.values()))
        # equal sets share one object, the first of them
        shared = {fs: fs for fs in dict.fromkeys(sets)}
        self.base = dict(zip(self.base, map(shared.__getitem__, sets)))
        pp = self.pair_penalty
        if not isinstance(pp, (int, dict)):
            raise ValueError(_PAIR_PENALTY_TYPE)
        if isinstance(pp, bool) or (isinstance(pp, int) and not 0 <= pp <= MAX_PENALTY):
            raise ValueError(f"pair penalty must be in [0, {MAX_PENALTY}]")
        if isinstance(pp, dict):
            _check_pair_penalties(pp.values())


def _check_pair_penalties(values) -> None:
    """Raise unless each of the values, a collection read more than once,
    is an int (not a bool) in [0, MAX_PENALTY]."""
    # plain ints in range pass in C; anything else is decided one by one
    if set(map(type, values)) == {int} and 0 <= min(values) and max(values) <= MAX_PENALTY:
        return
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v <= MAX_PENALTY:
            raise ValueError(f"pair penalties must be in [0, {MAX_PENALTY}]")


class _OnFirstRead:
    """A field whose value `build(obj)` makes on the first read of it on
    obj, stored there, where later reads find it first.  A non-data
    descriptor rather than `__getattr__`, which would take every field read
    (`omega_mask` reads two per call) off CPython's specialized attribute
    lookup."""

    def __init__(self, name: str, build: Callable):
        self.name, self.build = name, build

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.build(obj)
        return value


def _built_later(name: str) -> _OnFirstRead:
    """The AuthCost field `name`, made by `_lazy_auth`'s builder for it."""
    return _OnFirstRead(name, lambda auth: auth.__dict__.pop("_build_" + name)())


AuthCost.base = _built_later("base")
AuthCost.pair_penalty = _built_later("pair_penalty")


def _lazy_auth(build: Callable[[], dict], pair_penalty) -> AuthCost:
    """An AuthCost whose base is `build()`, called on the first read of it.
    A callable `pair_penalty` likewise builds the per-pair penalties; the
    caller has checked them."""
    lazy_pp = callable(pair_penalty)
    auth = AuthCost({}, 0 if lazy_pp else pair_penalty)
    del auth.base
    auth._build_base = build
    if lazy_pp:
        del auth.pair_penalty
        auth._build_pair_penalty = pair_penalty
    return auth


def _masks_base(masks: list[int], users, names) -> dict:
    """The base of the users' authorized masks over `names`: users with a
    non-zero mask, in order, keyed by the objects in `users`, and one
    frozenset per distinct mask."""
    held = {m: frozenset(_mask_names(names, m)) for m in set(masks) if m}
    return dict(zip(compress(users, masks), map(held.__getitem__, filter(None, masks))))


def _auth_of_masks(masks: list[int], users, names, pair_penalty) -> AuthCost:
    """The AuthCost of the users' authorized masks over `names`; its base is
    built when first read."""
    return _lazy_auth(partial(_masks_base, masks, users, names), pair_penalty)


def _name_index(names) -> dict:
    """name -> position if the names are distinct non-empty strings, else {}."""
    if not all(map(isinstance, names, repeat(str))):
        return {}
    index = dict(zip(names, range(len(names))))
    return index if len(index) == len(names) and "" not in index else {}


def _user_name(inst, ui: int) -> str:
    """inst.users[ui], read without building inst.users when the names are
    still only in its index (`_index_users`)."""
    users = inst.__dict__.get("users")
    return inst._uindex.name(ui) if users is None else users[ui]


def _user_index(users: tuple):
    """The users' name -> position index: the compiled `NameIndex` when the
    compiled backend is selected (`_core.name_index`), 8 to 16 bytes a user
    against about 70 for a dict and its ints, else `_name_index`'s dict.
    Falsy unless the users are distinct non-empty strings."""
    return getattr(_kernels.selected_backend(), "name_index", _name_index)(users)


def _index_names(names, what, cap, index=None, build=_name_index) -> tuple[tuple, Mapping]:
    """The names as a tuple and their name -> position index, `build(names)`,
    once the names are checked to be at most `cap` distinct non-empty
    strings.  `index`, when given, is that index, already built; names
    given as that index itself are returned as it."""
    if index is None or names is not index:
        names = tuple(names)
    if not names:
        raise ValueError(f"at least one {what} is required")
    if len(names) > cap:
        raise ValueError(f"at most {cap} {what}s are supported")
    if index is None:
        index = build(names)
    if not index:
        # report the first bad name in list order
        seen = set()
        for nm in names:
            if not isinstance(nm, str) or not nm:
                raise ValueError(f"{what} names must be non-empty strings")
            if nm in seen:
                raise ValueError(f"duplicate {what} name {nm!r}")
            seen.add(nm)
    return names, index


def _index_users(inst, uindex: Optional[Mapping]) -> None:
    """Check inst.users and set inst._uindex (`_index_names`).  Users given
    as `uindex`, a `NameIndex` the compiled reader built, stay only in it:
    inst.users is then its tuple, built on the first read."""
    users, inst._uindex = _index_names(inst.users, "user", MAX_USERS, uindex, _user_index)
    if users is uindex:
        del inst.users
    else:
        inst.users = users


# the `users` of an instance whose names stay in its index
_users_of_index = _OnFirstRead("users", lambda inst: inst._uindex.keys())


def _names_mask(index: Mapping, names, prefix: str) -> int:
    """The mask of `names` by their positions in `index`.  ValueError
    "<prefix> <name>" reports the unknown name whose repr sorts first: a
    choice that the hash order of a set of names does not decide.  A
    one-shot iterator is read into a tuple first, so that it can be read
    again to report."""
    if iter(names) is names:
        names = tuple(names)
    m = 0
    try:
        for nm in names:
            m |= 1 << index[nm]
    except KeyError:
        first = min(repr(nm) for nm in names if nm not in index)
        raise ValueError(f"{prefix} {first}") from None
    return m


def _auth_tables(auth: Optional[AuthCost], tables, uindex: Mapping, index: Mapping, what: str
                 ) -> tuple[list[int], Optional[list[list[int]]]]:
    """The per-user authorization table of an instance: each user's
    authorized mask over the names of `index` (name -> position, in
    position order), in user-index order, and the per-(user, name) penalty
    rows, None under a uniform pair penalty.

    `tables`, when the caller already holds them, are taken as they are.
    Otherwise one pass checks every user and name of `auth.base` and builds
    the masks; equal sets (AuthCost shares one object for them) are checked
    once.  Per-pair penalty keys must be known (user, name) pairs.
    """
    if tables is not None:
        return tables
    if auth is None:
        raise ValueError("an authorization cost is required")
    unknown = f"authorization for unknown {what}"
    known: dict[frozenset, int] = {}
    masks = [0] * len(uindex)
    for u, rs in auth.base.items():
        ui = uindex.get(u)
        if ui is None:
            raise ValueError(f"authorization for unknown user {u!r}")
        m = known.get(rs)
        if m is None:
            m = known[rs] = _names_mask(index, rs, unknown)
        masks[ui] = m
    pp = auth.pair_penalty
    if not isinstance(pp, dict):
        return masks, None
    for (u, r) in pp:
        if u not in uindex or r not in index:
            raise ValueError(f"pair penalty for unknown pair ({u!r}, {r!r})")
    return masks, [[pp.get((u, r), 1) for r in index] for u in uindex]


def _row_sum(row: list[int], mask: int) -> int:
    """The sum of the row's entries at the mask's bits."""
    w = 0
    while mask:
        b = mask & -mask
        w += row[b.bit_length() - 1]
        mask ^= b
    return w


def _cost_row(masks: list[int], pen: Optional[list[list[int]]], auth: AuthCost, mask: int
              ) -> list[int]:
    """Every user's authorization cost for `mask` under `_auth_tables`'
    masks and penalty rows: its bits outside the user's mask, priced."""
    if pen is None:
        pp = auth.pair_penalty
        return [pp * (mask & ~m).bit_count() for m in masks]
    return [_row_sum(row, mask & ~m) for row, m in zip(pen, masks)]


def _pair_masks(pairs, shape: str, users, uindex: Mapping, names, cap: int
                ) -> Optional[list[int]]:
    """Each user's authorized mask over `names`, ORed from the
    `[user, name]` pairs, the users' positions taken from `uindex`; None if
    some pair's user is not in `uindex`, its name not one of `names`, or
    there are more than `cap` names, which the constructors report.

    One walk over the pairs in order, as the compiled reader's: the first
    pair that is not a two-item list, or holds an unhashable item, raises.
    A pair's user is compared with the user after the one before, then with
    that one, and looked up in `uindex` only when neither matches.
    """
    # no bit table past the cap: it grows as names squared
    masks = None if len(names) > cap else [0] * len(users)
    bit = {nm: 1 << i for nm, i in _name_index(names).items()} if masks is not None else {}
    if not uindex:  # users that are not all names match none
        users, uindex = (), {}
    last, ui = len(users) - 1, -1
    for p in pairs:
        if not (isinstance(p, list) and len(p) == 2):
            raise ValueError(f"auth.pairs entries must be {shape}")
        u, nm = p
        if masks is None:
            hash(u), hash(nm)  # raise for an unhashable item
            continue
        try:
            if ui < last and u == users[ui + 1]:
                ui += 1
            elif ui < 0 or u != users[ui]:
                ui = uindex[u]
            masks[ui] |= bit[nm]
        except KeyError:
            hash(nm)
            masks = None  # an unknown user or name, which the constructors report
    return masks


def _mask_names(names, mask: int) -> tuple:
    """The names at the bits of `mask`, in position order; bits from
    len(names) up name none."""
    held = []
    mask &= (1 << len(names)) - 1
    while mask:
        low = mask & -mask
        held.append(names[low.bit_length() - 1])
        mask ^= low
    return tuple(held)


def _mask_pairs(users, names, masks: list[int]) -> list[list]:
    """The `[user, name]` pairs of the users' authorized masks over `names`,
    in user order and then name order."""
    held = {m: _mask_names(names, m) for m in set(masks)}
    return [[u, nm] for u, m in zip(users, masks) for nm in held[m]]


def _pair_dict(users, names, rows: list[list[int]]) -> dict:
    """The (user, name) -> penalty dict of a per-pair penalty matrix."""
    return dict(zip(product(users, names), chain.from_iterable(rows)))


def _from_pairs(make: Callable, users, names, pairs, uindex: Mapping, masks: Optional[list[int]],
                pp, cons, rows=None, **fields):
    """`make(names, users, cons, auth, **fields)` for a document head that
    `_doc_head` read.  Its base is built from the masks when first read, and
    the masks and penalty rows go to `make` as they are; without masks, the
    base holds the pairs grouped per user, for `make` to report the fault.
    Per-pair penalties given as a builder of their dict (`_pair_dict`) are
    checked in the rows and built when first read."""
    tables = None
    if masks is None:
        base: dict = {}
        for p in pairs:
            base.setdefault(p[0], []).append(p[1])
        auth = AuthCost(base, pp)
    else:
        if callable(pp):
            _check_pair_penalties(list(chain.from_iterable(rows)))
        auth = _auth_of_masks(masks, users, names, pp)
        tables = masks, rows
    return make(names, users, cons, auth, _prebuilt=(uindex, tables), **fields)


@dataclass
class Instance:
    resources: tuple[str, ...]
    users: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    auth: AuthCost
    meta: Optional[dict] = None
    _: KW_ONLY
    # (user index or None, (masks, penalty rows or None) or None): what the
    # caller already holds of `_auth_tables` for these fields
    _prebuilt: InitVar[Optional[tuple]] = None

    def __post_init__(self, _prebuilt):
        uindex, tables = _prebuilt or (None, None)
        self.resources, self._rindex = _index_names(
            self.resources, "resource", MAX_RESOURCES
        )
        _index_users(self, uindex)
        self.constraints = tuple(self.constraints)
        if len(self.constraints) > MAX_CONSTRAINTS:
            raise ValueError(f"at most {MAX_CONSTRAINTS} constraints are supported")
        for c in self.constraints:
            for r in c.scope:
                if r not in self._rindex:
                    raise ValueError(f"constraint scope uses unknown resource {r!r}")
        self._base_mask, self._pen = _auth_tables(  # _pen None: uniform
            self.auth, tables, self._uindex, self._rindex, "resource"
        )
        self._groups: tuple[int, dict[object, list[int]]] = (0, {})

    @property
    def k(self) -> int:
        return len(self.resources)

    @property
    def n(self) -> int:
        return len(self._uindex)

    def user_types(self, m: int) -> dict[object, list[int]]:
        """User indices grouped into types of users whose `omega_mask` costs
        agree on every mask: keyed by authorized mask under a uniform pair
        penalty, by (mask, penalty row) under a per-pair matrix and by the
        user under a custom cost.  Types are in first-seen order; each holds
        at least the first min(m, size) users of its type, ascending.  Built
        once and kept for later calls that need no more than m per type.

        The pass over the users stops once every type is full."""
        cap, groups = self._groups
        if cap < m:
            def keys():  # each user's type, in user order, made afresh
                if self.auth.custom is not None:
                    return range(self.n)
                if self._pen is None:
                    return self._base_mask
                return zip(self._base_mask, map(tuple, self._pen))

            short = len(set(keys()))  # types not yet holding m users
            groups = {}
            for u, key in enumerate(keys()):
                group = groups.get(key)
                if group is None:
                    group = groups[key] = [u]
                elif len(group) < m:
                    group.append(u)
                else:
                    continue
                if len(group) == m:
                    short -= 1
                    if not short:
                        break
            self._groups = (m, groups)
        return groups

    def resource_mask(self, names: Iterable[str]) -> int:
        return _names_mask(self._rindex, names, "unknown resource")

    def mask_resources(self, mask: int) -> tuple[str, ...]:
        return _mask_names(self.resources, mask)

    def user_index(self, name: str) -> int:
        try:
            return self._uindex[name]
        except KeyError:
            raise ValueError(f"unknown user {name!r}") from None

    def omega_row(self, mask: int) -> list[int]:
        """omega_mask(u, mask) for every user index u, in one call."""
        if self.auth.custom is not None:
            return [self.omega_mask(u, mask) for u in range(self.n)]
        return _cost_row(self._base_mask, self._pen, self.auth, mask)

    def omega_mask(self, ui: int, mask: int) -> int:
        """Authorization cost for user index ui holding the masked subset."""
        if mask == 0:
            return 0
        if self.auth.custom is not None:
            w = self.auth.custom(self.users[ui], frozenset(self.mask_resources(mask)))
            if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                raise ValueError("custom authorization cost must return a non-negative int")
            return w
        extra = mask & ~self._base_mask[ui]
        if self._pen is None:
            return self.auth.pair_penalty * extra.bit_count()
        return _row_sum(self._pen[ui], extra)


Instance.users = _users_of_index


@dataclass
class AuthorizationRelation:
    """A (possibly partial) assignment of resource subsets to users."""

    assignment: dict[str, frozenset[str]]

    def __post_init__(self):
        for u, rs in self.assignment.items():
            if isinstance(rs, str):  # frozenset would split it into characters
                raise ValueError(f"relation entry of user {u!r} must not be a string")
        self.assignment = {u: frozenset(rs) for u, rs in self.assignment.items()}

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Iterable[str]]) -> "AuthorizationRelation":
        return cls(dict(mapping))

    def resources_of(self, user: str) -> frozenset:
        return self.assignment.get(user, frozenset())

    def users_of(self, resource: str) -> frozenset:
        return frozenset(u for u, rs in self.assignment.items() if resource in rs)

    def assigned_users(self) -> frozenset:
        return frozenset(u for u, rs in self.assignment.items() if rs)

    def size(self) -> int:
        return sum(len(rs) for rs in self.assignment.values())

    def is_complete(self, instance: Instance) -> bool:
        covered = set()
        for rs in self.assignment.values():
            covered.update(rs)
        return all(r in covered for r in instance.resources)


def validate_relation(instance: Instance, rel: AuthorizationRelation) -> None:
    for u, rs in rel.assignment.items():
        if u not in instance._uindex:
            raise ValueError(f"relation mentions unknown user {u!r}")
        _names_mask(instance._rindex, rs, "relation mentions unknown resource")


@dataclass
class UserProfile:
    """How many users hold each resource subset; mask 0 counts idle users."""

    counts: dict[int, int]
    resources: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        self.counts = {int(m): int(c) for m, c in self.counts.items() if c}
        for m, c in self.counts.items():
            if m < 0 or c < 0:
                raise ValueError("profile entries must be non-negative")
        if self.resources is not None:
            self.resources = tuple(self.resources)
            self._bit = {r: i for i, r in enumerate(self.resources)}

    def bit(self, resource: str) -> int:
        try:
            return self._bit[resource]
        except (AttributeError, KeyError):
            raise ValueError(f"profile has no resource {resource!r}") from None

    def n_users(self) -> int:
        return sum(self.counts.values())

    def assigned_count(self) -> int:
        return sum(c for m, c in self.counts.items() if m)

    def cover(self, bit: int) -> int:
        return sum(c for m, c in self.counts.items() if m >> bit & 1)

    def pair(self, b1: int, b2: int) -> int:
        need = (1 << b1) | (1 << b2)
        return sum(c for m, c in self.counts.items() if m & need == need)

    def one_sided(self, b1: int, b2: int) -> int:
        return sum(
            c for m, c in self.counts.items() if (m >> b1 & 1) and not (m >> b2 & 1)
        )

    def is_complete(self, k: int) -> bool:
        m = 0
        for mask in self.counts:
            m |= mask
        return m == (1 << k) - 1


def omega(instance: Instance, user: str, resources: Iterable[str]) -> int:
    """Authorization cost of one user holding the given subset."""
    return instance.omega_mask(instance.user_index(user), instance.resource_mask(resources))


def big_omega(instance: Instance, rel: AuthorizationRelation) -> int:
    """Total authorization cost of a relation."""
    validate_relation(instance, rel)
    return sum(
        instance.omega_mask(instance.user_index(u), instance.resource_mask(rs))
        for u, rs in rel.assignment.items()
    )


def total_weight(instance: Instance, rel: AuthorizationRelation) -> tuple[int, dict]:
    """Total weight and its breakdown: authorization cost plus every constraint."""
    om = big_omega(instance, rel)
    per = [eval_relation(c, rel) for c in instance.constraints]
    cats = {"authorizations": om, "sod": 0, "cardinality": 0, "user_count": 0, "other": 0}
    for c, w in zip(instance.constraints, per):
        if c.kind in ("sod_u", "sod_e"):
            cats["sod"] += w
        elif c.kind in (CARD_UB, CARD_LB):
            cats["cardinality"] += w
        elif c.kind == "user_count":
            cats["user_count"] += w
        else:
            cats["other"] += w
    breakdown = {"omega": om, "constraints": per, "by_category": cats}
    return om + sum(per), breakdown


def profile_of(instance: Instance, rel: AuthorizationRelation) -> UserProfile:
    """Collapse a relation to subset multiplicities over the instance's users."""
    validate_relation(instance, rel)
    counts: dict[int, int] = {}
    for u in instance.users:
        m = instance.resource_mask(rel.resources_of(u))
        counts[m] = counts.get(m, 0) + 1
    return UserProfile(counts, instance.resources)


@dataclass
class SolveResult:
    relation: AuthorizationRelation
    total_weight: int
    breakdown: dict
    meta: dict

    @classmethod
    def build(cls, instance: Instance, rel: AuthorizationRelation, meta: dict) -> "SolveResult":
        if not rel.is_complete(instance):
            raise ValueError("solver produced an incomplete relation")
        total, breakdown = total_weight(instance, rel)
        return cls(rel, total, breakdown, meta)

    def to_doc(self, instance: Instance) -> dict:
        meta = {k: v for k, v in sorted(self.meta.items()) if k != "wall_time_s"}
        return {
            "total_weight": self.total_weight,
            "assignment": _assignment_doc(instance, self.relation),
            "breakdown": {
                "omega": self.breakdown["omega"],
                "constraints": list(self.breakdown["constraints"]),
                "by_category": dict(self.breakdown["by_category"]),
            },
            "meta": meta,
        }

    def to_json(self, instance: Instance) -> str:
        return canonical_json(self.to_doc(instance))


def _assignment_doc(instance: Instance, rel: AuthorizationRelation) -> dict:
    """The relation's non-empty entries as resource lists, keyed in
    instance.users order; walks the relation, not all n users."""
    uindex = instance._uindex
    entries = sorted((uindex[u], u, rs) for u, rs in rel.assignment.items() if rs)
    return {u: [r for r in instance.resources if r in rs] for _, u, rs in entries}


def canonical_json(doc) -> str:
    """`json.dumps(doc, indent=2) + "\n"`, written without the pure-Python
    encoder that `json` falls back to whenever `indent` is set.

    This writer writes only the shapes that are large in vapep's documents:
    dicts whose keys are all exact `str`, non-empty lists or tuples of exact
    `str` or of exact `int`, equal-width rows of those (such as the
    `[user, resource]` pairs), and exact `str`/`int` scalars, all in C.
    Every other value, subclasses, floats, bools, None and unserializable
    objects included, is written by `json.dumps(value, indent=2)` with its
    newlines indented to where it sits; JSON text holds no raw newline, so
    that is exact.  A container inside itself recurses until
    `RecursionError`, as does a document nested deeper than this writer's
    recursion allows; the whole document then goes to `json.dumps`, which
    raises what it raises for it.
    """
    out: list[str] = []
    try:
        _json_write(doc, "\n", out)
    except RecursionError:
        return json.dumps(doc, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


def _scalar_writer(items):
    """The C function that writes each of these items as JSON: `_quote` if
    all are exact str, `int.__repr__` if all are exact int, else None."""
    types = set(map(type, items))
    if types == {str}:
        return _quote
    if types == {int}:
        return int.__repr__
    return None


def _json_write(x, nl: str, out: list) -> None:
    """Append x's text, as json.dumps(indent=2) writes it at the indent `nl`
    ("\n" plus the current indent), to `out`.  Pieces are joined once, at
    the end, so no large string is copied on the way up."""
    t = type(x)
    if t is str:
        out.append(_quote(x))
        return
    if t is int:
        out.append(int.__repr__(x))
        return
    inner = nl + "  "
    sep = "," + inner
    if t is dict and set(map(type, x)) == {str}:
        lead = "{" + inner
        for key, v in x.items():
            out.append(lead + _quote(key) + ": ")
            _json_write(v, inner, out)
            lead = sep
        out.append(nl + "}")
        return
    texts = None
    if (t is list or t is tuple) and x:
        write = _scalar_writer(x)
        texts = map(write, x) if write else _json_rows(x, inner)
    if texts is None:
        out.append(json.dumps(x, indent=2).replace("\n", nl))
        return
    # joined a few thousand at a time, not over a list of every item's text:
    # one join raised the n=10^6 generate's peak RSS by 58 MiB (BENCH_8.json)
    out.append("[" + inner)
    while chunk := list(islice(texts, 4096)):
        out.append(sep.join(chunk))
        out.append(sep)
    out[-1] = nl + "]"


def _json_rows(rows, nl: str):
    """The text of each row, if rows are non-empty lists or tuples of one
    length holding only exact str or only exact int (such as `[user,
    resource]` pairs); else None.  One format string writes every row."""
    if not set(map(type, rows)) <= {list, tuple}:
        return None
    lengths = set(map(len, rows))
    if len(lengths) != 1 or 0 in lengths:
        return None
    # the scalars are walked twice rather than held in one list of all of them
    write = _scalar_writer(chain.from_iterable(rows))
    if write is None:
        return None
    texts = map(write, chain.from_iterable(rows))
    width = lengths.pop()
    inner = nl + "  "
    row = "[" + inner + ("," + inner).join(["%s"] * width) + nl + "]"
    return map(row.__mod__, zip(*[texts] * width))


# --------------------------------------------------------------------------
# instance documents

_TOP_KEYS = {"resources", "users", "auth", "constraints", "meta"}
_AUTH_KEYS = {"pairs", "pair_penalty"}
_CON_KEYS = {"type", "scope", "t", "penalty", "slope", "ell"}


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    extra = set(d) - allowed
    if extra:
        raise ValueError(f"unknown field(s) in {where}: {', '.join(sorted(extra))}")


def _parse_penalty(entry: dict, where: str) -> Optional[int]:
    slope = entry.get("slope")
    alias = entry.get("penalty")
    if slope is not None and alias is not None:
        raise ValueError(f"{where}: give either slope or penalty, not both")
    return alias if slope is None else slope


def _constraint_walk(doc: dict, keys: set, no_scope: Optional[list] = None):
    """(where, entry, type, scope) of each entry of the document's constraint
    list, checked to be an object with only `keys` and a list scope; a
    missing scope reads as `no_scope`."""
    cons_doc = doc.get("constraints", [])
    if not isinstance(cons_doc, list):
        raise ValueError("constraints must be a list")
    for idx, entry in enumerate(cons_doc):
        where = f"constraints[{idx}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be an object")
        _reject_unknown(entry, keys, where)
        scope = entry.get("scope", no_scope)
        if not isinstance(scope, list):
            raise ValueError(f"{where}: scope must be a list")
        yield where, entry, entry.get("type"), scope


def _constraint_from_doc(where: str, entry: dict, kind, scope: list) -> Constraint:
    """The constraint of one entry that `_constraint_walk` yielded."""
    slope = _parse_penalty(entry, where)
    linear = partial(PenaltySpec.linear, 1 if slope is None else slope)

    def no(*fields):
        for f in fields:
            if entry.get(f) is not None:
                raise ValueError(f"{where}: field {f!r} not valid for {kind}")

    if kind in ("sod_u", "bod_u"):
        no("t", "ell")
        return Constraint(kind, tuple(scope), spec=linear())
    if kind in ("sod_e", "bod_e"):
        no("t", "slope", "penalty")
        return Constraint(kind, tuple(scope), ell=entry.get("ell", 1))
    if kind in ("card_ub", "card_lb"):
        no("ell")
        if "t" not in entry:
            raise ValueError(f"{where}: {kind} needs a threshold t")
        return Constraint(kind, tuple(scope), t=entry["t"], spec=linear())
    if kind == "user_count":
        no("t", "ell")
        if scope:
            raise ValueError(f"{where}: user_count takes no scope")
        if slope is None:
            return Constraint("user_count", (), quadratic=True)
        return Constraint("user_count", (), spec=linear())
    raise ValueError(f"{where}: unknown constraint type {kind!r}")


class _ReadUsers:
    """What a document that the compiled reader read holds in place of its
    users list: the users' index, a `NameIndex` that holds their names, and
    the masks the reader built from the pairs, which the document lacks."""

    __slots__ = ("uindex", "masks")

    def __init__(self, uindex: Mapping, masks: list[int]):
        self.uindex, self.masks = uindex, masks


def _doc_head(doc, what: str, top_keys: set, names_key: str, shape: str, cap: int):
    """The head of an instance (or plan instance) document, checked in the
    order it is read: the document's keys, its `names_key` and users lists,
    the auth object, its keys and its pairs list, then the pairs' shapes and
    items.  Returns the users and names as tuples, the pairs, the users' index
    (`_user_index`), their authorized masks over the names (`_pair_masks`)
    and the pair penalty as given.  Users the compiled reader read
    (`_ReadUsers`) come with their masks, and are returned as their index."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} document must be a JSON object")
    _reject_unknown(doc, top_keys, what)
    users = doc.get("users")
    read = type(users) is _ReadUsers
    for key in (names_key, "users"):
        if not (isinstance(doc.get(key), list) or read and key == "users"):
            raise ValueError(f"{what} needs a {key!r} list")
    auth_doc = doc.get("auth", {})
    if not isinstance(auth_doc, dict):
        raise ValueError("auth must be an object")
    _reject_unknown(auth_doc, _AUTH_KEYS, "auth")
    pairs = auth_doc.get("pairs", [])
    names = doc[names_key]
    if read:
        uindex, masks = users.uindex, users.masks
        users = uindex
    elif not isinstance(pairs, list):
        raise ValueError("auth.pairs must be a list")
    else:
        users = tuple(users)
        uindex = _user_index(users)
        masks = _pair_masks(pairs, shape, users, uindex, names, cap)
    return users, tuple(names), pairs, uindex, masks, auth_doc.get("pair_penalty", 1)


def instance_from_doc(doc: dict) -> Instance:
    """The instance a JSON document describes.

    The document is checked in the order the fields are read: its head
    (`_doc_head`), the penalty matrix, the constraints and meta, then the
    penalties (`AuthCost`) and the names and references (`Instance`); the
    first fault raises.  Each user's authorized mask is built once, straight
    from the pairs, and per-pair penalty rows are copies of the matrix rows.
    Once the names are known to be sound, the (user, resource) dict of those
    penalties is built only when `auth.pair_penalty` is read.
    """
    users, resources, pairs, uindex, masks, pp = _doc_head(
        doc, "instance", _TOP_KEYS, "resources", "[user, resource]", MAX_RESOURCES
    )
    rows = None
    if isinstance(pp, list):
        if len(pp) != len(users) or any(
            not isinstance(row, list) or len(row) != len(resources) for row in pp
        ):
            raise ValueError("pair_penalty matrix must be |users| x |resources|")
        rows = list(map(list, pp))
        pp = partial(_pair_dict, users, resources, rows)
        if masks is None or not uindex or not _name_index(resources):
            # a fault the constructors report: the dict is built here, where
            # an unhashable name raises, and its values are checked in it
            pp = pp()
    cons = tuple(_constraint_from_doc(*c) for c in _constraint_walk(doc, _CON_KEYS, []))
    meta = doc.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ValueError("meta must be an object")
    if rows is None and isinstance(pp, dict):  # per-pair penalties come as a matrix
        raise ValueError(_PAIR_PENALTY_TYPE)
    return _from_pairs(Instance, users, resources, pairs, uindex, masks, pp, cons, rows,
                       meta=meta)


def _instance_doc(inst, names_key: str, pair_penalty, cons: list) -> dict:
    """The document of a relation or plan instance, its names under `names_key`."""
    names = getattr(inst, names_key)
    pairs = _mask_pairs(inst.users, names, inst._base_mask)
    return {names_key: list(names), "users": list(inst.users),
            "auth": {"pairs": pairs, "pair_penalty": pair_penalty}, "constraints": cons}


def instance_to_doc(instance: Instance) -> dict:
    if instance.auth.custom is not None:
        raise ValueError("custom authorization costs are not serializable")
    pp = instance.auth.pair_penalty if instance._pen is None else list(map(list, instance._pen))
    cons = []
    for c in instance.constraints:
        entry: dict = {"type": c.kind}
        if c.scope:
            entry["scope"] = list(c.scope)
        if c.t is not None:
            entry["t"] = c.t
        if c.kind in ("sod_e", "bod_e"):
            entry["ell"] = c.ell
        elif c.kind == "user_count":
            if not c.quadratic:
                entry["slope"] = c.spec.slope
        else:
            if c.spec.table:
                raise ValueError("penalty tables are not serializable")
            entry["slope"] = c.spec.slope
        cons.append(entry)
    doc = _instance_doc(instance, "resources", pp, cons)
    if instance.meta is not None:
        doc["meta"] = instance.meta
    return doc


@contextmanager
def _gc_paused():
    """Pause the cyclic collector; restore the caller's state however the
    block ends.  Also a decorator.

    For code that allocates many small objects without reference cycles,
    such as a parsed document and the tables built from it, or the rows of
    an integer program: there collections would only scan objects and free
    nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# the scanner json.loads runs, for the values the compiled reader leaves to it
_scan_once = json.JSONDecoder().scan_once


def _text(data: bytes) -> str:
    """The text a text-mode read of a file holding `data` gives: decoded as
    UTF-8, with each CRLF and each lone CR read as LF."""
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load_doc(path: str, from_doc: Callable, names_key: Optional[str] = None, cap: int = 0):
    """from_doc applied to the JSON document at path, with the cyclic
    collector paused (`_gc_paused`).  The file is read as bytes.  An
    instance or plan document, whose `names_key` and name cap are given,
    goes to the compiled reader when it is selected (`_core.read_head`);
    json.loads parses what the reader declines, and every other document,
    from the text a text-mode read gives (`_text`)."""
    with _gc_paused():
        with open(path, "rb") as fh:
            data = fh.read()
        read = getattr(_kernels.selected_backend(), "read_head", None) if names_key else None
        head = read(data, names_key, _scan_once, cap) if read else None
        if head is None:
            return from_doc(json.loads(_text(data)))
        del data  # not alive next to the instance built from it
        doc, uindex, masks = head
        doc["users"] = _ReadUsers(uindex, masks)
        return from_doc(doc)


def load_instance(path: str) -> Instance:
    return _load_doc(path, instance_from_doc, "resources", MAX_RESOURCES)


def _dump_doc(doc: dict, path: Optional[str]) -> str:
    text = canonical_json(doc)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


@_gc_paused()  # the document holds no cycles
def dump_instance(instance: Instance, path: Optional[str] = None) -> str:
    return _dump_doc(instance_to_doc(instance), path)


def relation_from_doc(doc: dict, instance: Instance) -> AuthorizationRelation:
    if not isinstance(doc, dict):
        raise ValueError("relation document must be a JSON object")
    _reject_unknown(doc, {"assignment"}, "relation")
    assignment = doc.get("assignment")
    if not isinstance(assignment, dict):
        raise ValueError("relation needs an 'assignment' object")
    for u, rs in assignment.items():
        if not isinstance(rs, list) or not all(isinstance(r, str) for r in rs):
            raise ValueError(f"relation entry of user {u!r} must be a list of resource names")
    rel = AuthorizationRelation.from_mapping(assignment)
    validate_relation(instance, rel)
    return rel


def relation_to_doc(instance: Instance, rel: AuthorizationRelation) -> dict:
    validate_relation(instance, rel)
    return {"assignment": _assignment_doc(instance, rel)}


def load_relation(path: str, instance: Instance) -> AuthorizationRelation:
    return _load_doc(path, partial(relation_from_doc, instance=instance))
