"""Weighted constraint families over authorization relations.

Every constraint maps a relation to a non-negative integer weight through a
penalty function f with f(z) = 0 for z <= 0 and f monotone afterwards.  All
families are user-independent: their weight only depends on how many users
hold each resource subset, so they can also be evaluated on a user profile.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

# Caps keep every weight the solvers can produce well below 2^63 so the
# compiled kernels may use plain int64 arithmetic.
MAX_PENALTY = 10**6
MAX_CONSTRAINTS = 10**4

SOD_U = "sod_u"
BOD_U = "bod_u"
SOD_E = "sod_e"
BOD_E = "bod_e"
CARD_UB = "card_ub"
CARD_LB = "card_lb"
USER_COUNT = "user_count"

KINDS = (SOD_U, BOD_U, SOD_E, BOD_E, CARD_UB, CARD_LB, USER_COUNT)
_BINARY = (SOD_U, BOD_U, SOD_E, BOD_E)


@dataclass(frozen=True)
class PenaltySpec:
    """Monotone penalty f: int -> int with f(z) = 0 iff z <= 0.

    An empty table means pure linear: f(z) = slope * z.  Otherwise the table
    gives f(1), f(2), ... and slope extends the last entry linearly.
    """

    slope: int = 1
    table: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.slope, int) or isinstance(self.slope, bool):
            raise ValueError("penalty slope must be an integer")
        if not 1 <= self.slope <= MAX_PENALTY:
            raise ValueError(f"penalty slope must be in [1, {MAX_PENALTY}]")
        tab = tuple(self.table)
        object.__setattr__(self, "table", tab)
        for v in tab:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError("penalty table entries must be integers")
            if not 1 <= v <= MAX_PENALTY:
                raise ValueError(f"penalty table entries must be in [1, {MAX_PENALTY}]")
        if any(b < a for a, b in zip(tab, tab[1:])):
            raise ValueError("penalty table must be non-decreasing")

    @classmethod
    def linear(cls, slope: int = 1) -> "PenaltySpec":
        return cls(slope=slope)

    @classmethod
    def from_table(cls, values: Iterable[int], tail_slope: int = 1) -> "PenaltySpec":
        return cls(slope=tail_slope, table=tuple(values))

    def __call__(self, z: int) -> int:
        if z <= 0:
            return 0
        if self.table:
            if z <= len(self.table):
                return self.table[z - 1]
            return self.table[-1] + self.slope * (z - len(self.table))
        return self.slope * z


def _as_spec(spec) -> PenaltySpec:
    if spec is None:
        return PenaltySpec()
    if isinstance(spec, PenaltySpec):
        return spec
    if isinstance(spec, int):
        return PenaltySpec.linear(spec)
    raise ValueError(f"cannot interpret {spec!r} as a penalty")


@dataclass(frozen=True)
class Constraint:
    """One weighted constraint.  Use the factory helpers below."""

    kind: str
    scope: tuple[str, ...] = ()
    t: Optional[int] = None
    spec: Optional[PenaltySpec] = None
    ell: Optional[int] = None
    quadratic: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if isinstance(self.scope, str):  # tuple would split it into characters
            raise ValueError(f"{self.kind} scope must be resource names, not a string")
        object.__setattr__(self, "scope", tuple(self.scope))
        if self.kind in _BINARY:
            if len(self.scope) != 2 or self.scope[0] == self.scope[1]:
                raise ValueError(f"{self.kind} needs two distinct resources")
        elif self.kind in (CARD_UB, CARD_LB):
            if len(self.scope) != 1:
                raise ValueError(f"{self.kind} applies to a single resource")
            if not isinstance(self.t, int) or isinstance(self.t, bool):
                raise ValueError(f"{self.kind} needs an integer threshold")
            if not 1 <= self.t <= MAX_PENALTY:
                raise ValueError(f"{self.kind} threshold must be in [1, {MAX_PENALTY}]")
        else:  # USER_COUNT
            if self.scope:
                raise ValueError("user_count ranges over all resources; no scope")
        if not all(isinstance(r, str) for r in self.scope):
            raise ValueError(f"{self.kind} scope entries must be resource names")
        if self.kind in (SOD_E, BOD_E):
            ell = 1 if self.ell is None else self.ell
            if not isinstance(ell, int) or isinstance(ell, bool) or not 1 <= ell <= MAX_PENALTY:
                raise ValueError(f"{self.kind} penalty must be in [1, {MAX_PENALTY}]")
            object.__setattr__(self, "ell", ell)
            if self.spec is not None:
                raise ValueError(f"{self.kind} takes a flat penalty, not a curve")
        elif self.ell is not None:
            raise ValueError(f"{self.kind} does not take a flat penalty")
        if self.kind in (SOD_U, BOD_U, CARD_UB, CARD_LB):
            object.__setattr__(self, "spec", _as_spec(self.spec))
        if self.kind == USER_COUNT:
            if self.quadratic and self.spec is not None:
                raise ValueError("user_count is either quadratic or linear")
            if not self.quadratic:
                object.__setattr__(self, "spec", _as_spec(self.spec))


def sod_u(r1: str, r2: str, spec=None) -> Constraint:
    """Penalize users shared between A(r1) and A(r2)."""
    return Constraint(SOD_U, (r1, r2), spec=_as_spec(spec))


def bod_u(r1: str, r2: str, spec=None) -> Constraint:
    """Penalize the larger one-sided difference between A(r1) and A(r2)."""
    return Constraint(BOD_U, (r1, r2), spec=_as_spec(spec))


def sod_e(r1: str, r2: str, ell: int = 1) -> Constraint:
    """Flat penalty if A(r1) == A(r2)."""
    return Constraint(SOD_E, (r1, r2), ell=ell)


def bod_e(r1: str, r2: str, ell: int = 1) -> Constraint:
    """Flat penalty if A(r1) and A(r2) share no user."""
    return Constraint(BOD_E, (r1, r2), ell=ell)


def card_ub(r: str, t: int, spec=None) -> Constraint:
    """Penalize |A(r)| above t."""
    return Constraint(CARD_UB, (r,), t=t, spec=_as_spec(spec))


def card_lb(r: str, t: int, spec=None) -> Constraint:
    """Penalize |A(r)| below t."""
    return Constraint(CARD_LB, (r,), t=t, spec=_as_spec(spec))


def user_count(slope: Optional[int] = None) -> Constraint:
    """Penalize the number of users with any assignment.

    Quadratic (count squared) by default; pass a slope for a linear version.
    """
    if slope is None:
        return Constraint(USER_COUNT, (), quadratic=True)
    return Constraint(USER_COUNT, (), spec=PenaltySpec.linear(slope))


def eval_relation(c: Constraint, rel) -> int:
    """Weight of constraint c on a relation (anything with users_of/assigned_users)."""
    if c.kind == USER_COUNT:
        z = len(rel.assigned_users())
        return z * z if c.quadratic else c.spec(z)
    a = rel.users_of(c.scope[0])
    if c.kind in (CARD_UB, CARD_LB):
        z = len(a) - c.t if c.kind == CARD_UB else c.t - len(a)
        return c.spec(z)
    b = rel.users_of(c.scope[1])
    if c.kind == SOD_U:
        return c.spec(len(a & b))
    if c.kind == BOD_U:
        return c.spec(max(len(a - b), len(b - a)))
    if c.kind == SOD_E:
        return c.ell if a == b else 0
    # BOD_E
    return 0 if a & b else c.ell


def eval_profile(c: Constraint, usr) -> int:
    """Weight of c on a user profile; agrees with eval_relation on profile_of(A).

    The profile must expose bit(resource), cover(bit), pair(bit, bit),
    one_sided(bit, bit) and assigned_count().
    """
    if c.kind == USER_COUNT:
        z = usr.assigned_count()
        return z * z if c.quadratic else c.spec(z)
    b1 = usr.bit(c.scope[0])
    if c.kind in (CARD_UB, CARD_LB):
        cov = usr.cover(b1)
        z = cov - c.t if c.kind == CARD_UB else c.t - cov
        return c.spec(z)
    b2 = usr.bit(c.scope[1])
    if c.kind == SOD_U:
        return c.spec(usr.pair(b1, b2))
    if c.kind == BOD_U:
        return c.spec(max(usr.one_sided(b1, b2), usr.one_sided(b2, b1)))
    if c.kind == SOD_E:
        same = usr.one_sided(b1, b2) == 0 and usr.one_sided(b2, b1) == 0
        return c.ell if same else 0
    # BOD_E
    return 0 if usr.pair(b1, b2) >= 1 else c.ell


# Families whose weight cannot increase when a user's entire assignment is
# removed; they underpin the quadratic-user-count cap below.
_SHRINK_SAFE = (SOD_U, BOD_U, CARD_UB, CARD_LB, USER_COUNT)


def wbound_suggestion(constraints: Iterable[Constraint], k: int) -> Optional[int]:
    """Upper bound on how many users an optimal solution needs, if one is safe.

    Returns None when no cap can be justified for the given families.
    """
    cons = list(constraints)
    quad = any(c.kind == USER_COUNT and c.quadratic for c in cons)
    if quad and all(c.kind in _SHRINK_SAFE for c in cons):
        lbs = [c for c in cons if c.kind == CARD_LB]
        if all(not c.spec.table for c in lbs):
            # Dropping one user saves at least 2m-1 on the quadratic term and
            # costs at most the sum of lower-bound slopes, so past this count
            # removal always pays off.
            s = sum(c.spec.slope for c in lbs)
            return (s + 2) // 2
    if all(c.kind != USER_COUNT for c in cons):
        taus = [c.t for c in cons if c.kind == CARD_LB]
        tau = max(taus) if taus else 1
        tau = max(tau, 1)
        return 3 * tau * (k * (k - 1) // 2)
    return None
