"""Integer-program formulations for relation instances.

Two builders cover the generated benchmark family (linear user-overlap
penalties, linear lower cardinality penalties, one quadratic user-count
term, additive authorization cost):

* `build_naive` uses one binary per (resource, user) pair plus AND
  indicators for the overlap terms.  Compact, but its LP relaxation is weak.
* `build_up` uses one binary per (user, resource subset) pair, so every
  penalty is linear in the variables and any authorization cost, including
  non-additive hooks, lands in the objective.  Exponential in the resource
  count; a guard refuses oversized builds.

The quadratic user-count term is linearized exactly at integer points by
tangent cuts: p >= (2i+1) z - (i+1) i touches z^2 at z = i and z = i+1, so
cuts for i in [1, n-1] pin p to z^2 on 0..n.

Variable and row names use 1-based positions (x_r2_u7 is the second
resource, seventh user), never raw names, so arbitrary identifiers survive
the LP dialect.  `export_lp` writes a pinned plain-text form, `parse_lp`
reads it back, `eval_at` checks a formulation against a concrete relation
by fixing the assignment variables and propagating the rest.

The builders work in bulk: each name is made once, in tables of per-user
suffixes and per-resource or per-subset heads, and the objective, the
variables and the rows are comprehensions over those tables.  The
objective takes one `Instance.omega_row` per resource (naive) or subset
(UP), never a cost call per cell.  A build makes per variable its name, a
`Var` and one or two term tuples, plus a `Row` per row: about 640 B per
UP variable, none of it in a reference cycle, so it runs with the cyclic
collector paused.  `Var` and `Row` are slotted but not frozen, since a
frozen dataclass sets each field through `object.__setattr__` and took
over three times as long to make.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from typing import Optional

from .model import AuthorizationRelation, GuardError, Instance, _gc_paused

log = logging.getLogger("vapep.mipgen")

# subset variables, 2^k * n: at 2 * 10^6 (n=250,000, k=3) `export-mip`
# took 11.6 s and peaked at 2,184 MiB (benchmarks/mip_bench.py), and time
# and memory grow linearly with the count
MAX_UP_VARS = 2 * 10**6


@dataclass(slots=True)
class Var:
    name: str
    lb: int = 0
    ub: Optional[int] = None  # None = unbounded above
    binary: bool = False


@dataclass(slots=True)
class Row:
    name: str
    terms: tuple  # ((coef, varname), ...)
    sense: str  # ">=" or "="
    rhs: int

    def __post_init__(self):
        if self.sense not in (">=", "="):
            raise ValueError(f"row {self.name}: unsupported sense {self.sense!r}")


@dataclass
class Formulation:
    name: str
    kind: str  # "naive", "up", or "parsed"
    objective: tuple  # ((coef, varname), ...)
    vars: dict  # name -> Var, insertion order
    rows: list  # Row, insertion order
    resources: tuple = ()
    users: tuple = ()

    def var_names(self) -> list[str]:
        return list(self.vars)


def _check_family(instance: Instance) -> None:
    ucount = 0
    for c in instance.constraints:
        if c.kind == "sod_u":
            if c.spec.table:
                raise ValueError("overlap penalties must be linear for MIP export")
        elif c.kind == "card_lb":
            if c.spec.table:
                raise ValueError("cardinality penalties must be linear for MIP export")
        elif c.kind == "user_count":
            if not c.quadratic:
                raise ValueError("only the quadratic user-count term is supported")
            ucount += 1
        else:
            raise ValueError(f"constraint kind {c.kind!r} has no MIP encoding here")
    if ucount > 1:
        raise ValueError("at most one user-count term per formulation")


def _quad_cut_rows(p_name: str, n: int) -> list[Row]:
    return [
        Row(f"ucut{i}", ((1, p_name), (-(2 * i + 1), "z")), ">=", -(i + 1) * i)
        for i in range(1, max(1, n - 1) + 1)
    ]


def _binaries(names: list[str]) -> dict[str, Var]:
    return dict(zip(names, map(Var, names, repeat(0), repeat(None), repeat(True))))


def _count_vars(vars: dict, ys: list[str]) -> None:
    """The user-count indicators y_u and their sum z."""
    vars.update(zip(ys, map(Var, ys, repeat(0), repeat(1))))
    vars["z"] = Var("z", 0, len(ys))


def _count_rows(p_name: str, ys: list[str]) -> list[Row]:
    """z as the sum of the indicators, then the cuts pricing z^2 in p_name."""
    ucz = Row("ucz", ((1, "z"), *zip(repeat(-1), ys)), "=", 0)
    return [ucz, *_quad_cut_rows(p_name, len(ys))]


@_gc_paused()
def build_naive(instance: Instance) -> Formulation:
    """Assignment-variable formulation: one binary per (resource, user)."""
    _check_family(instance)
    if instance.auth.custom is not None:
        raise ValueError(
            "non-additive authorization costs need the subset formulation"
        )
    k, n = instance.k, instance.n
    us = [f"_u{j}" for j in range(1, n + 1)]
    x = [list(map(f"x_r{ri}".__add__, us)) for ri in range(1, k + 1)]  # x[ri][ui]
    xs = list(chain.from_iterable(x))
    obj = [t for ri, row in enumerate(x) for t in zip(instance.omega_row(1 << ri), row) if t[0]]
    vars = _binaries(xs)
    ys = ["y" + u for u in us]
    if any(c.kind == "user_count" for c in instance.constraints):
        _count_vars(vars, ys)

    rows: list[Row] = []
    for idx, c in enumerate(instance.constraints, start=1):
        pname = f"p_c{idx}"
        vars[pname] = Var(pname, 0, None)
        obj.append((1, pname))
        if c.kind == "sod_u":
            xa, xb = (x[instance._rindex[r]] for r in c.scope)
            yc = list(map(f"y_c{idx}".__add__, us))
            vars.update(_binaries(yc))
            terms = zip(zip(repeat(1), yc), zip(repeat(-1), xa), zip(repeat(-1), xb))
            rows += map(Row, map(f"sod{idx}".__add__, us), terms, repeat(">="), repeat(-1))
            rows.append(Row(f"sodsum{idx}", ((1, pname), *zip(repeat(-c.spec.slope), yc)),
                            "=", 0))
        elif c.kind == "card_lb":
            s = c.spec.slope
            held = x[instance._rindex[c.scope[0]]]
            rows.append(Row(f"card{idx}", ((1, pname), *zip(repeat(s), held)), ">=", s * c.t))
        else:  # user_count, quadratic
            names = [f"ucy_r{ri}" + u for ri in range(1, k + 1) for u in us]
            terms = zip(list(zip(repeat(1), ys)) * k, zip(repeat(-1), xs))
            rows += map(Row, names, terms, repeat(">="), repeat(0))
            rows += _count_rows(pname, ys)

    return Formulation(
        name=f"apep_naive_k{k}_n{n}",
        kind="naive",
        objective=tuple(obj),
        vars=vars,
        rows=rows,
        resources=instance.resources,
        users=instance.users,
    )


@_gc_paused()
def build_up(instance: Instance) -> Formulation:
    """Subset-variable formulation: one binary per (user, resource subset).

    Every user picks exactly one subset (the empty one included), which makes
    all penalty terms linear and lets arbitrary authorization costs be
    tabulated straight into the objective.  The size guard comes first,
    before any name is made or any cost is asked for.
    """
    _check_family(instance)
    k, n = instance.k, instance.n
    nsub = 1 << k
    if nsub * n > MAX_UP_VARS:
        raise GuardError(
            f"subset formulation needs 2^k * n = {nsub * n} variables; "
            f"the guard allows {MAX_UP_VARS}"
        )
    us = [f"_u{j}" for j in range(1, n + 1)]
    heads = [f"xT{mask}" for mask in range(nsub)]
    x = [[h + u for h in heads] for u in us]  # x[ui][mask]
    # one cost row per subset, read user by user: cost[mask] for each user
    obj = [t for cost, row in zip(zip(*map(instance.omega_row, range(nsub))), x)
           for t in zip(cost, row) if t[0]]
    vars = _binaries(list(chain.from_iterable(x)))
    ones = [tuple(zip(repeat(1), row)) for row in x]
    rows = list(map(Row, map("one".__add__, us), ones, repeat("="), repeat(1)))
    ys = ["y" + u for u in us]
    if any(c.kind == "user_count" for c in instance.constraints):
        _count_vars(vars, ys)

    def held(want: int) -> list[str]:
        """Every user's subset variables whose subsets include want."""
        masks = [mask for mask in range(nsub) if mask & want == want]
        return [row[mask] for row in x for mask in masks]

    for idx, c in enumerate(instance.constraints, start=1):
        pname = f"p_c{idx}"
        vars[pname] = Var(pname, 0, None)
        obj.append((1, pname))
        if c.kind == "sod_u":
            both = held(instance.resource_mask(c.scope))
            rows.append(Row(f"sod{idx}", ((1, pname), *zip(repeat(-c.spec.slope), both)),
                            "=", 0))
        elif c.kind == "card_lb":
            s = c.spec.slope
            one = held(instance.resource_mask(c.scope))
            rows.append(Row(f"card{idx}", ((1, pname), *zip(repeat(s), one)), ">=", s * c.t))
        else:  # user_count, quadratic
            ucy = [f"ucy{mask}" for mask in range(1, nsub)]
            names = [h + u for u in us for h in ucy]
            plus_y = zip(repeat(1), ys)
            terms = [(y, (-1, v)) for y, row in zip(plus_y, x) for v in row[1:]]
            rows += map(Row, names, terms, repeat(">="), repeat(0))
            rows += _count_rows(pname, ys)

    return Formulation(
        name=f"apep_up_k{k}_n{n}",
        kind="up",
        objective=tuple(obj),
        vars=vars,
        rows=rows,
        resources=instance.resources,
        users=instance.users,
    )


# --------------------------------------------------------------------------
# LP text


class _Signed(dict):
    """Each coefficient's signed LP prefix, "+ 1 " or "- 3 ", made once.

    It keeps at most `SIZE` of them: the tangent cuts hold a distinct
    coefficient per user, and a table of all of them would grow with n.
    """

    SIZE = 64

    def __missing__(self, c: int) -> str:
        text = f"+ {c} " if c >= 0 else f"- {-c} "
        if len(self) < self.SIZE:
            self[c] = text
        return text


_by_name = itemgetter(1)
_row_fields = attrgetter("name", "terms", "sense", "rhs")


def _lp_terms(terms, signed: _Signed) -> str:
    """Terms sorted by variable name, signed; the first has no "+"."""
    return " ".join([signed[c] + v for c, v in sorted(terms, key=_by_name)]).removeprefix("+ ")


def export_lp(f: Formulation) -> str:
    """Formulation as LP text.  Term order, bounds and sections are pinned,
    so equal formulations always export byte-identical files."""
    signed = _Signed()
    out = [f"\\ {f.name}", "Minimize", f" obj: {_lp_terms(f.objective, signed)}".rstrip(),
           "Subject To"]
    # each section is joined on its own, so that its lines are freed before
    # the whole text is made
    if f.rows:
        out.append("\n".join([f" {name}: {_lp_terms(terms, signed)} {sense} {rhs}"
                              for name, terms, sense, rhs in map(_row_fields, f.rows)]))
    bounded = sorted((v for v in f.vars.values() if not v.binary), key=attrgetter("name"))
    if bounded:
        out += ["Bounds", "\n".join([f" {v.name} >= {v.lb}" if v.ub is None
                                     else f" {v.lb} <= {v.name} <= {v.ub}" for v in bounded])]
    binary = sorted(v.name for v in f.vars.values() if v.binary)
    if binary:
        out += ["Binary", " " + "\n ".join(binary)]
    out.append("End\n")
    return "\n".join(out)


def _parse_terms(text: str) -> tuple:
    toks = text.split()
    terms = []
    sign = 1
    pending: Optional[int] = None
    for tok in toks:
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        else:
            try:
                val = int(tok)
            except ValueError:
                coef = sign if pending is None else sign * pending
                terms.append((coef, tok))
                sign = 1
                pending = None
            else:
                if pending is not None:
                    raise ValueError(f"two coefficients in a row near {tok!r}")
                pending = val
    if pending is not None:
        raise ValueError("dangling coefficient in expression")
    return tuple(terms)


def parse_lp(text: str) -> Formulation:
    """Read LP text produced by `export_lp` back into a Formulation.

    A reference reader for round trips and tests, not a general LP parser:
    one row per line, integer data, Minimize only.
    """
    name = "parsed"
    objective: tuple = ()
    rows: list[Row] = []
    bounds: dict[str, tuple] = {}
    binary: set[str] = set()
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("\\"):
            if section is None:
                name = line[1:].strip() or name
            continue
        low = line.lower()
        if low == "minimize":
            section = "obj"
            continue
        if low == "subject to":
            section = "rows"
            continue
        if low == "bounds":
            section = "bounds"
            continue
        if low == "binary":
            section = "binary"
            continue
        if low == "end":
            section = "end"
            continue
        if section == "obj":
            label, _, expr = line.partition(":")
            if label.strip() != "obj":
                raise ValueError(f"unexpected objective label {label!r}")
            objective = _parse_terms(expr)
        elif section == "rows":
            label, _, rest = line.partition(":")
            for sense in (">=", "="):
                expr, s, rhs = rest.rpartition(sense)
                if s:
                    rows.append(
                        Row(label.strip(), _parse_terms(expr), sense, int(rhs))
                    )
                    break
            else:
                raise ValueError(f"row without sense: {line!r}")
        elif section == "bounds":
            toks = line.split()
            if len(toks) == 3 and toks[1] == ">=":
                bounds[toks[0]] = (int(toks[2]), None)
            elif len(toks) == 5 and toks[1] == "<=" and toks[3] == "<=":
                bounds[toks[2]] = (int(toks[0]), int(toks[4]))
            else:
                raise ValueError(f"unsupported bound line: {line!r}")
        elif section == "binary":
            binary.update(line.split())
        elif section == "end":
            raise ValueError(f"content after End: {line!r}")
        else:
            raise ValueError(f"content before Minimize: {line!r}")
    seen: dict[str, Var] = {}
    order = [n for _, n in objective]
    for row in rows:
        order.extend(n for _, n in row.terms)
    order.extend(sorted(bounds))
    order.extend(sorted(binary))
    for n in order:
        if n in seen:
            continue
        if n in binary:
            seen[n] = Var(n, binary=True)
        else:
            lb, ub = bounds.get(n, (0, None))
            seen[n] = Var(n, lb, ub)
    return Formulation(
        name=name,
        kind="parsed",
        objective=objective,
        vars=seen,
        rows=rows,
    )


# --------------------------------------------------------------------------
# evaluation


def _fix_assignment(f: Formulation, rel: AuthorizationRelation) -> dict[str, int]:
    values: dict[str, int] = {}
    uidx = {u: j for j, u in enumerate(f.users)}
    ridx = {r: i for i, r in enumerate(f.resources)}
    masks = [0] * len(f.users)
    for u, rs in rel.assignment.items():
        if u not in uidx:
            raise ValueError(f"relation mentions unknown user {u!r}")
        m = 0
        for r in rs:
            if r not in ridx:
                raise ValueError(f"relation mentions unknown resource {r!r}")
            m |= 1 << ridx[r]
        masks[uidx[u]] = m
    if f.kind == "naive":
        for ri in range(len(f.resources)):
            for ui in range(len(f.users)):
                values[f"x_r{ri + 1}_u{ui + 1}"] = masks[ui] >> ri & 1
    elif f.kind == "up":
        nsub = 1 << len(f.resources)
        for ui in range(len(f.users)):
            for mask in range(nsub):
                values[f"xT{mask}_u{ui + 1}"] = 1 if mask == masks[ui] else 0
    else:
        raise ValueError("evaluation needs a built formulation, not a parsed one")
    return values


def eval_at(f: Formulation, rel: AuthorizationRelation) -> int:
    """Objective value of the formulation at a concrete relation.

    Assignment variables are fixed from the relation; every other variable is
    then resolved the way a minimizing solver would settle it: equality rows
    with a single unknown pin that unknown, inequality rows give it a lower
    bound, and the variable takes the largest bound seen (at least its own).
    """
    values = _fix_assignment(f, rel)
    by_var: dict[str, list[Row]] = {}
    for row in f.rows:
        for _, n in row.terms:
            by_var.setdefault(n, []).append(row)
    unknown = set(f.vars) - set(values)
    progress = True
    while unknown and progress:
        progress = False
        for v in sorted(unknown):
            pin: Optional[int] = None
            low = f.vars[v].lb
            usable = False
            for row in by_var.get(v, ()):
                coef = 0
                acc = 0
                ready = True
                for c, n in row.terms:
                    if n == v:
                        coef += c
                    elif n in values:
                        acc += c * values[n]
                    else:
                        ready = False
                        break
                if not ready or coef == 0:
                    continue
                usable = True
                num = row.rhs - acc
                if row.sense == "=":
                    if num % coef:
                        raise ValueError(f"row {row.name} pins {v} to a fraction")
                    q = num // coef
                    if pin is not None and pin != q:
                        raise ValueError(f"conflicting pins for {v}")
                    pin = q
                elif coef > 0:
                    low = max(low, -(-num // coef))
            if not usable:
                continue
            values[v] = pin if pin is not None else low
            unknown.discard(v)
            progress = True
    if unknown:
        raise ValueError(f"could not resolve variables: {sorted(unknown)}")
    for row in f.rows:
        lhs = sum(c * values[n] for c, n in row.terms)
        if row.sense == "=" and lhs != row.rhs:
            raise ValueError(f"row {row.name} violated: {lhs} != {row.rhs}")
        if row.sense == ">=" and lhs < row.rhs:
            raise ValueError(f"row {row.name} violated: {lhs} < {row.rhs}")
    total = sum(c * values[n] for c, n in f.objective)
    log.debug("formulation %s evaluates to %d", f.name, total)
    return total
