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
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from .model import AuthorizationRelation, GuardError, Instance

log = logging.getLogger("vapep.mipgen")

MAX_UP_VARS = 10**7


@dataclass(frozen=True)
class Var:
    name: str
    lb: int = 0
    ub: Optional[int] = None  # None = unbounded above
    binary: bool = False


@dataclass(frozen=True)
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
    rows = []
    for i in range(1, max(1, n - 1) + 1):
        rows.append(
            Row(
                name=f"ucut{i}",
                terms=((1, p_name), (-(2 * i + 1), "z")),
                sense=">=",
                rhs=-(i + 1) * i,
            )
        )
    return rows


def build_naive(instance: Instance) -> Formulation:
    """Assignment-variable formulation: one binary per (resource, user)."""
    _check_family(instance)
    if instance.auth.custom is not None:
        raise ValueError(
            "non-additive authorization costs need the subset formulation"
        )
    k, n = instance.k, instance.n
    vars: dict[str, Var] = {}
    obj: list[tuple] = []
    rows: list[Row] = []

    def xname(ri: int, ui: int) -> str:
        return f"x_r{ri + 1}_u{ui + 1}"

    for ri in range(k):
        for ui in range(n):
            name = xname(ri, ui)
            vars[name] = Var(name, binary=True)
            w = instance.omega_mask(ui, 1 << ri)
            if w:
                obj.append((w, name))

    need_count = any(c.kind == "user_count" for c in instance.constraints)
    if need_count:
        for ui in range(n):
            vars[f"y_u{ui + 1}"] = Var(f"y_u{ui + 1}", 0, 1)
        vars["z"] = Var("z", 0, n)

    for idx, c in enumerate(instance.constraints, start=1):
        pname = f"p_c{idx}"
        vars[pname] = Var(pname, 0, None)
        obj.append((1, pname))
        if c.kind == "sod_u":
            a = instance._rindex[c.scope[0]]
            b = instance._rindex[c.scope[1]]
            sumterms: list[tuple] = [(1, pname)]
            for ui in range(n):
                yname = f"y_c{idx}_u{ui + 1}"
                vars[yname] = Var(yname, binary=True)
                rows.append(
                    Row(
                        name=f"sod{idx}_u{ui + 1}",
                        terms=((1, yname), (-1, xname(a, ui)), (-1, xname(b, ui))),
                        sense=">=",
                        rhs=-1,
                    )
                )
                sumterms.append((-c.spec.slope, yname))
            rows.append(Row(f"sodsum{idx}", tuple(sumterms), "=", 0))
        elif c.kind == "card_lb":
            ri = instance._rindex[c.scope[0]]
            terms = [(1, pname)]
            terms += [(c.spec.slope, xname(ri, ui)) for ui in range(n)]
            rows.append(Row(f"card{idx}", tuple(terms), ">=", c.spec.slope * c.t))
        else:  # user_count, quadratic
            for ri in range(k):
                for ui in range(n):
                    rows.append(
                        Row(
                            name=f"ucy_r{ri + 1}_u{ui + 1}",
                            terms=((1, f"y_u{ui + 1}"), (-1, xname(ri, ui))),
                            sense=">=",
                            rhs=0,
                        )
                    )
            zterms = [(1, "z")] + [(-1, f"y_u{ui + 1}") for ui in range(n)]
            rows.append(Row("ucz", tuple(zterms), "=", 0))
            rows.extend(_quad_cut_rows(pname, n))

    return Formulation(
        name=f"apep_naive_k{k}_n{n}",
        kind="naive",
        objective=tuple(obj),
        vars=vars,
        rows=rows,
        resources=instance.resources,
        users=instance.users,
    )


def build_up(instance: Instance) -> Formulation:
    """Subset-variable formulation: one binary per (user, resource subset).

    Every user picks exactly one subset (the empty one included), which makes
    all penalty terms linear and lets arbitrary authorization costs be
    tabulated straight into the objective.
    """
    _check_family(instance)
    k, n = instance.k, instance.n
    nsub = 1 << k
    if nsub * n > MAX_UP_VARS:
        raise GuardError(
            f"subset formulation needs 2^k * n = {nsub * n} variables; "
            f"the guard allows {MAX_UP_VARS}"
        )
    vars: dict[str, Var] = {}
    obj: list[tuple] = []
    rows: list[Row] = []

    def xname(mask: int, ui: int) -> str:
        return f"xT{mask}_u{ui + 1}"

    for ui in range(n):
        for mask in range(nsub):
            name = xname(mask, ui)
            vars[name] = Var(name, binary=True)
            w = instance.omega_mask(ui, mask)
            if w:
                obj.append((w, name))
    for ui in range(n):
        rows.append(
            Row(
                name=f"one_u{ui + 1}",
                terms=tuple((1, xname(mask, ui)) for mask in range(nsub)),
                sense="=",
                rhs=1,
            )
        )

    need_count = any(c.kind == "user_count" for c in instance.constraints)
    if need_count:
        for ui in range(n):
            vars[f"y_u{ui + 1}"] = Var(f"y_u{ui + 1}", 0, 1)
        vars["z"] = Var("z", 0, n)

    for idx, c in enumerate(instance.constraints, start=1):
        pname = f"p_c{idx}"
        vars[pname] = Var(pname, 0, None)
        obj.append((1, pname))
        if c.kind == "sod_u":
            a = instance._rindex[c.scope[0]]
            b = instance._rindex[c.scope[1]]
            both = (1 << a) | (1 << b)
            terms = [(1, pname)]
            for ui in range(n):
                for mask in range(nsub):
                    if mask & both == both:
                        terms.append((-c.spec.slope, xname(mask, ui)))
            rows.append(Row(f"sod{idx}", tuple(terms), "=", 0))
        elif c.kind == "card_lb":
            ri = instance._rindex[c.scope[0]]
            terms = [(1, pname)]
            for ui in range(n):
                for mask in range(nsub):
                    if mask >> ri & 1:
                        terms.append((c.spec.slope, xname(mask, ui)))
            rows.append(Row(f"card{idx}", tuple(terms), ">=", c.spec.slope * c.t))
        else:  # user_count, quadratic
            for ui in range(n):
                for mask in range(1, nsub):
                    rows.append(
                        Row(
                            name=f"ucy{mask}_u{ui + 1}",
                            terms=((1, f"y_u{ui + 1}"), (-1, xname(mask, ui))),
                            sense=">=",
                            rhs=0,
                        )
                    )
            zterms = [(1, "z")] + [(-1, f"y_u{ui + 1}") for ui in range(n)]
            rows.append(Row("ucz", tuple(zterms), "=", 0))
            rows.extend(_quad_cut_rows(pname, n))

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


def _format_terms(terms) -> str:
    parts = []
    for coef, name in sorted(terms, key=lambda t: t[1]):
        if not parts:
            parts.append(f"{coef} {name}" if coef >= 0 else f"- {-coef} {name}")
        elif coef >= 0:
            parts.append(f"+ {coef} {name}")
        else:
            parts.append(f"- {-coef} {name}")
    return " ".join(parts)


def export_lp(f: Formulation) -> str:
    """Formulation as LP text.  Term order, bounds and sections are pinned,
    so equal formulations always export byte-identical files."""
    out = [f"\\ {f.name}", "Minimize", f" obj: {_format_terms(f.objective)}".rstrip()]
    out.append("Subject To")
    for row in f.rows:
        out.append(f" {row.name}: {_format_terms(row.terms)} {row.sense} {row.rhs}")
    bounded = [v for v in f.vars.values() if not v.binary]
    if bounded:
        out.append("Bounds")
        for v in sorted(bounded, key=lambda v: v.name):
            if v.ub is None:
                out.append(f" {v.name} >= {v.lb}")
            else:
                out.append(f" {v.lb} <= {v.name} <= {v.ub}")
    binary = sorted(v.name for v in f.vars.values() if v.binary)
    if binary:
        out.append("Binary")
        for name in binary:
            out.append(f" {name}")
    out.append("End")
    return "\n".join(out) + "\n"


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
