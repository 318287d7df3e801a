"""Pure-Python search kernels, the executable spec of the compiled ones.

Two hot loops live here: the profile enumeration behind the profile solver
and the relation enumeration behind the exhaustive solver.  The compiled
module, hand-written C in ``_core.c``, mirrors both loops statement for
statement; any change here must be made there as well so the backends stay
bit-identical.
"""
from __future__ import annotations

NAME = "python"

INF = 1 << 62


def profile_search(k, ell, subs, minw, kinds, tvals, pkinds, pslopes, ptables,
                   clsA, clsB, sufun, evaluate):
    """Enumerate complete user profiles with at most `ell` assigned users.

    Levels follow `subs` (non-empty subset masks in (popcount, value) order);
    counts per level are tried ascending, so profiles stream in ascending
    lexicographic order of their count vectors.  Once the budget hits zero the
    remaining levels are implicitly zero and the leaf is emitted immediately.

    Per emitted profile the constraint weight is computed from running
    counters; `evaluate(pairs, cw)` is only called when cw plus an additive
    lower bound on the authorization cost still beats the incumbent, and
    returns the updated incumbent.  Emission count is a function of (k, ell)
    alone.  Returns (emitted, incumbent).
    """
    M = len(subs)
    C = len(kinds)
    full = (1 << k) - 1
    cntA = [0] * C
    cntB = [0] * C
    m_assigned = 0
    val = [0] * (M + 1)
    budb = [0] * (M + 2)  # budget entering each level
    covb = [0] * (M + 2)  # coverage mask entering each level
    olbb = [0] * (M + 2)  # authorization lower bound entering each level
    budb[0] = ell
    emitted = 0
    inc = INF
    j = 0
    down = True
    while True:
        if down:
            b = budb[j]
            if b == 0 or j == M:
                cov = covb[j]
                if cov == full:
                    emitted += 1
                    cw = 0
                    for i in range(C):
                        kd = kinds[i]
                        if kd == 0:  # shared users
                            z = cntA[i]
                        elif kd == 1:  # larger one-sided difference
                            a = cntA[i]
                            bb = cntB[i]
                            z = a if a >= bb else bb
                        elif kd == 2:  # equal assignments
                            if cntA[i] == 0 and cntB[i] == 0:
                                cw += tvals[i]
                            continue
                        elif kd == 3:  # disjoint assignments
                            if cntA[i] == 0:
                                cw += tvals[i]
                            continue
                        elif kd == 4:  # cardinality above t
                            z = cntA[i] - tvals[i]
                        elif kd == 5:  # cardinality below t
                            z = tvals[i] - cntA[i]
                        else:  # assigned-user count
                            z = m_assigned
                            if pkinds[i] == 2:
                                cw += z * z
                                continue
                        if z > 0:
                            if pkinds[i] == 1:
                                tab = ptables[i]
                                tl = len(tab)
                                if z <= tl:
                                    cw += tab[z - 1]
                                else:
                                    cw += tab[tl - 1] + pslopes[i] * (z - tl)
                            else:
                                cw += pslopes[i] * z
                    if cw + olbb[j] < inc:
                        pairs = [(jj, val[jj]) for jj in range(j) if val[jj]]
                        r = evaluate(pairs, cw)
                        if r < inc:
                            inc = r
                down = False
                j -= 1
                continue
            cov = covb[j]
            if full & ~(cov | sufun[j]):
                down = False
                j -= 1
                continue
            val[j] = 0
            covb[j + 1] = cov
            budb[j + 1] = b
            olbb[j + 1] = olbb[j]
            j += 1
            continue
        # backtracking
        if j < 0:
            break
        c = val[j]
        if c:
            for i in clsA[j]:
                cntA[i] -= c
            for i in clsB[j]:
                cntB[i] -= c
            m_assigned -= c
        if c >= budb[j]:
            val[j] = 0
            j -= 1
            continue
        c += 1
        val[j] = c
        for i in clsA[j]:
            cntA[i] += c
        for i in clsB[j]:
            cntB[i] += c
        m_assigned += c
        budb[j + 1] = budb[j] - c
        covb[j + 1] = covb[j] | subs[j]
        olbb[j + 1] = olbb[j] + c * minw[j]
        j += 1
        down = True
    return emitted, inc


def brute_search(n, k, subs_all, otab, kinds, rA, rB, tvals, pkinds, pslopes,
                 ptables):
    """Enumerate every assignment of a subset index to each user.

    Users vary outermost-first (user 0 slowest) and subset indices follow
    `subs_all` ((popcount, value) order with the empty set first), so the
    first optimum found is the canonical one.  Subtrees whose accumulated
    authorization cost already reaches the incumbent are skipped; that never
    discards a strictly better relation.  Returns (best_total, best_indices,
    leaves_visited); best_total is INF when no complete relation exists
    (cannot happen for n >= 1).
    """
    S = len(subs_all)
    C = len(kinds)
    bits_of = [
        tuple(r for r in range(k) if subs_all[s] >> r & 1) for s in range(S)
    ]
    rmask = [0] * k
    val = [0] * (n + 1)
    omb = [0] * (n + 2)  # authorization cost entering each level
    inc = INF
    best = None
    leaves = 0
    j = 0
    down = True
    while True:
        if down:
            if j == n:
                leaves += 1
                complete = True
                for r in range(k):
                    if rmask[r] == 0:
                        complete = False
                        break
                if complete:
                    cw = 0
                    for i in range(C):
                        kd = kinds[i]
                        if kd == 0:
                            z = (rmask[rA[i]] & rmask[rB[i]]).bit_count()
                        elif kd == 1:
                            a = rmask[rA[i]]
                            b = rmask[rB[i]]
                            z1 = (a & ~b).bit_count()
                            z2 = (b & ~a).bit_count()
                            z = z1 if z1 >= z2 else z2
                        elif kd == 2:
                            if rmask[rA[i]] == rmask[rB[i]]:
                                cw += tvals[i]
                            continue
                        elif kd == 3:
                            if not (rmask[rA[i]] & rmask[rB[i]]):
                                cw += tvals[i]
                            continue
                        elif kd == 4:
                            z = rmask[rA[i]].bit_count() - tvals[i]
                        elif kd == 5:
                            z = tvals[i] - rmask[rA[i]].bit_count()
                        else:
                            allm = 0
                            for r in range(k):
                                allm |= rmask[r]
                            z = allm.bit_count()
                            if pkinds[i] == 2:
                                cw += z * z
                                continue
                        if z > 0:
                            if pkinds[i] == 1:
                                tab = ptables[i]
                                tl = len(tab)
                                if z <= tl:
                                    cw += tab[z - 1]
                                else:
                                    cw += tab[tl - 1] + pslopes[i] * (z - tl)
                            else:
                                cw += pslopes[i] * z
                    total = omb[n] + cw
                    if total < inc:
                        inc = total
                        best = val[0:n]
                down = False
                j -= 1
                continue
            if omb[j] >= inc:
                down = False
                j -= 1
                continue
            val[j] = 0  # empty set first; costs nothing
            omb[j + 1] = omb[j]
            j += 1
            continue
        if j < 0:
            break
        s = val[j]
        ubit = 1 << j
        for r in bits_of[s]:
            rmask[r] &= ~ubit
        s += 1
        b = omb[j]
        row = otab[j]
        while s < S and b + row[s] >= inc:
            s += 1
        if s >= S:
            val[j] = 0
            j -= 1
            continue
        val[j] = s
        for r in bits_of[s]:
            rmask[r] |= ubit
        omb[j + 1] = b + row[s]
        j += 1
        down = True
    return inc, best, leaves
