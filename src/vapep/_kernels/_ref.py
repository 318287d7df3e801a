"""Pure-Python kernels, the executable spec of the compiled ones.

Four hot loops live here: the branch and bound over user profiles behind
the profile solver, the relation enumeration behind the exhaustive solver,
the partition walk behind the plan solver and the SplitMix64 draws behind
the generator's authorization masks.  The compiled module, hand-written C
in ``_core.c``, mirrors all four statement for statement; any change here
must be made there as well so the backends stay bit-identical, down to
every callback, search counter and stream state.
"""
from __future__ import annotations

from operator import index

NAME = "python"

INF = 1 << 62


def profile_search(k, ell, subs, cheap, kinds, tvals, pkinds, pslopes, ptables,
                   clsA, clsB, sufun, evaluate):
    """Branch and bound over complete user profiles with at most `ell`
    assigned users.

    Levels follow `subs` (non-empty subset masks in (popcount, value) order);
    counts per level are tried ascending, so profiles are reached in
    ascending lexicographic order of their count vectors.  Once the budget
    hits zero the remaining levels are implicitly zero and the node is a
    leaf.  `cheap[j][c]` (c = 0..ell) is a lower bound on the authorization
    cost of c users holding subs[j]: the summed cost of the c cheapest.

    Each node gets a lower bound on the weight of every profile below it:
    the authorization bound, the weight of the terms that never fall as
    counts grow (`sod_u`, `bod_u`, `card_ub`, `user_count`), and each
    `card_lb` shortfall less the remaining budget when a remaining level
    holds its resource.  A node whose bound reaches the incumbent is cut;
    when the never-falling part alone reaches it, every larger count at the
    parent level would be cut too, so the parent's count loop stops.  The
    rest (`card_lb`, and at a leaf `sod_e` and `bod_e`) may fall as that
    count grows, so it never stops the loop.

    An interior node that bound keeps is still cut when, for every number
    e = 0..b of users still to place, U(e) + max(F(e), P + e * g[j]) reaches
    the incumbent less the never-falling part and the authorization bound.
    U(e) is what the `user_count` terms gain from m to m + e users; F(e) is
    the `card_lb` part with e in place of b; P is the `card_lb` part with no
    reduction; g[j] is the least net gain of a level j' >= j: the smallest
    penalty step of each `sod_u` it bumps less the largest step of each
    `card_lb` it bumps.  Each user added raises a count by at most one and
    every penalty is non-decreasing, so each of F(e) and P + e * g[j] bounds
    what `card_lb` and the growth of `sod_u` weigh below the node, and U(e)
    what `user_count` gains.  The loop over e ends once U(e) alone reaches
    the gap (a cut: U never falls) or once the sum falls short of it.  The
    test only adds cuts of nodes that cannot beat the incumbent strictly,
    and never stops the count loop, so the incumbent sequence is unchanged.

    At a complete leaf the bound is the exact constraint weight cw plus the
    authorization bound; `evaluate(pairs, cw)` is only called when that
    still beats the incumbent, and returns the updated incumbent.  When
    evaluate never returns less than that bound, cuts only drop profiles
    that could not beat the incumbent strictly, so the incumbent changes at
    the same profiles as in the full enumeration.

    Every `cheap` entry and `evaluate` value is read clamped to INF, sums
    are exact, and the search keeps one incumbent, starting at INF, so both
    backends make the same decisions.
    Returns (leaves, incumbent, nodes, cuts): complete leaves tested against
    the incumbent, the incumbent, nodes entered, and nodes cut by the bound.
    """
    M = len(subs)
    C = len(kinds)
    full = (1 << k) - 1
    cheap = [[min(v, INF) for v in row] for row in cheap]
    last = [-1] * C  # the last level bumping counter A of each constraint
    for jj in range(M):
        for i in clsA[jj]:
            last[i] = jj

    def penalty(i, z):
        if z <= 0:
            return 0
        if pkinds[i] == 1:
            tab = ptables[i]
            tl = len(tab)
            if z <= tl:
                return tab[z - 1]
            return tab[tl - 1] + pslopes[i] * (z - tl)
        return pslopes[i] * z

    def steps(i):
        """The penalty steps penalty(i, z + 1) - penalty(i, z), z >= 0."""
        if pkinds[i] == 1:
            tab = ptables[i]
            return [b - a for a, b in zip([0, *tab], tab)] + [pslopes[i]]
        return [pslopes[i]]

    ucs = [i for i in range(C) if kinds[i] == 6]
    lbs = [i for i in range(C) if kinds[i] == 5]

    def users_weight(m):
        """The summed `user_count` terms at m assigned users."""
        w = 0
        for i in ucs:
            w += m * m if pkinds[i] == 2 else penalty(i, m)
        return w

    # g[j]: the least net gain of a level j' >= j
    g = [0] * M
    for jj in range(M - 1, -1, -1):
        net = 0
        for i in clsA[jj]:
            if kinds[i] == 0:
                net += min(steps(i))
            elif kinds[i] == 5:
                net -= max(steps(i))
        g[jj] = net if jj == M - 1 or net < g[jj + 1] else g[jj + 1]

    def coupled_cut(m, j, b, need):
        """Whether U(e) + max(F(e), P + e * g[j]) >= need for e = 0..b."""
        u0 = users_weight(m)
        p = 0
        for i in lbs:
            p += penalty(i, tvals[i] - cntA[i])
        for e in range(b + 1):
            u = users_weight(m + e) - u0
            if u >= need:
                return True
            f = 0
            for i in lbs:
                z = tvals[i] - cntA[i]
                if j <= last[i]:
                    z -= e
                f += penalty(i, z)
            pg = p + e * g[j]
            if u + (f if f >= pg else pg) < need:
                return False
        return True

    cntA = [0] * C
    cntB = [0] * C
    m_assigned = 0
    val = [0] * (M + 1)
    budb = [0] * (M + 2)  # budget entering each level
    covb = [0] * (M + 2)  # coverage mask entering each level
    olbb = [0] * (M + 2)  # authorization lower bound entering each level
    budb[0] = ell
    leaves = nodes = cuts = 0
    inc = INF
    stop = False  # the parent level's count loop ends
    j = 0
    down = True
    while True:
        if down:
            nodes += 1
            b = budb[j]
            cov = covb[j]
            leaf = b == 0 or j == M
            if cov != full if leaf else full & ~(cov | sufun[j]):
                down = False
                j -= 1
                continue
            mono = 0  # terms that never fall as counts grow
            rest = 0  # card_lb bounds; at a leaf, the exact remaining weight
            for i in range(C):
                kd = kinds[i]
                if kd == 0:  # shared users
                    z = cntA[i]
                elif kd == 1:  # larger one-sided difference
                    a = cntA[i]
                    bb = cntB[i]
                    z = a if a >= bb else bb
                elif kd == 2:  # equal assignments
                    if leaf and cntA[i] == 0 and cntB[i] == 0:
                        rest += tvals[i]
                    continue
                elif kd == 3:  # disjoint assignments
                    if leaf and cntA[i] == 0:
                        rest += tvals[i]
                    continue
                elif kd == 4:  # cardinality above t
                    z = cntA[i] - tvals[i]
                elif kd == 5:  # cardinality below t, less what may still come
                    z = tvals[i] - cntA[i]
                    if j <= last[i]:
                        z -= b
                    rest += penalty(i, z)
                    continue
                else:  # assigned-user count
                    z = m_assigned
                    if pkinds[i] == 2:
                        mono += z * z
                        continue
                mono += penalty(i, z)
            olb = olbb[j]
            if mono + olb >= inc:
                cuts += 1
                stop = True
            elif leaf:
                leaves += 1
                if mono + rest + olb < inc:
                    pairs = [(jj, val[jj]) for jj in range(j) if val[jj]]
                    r = min(evaluate(pairs, mono + rest), INF)
                    if r < inc:
                        inc = r
            elif mono + rest + olb >= inc or coupled_cut(m_assigned, j, b,
                                                         inc - mono - olb):
                cuts += 1
            else:
                val[j] = 0
                covb[j + 1] = cov
                budb[j + 1] = b
                olbb[j + 1] = olb
                j += 1
                continue
            down = False
            j -= 1
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
        if stop or c >= budb[j]:
            stop = False
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
        olbb[j + 1] = olbb[j] + cheap[j][c]
        j += 1
        down = True
    return leaves, inc, nodes, cuts


def brute_search(n, k, subs_all, otab, kinds, rA, rB, tvals, pkinds, pslopes,
                 ptables):
    """Enumerate every assignment of a subset index to each user.

    Users vary outermost-first (user 0 slowest) and subset indices follow
    `subs_all` ((popcount, value) order with the empty set first); the first
    optimum found is kept, and `solve_exhaustive` reads only its weight.
    Subtrees whose accumulated authorization cost already reaches the
    incumbent are skipped; that never discards a strictly better relation.
    Every `otab` entry is read clamped to INF, sums are exact, and the
    enumeration keeps one incumbent, starting at INF, so both backends make
    the same decisions.
    Returns (best_total, best_indices, leaves_visited); best_total is INF
    when no complete relation weighs less.
    """
    S = len(subs_all)
    C = len(kinds)
    otab = [[min(v, INF) for v in row] for row in otab]
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


def plan_search(n, pairs, groups, incs, rest, bounded, block_min, leaf):
    """Depth-first walk over the partitions of K = len(pairs) plan steps into
    at most n blocks, in the restricted-growth order of `wsp._rgs`: step i
    joins blocks 0..p-1 in turn and then opens block p, while p < n.

    pairs[i] holds the must_equal/must_differ pairs settled at step i as flat
    (earlier step, penalty, equal) triples; groups[i] holds the disjoint
    constraints whose groups contain step i as flat (index, mask a, mask b)
    triples, and incs[d][h] is f(h+1) - f(h) of disjoint constraint d.  A
    child whose prefix weight reaches the incumbent is skipped.  When
    `bounded`, which promises that a block's minimum never falls as steps
    join it, a child is also cut (a bound cut) once its prefix weight plus
    the sum of its open blocks' minima plus rest[i + 1] reaches the
    incumbent; otherwise the blocks' minima are summed only at a leaf.  A
    leaf whose weight plus block minima reaches the incumbent is a bound cut
    too; any other leaf calls `leaf(blocks, cw)`, which returns the updated
    incumbent.  `block_min(bm)` is called at most once per block mask, on
    its first use.

    Every callback value and table entry is read clamped to INF, and sums
    are exact, so both backends make the same decisions.
    Returns (nodes, leaves, bound_cuts, matchings): nodes entered, leaves
    reached, bound cuts and leaf calls.
    """
    K = len(pairs)
    pairs = [[(s, min(ell, INF), eq != 0) for s, ell, eq in zip(*[iter(row)] * 3)]
             for row in pairs]
    groups = [list(zip(*[iter(row)] * 3)) for row in groups]
    incs = [[min(v, INF) for v in row] for row in incs]
    rest = [min(v, INF) for v in rest]
    rgs = [0] * K  # block of each placed step
    blocks = [0] * K  # step mask of each block; 0 past the open ones
    hits = [0] * len(incs)  # blocks meeting both groups, per disjoint constraint
    mins = {0: 0}  # block mask -> min(block_min(mask), INF)
    inc = INF
    nodes = leaves = bound_cuts = matchings = 0

    def minimum(bm):
        m = mins.get(bm)
        if m is None:
            m = mins[bm] = min(block_min(bm), INF)
        return m

    def visit(i, p, cw, bw):
        # bw: the sum of the open blocks' minima when bounded, else 0; an
        # argument, so a return restores the parent's sum
        nonlocal inc, nodes, leaves, bound_cuts, matchings
        nodes += 1
        if i == K:
            leaves += 1
            if not bounded:
                for g in range(p):
                    bw += minimum(blocks[g])
            if cw + bw >= inc:
                bound_cuts += 1
                return
            matchings += 1
            r = leaf(blocks[:p], cw)
            if r < inc:
                inc = r
            return
        bit = 1 << i
        after = rest[i + 1]
        gi = groups[i]
        for g in range(p + 1 if p < n else p):
            x = cw
            for s, ell, equal in pairs[i]:
                if (rgs[s] == g) != equal:
                    x += ell
            old = blocks[g]
            new = old | bit
            for d, a, b in gi:
                if new & a and new & b and not (old & a and old & b):
                    h = hits[d]
                    x += incs[d][h]
                    hits[d] = h + 1
            if x < inc:
                nbw = 0
                if bounded:
                    # min(new) >= min(old), so a child that old's minimum
                    # already cuts needs no minimum for new
                    nbw = bw
                    if x + bw + after < inc:
                        nbw = bw - mins[old] + minimum(new)
                if x + nbw + after < inc:
                    rgs[i] = g
                    blocks[g] = new
                    visit(i + 1, p + (g == p), x, nbw)
                    blocks[g] = old
                else:
                    bound_cuts += 1
            for d, a, b in gi:
                if new & a and new & b and not (old & a and old & b):
                    hits[d] -= 1

    visit(0, 0, 0, 0)
    return nodes, leaves, bound_cuts, matchings


_MASK = (1 << 64) - 1  # SplitMix64 state and outputs are 64-bit words
MAX_SAMPLE_K = 30  # the most steps a sampled mask spans


def subset_masks(state, count, k, cmax):
    """`count` draws from the SplitMix64 stream at `state`, each of
    `c = randint(1, cmax)` and then a partial Fisher-Yates `sample(k, c)`,
    as `generator.SplitMix64` defines them; returns (masks, state): the
    bitmask of each sample and the state left behind.

    Each bounded draw is a masked rejection: a 64-bit output is masked to
    the bit length of span - 1 and redrawn until it is below span.  The
    masked-rejection parameters are computed once per call.  Every argument
    must be an int (TypeError otherwise), with 0 <= state < 2^64,
    count >= 0 and 1 <= cmax <= k <= 30 (ValueError otherwise).
    """
    state, count, k, cmax = index(state), index(count), index(k), index(cmax)
    if not 0 <= state <= _MASK:
        raise ValueError("state must lie in [0, 2^64)")
    if count < 0:
        raise ValueError("count must be non-negative")
    if k > MAX_SAMPLE_K:
        raise ValueError(f"k={k} is more than {MAX_SAMPLE_K}")
    if not 1 <= cmax <= k:
        raise ValueError("sample size out of range")
    cbits = (1 << (cmax - 1).bit_length()) - 1
    # (span, rejection mask) of the draw at sample position i
    steps = [(k - i, (1 << (k - i - 1).bit_length()) - 1) for i in range(k)]
    fresh = list(range(k))
    mask64 = _MASK  # a local name is faster to load in the loop
    s = state
    out = []
    for _ in range(count):
        c = 1
        if cmax > 1:
            while True:
                s = (s + 0x9E3779B97F4A7C15) & mask64
                z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & mask64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask64
                v = (z ^ (z >> 31)) & cbits
                if v < cmax:
                    c += v
                    break
        pool = fresh[:]
        m = 0
        for i in range(c):
            span, bits = steps[i]
            j = i
            if span > 1:
                while True:
                    s = (s + 0x9E3779B97F4A7C15) & mask64
                    z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & mask64
                    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask64
                    v = (z ^ (z >> 31)) & bits
                    if v < span:
                        j += v
                        break
            pool[i], pool[j] = pool[j], pool[i]
            m |= 1 << pool[i]
        out.append(m)
    return out, s
