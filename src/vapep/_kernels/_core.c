/* Compiled kernels, a hand-written CPython extension.
 *
 * Statement-for-statement mirror of the pure-Python twins of the four hot
 * loops in _ref.py (profile search, brute enumeration, plan walk and the
 * generator's mask sampler): same search order, same bounds and cuts, same
 * tie handling and the same draws, so both backends make the same callbacks
 * and return bit-identical results, search counters and stream states.
 * Keep the two files in sync; _ref.py documents each loop.
 *
 * Every input is copied into int64 buffers and checked before a search
 * starts, so the loops never index out of bounds: malformed input raises
 * ValueError, TypeError or OverflowError instead.  The GIL stays held, since
 * the callbacks are Python and no second thread runs a search.
 *
 * The three searches share one convention for weights at or past C_INF =
 * 2^62, _ref.INF: every cost-table entry and callback value is read clamped
 * to C_INF (read_clamped), sums are exact, and each search keeps one int64
 * incumbent, starting at C_INF.  No weight at or past C_INF can beat that
 * incumbent, so the backends cut where Python ints would.
 *
 * Two routines at the end of the file have no twin in _ref.py.  The user-name
 * index name_index, whose reference is the dict of model._name_index.  The
 * document reader read_head, which reads a file's bytes and builds that
 * index for the users it reads as a byte table, with no object per user; its
 * reference is json.loads followed by model._doc_head.  It declines what is
 * not ASCII or otherwise outside what it reads, rather than raising, and the
 * reference then reads the file; only MemoryError propagates.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef long long i64;
typedef unsigned long long u64;
typedef __int128 i128;
#define C_INF ((i64)1 << 62)
/* as_i64's hi for a cost table: each int in [0, C_INF], larger ones read
   as C_INF */
#define TO_INF (C_INF + 1)

/* Zeroed memory for n items (at least one), or NULL with MemoryError set. */
static void *zalloc(Py_ssize_t n, size_t size)
{
    void *p = PyMem_Calloc(n > 0 ? n : 1, size);
    return p ? p : (void *)PyErr_NoMemory();
}

/* *v = int(obj), read as C_INF past it; OverflowError below the int64 range. */
static int read_clamped(PyObject *obj, i64 *v)
{
    int over;
    i64 x = PyLong_AsLongLongAndOverflow(obj, &over);
    if (x == -1 && PyErr_Occurred()) return -1;
    if (over < 0) {
        PyErr_SetString(PyExc_OverflowError, "value below the int64 range");
        return -1;
    }
    *v = over > 0 || x > C_INF ? C_INF : x;
    return 0;
}

/* A fresh buffer holding the `len` ints of sequence `obj`.  With hi >= 0 each
   must lie in [0, hi), as a kernel indexes an array of that length with it;
   with hi == TO_INF each is read clamped. */
static i64 *as_i64(PyObject *obj, Py_ssize_t len, i64 hi, const char *name)
{
    PyObject *seq = PySequence_Fast(obj, "expected a sequence of ints");
    if (!seq) return NULL;
    i64 *out = NULL;
    if (PySequence_Fast_GET_SIZE(seq) != len) {
        PyErr_Format(PyExc_ValueError, "%s has %zd entries, expected %zd",
                     name, PySequence_Fast_GET_SIZE(seq), len);
        goto fail;
    }
    if (!(out = zalloc(len, sizeof(i64)))) goto fail;
    for (Py_ssize_t i = 0; i < len; i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(seq, i);
        if (hi == TO_INF ? read_clamped(item, &out[i]) < 0
                         : (out[i] = PyLong_AsLongLong(item)) == -1 && PyErr_Occurred())
            goto fail;
        if (hi >= 0 && (out[i] < 0 || out[i] >= hi)) {
            PyErr_Format(PyExc_ValueError, "%s holds %lld, outside [0, %lld)", name, out[i], hi);
            goto fail;
        }
    }
    Py_DECREF(seq);
    return out;
fail:
    PyMem_Free(out);
    Py_DECREF(seq);
    return NULL;
}

/* Rows of ints in one buffer: row i is flat[off[i]] .. flat[off[i + 1] - 1]. */
typedef struct { i64 *flat; Py_ssize_t *off; } Ragged;

/* Flatten the `nrows` rows of `obj`, each of `width` entries when width >= 0,
   with values bounded as in as_i64. */
static int flatten(PyObject *obj, Py_ssize_t nrows, Py_ssize_t width, i64 hi,
                   const char *name, Ragged *out)
{
    PyObject *rows = PySequence_Fast(obj, "expected a sequence of rows");
    if (!rows) return -1;
    int rc = -1;
    if (PySequence_Fast_GET_SIZE(rows) != nrows) {
        PyErr_Format(PyExc_ValueError, "%s has %zd rows, expected %zd",
                     name, PySequence_Fast_GET_SIZE(rows), nrows);
        goto done;
    }
    if (!(out->off = zalloc(nrows + 1, sizeof(Py_ssize_t)))) goto done;
    for (Py_ssize_t i = 0; i < nrows; i++) {
        PyObject *row = PySequence_Fast_GET_ITEM(rows, i);
        Py_ssize_t len = width >= 0 ? width : PyObject_Length(row);
        i64 *vals = len < 0 ? NULL : as_i64(row, len, hi, name);
        if (!vals) goto done;
        i64 *grown = PyMem_Realloc(out->flat, sizeof(i64) * (out->off[i] + len + 1));
        if (grown) memcpy(grown + out->off[i], vals, sizeof(i64) * len);
        PyMem_Free(vals);
        if (!grown) { PyErr_NoMemory(); goto done; }
        out->flat = grown;
        out->off[i + 1] = out->off[i] + len;
    }
    rc = 0;
done:
    Py_DECREF(rows);
    return rc;
}

/* The constraint arrays both kernels take, one entry per constraint. */
typedef struct { Py_ssize_t C; i64 *kinds, *tvals, *pkinds, *pslopes; Ragged tables; } Cons;

static void cons_free(Cons *c)
{
    PyMem_Free(c->kinds); PyMem_Free(c->tvals); PyMem_Free(c->pkinds); PyMem_Free(c->pslopes);
    PyMem_Free(c->tables.flat); PyMem_Free(c->tables.off);
}

static int cons_load(Cons *c, PyObject *kinds, PyObject *tvals, PyObject *pkinds,
                     PyObject *pslopes, PyObject *ptables)
{
    if ((c->C = PyObject_Length(kinds)) < 0
        || !(c->kinds = as_i64(kinds, c->C, -1, "kinds"))
        || !(c->tvals = as_i64(tvals, c->C, -1, "tvals"))
        || !(c->pkinds = as_i64(pkinds, c->C, -1, "pkinds"))
        || !(c->pslopes = as_i64(pslopes, c->C, -1, "pslopes"))
        || flatten(ptables, c->C, -1, -1, "ptables", &c->tables) < 0)
        return -1;
    for (Py_ssize_t i = 0; i < c->C; i++) {
        if (c->pkinds[i] == 1 && c->tables.off[i + 1] == c->tables.off[i]) {
            PyErr_Format(PyExc_ValueError, "ptables[%zd] is empty", i);
            return -1;
        }
    }
    return 0;
}

/* Penalty of constraint i at excess z: its table, continued past the end by
   the slope, when pkind is 1, and the slope otherwise; 0 for z <= 0. */
static inline i64 penalty(const Cons *c, Py_ssize_t i, i64 z)
{
    if (z <= 0) return 0;
    if (c->pkinds[i] != 1) return c->pslopes[i] * z;
    const i64 *tab = c->tables.flat + c->tables.off[i];
    i64 tl = c->tables.off[i + 1] - c->tables.off[i];
    return z <= tl ? tab[z - 1] : tab[tl - 1] + c->pslopes[i] * (z - tl);
}

/* Lower bound on the constraint weight of every profile below node j, from
   the running counters and the remaining budget b; *mono gets the part that
   never falls as counts grow.  At a leaf it is the exact weight. */
static inline i64 node_bound(const Cons *c, const i64 *cntA, const i64 *cntB,
                             i64 m_assigned, const i64 *last, Py_ssize_t j, i64 b,
                             int leaf, i64 *mono)
{
    i64 mo = 0, rest = 0, z;
    for (Py_ssize_t i = 0; i < c->C; i++) {
        switch (c->kinds[i]) {
        case 0: z = cntA[i]; break;  /* shared users */
        case 1: z = cntA[i] >= cntB[i] ? cntA[i] : cntB[i]; break;  /* one-sided max */
        case 2: rest += leaf && cntA[i] == 0 && cntB[i] == 0 ? c->tvals[i] : 0; continue;  /* equal */
        case 3: rest += leaf && cntA[i] == 0 ? c->tvals[i] : 0; continue;  /* disjoint */
        case 4: z = cntA[i] - c->tvals[i]; break;  /* cardinality above t */
        case 5:  /* cardinality below t, less what may still come */
            rest += penalty(c, i, c->tvals[i] - cntA[i] - (j <= last[i] ? b : 0));
            continue;
        default:  /* assigned-user count */
            z = m_assigned;
            if (c->pkinds[i] == 2) { mo += z * z; continue; }
        }
        mo += penalty(c, i, z);
    }
    *mono = mo;
    return mo + rest;
}

/* The summed user_count terms at m assigned users. */
static inline i64 users_weight(const Cons *c, i64 m)
{
    i64 w = 0;
    for (Py_ssize_t i = 0; i < c->C; i++)
        if (c->kinds[i] == 6) w += c->pkinds[i] == 2 ? m * m : penalty(c, i, m);
    return w;
}

/* The least (*lo) and largest (*hi) penalty step penalty(i, z + 1) -
   penalty(i, z), z >= 0: the table's steps from 0 and the slope past it. */
static void steps(const Cons *c, Py_ssize_t i, i64 *lo, i64 *hi)
{
    *lo = *hi = c->pslopes[i];
    if (c->pkinds[i] != 1) return;
    i64 prev = 0;
    for (Py_ssize_t p = c->tables.off[i]; p < c->tables.off[i + 1]; p++) {
        i64 d = c->tables.flat[p] - prev;
        prev = c->tables.flat[p];
        if (d < *lo) *lo = d;
        if (d > *hi) *hi = d;
    }
}

/* The coupled bound, tried at an interior node that node_bound keeps: 1 when,
   for every number e = 0..b of users still to place, U(e) + max(F(e), P +
   e * g) >= need, the gap between the incumbent and the never-falling part
   plus the authorization bound.  U(e) is what the user_count terms gain
   from m to m + e users, F(e) the card_lb part with e in place of b, P the
   card_lb part with no reduction, and g the least net gain of a remaining
   level (the smallest penalty step of each sod_u it bumps less the largest
   step of each card_lb it bumps).  A user added raises each count by at
   most one and every penalty is non-decreasing, so both F(e) and P + e * g
   bound what card_lb and the growth of sod_u weigh below the node; U never
   falls as e grows, so U(e) >= need settles the rest. */
static int coupled_cut(const Cons *c, const i64 *cntA, i64 m, const i64 *last,
                       Py_ssize_t j, i64 b, i64 g, i64 need)
{
    i64 u0 = users_weight(c, m), p = 0;
    for (Py_ssize_t i = 0; i < c->C; i++)
        if (c->kinds[i] == 5) p += penalty(c, i, c->tvals[i] - cntA[i]);
    for (i64 e = 0; e <= b; e++) {
        i64 u = users_weight(c, m + e) - u0, f = 0;
        if (u >= need) return 1;
        for (Py_ssize_t i = 0; i < c->C; i++)
            if (c->kinds[i] == 5)
                f += penalty(c, i, c->tvals[i] - cntA[i] - (j <= last[i] ? e : 0));
        i64 pg = p + e * g;
        if (u + (f >= pg ? f : pg) < need) return 0;
    }
    return 1;
}

/* Constraint weight of a complete relation; rmask[r] holds the users of r. */
static inline i64 relation_weight(const Cons *c, const u64 *rmask, int k,
                                  const i64 *rA, const i64 *rB)
{
    i64 cw = 0, z, z1, z2;
    u64 allm = 0;
    for (Py_ssize_t i = 0; i < c->C; i++) {
        u64 a = rmask[rA[i]], b = rmask[rB[i]];
        switch (c->kinds[i]) {
        case 0: z = __builtin_popcountll(a & b); break;
        case 1:
            z1 = __builtin_popcountll(a & ~b), z2 = __builtin_popcountll(b & ~a);
            z = z1 >= z2 ? z1 : z2;
            break;
        case 2: cw += a == b ? c->tvals[i] : 0; continue;
        case 3: cw += !(a & b) ? c->tvals[i] : 0; continue;
        case 4: z = __builtin_popcountll(a) - c->tvals[i]; break;
        case 5: z = c->tvals[i] - __builtin_popcountll(a); break;
        default:
            for (int r = 0; r < k; r++) allm |= rmask[r];
            z = __builtin_popcountll(allm);
            if (c->pkinds[i] == 2) { cw += z * z; continue; }
        }
        cw += penalty(c, i, z);
    }
    return cw;
}

/* cnt[i] += d for every constraint i in row j of cls. */
static inline void bump(const Ragged *cls, Py_ssize_t j, i64 *cnt, i64 d)
{
    for (Py_ssize_t p = cls->off[j]; p < cls->off[j + 1]; p++)
        cnt[cls->flat[p]] += d;
}

/* *inc = min(*inc, evaluate(pairs, cw)), the return read clamped, with the
   nonzero counts val[0:j] as (level, count) tuples.  -1 on error. */
static int evaluate_leaf(PyObject *evaluate, const i64 *val, Py_ssize_t j,
                         i64 cw, i64 *inc)
{
    PyObject *pairs = PyList_New(0);
    for (Py_ssize_t i = 0; pairs && i < j; i++) {
        if (!val[i]) continue;
        PyObject *pair = Py_BuildValue("(nL)", i, val[i]);
        if (!pair || PyList_Append(pairs, pair) < 0) Py_CLEAR(pairs);
        Py_XDECREF(pair);
    }
    if (!pairs) return -1;
    PyObject *r = PyObject_CallFunction(evaluate, "OL", pairs, cw);
    Py_DECREF(pairs);
    i64 v;
    int rc = r ? read_clamped(r, &v) : -1;
    Py_XDECREF(r);
    if (rc < 0) return -1;
    if (v < *inc) *inc = v;
    return 0;
}

static PyObject *profile_search(PyObject *Py_UNUSED(self), PyObject *args)
{
    int k;
    i64 ell;
    PyObject *subs_o, *cheap_o, *kinds, *tvals, *pkinds, *pslopes, *ptables;
    PyObject *clsA_o, *clsB_o, *sufun_o, *evaluate;
    if (!PyArg_ParseTuple(args, "iLOOOOOOOOOOO:profile_search", &k, &ell,
                          &subs_o, &cheap_o, &kinds, &tvals, &pkinds, &pslopes,
                          &ptables, &clsA_o, &clsB_o, &sufun_o, &evaluate))
        return NULL;
    if (k < 0 || k > 63) return PyErr_Format(PyExc_ValueError, "k=%d is outside 0..63", k);
    if (ell < 0 || ell >= PY_SSIZE_T_MAX)
        return PyErr_Format(PyExc_ValueError, "ell=%lld is out of range", ell);
    Py_ssize_t M = PyObject_Length(subs_o);
    if (M < 0) return NULL;
    Cons cons = {0}; Ragged cheap = {0}, clsA = {0}, clsB = {0};
    i64 *subs = NULL, *sufun = NULL, *last = NULL, *cntA = NULL, *cntB = NULL;
    i64 *val = NULL, *budb = NULL, *g = NULL;
    i128 *olbb = NULL;  /* sums of entries up to C_INF each, exact */
    u64 *covb = NULL;
    PyObject *result = NULL;
    if (cons_load(&cons, kinds, tvals, pkinds, pslopes, ptables) < 0
        || !(subs = as_i64(subs_o, M, -1, "subs"))
        || flatten(cheap_o, M, ell + 1, TO_INF, "cheap", &cheap) < 0
        || !(sufun = as_i64(sufun_o, M + 1, -1, "sufun"))
        || flatten(clsA_o, M, -1, cons.C, "clsA", &clsA) < 0
        || flatten(clsB_o, M, -1, cons.C, "clsB", &clsB) < 0
        || !(last = zalloc(cons.C, sizeof(i64)))  /* the last level bumping counter A */
        || !(cntA = zalloc(cons.C, sizeof(i64)))
        || !(cntB = zalloc(cons.C, sizeof(i64)))
        || !(val = zalloc(M + 1, sizeof(i64)))
        || !(budb = zalloc(M + 2, sizeof(i64)))  /* budget entering each level */
        || !(covb = zalloc(M + 2, sizeof(u64)))  /* coverage mask entering each level */
        || !(olbb = zalloc(M + 2, sizeof(i128)))  /* authorization lower bound entering each level */
        || !(g = zalloc(M, sizeof(i64))))  /* the least net gain of a level j' >= j */
        goto done;
    for (Py_ssize_t i = 0; i < cons.C; i++) last[i] = -1;
    for (Py_ssize_t j = 0; j < M; j++)
        for (Py_ssize_t p = clsA.off[j]; p < clsA.off[j + 1]; p++) last[clsA.flat[p]] = j;
    for (Py_ssize_t j = M - 1; j >= 0; j--) {
        i64 net = 0, lo, hi;
        for (Py_ssize_t p = clsA.off[j]; p < clsA.off[j + 1]; p++) {
            Py_ssize_t i = clsA.flat[p];
            steps(&cons, i, &lo, &hi);
            if (cons.kinds[i] == 0) net += lo;
            else if (cons.kinds[i] == 5) net -= hi;
        }
        g[j] = j == M - 1 || net < g[j + 1] ? net : g[j + 1];
    }
    const u64 full = ((u64)1 << k) - 1;
    i64 m_assigned = 0, leaves = 0, nodes = 0, cuts = 0, inc = C_INF;
    int stop = 0;  /* the parent level's count loop ends */
    budb[0] = ell;
    Py_ssize_t j = 0;
    int down = 1;
    while (1) {
        if (down) {
            nodes++;
            i64 b = budb[j];
            u64 cov = covb[j];
            int leaf = b == 0 || j == M;
            if (leaf ? cov != full : (full & ~(cov | (u64)sufun[j])) != 0) {
                down = 0; j--; continue;
            }
            i64 mono, bound = node_bound(&cons, cntA, cntB, m_assigned, last, j, b, leaf, &mono);
            i128 olb = olbb[j];
            if (mono + olb >= inc) {
                cuts++;
                stop = 1;
            } else if (leaf) {
                leaves++;
                if (bound + olb < inc && evaluate_leaf(evaluate, val, j, bound, &inc) < 0)
                    goto done;
            } else if (bound + olb >= inc
                       || coupled_cut(&cons, cntA, m_assigned, last, j, b, g[j], (i64)(inc - mono - olb))) {
                cuts++;
            } else {
                val[j] = 0;
                covb[j + 1] = cov;
                budb[j + 1] = b;
                olbb[j + 1] = olb;
                j++;
                continue;
            }
            down = 0; j--; continue;
        }
        /* backtracking */
        if (j < 0) break;
        i64 c = val[j];
        if (c) { bump(&clsA, j, cntA, -c); bump(&clsB, j, cntB, -c); m_assigned -= c; }
        if (stop || c >= budb[j]) { stop = 0; val[j] = 0; j--; continue; }
        c++;
        val[j] = c;
        bump(&clsA, j, cntA, c);
        bump(&clsB, j, cntB, c);
        m_assigned += c;
        budb[j + 1] = budb[j] - c;
        covb[j + 1] = covb[j] | (u64)subs[j];
        olbb[j + 1] = olbb[j] + cheap.flat[cheap.off[j] + c];
        j++;
        down = 1;
    }
    result = Py_BuildValue("(LLLL)", leaves, inc, nodes, cuts);
done:
    cons_free(&cons);
    PyMem_Free(cheap.flat); PyMem_Free(cheap.off);
    PyMem_Free(clsA.flat); PyMem_Free(clsA.off); PyMem_Free(clsB.flat); PyMem_Free(clsB.off);
    PyMem_Free(subs); PyMem_Free(sufun); PyMem_Free(last); PyMem_Free(cntA); PyMem_Free(cntB);
    PyMem_Free(val); PyMem_Free(budb); PyMem_Free(covb); PyMem_Free(olbb); PyMem_Free(g);
    return result;
}

static PyObject *brute_search(PyObject *Py_UNUSED(self), PyObject *args)
{
    int n, k;
    PyObject *subs_o, *otab_o, *kinds, *rA_o, *rB_o, *tvals, *pkinds, *pslopes, *ptables;
    if (!PyArg_ParseTuple(args, "iiOOOOOOOOO:brute_search", &n, &k, &subs_o,
                          &otab_o, &kinds, &rA_o, &rB_o, &tvals, &pkinds,
                          &pslopes, &ptables))
        return NULL;
    if (n < 0 || n > 64 || k < 0 || k > 63)
        return PyErr_Format(PyExc_ValueError, "n=%d or k=%d is outside 0..64 or 0..63", n, k);
    Py_ssize_t S = PyObject_Length(subs_o);
    if (S < 0) return NULL;
    if (S == 0 && n > 0) return PyErr_Format(PyExc_ValueError, "subs_all is empty");
    Cons cons = {0}; Ragged otab = {0};
    i64 *subs = NULL, *rA = NULL, *rB = NULL, *val = NULL, *best = NULL, *omb = NULL;
    u64 *rmask = NULL;
    PyObject *result = NULL;
    if (cons_load(&cons, kinds, tvals, pkinds, pslopes, ptables) < 0
        || !(subs = as_i64(subs_o, S, -1, "subs_all"))
        /* relation_weight reads rmask[rA[i]] and rmask[rB[i]] for every i */
        || !(rA = as_i64(rA_o, cons.C, k ? k : 1, "rA"))
        || !(rB = as_i64(rB_o, cons.C, k ? k : 1, "rB"))
        || flatten(otab_o, n, S, TO_INF, "otab", &otab) < 0
        || !(rmask = zalloc(k, sizeof(u64)))
        || !(val = zalloc(n + 1, sizeof(i64)))
        || !(best = zalloc(n, sizeof(i64)))
        || !(omb = zalloc(n + 2, sizeof(i64))))  /* authorization cost entering each level */
        goto done;
    /* as in _ref.py, bits from k up name no resource */
    for (Py_ssize_t s = 0; s < S; s++) subs[s] &= ((u64)1 << k) - 1;
    i64 inc = C_INF, leaves = 0;
    Py_ssize_t j = 0;
    int down = 1;
    while (1) {
        if (down) {
            if (j == n) {
                leaves++;
                int complete = 1;
                for (int r = 0; r < k && complete; r++) complete = rmask[r] != 0;
                if (complete) {
                    i64 total = omb[n] + relation_weight(&cons, rmask, k, rA, rB);
                    if (total < inc) {
                        inc = total;
                        memcpy(best, val, sizeof(i64) * n);
                    }
                }
                down = 0; j--; continue;
            }
            val[j] = 0;  /* empty set first; costs nothing */
            omb[j + 1] = omb[j];
            j++;
            continue;
        }
        if (j < 0) break;
        i64 s = val[j];
        u64 ubit = (u64)1 << j;
        for (u64 m = (u64)subs[s]; m; m &= m - 1) rmask[__builtin_ctzll(m)] &= ~ubit;
        s++;
        i64 b = omb[j];
        const i64 *row = otab.flat + otab.off[j];
        while (s < S && b + row[s] >= inc) s++;
        if (s >= S) { val[j] = 0; j--; continue; }
        val[j] = s;
        for (u64 m = (u64)subs[s]; m; m &= m - 1) rmask[__builtin_ctzll(m)] |= ubit;
        omb[j + 1] = b + row[s];
        j++;
        down = 1;
    }
    /* best stays None when no complete relation exists (inc is still INF) */
    PyObject *best_o = inc < C_INF ? PyList_New(n) : Py_NewRef(Py_None);
    for (Py_ssize_t i = 0; best_o && inc < C_INF && i < n; i++) {
        PyObject *v = PyLong_FromLongLong(best[i]);
        if (!v) Py_CLEAR(best_o);
        else PyList_SET_ITEM(best_o, i, v);
    }
    if (best_o) result = Py_BuildValue("(LNL)", inc, best_o, leaves);
done:
    cons_free(&cons);
    PyMem_Free(otab.flat); PyMem_Free(otab.off); PyMem_Free(subs); PyMem_Free(rA);
    PyMem_Free(rB); PyMem_Free(rmask); PyMem_Free(val); PyMem_Free(best); PyMem_Free(omb);
    return result;
}

/* The plan walk's inputs and state; see _ref.plan_search. */
typedef struct {
    Py_ssize_t K, n;
    Ragged pairs, groups, incs;  /* flat triples per step; increments per disjoint */
    i64 *rest;
    int bounded;
    PyObject *block_min, *leaf;
    i64 *rgs;  /* block of each placed step */
    u64 *blocks;  /* step mask of each block; 0 past the open ones */
    i64 *hits;  /* blocks meeting both groups, per disjoint constraint */
    i64 *mins;  /* block mask -> min(block_min(mask), INF) once known */
    unsigned char *known;
    i64 inc, nodes, leaves, bound_cuts, matchings;
} Plan;

/* *m = the minimum of block bm, from block_min on its first use. */
static int plan_minimum(Plan *P, u64 bm, i64 *m)
{
    if (!P->known[bm]) {
        PyObject *r = PyObject_CallFunction(P->block_min, "K", bm);
        int rc = r ? read_clamped(r, &P->mins[bm]) : -1;
        Py_XDECREF(r);
        if (rc < 0) return -1;
        P->known[bm] = 1;
    }
    *m = P->mins[bm];
    return 0;
}

/* Whether block old | bit newly meets both groups of the triple at q. */
static inline int plan_meets(const i64 *q, u64 old, u64 new)
{
    u64 a = (u64)q[1], b = (u64)q[2];
    return (new & a) && (new & b) && !((old & a) && (old & b));
}

static int plan_visit(Plan *P, Py_ssize_t i, Py_ssize_t p, i128 cw, i128 bw)
{
    /* bw: the sum of the open blocks' minima when bounded, else 0; an
       argument, so a return restores the parent's sum */
    P->nodes++;
    if (i == P->K) {
        P->leaves++;
        if (!P->bounded) {
            for (Py_ssize_t g = 0; g < p; g++) {
                i64 m;
                if (plan_minimum(P, P->blocks[g], &m) < 0) return -1;
                bw += m;
            }
        }
        if (cw + bw >= P->inc) { P->bound_cuts++; return 0; }
        P->matchings++;
        PyObject *blocks = PyList_New(p);
        for (Py_ssize_t g = 0; blocks && g < p; g++) {
            PyObject *v = PyLong_FromUnsignedLongLong(P->blocks[g]);
            if (!v) Py_CLEAR(blocks);
            else PyList_SET_ITEM(blocks, g, v);
        }
        if (!blocks) return -1;
        PyObject *r = PyObject_CallFunction(P->leaf, "NL", blocks, (i64)cw);
        i64 v;
        int rc = r ? read_clamped(r, &v) : -1;
        Py_XDECREF(r);
        if (rc < 0) return -1;
        if (v < P->inc) P->inc = v;
        return 0;
    }
    u64 bit = (u64)1 << i;
    i64 after = P->rest[i + 1];
    const i64 *pi = P->pairs.flat + P->pairs.off[i], *pend = P->pairs.flat + P->pairs.off[i + 1];
    const i64 *gi = P->groups.flat + P->groups.off[i], *gend = P->groups.flat + P->groups.off[i + 1];
    for (Py_ssize_t g = 0; g < (p < P->n ? p + 1 : p); g++) {
        i128 x = cw;
        for (const i64 *q = pi; q < pend; q += 3)
            if ((P->rgs[q[0]] == g) != (q[2] != 0)) x += q[1];
        u64 old = P->blocks[g], new = old | bit;
        for (const i64 *q = gi; q < gend; q += 3) {
            if (!plan_meets(q, old, new)) continue;
            i64 h = P->hits[q[0]];
            if (h >= P->K) {
                PyErr_Format(PyExc_ValueError, "disjoint constraint %lld met past %zd blocks",
                             q[0], P->K);
                return -1;
            }
            x += P->incs.flat[P->incs.off[q[0]] + h];
            P->hits[q[0]] = h + 1;
        }
        if (x < P->inc) {
            i128 nbw = 0;
            if (P->bounded) {
                /* min(new) >= min(old), so a child that old's minimum
                   already cuts needs no minimum for new */
                nbw = bw;
                if (x + bw + after < P->inc) {
                    i64 m;
                    if (plan_minimum(P, new, &m) < 0) return -1;
                    nbw = bw - P->mins[old] + m;
                }
            }
            if (x + nbw + after < P->inc) {
                P->rgs[i] = g;
                P->blocks[g] = new;
                if (plan_visit(P, i + 1, p + (g == p), x, nbw) < 0) return -1;
                P->blocks[g] = old;
            } else {
                P->bound_cuts++;
            }
        }
        for (const i64 *q = gi; q < gend; q += 3)
            if (plan_meets(q, old, new)) P->hits[q[0]]--;
    }
    return 0;
}

/* The largest K whose block-minimum table (2^K entries) a walk allocates. */
#define PLAN_MAX_STEPS 24

static PyObject *plan_search(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_ssize_t n;
    int bounded;
    PyObject *pairs_o, *groups_o, *incs_o, *rest_o;
    Plan P = {0};
    if (!PyArg_ParseTuple(args, "nOOOOpOO:plan_search", &n, &pairs_o, &groups_o,
                          &incs_o, &rest_o, &bounded, &P.block_min, &P.leaf))
        return NULL;
    if ((P.K = PyObject_Length(pairs_o)) < 0) return NULL;
    Py_ssize_t D = PyObject_Length(incs_o);
    if (D < 0) return NULL;
    if (n < 0) return PyErr_Format(PyExc_ValueError, "n=%zd is negative", n);
    if (P.K > PLAN_MAX_STEPS)
        return PyErr_Format(PyExc_ValueError, "%zd steps is more than the %d a walk takes",
                            P.K, PLAN_MAX_STEPS);
    P.n = n;
    P.bounded = bounded;
    PyObject *result = NULL;
    const i64 full = ((i64)1 << P.K);
    if (flatten(pairs_o, P.K, -1, TO_INF, "pairs", &P.pairs) < 0
        || flatten(groups_o, P.K, -1, TO_INF, "groups", &P.groups) < 0
        || flatten(incs_o, D, P.K, TO_INF, "incs", &P.incs) < 0
        || !(P.rest = as_i64(rest_o, P.K + 1, TO_INF, "rest"))
        || !(P.rgs = zalloc(P.K, sizeof(i64)))
        || !(P.blocks = zalloc(P.K, sizeof(u64)))
        || !(P.hits = zalloc(D, sizeof(i64)))
        || !(P.mins = zalloc(full, sizeof(i64)))
        || !(P.known = zalloc(full, 1)))
        goto done;
    /* the triples index rgs with an earlier step and hits and incs with a
       disjoint index; equal is 0 or 1, and a mask's bits lie below K */
    for (Py_ssize_t i = 0; i < P.K; i++) {
        const i64 *t, *pend = P.pairs.flat + P.pairs.off[i + 1];
        const i64 *gend = P.groups.flat + P.groups.off[i + 1];
        int ok = (P.pairs.off[i + 1] - P.pairs.off[i]) % 3 == 0
                 && (P.groups.off[i + 1] - P.groups.off[i]) % 3 == 0;
        for (t = P.pairs.flat + P.pairs.off[i]; ok && t < pend; t += 3)
            ok = t[0] < i && t[2] <= 1;
        for (t = P.groups.flat + P.groups.off[i]; ok && t < gend; t += 3)
            ok = t[0] < D && t[1] < full && t[2] < full;
        if (!ok) {
            PyErr_Format(PyExc_ValueError, "pairs[%zd] or groups[%zd] holds a malformed triple", i, i);
            goto done;
        }
    }
    P.known[0] = 1;  /* mins[0] = 0 */
    P.inc = C_INF;
    if (plan_visit(&P, 0, 0, 0, 0) == 0)
        result = Py_BuildValue("(LLLL)", P.nodes, P.leaves, P.bound_cuts, P.matchings);
done:
    PyMem_Free(P.pairs.flat); PyMem_Free(P.pairs.off); PyMem_Free(P.groups.flat);
    PyMem_Free(P.groups.off); PyMem_Free(P.incs.flat); PyMem_Free(P.incs.off);
    PyMem_Free(P.rest); PyMem_Free(P.rgs); PyMem_Free(P.blocks); PyMem_Free(P.hits);
    PyMem_Free(P.mins); PyMem_Free(P.known);
    return result;
}

/* The most steps a sampled mask spans; see _ref.subset_masks. */
#define MAX_SAMPLE_K 30

/* One SplitMix64 output from state *s; unsigned wraparound is the & _MASK
   of _ref.py. */
static inline u64 splitmix64(u64 *s)
{
    *s += 0x9E3779B97F4A7C15ULL;
    u64 z = (*s ^ (*s >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* (1 << (x - 1).bit_length()) - 1 for x >= 1: the rejection mask of a draw
   below x. */
static inline u64 draw_bits(i64 x)
{
    return x > 1 ? ~(u64)0 >> __builtin_clzll((u64)(x - 1)) : 0;
}

static PyObject *subset_masks(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *in[4], *ints[4] = {NULL, NULL, NULL, NULL}, *result = NULL, *out = NULL;
    if (!PyArg_ParseTuple(args, "OOOO:subset_masks", &in[0], &in[1], &in[2], &in[3]))
        return NULL;
    /* every argument an int first (TypeError), then their ranges (ValueError),
       in _ref.py's order; a value past the int64 range is out of range too */
    for (int a = 0; a < 4; a++)
        if (!(ints[a] = PyNumber_Index(in[a]))) goto done;
    u64 s = PyLong_AsUnsignedLongLong(ints[0]);
    if (s == (u64)-1 && PyErr_Occurred()) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError)) goto done;
        PyErr_SetString(PyExc_ValueError, "state must lie in [0, 2^64)");
        goto done;
    }
    i64 v[3];
    for (int a = 1; a < 4; a++) {
        int over;
        v[a - 1] = PyLong_AsLongLongAndOverflow(ints[a], &over);
        if (v[a - 1] == -1 && PyErr_Occurred()) goto done;
        if (over) v[a - 1] = over > 0 ? LLONG_MAX : LLONG_MIN;
    }
    i64 count = v[0], k = v[1], cmax = v[2];
    if (count < 0) {
        PyErr_SetString(PyExc_ValueError, "count must be non-negative");
        goto done;
    }
    if (k > MAX_SAMPLE_K) {
        PyErr_Format(PyExc_ValueError, "k=%S is more than %d", ints[2], MAX_SAMPLE_K);
        goto done;
    }
    if (!(1 <= cmax && cmax <= k)) {
        PyErr_SetString(PyExc_ValueError, "sample size out of range");
        goto done;
    }
    u64 cbits = draw_bits(cmax);
    /* (span, rejection mask) of the draw at sample position i */
    i64 span[MAX_SAMPLE_K], fresh[MAX_SAMPLE_K], pool[MAX_SAMPLE_K];
    u64 bits[MAX_SAMPLE_K];
    for (i64 i = 0; i < k; i++) {
        span[i] = k - i;
        bits[i] = draw_bits(k - i);
        fresh[i] = i;
    }
    if (!(out = PyList_New((Py_ssize_t)count))) goto done;
    for (Py_ssize_t n = 0; n < (Py_ssize_t)count; n++) {
        i64 c = 1;
        if (cmax > 1) {
            while (1) {
                u64 x = splitmix64(&s) & cbits;
                if (x < (u64)cmax) {
                    c += (i64)x;
                    break;
                }
            }
        }
        memcpy(pool, fresh, sizeof(i64) * k);
        u64 m = 0;
        for (i64 i = 0; i < c; i++) {
            i64 j = i;
            if (span[i] > 1) {
                while (1) {
                    u64 x = splitmix64(&s) & bits[i];
                    if (x < (u64)span[i]) {
                        j += (i64)x;
                        break;
                    }
                }
            }
            i64 t = pool[i]; pool[i] = pool[j]; pool[j] = t;
            m |= (u64)1 << pool[i];
        }
        PyObject *mo = PyLong_FromUnsignedLongLong(m);
        if (!mo) goto done;
        PyList_SET_ITEM(out, n, mo);
    }
    result = Py_BuildValue("(OK)", out, s);
done:
    Py_XDECREF(out);
    for (int a = 0; a < 4; a++) Py_XDECREF(ints[a]);
    return result;
}

/* ---- the user-name index ------------------------------------------------
 *
 * name_index(names) is a NameIndex of a tuple of distinct non-empty
 * strings, or None when the names are not that.  A NameIndex maps each name
 * to its position: a read-only mapping with `in`, [], get, len, keys() (the
 * names as a tuple), iteration in position order, and name(p), the name at
 * position p.  Its table is open addressing over int32 positions, keyed by
 * each name's hash, so it holds 8 to 16 bytes a name and no object per name.
 *
 * An index built from a tuple keeps the tuple, and checks a slot against
 * the str there.  An index the document reader builds (read_head, below)
 * keeps its ASCII names as one byte table plus offsets instead, with no
 * object per name: a slot is checked against the bytes, and a name is
 * hashed as Python hashes an ASCII str (_Py_HashBytes).  Its keys() builds
 * the tuple on the first call and keeps it; name(p) makes one str without
 * building it.
 *
 * A key is found as a dict finds it: same object, or equal hash and ==.
 * Against a byte table an exact str is compared byte for byte, and any
 * other key with == against the name made at each slot of its hash.  An
 * unhashable key raises TypeError.  It has no _ref.py twin: its reference
 * is the dict of model._name_index, which serves under the pure-Python
 * backend.
 */

typedef struct {
    PyObject_HEAD
    Py_ssize_t n;       /* the number of names */
    PyObject *names;    /* the tuple of names; NULL until keys() builds it */
    char *bytes;        /* a reader-built index: name p is bytes[offs[p]:offs[p + 1]] */
    Py_ssize_t *offs;   /* NULL in an index built from a tuple */
    size_t mask;        /* the table's size less one; the size is a power of 2 */
    int32_t *slots;     /* a name's position, or -1 for an empty slot */
} NameIndex;

static PyTypeObject NameIndexType;

static PyObject *ascii_str(const char *p, Py_ssize_t n)
{
    PyObject *u = PyUnicode_New(n, 127);
    if (u) memcpy(PyUnicode_1BYTE_DATA(u), p, n);
    return u;
}

/* The bytes of name p of a reader-built index, *n of them. */
static inline const char *table_name(const NameIndex *ix, Py_ssize_t p, Py_ssize_t *n)
{
    *n = ix->offs[p + 1] - ix->offs[p];
    return ix->bytes + ix->offs[p];
}

/* 1 if name p of a reader-built index is the n bytes at s. */
static inline int same(const NameIndex *ix, Py_ssize_t p, const char *s, Py_ssize_t n)
{
    Py_ssize_t pn;
    const char *ps = table_name(ix, p, &pn);
    return pn == n && memcmp(ps, s, n) == 0;
}

/* A new reference to name p. */
static PyObject *name_at(const NameIndex *ix, Py_ssize_t p)
{
    if (ix->names) return Py_NewRef(PyTuple_GET_ITEM(ix->names, p));
    Py_ssize_t n;
    const char *s = table_name(ix, p, &n);
    return ascii_str(s, n);
}

/* A NameIndex of n names, its slots empty and not yet tracked; NULL with an
   error set. */
static NameIndex *index_new(Py_ssize_t n)
{
    if (n > INT32_MAX / 2) {
        PyErr_Format(PyExc_OverflowError, "%zd names are too many to index", n);
        return NULL;
    }
    size_t size = 8;
    while (size < 2 * (size_t)n) size <<= 1;
    NameIndex *ix = PyObject_GC_New(NameIndex, &NameIndexType);
    if (!ix) return NULL;
    ix->n = n;
    ix->names = NULL;
    ix->bytes = NULL;
    ix->offs = NULL;
    ix->mask = size - 1;
    if (!(ix->slots = PyMem_Malloc(size * sizeof(int32_t)))) {
        Py_DECREF(ix);
        PyErr_NoMemory();
        return NULL;
    }
    memset(ix->slots, 0xff, size * sizeof(int32_t));
    return ix;
}

/* In an index built from a tuple: the position of key, whose hash is h; -1
   if it is absent, with *empty set to the slot it would take when empty is
   given; -2 with an error set. */
static Py_ssize_t tuple_probe(const NameIndex *ix, PyObject *key, Py_hash_t h, int32_t **empty)
{
    for (size_t i = (size_t)h & ix->mask;; i = (i + 1) & ix->mask) {
        int32_t p = ix->slots[i];
        if (p < 0) {
            if (empty) *empty = &ix->slots[i];
            return -1;
        }
        PyObject *name = PyTuple_GET_ITEM(ix->names, p);
        if (name == key) return p;
        Py_hash_t hn = PyObject_Hash(name);  /* cached in a str */
        if (hn == -1) return -2;
        if (hn != h) continue;
        int eq = PyObject_RichCompareBool(name, key, Py_EQ);
        if (eq) return eq > 0 ? p : -2;
    }
}

/* In a reader-built index: the position of the n bytes at s, whose hash is
   h; -1 if they are absent, with *empty set as in tuple_probe. */
static Py_ssize_t table_probe(const NameIndex *ix, const char *s, Py_ssize_t n, Py_hash_t h,
                              int32_t **empty)
{
    for (size_t i = (size_t)h & ix->mask;; i = (i + 1) & ix->mask) {
        int32_t p = ix->slots[i];
        if (p < 0) {
            if (empty) *empty = &ix->slots[i];
            return -1;
        }
        if (same(ix, p, s, n)) return p;
    }
}

/* The position of key, -1 if it is absent, -2 with an error set. */
static Py_ssize_t index_find(const NameIndex *ix, PyObject *key)
{
    Py_hash_t h = PyObject_Hash(key);
    if (h == -1) return -2;
    if (!ix->bytes) return tuple_probe(ix, key, h, NULL);
    if (PyUnicode_CheckExact(key)) {
        /* equal to an ASCII name only when it is ASCII and holds its bytes */
        if (PyUnicode_READY(key) < 0) return -2;
        if (!PyUnicode_IS_ASCII(key)) return -1;
        return table_probe(ix, (const char *)PyUnicode_1BYTE_DATA(key), PyUnicode_GET_LENGTH(key),
                           h, NULL);
    }
    for (size_t i = (size_t)h & ix->mask;; i = (i + 1) & ix->mask) {
        int32_t p = ix->slots[i];
        if (p < 0) return -1;
        Py_ssize_t n;
        const char *s = table_name(ix, p, &n);
        if (_Py_HashBytes(s, n) != h) continue;
        PyObject *name = ascii_str(s, n);
        int eq = name ? PyObject_RichCompareBool(name, key, Py_EQ) : -1;
        Py_XDECREF(name);
        if (eq) return eq > 0 ? p : -2;
    }
}

/* The NameIndex of the tuple names; NULL with no error set when a name is
   not a non-empty str or is repeated. */
static PyObject *index_build(PyObject *names)
{
    NameIndex *ix = index_new(PyTuple_GET_SIZE(names));
    if (!ix) return NULL;
    ix->names = Py_NewRef(names);
    for (Py_ssize_t p = 0; p < ix->n; p++) {
        PyObject *name = PyTuple_GET_ITEM(names, p);
        int32_t *slot;
        if (!PyUnicode_Check(name) || PyUnicode_GET_LENGTH(name) == 0) goto bad;
        Py_hash_t h = PyObject_Hash(name);
        Py_ssize_t at = h == -1 ? -2 : tuple_probe(ix, name, h, &slot);
        if (at == -2) {
            Py_DECREF(ix);
            return NULL;
        }
        if (at >= 0) goto bad;  /* a repeat */
        *slot = (int32_t)p;
    }
    PyObject_GC_Track(ix);
    return (PyObject *)ix;
bad:
    Py_DECREF(ix);
    return NULL;
}

/* The NameIndex of the n non-empty names in bytes and offs, whose buffers
   it takes (and frees on failure); NULL with no error set when a name is
   repeated. */
static PyObject *table_build(char *bytes, Py_ssize_t *offs, Py_ssize_t n)
{
    NameIndex *ix = index_new(n);
    if (!ix) {
        PyMem_Free(bytes);
        PyMem_Free(offs);
        return NULL;
    }
    ix->bytes = bytes;
    ix->offs = offs;
    for (Py_ssize_t p = 0; p < n; p++) {
        Py_ssize_t len;
        const char *s = table_name(ix, p, &len);
        int32_t *slot;
        if (table_probe(ix, s, len, _Py_HashBytes(s, len), &slot) >= 0) {
            Py_DECREF(ix);  /* a repeat */
            return NULL;
        }
        *slot = (int32_t)p;
    }
    PyObject_GC_Track(ix);
    return (PyObject *)ix;
}

static PyObject *name_index(PyObject *Py_UNUSED(self), PyObject *arg)
{
    PyObject *names = PySequence_Tuple(arg);
    if (!names) return NULL;
    PyObject *ix = index_build(names);
    Py_DECREF(names);
    return ix || PyErr_Occurred() ? ix : Py_NewRef(Py_None);
}

static void index_dealloc(NameIndex *ix)
{
    PyObject_GC_UnTrack(ix);
    Py_XDECREF(ix->names);
    PyMem_Free(ix->bytes);
    PyMem_Free(ix->offs);
    PyMem_Free(ix->slots);
    PyObject_GC_Del(ix);
}

static int index_traverse(NameIndex *ix, visitproc visit, void *arg)
{
    Py_VISIT(ix->names);
    return 0;
}

static Py_ssize_t index_len(NameIndex *ix)
{
    return ix->n;
}

static PyObject *index_getitem(NameIndex *ix, PyObject *key)
{
    Py_ssize_t p = index_find(ix, key);
    if (p >= 0) return PyLong_FromSsize_t(p);
    if (p == -1) {
        /* as a dict raises it: a tuple key shows as itself */
        PyObject *args = PyTuple_Pack(1, key);
        if (args) PyErr_SetObject(PyExc_KeyError, args);
        Py_XDECREF(args);
    }
    return NULL;
}

static int index_contains(NameIndex *ix, PyObject *key)
{
    Py_ssize_t p = index_find(ix, key);
    return p >= 0 ? 1 : p == -1 ? 0 : -1;
}

static PyObject *index_get(NameIndex *ix, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1 || nargs > 2)
        return PyErr_Format(PyExc_TypeError, "get expected 1 or 2 arguments, got %zd", nargs);
    Py_ssize_t p = index_find(ix, args[0]);
    if (p >= 0) return PyLong_FromSsize_t(p);
    return p == -1 ? Py_NewRef(nargs > 1 ? args[1] : Py_None) : NULL;
}

static PyObject *index_keys(NameIndex *ix, PyObject *Py_UNUSED(ignored))
{
    if (!ix->names) {
        PyObject *names = PyTuple_New(ix->n);
        for (Py_ssize_t p = 0; names && p < ix->n; p++) {
            PyObject *name = name_at(ix, p);
            if (!name) Py_CLEAR(names);
            else PyTuple_SET_ITEM(names, p, name);
        }
        if (!names) return NULL;
        ix->names = names;
    }
    return Py_NewRef(ix->names);
}

static PyObject *index_name(NameIndex *ix, PyObject *arg)
{
    Py_ssize_t p = PyNumber_AsSsize_t(arg, PyExc_IndexError);
    if (p == -1 && PyErr_Occurred()) return NULL;
    if (p < 0 || p >= ix->n)
        return PyErr_Format(PyExc_IndexError, "name position %zd is outside [0, %zd)", p, ix->n);
    return name_at(ix, p);
}

static PyObject *index_iter(NameIndex *ix)
{
    PyObject *names = index_keys(ix, NULL);
    PyObject *it = names ? PyObject_GetIter(names) : NULL;
    Py_XDECREF(names);
    return it;
}

static PyMethodDef index_methods[] = {
    {"get", (PyCFunction)(void (*)(void))index_get, METH_FASTCALL,
     "The position of a name, or the default (None)."},
    {"keys", (PyCFunction)index_keys, METH_NOARGS,
     "The names as a tuple, built on the first call by a reader-built index."},
    {"name", (PyCFunction)index_name, METH_O,
     "The name at a position, made without building keys()."},
    {NULL, NULL, 0, NULL},
};

static PyMappingMethods index_mapping = {
    .mp_length = (lenfunc)index_len, .mp_subscript = (binaryfunc)index_getitem};

static PySequenceMethods index_sequence = {.sq_contains = (objobjproc)index_contains};

static PyTypeObject NameIndexType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "vapep._kernels._core.NameIndex",
    .tp_doc = "A read-only name -> position mapping; see name_index.",
    .tp_basicsize = sizeof(NameIndex),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_dealloc = (destructor)index_dealloc,
    .tp_traverse = (traverseproc)index_traverse,
    .tp_as_mapping = &index_mapping,
    .tp_as_sequence = &index_sequence,
    .tp_iter = (getiterfunc)index_iter,
    .tp_methods = index_methods,
};

/* ---- instance and plan documents ----------------------------------------
 *
 * read_head(data, names_key, scan_once, cap) reads an instance document
 * (names_key "resources") or a plan document ("steps") from the bytes of its
 * file, without building its [user, name] pairs or any object per user.  It
 * reads the top-level object, the users and names lists and the auth object
 * itself, and ORs each pair's name bit straight into its user's mask.  Every
 * other value (constraints, meta, pair_penalty, unknown keys) goes through
 * scan_once, the scanner json.loads runs, as its own ASCII str: the slice a
 * bracket-and-string skip finds (value_end), which scan_once must read to
 * its end.  So each comes out as json.loads gives it.
 *
 * It returns (doc, uindex, masks): doc is the document json.loads gives,
 * less auth.pairs and with uindex in place of the users list; uindex is the
 * users' NameIndex, a byte table (above) built as the users list is read,
 * which also finds a repeated user and the users of pairs out of user
 * order, so no str, list or int is made per user; masks holds each user's
 * authorized mask over the names.  It has no _ref.py twin: its reference is
 * json.loads, on the text a text-mode read of the file gives, followed by
 * model._doc_head.  On anything outside the subset it reads it declines,
 * returning None, and the caller runs the reference:
 *   - a byte of 0x80 or more (text that is not ASCII), or a string it reads
 *     with an escape or a control character in it;
 *   - a duplicate key, a missing users list, names list or auth object, or
 *     auth before the users or the names;
 *   - a user or name that is empty or repeated, or more names than
 *     min(cap, 64);
 *   - a pair that is not a two-string list, or names an unknown user or name;
 *   - a value scan_once does not read to the end of its slice;
 *   - malformed JSON anywhere, or data after the document.
 * It never raises on malformed input: only MemoryError propagates.
 */

/* The bytes being read, the cursor, the length and the scanner of the
   values the reader leaves to json. */
typedef struct { const char *s; Py_ssize_t i, len; PyObject *scan_once; } Doc;

/* The loops below work on local copies of the cursor: the text is chars,
   which may alias d->i, so a loop on d->i would reload it at every byte. */
static inline void skip_ws(Doc *d)
{
    const char *s = d->s;
    Py_ssize_t i = d->i, len = d->len;
    while (i < len && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' || s[i] == '\r')) i++;
    d->i = i;
}

/* Past whitespace, take the byte c if it is next; 1 if it was. */
static inline int take(Doc *d, char c)
{
    skip_ws(d);
    if (d->i < d->len && d->s[d->i] == c) {
        d->i++;
        return 1;
    }
    return 0;
}

/* Past whitespace, an ASCII string with no escape or control character in
   it: its n bytes at *p.  0 if there is none. */
static int plain(Doc *d, const char **p, Py_ssize_t *n)
{
    skip_ws(d);
    const char *s = d->s;
    Py_ssize_t i = d->i, len = d->len;
    if (i >= len || s[i] != '"') return 0;
    for (Py_ssize_t j = i + 1; j < len; j++) {
        unsigned char c = (unsigned char)s[j];
        if (c == '"') {
            *p = s + i + 1;
            *n = j - i - 1;
            d->i = j + 1;
            return 1;
        }
        if (c == '\\' || c < 0x20 || c >= 0x80) return 0;
    }
    return 0;
}

/* Steps through an array or object whose opening byte was taken: 1 if an
   item follows, 0 once the closing byte is taken, -1 on anything else. */
static int more(Doc *d, char close, int *first)
{
    if (*first) {
        *first = 0;
        return take(d, close) ? 0 : 1;
    }
    if (take(d, ',')) return 1;
    return take(d, close) ? 0 : -1;
}

/* A new str of the key's n bytes at p, or NULL when dict holds it already. */
static PyObject *new_key(PyObject *dict, const char *p, Py_ssize_t n)
{
    PyObject *key = ascii_str(p, n);
    if (key && PyDict_Contains(dict, key) != 0) Py_CLEAR(key);
    return key;
}

/* The end of the value at i, as far as strings and brackets tell: past a
   string, or past the bracket that closes an array or object (the strings
   in it skipped), or else at the next ',', ']', '}' or whitespace; -1 if
   the text ends inside a string or an open bracket.  Whether the slice is
   one value is left to scan_once. */
static Py_ssize_t value_end(const char *s, Py_ssize_t i, Py_ssize_t len)
{
    Py_ssize_t depth = 0;
    for (; i < len; i++) {
        switch (s[i]) {
        case '"':
            for (i++; i < len && s[i] != '"'; i++)
                if (s[i] == '\\') i++;
            if (i >= len) return -1;
            break;
        case '[': case '{':
            depth++;
            continue;
        case ']': case '}':
            if (depth == 0) return i;  /* closes what holds the value */
            depth--;
            break;
        case ',': case ' ': case '\n': case '\t': case '\r':
            if (depth == 0) return i;
            continue;
        default:
            continue;
        }
        if (depth == 0) return i + 1;  /* a string or bracket closed at the top */
    }
    return depth ? -1 : len;
}

/* Past whitespace, the value scan_once reads from the slice value_end finds
   there, decoded as ASCII; NULL unless it reads the whole slice. */
static PyObject *scan_value(Doc *d)
{
    skip_ws(d);
    Py_ssize_t end = value_end(d->s, d->i, d->len);
    if (end <= d->i) return NULL;
    PyObject *slice = PyUnicode_DecodeASCII(d->s + d->i, end - d->i, NULL);
    PyObject *got = slice ? PyObject_CallFunction(d->scan_once, "Oi", slice, 0) : NULL;
    PyObject *v = NULL;
    if (got && PyTuple_Check(got) && PyTuple_GET_SIZE(got) == 2
        && PyLong_AsSsize_t(PyTuple_GET_ITEM(got, 1)) == end - d->i) {
        d->i = end;
        v = Py_NewRef(PyTuple_GET_ITEM(got, 0));
    }
    Py_XDECREF(slice);
    Py_XDECREF(got);
    return v;
}

/* Makes room for need items of `size` bytes in *buf, which holds *room;
   -1 with MemoryError set if there is none. */
static int grow(void **buf, Py_ssize_t *room, Py_ssize_t need, size_t size)
{
    if (need <= *room) return 0;
    Py_ssize_t more_room = *room > 16 ? *room : 16;
    while (more_room < need) more_room *= 2;
    void *p = PyMem_Realloc(*buf, more_room * size);
    if (!p) {
        PyErr_NoMemory();
        return -1;
    }
    *buf = p;
    *room = more_room;
    return 0;
}

/* The NameIndex of the array of at most cap plain strings at the cursor,
   kept as a byte table; NULL if it is not read, or a string in it is empty
   or repeated. */
static PyObject *read_names(Doc *d, Py_ssize_t cap)
{
    char *bytes = NULL;
    Py_ssize_t *offs = NULL, n = 0, offs_room = 0, bytes_room = 0;
    int first = 1, step = -1;
    if (!take(d, '[') || grow((void **)&offs, &offs_room, 1, sizeof(Py_ssize_t)) < 0)
        goto fail;
    offs[0] = 0;
    while ((step = more(d, ']', &first)) == 1) {
        const char *p;
        Py_ssize_t len;
        if (n >= cap || !plain(d, &p, &len) || len == 0
            || grow((void **)&offs, &offs_room, n + 2, sizeof(Py_ssize_t)) < 0
            || grow((void **)&bytes, &bytes_room, offs[n] + len, 1) < 0)
            goto fail;
        memcpy(bytes + offs[n], p, len);
        offs[n + 1] = offs[n] + len;
        n++;
    }
    if (step == 0) return table_build(bytes, offs, n);
fail:
    PyMem_Free(bytes);
    PyMem_Free(offs);
    return NULL;
}

/* The names of ix as a list. */
static PyObject *names_list(const NameIndex *ix)
{
    PyObject *list = PyList_New(ix->n);
    for (Py_ssize_t p = 0; list && p < ix->n; p++) {
        PyObject *name = name_at(ix, p);
        if (!name) Py_CLEAR(list);
        else PyList_SET_ITEM(list, p, name);
    }
    return list;
}

/* Reads the pairs array at the cursor, ORing each [user, name] pair's name
   bit into its user's mask.  A pair's user is compared with the user of the
   pair before it and the user after that, and looked up in users
   otherwise.  0 once read, -1 otherwise. */
static int read_pairs(Doc *d, const NameIndex *users, const NameIndex *names, u64 *masks)
{
    Py_ssize_t nu = users->n, nn = names->n, cur = 0;
    int first = 1, step = -1;
    if (!take(d, '[')) return -1;
    while ((step = more(d, ']', &first)) == 1) {
        const char *u, *r;
        Py_ssize_t un, rn, b = 0;
        if (!take(d, '[') || !plain(d, &u, &un) || !take(d, ',') || !plain(d, &r, &rn)
            || !take(d, ']'))
            return -1;
        if (!(cur < nu && same(users, cur, u, un))) {
            if (cur + 1 < nu && same(users, cur + 1, u, un)) {
                cur++;
            } else {
                Py_ssize_t at = table_probe(users, u, un, _Py_HashBytes(u, un), NULL);
                if (at < 0) return -1;
                cur = at;
            }
        }
        while (b < nn && !same(names, b, r, rn)) b++;
        if (b == nn) return -1;
        masks[cur] |= (u64)1 << b;
    }
    return step;
}

/* The auth object at the cursor as a dict of its values other than pairs,
   whose bits go to masks; NULL if it is not read. */
static PyObject *read_auth(Doc *d, const NameIndex *users, const NameIndex *names, u64 *masks)
{
    PyObject *auth = PyDict_New();
    int first = 1, step = -1, pairs = 0;
    if (!auth || !take(d, '{')) goto fail;
    while ((step = more(d, '}', &first)) == 1) {
        const char *p;
        Py_ssize_t n;
        if (!plain(d, &p, &n) || !take(d, ':')) goto fail;
        if (n == 5 && !memcmp(p, "pairs", 5)) {
            if (pairs++ || read_pairs(d, users, names, masks) < 0) goto fail;
            continue;
        }
        PyObject *key = new_key(auth, p, n), *v = key ? scan_value(d) : NULL;
        int ok = v && PyDict_SetItem(auth, key, v) == 0;
        Py_XDECREF(key);
        Py_XDECREF(v);
        if (!ok) goto fail;
    }
    if (step == 0) return auth;
fail:
    Py_XDECREF(auth);
    return NULL;
}

static PyObject *read_head(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *data, *names_key, *scan_once;
    Py_ssize_t cap, key_len;
    if (!PyArg_ParseTuple(args, "SUOn:read_head", &data, &names_key, &scan_once, &cap))
        return NULL;
    const char *key_s = PyUnicode_AsUTF8AndSize(names_key, &key_len);
    if (!key_s) return NULL;
    Doc d = {PyBytes_AS_STRING(data), 0, PyBytes_GET_SIZE(data), scan_once};
    PyObject *doc = PyDict_New(), *users = NULL, *names = NULL;
    PyObject *auth = NULL, *out = NULL, *result = NULL;
    u64 *masks = NULL;
    int first = 1, step = -1;
    if (!doc || !take(&d, '{')) goto done;
    while ((step = more(&d, '}', &first)) == 1) {
        const char *p;
        Py_ssize_t n;
        if (!plain(&d, &p, &n) || !take(&d, ':')) goto done;
        PyObject *key = new_key(doc, p, n), *v = NULL;
        if (!key) goto done;
        /* users and auth stay alive in doc, which holds a list of the names */
        if (n == 5 && !memcmp(p, "users", 5)) {
            v = users = read_names(&d, PY_SSIZE_T_MAX);
        } else if (n == key_len && !memcmp(p, key_s, n)) {
            names = read_names(&d, cap < 64 ? cap : 64);
            v = names ? names_list((NameIndex *)names) : NULL;
        } else if (n == 4 && !memcmp(p, "auth", 4)) {
            if (users && names && (masks = zalloc(((NameIndex *)users)->n, sizeof(u64))))
                v = auth = read_auth(&d, (NameIndex *)users, (NameIndex *)names, masks);
        } else {
            v = scan_value(&d);
        }
        int ok = v && PyDict_SetItem(doc, key, v) == 0;
        Py_DECREF(key);
        Py_XDECREF(v);
        if (!ok) goto done;
    }
    skip_ws(&d);
    if (step != 0 || d.i != d.len || !auth) goto done;
    Py_ssize_t nu = ((NameIndex *)users)->n;
    if (!(out = PyList_New(nu))) goto done;
    for (Py_ssize_t u = 0; u < nu; u++) {
        PyObject *m = PyLong_FromUnsignedLongLong(masks[u]);
        if (!m) goto done;
        PyList_SET_ITEM(out, u, m);
    }
    result = PyTuple_Pack(3, doc, users, out);
done:
    Py_XDECREF(doc);
    Py_XDECREF(names);
    Py_XDECREF(out);
    PyMem_Free(masks);
    if (result || (PyErr_Occurred() && PyErr_ExceptionMatches(PyExc_MemoryError)))
        return result;
    PyErr_Clear();
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"name_index", name_index, METH_O,
     "The NameIndex of distinct non-empty strings, or None; see model._user_index."},
    {"profile_search", profile_search, METH_VARARGS, "Compiled twin of _ref.profile_search."},
    {"brute_search", brute_search, METH_VARARGS, "Compiled twin of _ref.brute_search."},
    {"plan_search", plan_search, METH_VARARGS, "Compiled twin of _ref.plan_search."},
    {"subset_masks", subset_masks, METH_VARARGS, "Compiled twin of _ref.subset_masks."},
    {"read_head", read_head, METH_VARARGS,
     "An instance or plan document read from its bytes, or None; see model._load_doc."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {.m_base = PyModuleDef_HEAD_INIT, .m_size = -1,
    .m_name = "vapep._kernels._core", .m_doc = "Compiled kernels.", .m_methods = methods};

PyMODINIT_FUNC PyInit__core(void)
{
    if (PyType_Ready(&NameIndexType) < 0) return NULL;
    PyObject *m = PyModule_Create(&module);
    if (m && PyModule_AddObjectRef(m, "NameIndex", (PyObject *)&NameIndexType) < 0) Py_CLEAR(m);
    /* the backend label: meta.backend in the canonical solver output reads
       it, and pinned outputs hold "cython", the name of the earlier build */
    if (m && PyModule_AddStringConstant(m, "NAME", "cython") < 0) Py_CLEAR(m);
    return m;
}
