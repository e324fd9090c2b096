/* Compiled scan kernel, a hand-written CPython extension.

   Exhaustively enumerates freely reduced words over the signed generators
   x_0..x_max_index up to a length bound, and checks at every node that the
   normal-form engine's output is canonical and denotes the same dyadic PL
   homeomorphism of [0, 1] as the word itself (the Cannon-Floyd-Parry model
   of F).  The contract is that of _scan_py.thompson_agreement_scan; the
   report is tagged "compiled".

   Arithmetic is exact: coordinates are integer multiples of 2^-EXP held in
   int64, slopes are powers of two, and every shift is checked to drop no
   bits, so a map that leaves the grid raises ArithmeticError and a map or
   normal form that outgrows its array raises OverflowError; neither can
   produce a result.  Two maps compose in one merge of their breakpoints
   along the middle axis, as in _scan_py._compose; a composed piece's slope
   exponent is the sum of its factors', so a collinear point is overwritten
   as the merge passes it and the result is canonical as it is built.

   Bit budget.  The generator x_n has its breakpoints on the grid 2^-(n+2)
   Z, and a letter map (slopes 1/2, 1, 2) and its inverse send the grid
   2^-b Z into 2^-(b+1) Z once b >= n + 2.  So every breakpoint and value
   of a product of L letters with indices <= n lies on 2^-(n+2+L) Z.  The
   kernel builds generators up to index ngen - 1 = max_index + max_len + 2
   (the engine's shifts raise an index by fewer than max_len, the rest is
   headroom) and composes at most max_len letters per map, so it needs
   max_index + 2 * max_len + 4 <= EXP bits.  Intermediate values stay below
   2^(EXP+1) (seg_exp overshoots a difference by less than a factor two),
   so EXP = 48 leaves int64 fourteen bits of headroom.

   Unreduced words are covered for free: the engine reduces eagerly, so
   every raw word's normal form factors through its free reduction. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <string.h>

#define EXP 48
#define ONE ((int64_t)1 << EXP)
#define MAXLEN 12
#define MAXPTS 96
#define MAXRUNS 32
#define FAILURE_CAP 10  /* failures listed in the report */

enum { OK, INEXACT, OVERFLOW, PYERR };

#define TRY(call) do { int rc_ = (call); if (rc_) return rc_; } while (0)

typedef struct {
    int n;
    int64_t xs[MAXPTS], ys[MAXPTS];
} PL;

/* F's normal form P N^-1: runs (index, exponent) with ascending indices. */
typedef struct {
    int np, nn;
    int pos[MAXRUNS][2], neg[MAXRUNS][2];
} NF;

/* -- int64 dyadic PL maps with power-of-two slopes ------------------------- */

static void pl_identity(PL *f)
{
    f->n = 2;
    f->xs[0] = f->ys[0] = 0;
    f->xs[1] = f->ys[1] = ONE;
}

/* Slope exponent sigma of f's segment k-1..k: dy = dx * 2^sigma, exactly. */
static int seg_exp(const PL *f, int k, int *sigma)
{
    int64_t dx = f->xs[k] - f->xs[k - 1], dy = f->ys[k] - f->ys[k - 1];
    int s = 0;
    if (dx <= 0 || dy <= 0)
        return INEXACT;
    if (dy >= dx) {
        while ((dx << s) < dy)
            s++;
        if ((dx << s) != dy)
            return INEXACT;
        *sigma = s;
    } else {
        while ((dy << s) < dx)
            s++;
        if ((dy << s) != dx)
            return INEXACT;
        *sigma = -s;
    }
    return OK;
}

/* a + d * 2^s; a right shift may drop no bits. */
static int shift_add(int64_t a, int64_t d, int s, int64_t *out)
{
    if (s < 0) {
        if (d & (((int64_t)1 << -s) - 1))
            return INEXACT;
        *out = a + (d >> -s);
    } else {
        *out = a + (d << s);
    }
    return OK;
}

/* x_n: identity on [0, 1 - 2^-n], then the base map, which sends
   1/2 -> 1/4 and 3/4 -> 1/2, scaled onto the tail.  Needs n + 2 <= EXP. */
static void pl_generator(PL *f, int n, int inverse)
{
    int64_t q = ONE >> (n + 2), a = ONE - 4 * q;
    int64_t xs[5] = {0, a, a + 2 * q, a + 3 * q, ONE};
    int64_t ys[5] = {0, a, a + q, a + 2 * q, ONE};
    int skip = n == 0, k;  /* x_0 has no identity piece */
    f->n = 5 - skip;
    for (k = 0; k < f->n; k++) {
        f->xs[k] = inverse ? ys[k + skip] : xs[k + skip];
        f->ys[k] = inverse ? xs[k + skip] : ys[k + skip];
    }
}

/* dst = F after g (g is applied first), in the one merge of
   _scan_py._compose: g's values and F's breakpoints walk up the middle axis
   together.  A point of both reads both coordinates; a point of one takes
   the other coordinate by one exact shift along the current segment (F at
   g's value shifts by sf, g^-1 at F's breakpoint by -sg).  Each composed
   piece lies inside one segment of each map, so its slope exponent is
   sg + sf; the previous point is overwritten whenever the next piece has
   the same exponent, so dst is canonical as it is built. */
static int pl_compose(PL *dst, const PL *F, const PL *g)
{
    int n = 1, i = 1, j = 1, sg, sf, last = 0;
    if (F->n + g->n > MAXPTS)
        return OVERFLOW;
    dst->xs[0] = dst->ys[0] = 0;
    TRY(seg_exp(g, 1, &sg));
    TRY(seg_exp(F, 1, &sf));
    while (i < g->n) {  /* both end at ONE, so j reaches F->n with i */
        int64_t u = g->ys[i], v = F->xs[j];
        if (n > 1 && sg + sf == last)
            n--;
        last = sg + sf;
        dst->xs[n] = g->xs[i];
        dst->ys[n] = F->ys[j];
        if (u < v)
            TRY(shift_add(F->ys[j - 1], u - F->xs[j - 1], sf, &dst->ys[n]));
        else if (v < u)
            TRY(shift_add(g->xs[i - 1], v - g->ys[i - 1], -sg, &dst->xs[n]));
        n++;
        if (u <= v && ++i < g->n)
            TRY(seg_exp(g, i, &sg));
        if (v <= u && ++j < F->n)
            TRY(seg_exp(F, j, &sf));
    }
    dst->n = n;
    return OK;
}

static int pl_equal(const PL *a, const PL *b)
{
    return a->n == b->n
        && !memcmp(a->xs, b->xs, a->n * sizeof a->xs[0])
        && !memcmp(a->ys, b->ys, a->n * sizeof a->ys[0]);
}

/* -- normal-form engine on run arrays, as thompson._mul_letter/_cleanup ---- */

static int insert_run(int (*runs)[2], int *n, int at, int index)
{
    if (*n == MAXRUNS)
        return OVERFLOW;
    memmove(runs[at + 1], runs[at], (*n - at) * sizeof runs[0]);
    runs[at][0] = index;
    runs[at][1] = 1;
    (*n)++;
    return OK;
}

static int has_index(int (*runs)[2], int n, int i)
{
    int k;
    for (k = 0; k < n; k++)
        if (runs[k][0] == i)
            return 1;
    return 0;
}

/* Remove one x_i from the runs and lower every larger index by one. */
static int drop_index(int (*runs)[2], int n, int i)
{
    int k, out = 0;
    for (k = 0; k < n; k++) {
        int index = runs[k][0], e = runs[k][1] - (index == i);
        if (e > 0) {
            runs[out][0] = index > i ? index - 1 : index;
            runs[out][1] = e;
            out++;
        }
    }
    return out;
}

/* Uniqueness condition: an index in both parts needs index + 1 in one of
   them; otherwise one conjugation by x_i cancels the pair. */
static void nf_cleanup(NF *f)
{
    int pi = 0, ni = 0;
    while (pi < f->np && ni < f->nn) {
        int p = f->pos[pi][0], q = f->neg[ni][0];
        if (p < q) {
            pi++;
        } else if (p > q) {
            ni++;
        } else if (has_index(f->pos, f->np, p + 1) || has_index(f->neg, f->nn, p + 1)) {
            pi++;
            ni++;
        } else {
            f->np = drop_index(f->pos, f->np, p);
            f->nn = drop_index(f->neg, f->nn, p);
            pi = ni = 0;
        }
    }
}

/* Multiply the normal form on the right by x_k^sign.  Letters travel by the
   shift relation x_j x_i -> x_i x_{j+1} (i < j): passing a smaller-index
   letter bumps the traveller, passing a larger-index letter bumps the one
   passed.  Only a new run k of N while k is in P can break the uniqueness
   condition, so only that case calls nf_cleanup (thompson._mul_letter has
   the proof). */
static int nf_mul_letter(NF *f, int k, int sign)
{
    int t = 0, s;
    while (t < f->nn && f->neg[t][0] < k)
        k += f->neg[t++][1];
    if (sign < 0) {
        if (t < f->nn && f->neg[t][0] == k) {
            f->neg[t][1]++;
            return OK;
        }
        TRY(insert_run(f->neg, &f->nn, t, k));
        if (has_index(f->pos, f->np, k))
            nf_cleanup(f);
        return OK;
    }
    if (t < f->nn && f->neg[t][0] == k) {  /* cancels a letter of N^-1 */
        if (--f->neg[t][1] == 0) {
            memmove(f->neg[t], f->neg[t + 1], (f->nn - t - 1) * sizeof f->neg[0]);
            f->nn--;
        }
        return OK;
    }
    for (s = t; s < f->nn; s++)
        f->neg[s][0]++;
    for (s = f->np; s > 0 && f->pos[s - 1][0] > k; s--)
        f->pos[s - 1][0]++;
    if (s > 0 && f->pos[s - 1][0] == k) {
        f->pos[s - 1][1]++;
        return OK;
    }
    return insert_run(f->pos, &f->np, s, k);
}

/* Indices strictly ascend and exponents are >= 1. */
static int runs_ascend(int (*runs)[2], int n)
{
    int k;
    for (k = 0; k < n; k++)
        if (runs[k][1] < 1 || (k && runs[k - 1][0] >= runs[k][0]))
            return 0;
    return 1;
}

/* F's uniqueness conditions, checked without nf_cleanup: both parts ascend
   and an index in both parts has index + 1 in one of them. */
static int nf_canonical(NF *f)
{
    int k, i;
    if (!runs_ascend(f->pos, f->np) || !runs_ascend(f->neg, f->nn))
        return 0;
    for (k = 0; k < f->np; k++) {
        i = f->pos[k][0];
        if (has_index(f->neg, f->nn, i) && !has_index(f->pos, f->np, i + 1)
            && !has_index(f->neg, f->nn, i + 1))
            return 0;
    }
    return 1;
}

/* Map of the normal-form word P N^-1, composed letter by letter into the
   two buffers in turn; *out is the one holding the result. */
static int pl_of_nf(PL buf[2], const NF *f, const PL *gens, int ngen, PL **out)
{
    int k, c, step = 0;
    pl_identity(&buf[0]);
    for (k = 0; k < f->np + f->nn; k++) {
        int positive = k < f->np;
        const int *run = positive ? f->pos[k] : f->neg[f->nn - 1 - (k - f->np)];
        if (run[0] >= ngen)
            return OVERFLOW;
        for (c = 0; c < run[1]; c++, step++)
            TRY(pl_compose(&buf[(step + 1) & 1], &buf[step & 1],
                           &gens[2 * run[0] + !positive]));
    }
    *out = &buf[step & 1];
    return OK;
}

/* -- the iterative DFS ---------------------------------------------------- */

typedef struct {
    PL gens[2 * EXP];        /* x_n at 2n, x_n^-1 at 2n + 1 */
    PL word[MAXLEN + 1];     /* map of the word's prefix of each length */
    NF nf[MAXLEN + 1];       /* normal form of the same prefix */
    PL buf[2];
    int code[MAXLEN + 1];    /* letter per depth: 2 * index + (sign < 0) */
} Scan;

static PyObject *pairs_tuple(int (*pairs)[2], int n)
{
    PyObject *t = PyTuple_New(n);
    int k;
    for (k = 0; t && k < n; k++) {
        PyObject *pair = Py_BuildValue("(ii)", pairs[k][0], pairs[k][1]);
        if (!pair) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, k, pair);
    }
    return t;
}

/* Check the word of the first `len` letters: its normal form must be
   canonical and denote the word's map.  Record a failure under FAILURE_CAP. */
static int check(Scan *s, int len, int ngen, PyObject *failures)
{
    int letters[MAXLEN][2], k;
    PyObject *item;
    PL *nfmap;
    TRY(pl_of_nf(s->buf, &s->nf[len], s->gens, ngen, &nfmap));
    if ((nf_canonical(&s->nf[len]) && pl_equal(nfmap, &s->word[len]))
        || PyList_GET_SIZE(failures) >= FAILURE_CAP)
        return OK;
    for (k = 0; k < len; k++) {
        letters[k][0] = s->code[k] >> 1;
        letters[k][1] = s->code[k] & 1 ? -1 : 1;
    }
    item = Py_BuildValue("(N(NN))", pairs_tuple(letters, len),
                         pairs_tuple(s->nf[len].pos, s->nf[len].np),
                         pairs_tuple(s->nf[len].neg, s->nf[len].nn));
    if (!item)
        return PYERR;
    k = PyList_Append(failures, item);
    Py_DECREF(item);
    return k ? PYERR : OK;
}

static int run_scan(Scan *s, int max_len, int max_index, PyObject *failures,
                    long long *words)
{
    int ngen = max_index + max_len + 3, nletters = 2 * (max_index + 1);
    int depth = 0, n, c;
    for (n = 0; n < ngen; n++) {
        pl_generator(&s->gens[2 * n], n, 0);
        pl_generator(&s->gens[2 * n + 1], n, 1);
    }
    pl_identity(&s->word[0]);
    s->nf[0].np = s->nf[0].nn = 0;
    s->code[0] = -1;
    *words = 1;
    TRY(check(s, 0, ngen, failures));
    while (depth >= 0) {
        c = ++s->code[depth];
        if (c >= nletters || depth >= max_len) {
            depth--;
            continue;
        }
        if (depth > 0 && s->code[depth - 1] == (c ^ 1))
            continue;  /* not freely reduced */
        TRY(pl_compose(&s->word[depth + 1], &s->word[depth], &s->gens[c]));
        s->nf[depth + 1] = s->nf[depth];
        TRY(nf_mul_letter(&s->nf[depth + 1], c >> 1, c & 1 ? -1 : 1));
        if ((++*words & 0xFFFFF) == 0 && PyErr_CheckSignals())
            return PYERR;
        TRY(check(s, depth + 1, ngen, failures));
        s->code[++depth] = -1;
    }
    return OK;
}

/* "O&" converter for a size: an int clamped to long long, so that a size
   too large for C fails the range checks below with ValueError too. */
static int size_arg(PyObject *obj, void *out)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (v == -1 && PyErr_Occurred())
        return 0;
    *(long long *)out = overflow > 0 ? LLONG_MAX : overflow < 0 ? LLONG_MIN : v;
    return 1;
}

static PyObject *thompson_agreement_scan(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"max_len", "max_index", NULL};
    long long max_len, max_index, words = 0;
    int rc;
    PyObject *failures;
    Scan *s;
    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O&O&:thompson_agreement_scan", kwlist,
                                     size_arg, &max_len, size_arg, &max_index))
        return NULL;
    if (max_len < 0 || max_index < 0)
        return PyErr_Format(PyExc_ValueError, "max_len and max_index must be non-negative");
    if (max_len > MAXLEN)
        return PyErr_Format(PyExc_ValueError,
                            "max_len too large for compiled kernel (<= %d)", MAXLEN);
    /* max_index + 2 * max_len + 4 <= EXP, rearranged so nothing overflows */
    if (max_index > EXP - 4 - 2 * max_len)
        return PyErr_Format(PyExc_ValueError,
                            "index range too large for compiled kernel: "
                            "max_index + 2 * max_len + 4 must be <= %d bits, "
                            "so max_index <= %d at max_len %d",
                            EXP, (int)(EXP - 4 - 2 * max_len), (int)max_len);
    if (!(failures = PyList_New(0)))
        return NULL;
    if (!(s = PyMem_Malloc(sizeof *s))) {
        Py_DECREF(failures);
        return PyErr_NoMemory();
    }
    rc = run_scan(s, (int)max_len, (int)max_index, failures, &words);
    PyMem_Free(s);
    if (rc == INEXACT)
        PyErr_SetString(PyExc_ArithmeticError,
                        "a breakpoint or slope falls off the dyadic grid");
    else if (rc == OVERFLOW)
        PyErr_SetString(PyExc_OverflowError,
                        "a map or normal form outgrows the kernel's arrays");
    if (rc) {
        Py_DECREF(failures);
        return NULL;
    }
    return Py_BuildValue("{s:L,s:N,s:s}", "words", words, "failures", failures,
                         "backend", "compiled");
}

static PyMethodDef methods[] = {
    {"thompson_agreement_scan", (PyCFunction)(void (*)(void))thompson_agreement_scan,
     METH_VARARGS | METH_KEYWORDS,
     "thompson_agreement_scan(max_len, max_index)\n--\n\n"
     "Check engine-vs-model agreement on every freely reduced word of\n"
     "length <= max_len over indices <= max_index."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_scan_c",
    "Compiled scan kernel: exact int64 dyadic PL maps checked against the F normal form.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__scan_c(void)
{
    return PyModule_Create(&module);
}
