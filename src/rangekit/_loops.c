/* The compiled stream loops of rangekit's range coder, an extension
   module that _loops.py builds and imports: one encode and one decode
   loop per stream mode, which must give the bytes, symbols and rescale
   counts of rangecoder.py's Python loops, and the encode's first pass.
   rangecoder._loop_args says which loop a stream runs.  Plain C for
   _loops.CFLAGS: no intrinsics or CPU dispatch. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

typedef long long i64; typedef uint32_t u32; typedef uint64_t u64;

#define TOP (1u << 24)
#define CHUNK (1 << 16)  /* the symbols a decode adds to its output at once */

/* A stream's model.  h holds a static stream's K counts (NULL in an
   adaptive stream), and hk or v is the working array that model_init
   allocates.  CAP is where a model rescales, linear_model.MAX_TOTALCOUNT.
   RESCALES, the one work counter, counts rescales. */
typedef struct {
    u32 *h, *hk, *v;
    i64 k, interval, cap, total, rescales;
    int new_rescale;
} Model;

/* prefix_sums: hk[i] is the sum of the counts below symbol i */
static void prefix_init(Model *m) {
    i64 total = 0;
    m->hk[0] = 0;
    for (i64 i = 0; i < m->k; i++)
        m->hk[i + 1] = (u32)(total += m->h[i]);
    m->total = total;
}

/* FenwickModel's v for K counts of one, in closed form: with hk[i] = i,
   v[i] = hk[i] - hk[i & (i - 1)] is the lowest set bit of i */
static void fenwick_init(Model *m) {
    m->v[0] = 0;
    for (i64 i = 1; i <= m->k; i++)
        m->v[i] = (u32)(i & -i);
    m->total = m->k;
}

/* FenwickModel.rescale_orig or rescale_new, then _total */
static void fenwick_rescale(Model *m) {
    u32 *v = m->v;
    i64 k = m->k, total = 0;
    for (i64 i = 1; i <= k; i++) {
        if (!m->new_rescale) {
            /* the count of symbol i - 1, halved, off its update chain */
            i64 h = v[i], parent = i & (i - 1);
            for (i64 j = i - 1; j != parent; j &= j - 1)
                h -= v[j];
            h >>= 1;
            for (i64 j = i; j <= k; j += j & -j)
                v[j] -= h;
        } else if (i & 1) {
            v[i] -= v[i] >> 1;
        } else {
            /* clamped one above the already-halved lower siblings */
            i64 halved = v[i] - (v[i] >> 1), floor = 1;
            for (i64 j = i - 1, parent = i - (i & -i); j != parent; j &= j - 1)
                floor += v[j];
            v[i] = floor > halved ? floor : halved;
        }
    }
    for (i64 i = k; i > 0; i &= i - 1)
        total += v[i];
    m->total = total;
    m->rescales++;
}

/* FenwickModel.update: raise the chain sym + 1, + lowbit, ... <= K */
static void fenwick_update(Model *m, i64 sym) {
    if (m->total >= m->cap)
        fenwick_rescale(m);
    for (i64 i = sym + 1; i <= m->k; i += i & -i)
        m->v[i]++;
    m->total++;
}

/* rng / total for a static stream's fixed total without a division (an
   adaptive total changes with every symbol, so those loops divide):
   the high 64 bits of inv * rng, where inv = ceil(2^64 / total), are
   exact for every 32-bit rng and total (Lemire, Kaser & Kurz,
   "Faster Remainder by Direct Computation", 2019).  inv is kept as its
   two 32-bit halves, so the 96-bit product takes two 64-bit multiplies,
   and total 1, whose inv 2^64 takes 65 bits, is hi = 2^32 and lo = 0.
   An empty stream's total 0 gives hi = lo = 0 and codes no symbol. */
typedef struct { u64 hi, lo; } Recip;

static Recip recip(i64 total) {
    if (total <= 1)
        return (Recip){(u64)total << 32, 0};
    u64 inv = UINT64_MAX / (u64)total + 1;
    return (Recip){inv >> 32, inv & 0xFFFFFFFFu};
}

static inline u32 quot(Recip q, u32 rng) {
    return (u32)((q.hi * rng + ((q.lo * rng) >> 32)) >> 32);
}

typedef struct { const unsigned char *buf; i64 len, pos; u32 rng, code; } Dec;

/* Decoder.decode_target given r = rng / total: the code value, clamped
   below the total */
static inline u32 target(const Dec *d, u32 r, i64 total) {
    u32 c = d->code / r;
    return c >= total ? (u32)(total - 1) : c;
}

/* Decoder.consume; 0 once the payload ends before the last symbol */
static inline int consume(Dec *d, u32 r, i64 low, i64 freq) {
    d->code -= r * (u32)low;
    d->rng = r * (u32)freq;
    for (; d->rng < TOP; d->rng <<= 8) {
        if (d->pos >= d->len)
            return 0;
        d->code = (d->code << 8) | d->buf[d->pos++];
    }
    return 1;
}

/* A static stream's symbol table, the paper's direct lookup: tab[c] is
   the symbol whose interval holds code value c, one uint16 entry for
   each c in [0, total), in the working array after hk. */
static void table_init(Model *m) {
    uint16_t *tab = (uint16_t *)(m->hk + m->k + 1);
    for (i64 s = 0; s < m->k; s++)
        for (u32 c = m->hk[s]; c < m->hk[s + 1]; c++)
            tab[c] = (uint16_t)s;
}

/* Set up the model of a stream of K symbols in [1, 65536] whose static
   counts, K uint32, are in `counts` (an adaptive stream's buffer holds
   none): allocate its working array at its exact size, zeroed, and
   derive the total and the first K + 1 entries, the prefix sums hk of
   the counts, which no loop writes, or the v of K counts of one.  The
   total, summed in 64 bits so that no table wraps it, is checked against
   the cap before the array is sized from it; a total within the cap (at
   most 2^20) keeps every count and sum within 32 bits.  A static decode's
   array holds the symbol table after hk, and an adaptive decode's has 2
   top entries, the least power of two above K, for its lookahead.  0
   sets an exception. */
static int model_init(Model *m, const Py_buffer *counts, int decode) {
    i64 total = m->k, size = m->k + 1;
    m->h = counts->buf;
    if (m->k < 1 || m->k > 1 << 16 || counts->len != (m->h ? 4 * m->k : 0)) {
        PyErr_SetString(PyExc_ValueError, "K or its counts out of range");
        return 0;
    }
    if (m->h) {
        total = 0;
        for (i64 s = 0; s < m->k; s++)
            total += m->h[s];
        size += decode ? (total + 1) / 2 : 0;
    } else if (decode)
        for (size = 2; size <= m->k; size <<= 1)
            ;
    if (total > m->cap) {
        PyErr_Format(PyExc_OverflowError, "total count %lld exceeds "
                     "MAX_TOTALCOUNT=%lld; caller must pre-normalize",
                     total, m->cap);
        return 0;
    }
    if (!(m->hk = m->v = PyMem_Calloc(size, sizeof(u32)))) {
        PyErr_NoMemory();
        return 0;
    }
    (m->h ? prefix_init : fenwick_init)(m);
    if (m->h && decode)
        table_init(m);
    return 1;
}

/* the loop head and tail the decodes share: a call decodes the symbols
   i to i + limit - 1 to out[0:limit] from the model and decoder at mp
   and dp, writes both back and returns limit, or returns -1 once the
   payload ends before the last of them */
#define DECODE_BEGIN                                                       \
    Model m = *mp;                                                         \
    Dec d = *dp;                                                           \
    for (i64 o = 0; o < limit; o++, i++) {
#define DECODE_END                                                         \
    }                                                                      \
    *mp = m;                                                               \
    *dp = d;                                                               \
    return limit;

static i64 static_decode(Model *mp, Dec *dp, u32 *out, i64 i, i64 limit) {
    const uint16_t *tab = (const uint16_t *)(mp->hk + mp->k + 1);
    Recip q = recip(mp->total);
    DECODE_BEGIN
        u32 r = quot(q, d.rng), c = target(&d, r, m.total);
        i64 sym = tab[c];
        if (!consume(&d, r, m.hk[sym], m.h[sym]))
            return -1;
        out[o] = (u32)sym;
    DECODE_END
}

/* binary_indexed_interval and update in one descent: each probe not
   taken is a node the update raises, unless the total is at the cap,
   where fenwick_update rescales first.  It loads both of the next
   level's probes before each choice, which a mask, not a branch, picks
   (Khuong & Morin, arXiv:1509.05053).  The work array is zero past K
   to 2 top - 1, the reach of those loads; no probe there is taken. */
static i64 adaptive_decode(Model *mp, Dec *dp, u32 *out, i64 i, i64 limit) {
    i64 top = 1;  /* top_level_index(K) */
    while (top <= mp->k >> 1)
        top <<= 1;
    DECODE_BEGIN
        u32 r = d.rng / (u32)m.total, c0 = target(&d, r, m.total);
        i64 c = c0, rest = m.total - c, bottom = 0, inc = m.total < m.cap;
        i64 x = m.v[top];
        for (i64 step = top; step; step >>= 1) {
            i64 test = bottom + step, half = step >> 1;
            i64 xa = m.v[bottom + half], xb = m.v[test + half];
            if (test > m.k) { x = xa; continue; }
            i64 take = -(i64)(c >= x);
            m.v[test] = (u32)(x + (inc & ~take));
            rest ^= (rest ^ (x - c)) & ~take;
            c -= x & take;
            bottom += step & take;
            x = xa ^ ((xa ^ xb) & take);
        }
        if (!consume(&d, r, c0 - c, rest + c))
            return -1;
        out[o] = (u32)bottom;
        if (inc) m.total++; else fenwick_update(&m, bottom);
        if (m.interval && (i + 1) % m.interval == 0)
            fenwick_rescale(&m);
    DECODE_END
}

typedef struct {
    unsigned char *out;
    i64 cap, pos, cache, cache_size;
    u64 low;
    u32 rng;
} Enc;

/* Encoder._shift_low; 0 if out is full, which the caller's bound on the
   output size rules out */
static inline int shift_low(Enc *e) {
    if (e->low < 0xFF000000u || e->low > 0xFFFFFFFFu) {
        unsigned carry = (unsigned)(e->low >> 32);
        if (e->pos + e->cache_size > e->cap)
            return 0;
        e->out[e->pos++] = (unsigned char)(e->cache + carry);
        for (; e->cache_size > 1; e->cache_size--)
            e->out[e->pos++] = (unsigned char)(0xFF + carry);
        e->cache = (e->low >> 24) & 0xFF;
    } else
        e->cache_size++;
    e->low = (e->low << 8) & 0xFFFFFFFFu;
    return 1;
}

/* Encoder.encode given r = rng / total, whose zero-width check cannot
   fire in a stream */
static inline int encode(Enc *e, u32 r, i64 low, i64 freq) {
    e->low += (u64)r * (u64)low;
    e->rng = r * (u32)freq;
    for (; e->rng < TOP; e->rng <<= 8)
        if (!shift_low(e))
            return 0;
    return 1;
}

/* an encode codes syms[0:n] with the model at mp to out, of room bytes,
   starting from Encoder(): range 2**32 - 1, low 0, cache 0 and a cache
   size of one.  It flushes, and returns the bytes in out, or -1 if out
   is full. */
#define ENCODE_BEGIN                                                       \
    Model m = *mp;                                                         \
    Enc e = {out, room, 0, 0, 1, 0, 0xFFFFFFFFu};                          \
    for (i64 i = 0; i < n; i++) {                                          \
        i64 s = syms[i];
#define ENCODE_END                                                         \
    }                                                                      \
    for (int j = 0; j < 5; j++)  /* Encoder.finish */                      \
        if (!shift_low(&e))                                                \
            return -1;                                                     \
    return e.pos;

static i64 static_encode(Model *mp, const u32 *syms, i64 n,
                         unsigned char *out, i64 room) {
    Recip q = recip(mp->total);
    ENCODE_BEGIN
        if (!encode(&e, quot(q, e.rng), m.hk[s], m.h[s]))
            return -1;
    ENCODE_END
}

static i64 adaptive_encode(Model *mp, const u32 *syms, i64 n,
                           unsigned char *out, i64 room) {
    ENCODE_BEGIN
        /* cum + count: count's walk down to the parent of s + 1 starts cum's */
        i64 parent = (s + 1) & s, j = s, low = 0;
        for (; j != parent; j &= j - 1)
            low += m.v[j];
        i64 freq = m.v[s + 1] - low;
        for (; j; j &= j - 1)
            low += m.v[j];
        if (!encode(&e, e.rng / (u32)m.total, low, freq))
            return -1;
        fenwick_update(&m, s);
        if (m.interval && (i + 1) % m.interval == 0)
            fenwick_rescale(&m);
    ENCODE_END
}

/* encode(symbols, counts, k, interval, cap, new_rescale) and
   decode(payload, offset, counts, k, interval, cap, new_rescale, n) code
   one stream each, in the loops of its mode: static if counts, the
   stream's K uint32 counts, is a buffer, adaptive if it is None.  The
   symbols are uint32, each below K (first_pass checks them); interval
   is the header's rescale interval, cap the count cap, and new_rescale
   picks FenwickModel.rescale_new over rescale_orig.  encode returns the
   coded bytes, flushed.  decode reads the coded bytes from
   payload[offset:] and returns (symbols, the position after the last
   byte read, rescales), or None once the payload ends before the last
   symbol.  It decodes CHUNK symbols at a time, so its output grows with
   the payload it reads, not with n, and signals are handled between
   chunks.  Both raise OverflowError for a count total above the cap. */
static PyObject *py_encode(PyObject *Py_UNUSED(self), PyObject *args) {
    Py_buffer syms, counts;
    Model m = {0};
    PyObject *out = NULL;
    if (!PyArg_ParseTuple(args, "y*z*LLLp", &syms, &counts, &m.k, &m.interval,
                          &m.cap, &m.new_rescale))
        return NULL;
    /* before a symbol the range is at least 2**24 and the total at most
       2**20, so the symbol leaves a range of at least 16 and shifts out
       at most three bytes; the flush shifts out five */
    i64 n = syms.len / 4, room = 3 * n + 5;
    if (model_init(&m, &counts, 0)
            && (out = PyBytes_FromStringAndSize(NULL, room))) {
        i64 size = (m.h ? static_encode : adaptive_encode)(
            &m, syms.buf, n, (unsigned char *)PyBytes_AS_STRING(out), room);
        if (size < 0) {
            PyErr_SetString(PyExc_RuntimeError, "encode ran past its room");
            Py_CLEAR(out);
        } else
            _PyBytes_Resize(&out, size);
    }
    PyMem_Free(m.hk);
    PyBuffer_Release(&syms);
    PyBuffer_Release(&counts);
    return out;
}

static PyObject *py_decode(PyObject *Py_UNUSED(self), PyObject *args) {
    Py_buffer payload, counts;
    Py_ssize_t offset;
    unsigned long long n;
    Model m = {0};
    u32 *out = NULL;
    PyObject *list = NULL, *result = NULL;
    if (!PyArg_ParseTuple(args, "y*nz*LLLpK", &payload, &offset, &counts, &m.k,
                          &m.interval, &m.cap, &m.new_rescale, &n))
        return NULL;
    /* the first payload byte is the flush artifact and falls out of 32 bits */
    Dec d = {payload.buf, payload.len, offset + 5, 0xFFFFFFFFu, 0};
    if (!model_init(&m, &counts, 1))
        goto done;
    if (offset < 0 || offset > payload.len - 5)
        goto ran_out;
    for (int j = 1; j < 5; j++)
        d.code = d.code << 8 | d.buf[offset + j];
    for (u64 i = 0, limit; i < n; i += limit) {
        limit = n - i < CHUNK ? n - i : CHUNK;
        u32 *grown = PyMem_Realloc(out, (i + limit) * sizeof *out);
        if (!grown) {
            PyErr_NoMemory();
            goto done;
        }
        out = grown;
        if ((m.h ? static_decode : adaptive_decode)(&m, &d, out + i, i, limit) < 0)
            goto ran_out;
        if (PyErr_CheckSignals())
            goto done;
    }
    if (!(list = PyList_New(n)))
        goto done;
    for (u64 i = 0; i < n; i++) {
        PyObject *sym = PyLong_FromUnsignedLong(out[i]);
        if (!sym)
            goto done;
        PyList_SET_ITEM(list, i, sym);
    }
    result = Py_BuildValue("OLL", list, d.pos, m.rescales);
    goto done;
ran_out:
    result = Py_NewRef(Py_None);
done:
    Py_XDECREF(list);
    PyMem_Free(out);
    PyMem_Free(m.hk);
    PyBuffer_Release(&payload);
    PyBuffer_Release(&counts);
    return result;
}

/* first_pass(symbols, k[, hist]): the index of the first of the uint32
   symbols at or above K, or their number if there is none.  A hist, K
   uint32 entries of zero, gets the count of each symbol before that
   index: for a static stream, the header's counts, with no numpy call. */
static PyObject *py_first_pass(PyObject *Py_UNUSED(self), PyObject *args) {
    Py_buffer symbols, counted = {0};
    i64 k, i = 0;
    if (!PyArg_ParseTuple(args, "y*L|w*", &symbols, &k, &counted))
        return NULL;
    const u32 *syms = symbols.buf;
    u32 *hist = counted.buf;
    if (hist && counted.len < 4 * k)
        PyErr_SetString(PyExc_ValueError, "hist must hold K uint32 entries");
    else
        for (; i < symbols.len / 4 && syms[i] < k; i++)
            if (hist)
                hist[syms[i]]++;
    PyBuffer_Release(&symbols);
    PyBuffer_Release(&counted);
    return PyErr_Occurred() ? NULL : PyLong_FromLongLong(i);
}

static PyMethodDef methods[] = {
    {"encode", py_encode, METH_VARARGS, NULL},
    {"decode", py_decode, METH_VARARGS, NULL},
    {"first_pass", py_first_pass, METH_VARARGS, NULL},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_loops", .m_methods = methods};

PyMODINIT_FUNC PyInit__loops(void) {
    return PyModuleDef_Init(&module);
}
