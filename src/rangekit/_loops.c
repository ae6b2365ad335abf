/* Compiled stream loops of rangekit's range coder, built and loaded by
   _loops.py.  One decode and one encode loop per model family, each
   running the algorithms of rangecoder.py's Python loops: the register
   discipline of Encoder/Decoder; the linear model's bisect_right search,
   K - sym tail update and count halving; and FenwickModel's update chain
   and both rescales.  The Fenwick loops fuse two steps of the Python loop
   into one walk: the decode's descent is binary_indexed_interval +
   update, and the encode's walk is cum + count.  At the count cap a
   model rescales before the increment.  No work counters are kept: a
   decode that counts runs the Python loop.

   No Python model is built for them.  Each loop takes the stream's
   uint32 count vector h (K entries) and a K + 1 entry buffer, and on a
   stream's first call (st[SYM] == 0) derives its working array there,
   with the total: the prefix sums hk for the linear model, which keeps
   h up to date beside them, and v for the Fenwick one.  A static
   stream's h is the caller's table, which no loop writes.  That first
   call also checks the total, summed in 64 bits so that no table wraps
   it, against cfg[LIMIT]: above it, it stores the total in st[TOTAL]
   and returns -2 before coding anything.  A total within the limit (at
   most 2^20) keeps every count and sum within 32 bits.  A call codes at
   most `limit` symbols and resumes from st[], so the caller decides how
   many symbols a call may produce. */

#include <stdint.h>

typedef int64_t i64; typedef uint32_t u32; typedef uint64_t u64;

#define TOP (1u << 24)

/* st[]: what a call resumes from (CODE holds `low` when encoding; the
   first call sets TOTAL) */
enum { RNG, CODE, POS, SYM, TOTAL, CACHE, CACHE_SIZE };
/* cfg[]: the stream's settings; INTERVAL is 0 in a static stream, CAP,
   at which a model rescales, is the model module's MAX_TOTALCOUNT, and
   LIMIT, which the first call checks the total against, is
   linear_model's, which check_total reads */
enum { K, ADAPTIVE, INTERVAL, CAP, NEW_RESCALE, LIMIT };

typedef struct {
    u32 *h, *hk, *v;
    i64 k, adaptive, interval, cap, new_rescale, total;
} Model;

/* prefix_sums: hk[i] is the sum of the counts below symbol i */
static void linear_init(Model *m) {
    i64 total = 0;
    m->hk[0] = 0;
    for (i64 i = 0; i < m->k; i++)
        m->hk[i + 1] = (u32)(total += m->h[i]);
    m->total = total;
}

/* LinearModel.rescale: halve every count, rounding up */
static void linear_rescale(Model *m) {
    for (i64 i = 0; i < m->k; i++) {
        m->h[i] -= m->h[i] >> 1;
        m->hk[i + 1] = m->hk[i] + m->h[i];
    }
    m->total = m->hk[m->k];
}

/* LinearModel.update: every boundary above sym moves up by one */
static void linear_update(Model *m, i64 sym) {
    if (m->total >= m->cap)
        linear_rescale(m);
    m->h[sym]++;
    for (i64 j = sym + 1; j <= m->k; j++)
        m->hk[j]++;
    m->total++;
}

/* FenwickModel's v from the counts in O(K): each slot, once complete,
   adds itself into the next slot up its update chain, which leaves
   v[i] = hk[i] - hk[i & (i - 1)] */
static void fenwick_init(Model *m) {
    u32 *v = m->v;
    i64 k = m->k;
    m->total = 0;
    v[0] = 0;
    for (i64 i = 1; i <= k; i++) {
        v[i] = m->h[i - 1];
        m->total += v[i];
    }
    for (i64 i = 1; i <= k; i++)
        if (i + (i & -i) <= k)
            v[i + (i & -i)] += v[i];
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
}

/* FenwickModel.update: raise the chain sym + 1, + lowbit, ... <= K */
static void fenwick_update(Model *m, i64 sym) {
    if (m->total >= m->cap)
        fenwick_rescale(m);
    for (i64 i = sym + 1; i <= m->k; i += i & -i)
        m->v[i]++;
    m->total++;
}

typedef struct { const unsigned char *buf; i64 len, pos; u32 rng, code; } Dec;

/* Decoder.decode_target: the code value, clamped below the total */
static inline u32 target(Dec *d, i64 total, u32 *r) {
    *r = d->rng / (u32)total;
    u32 c = d->code / *r;
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

/* the model of a call: the counts h = a, the working array hk = v = b;
   a stream's first call derives the array and the total with `init`,
   and returns -2 with the total in st[TOTAL] if it is above cfg[LIMIT] */
#define MODEL(init)                                                        \
    Model m = {a, b, b, cfg[K], cfg[ADAPTIVE], cfg[INTERVAL], cfg[CAP],    \
               cfg[NEW_RESCALE], st[TOTAL]};                               \
    if (st[SYM] == 0) {                                                    \
        init(&m);                                                          \
        if (m.total > cfg[LIMIT]) {                                        \
            st[TOTAL] = m.total;                                           \
            return -2;                                                     \
        }                                                                  \
    }
/* the loop head and tail the two families share; an interval rescale
   follows each adaptive symbol's update */
#define DECODE_BEGIN(init)                                                 \
    MODEL(init)                                                            \
    Dec d = {buf, len, st[POS], (u32)st[RNG], (u32)st[CODE]};              \
    i64 i = st[SYM];                                                       \
    for (i64 o = 0; o < limit; o++, i++) {
#define DECODE_END(rescale)                                                \
        if (m.interval && (i + 1) % m.interval == 0)                       \
            rescale(&m);                                                   \
    }                                                                      \
    st[RNG] = d.rng; st[CODE] = d.code; st[POS] = d.pos;                   \
    st[SYM] = i; st[TOTAL] = m.total;                                      \
    return limit;

/* Each decode writes `limit` symbols to out and returns `limit`, or
   returns -1 once the payload ends before the last of them (or -2, see
   MODEL). */
i64 linear_decode(const unsigned char *buf, i64 len, i64 *st, i64 limit,
                  u32 *out, u32 *a, u32 *b, const i64 *cfg) {
    DECODE_BEGIN(linear_init)
        u32 r, c = target(&d, m.total, &r);
        i64 lo = 1, hi = m.k;  /* bisect_right(hk, c) - 1; hk[0] <= c < hk[K] */
        while (lo < hi) {
            i64 mid = (lo + hi) >> 1;
            if (m.hk[mid] > c) hi = mid; else lo = mid + 1;
        }
        i64 sym = lo - 1;
        if (!consume(&d, r, m.hk[sym], m.h[sym]))
            return -1;
        out[o] = (u32)sym;
        if (m.adaptive)
            linear_update(&m, sym);
    DECODE_END(linear_rescale)
}

i64 fenwick_decode(const unsigned char *buf, i64 len, i64 *st, i64 limit,
                   u32 *out, u32 *a, u32 *b, const i64 *cfg) {
    i64 top = 1;  /* top_level_index(K) */
    while (top <= cfg[K] >> 1)
        top <<= 1;
    DECODE_BEGIN(fenwick_init)
        /* binary_indexed_interval + update: raise each probe not taken,
           unless at the cap, where update rescales first */
        u32 r, c0 = target(&d, m.total, &r);
        i64 c = c0, f = m.total - c, bottom = 0, inc = m.total < m.cap;
        for (i64 step = top; step; step >>= 1) {
            i64 test = bottom + step;
            if (test > m.k)
                continue;
            i64 x = m.v[test];
            if (c >= x) { bottom = test; c -= x; }
            else { f = x - c; m.v[test] = x + inc; }
        }
        if (!consume(&d, r, c0 - c, f + c))
            return -1;
        out[o] = (u32)bottom;
        if (inc) m.total++; else fenwick_update(&m, bottom);
    DECODE_END(fenwick_rescale)
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

/* Encoder.encode, whose zero-width check cannot fire in a stream */
static inline int encode(Enc *e, i64 total, i64 low, i64 freq) {
    u32 r = e->rng / (u32)total;
    e->low += (u64)r * (u64)low;
    e->rng = r * (u32)freq;
    for (; e->rng < TOP; e->rng <<= 8)
        if (!shift_low(e))
            return 0;
    return 1;
}

#define ENCODE_BEGIN(init)                                                 \
    MODEL(init)                                                            \
    Enc e = {out, cap, st[POS], st[CACHE], st[CACHE_SIZE],                 \
             (u64)st[CODE], (u32)st[RNG]};                                 \
    i64 i = st[SYM];                                                       \
    for (i64 end = i + limit; i < end; i++) {                              \
        i64 s = syms[i];
#define ENCODE_END(rescale)                                                \
        if (m.interval && (i + 1) % m.interval == 0)                       \
            rescale(&m);                                                   \
    }                                                                      \
    for (int j = 0; finish && j < 5; j++)  /* Encoder.finish */            \
        if (!shift_low(&e))                                                \
            return -1;                                                     \
    st[RNG] = e.rng; st[CODE] = (i64)e.low; st[POS] = e.pos;               \
    st[SYM] = i; st[TOTAL] = m.total;                                      \
    st[CACHE] = e.cache; st[CACHE_SIZE] = e.cache_size;                    \
    return e.pos;

/* Each encode codes syms[st[SYM]:st[SYM] + limit], then flushes if
   `finish`, and returns the bytes now in out, or -1 if out (of `cap`
   bytes) is full (or -2, see MODEL). */
i64 linear_encode(unsigned char *out, i64 cap, i64 *st, i64 limit, int finish,
                  const u32 *syms, u32 *a, u32 *b, const i64 *cfg) {
    ENCODE_BEGIN(linear_init)
        if (!encode(&e, m.total, m.hk[s], m.h[s]))
            return -1;
        if (m.adaptive)
            linear_update(&m, s);
    ENCODE_END(linear_rescale)
}

i64 fenwick_encode(unsigned char *out, i64 cap, i64 *st, i64 limit, int finish,
                   const u32 *syms, u32 *a, u32 *b, const i64 *cfg) {
    ENCODE_BEGIN(fenwick_init)
        /* cum + count: count's walk down to the parent of s + 1 starts cum's */
        i64 parent = (s + 1) & s, j = s, low = 0;
        for (; j != parent; j &= j - 1)
            low += m.v[j];
        i64 freq = m.v[s + 1] - low;
        for (; j; j &= j - 1)
            low += m.v[j];
        if (!encode(&e, m.total, low, freq))
            return -1;
        fenwick_update(&m, s);
    ENCODE_END(fenwick_rescale)
}
