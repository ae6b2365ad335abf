/* The compiled stream loops of rangekit's range coder, built and loaded
   by _loops.py: one encode and one decode loop per stream mode, which
   must give the bytes, symbols and rescale counts of rangecoder.py's
   Python loops.  rangecoder._compiled_loop picks a stream's loop.  Plain
   C for _loops.CFLAGS: no intrinsics or CPU dispatch. */

#include <stdint.h>

typedef int64_t i64; typedef uint32_t u32; typedef uint64_t u64;

#define TOP (1u << 24)

/* f[], a stream's frame: 15 int64 slots, mirrored by _loops.FRAME and
   set by rangecoder._compiled_loop.  A loop takes two arguments, the
   frame and the bytes it reads or writes, so ctypes converts two, not
   eight or nine, and a decode's later calls set only LIMIT, the symbols
   a call codes.  A decode writes back the first row, which its next
   call resumes from; an encode starts from Encoder() and reads none of
   RNG, CODE and POS.  RESCALES, the one work counter, counts rescales.
   CAP is where a model rescales, linear_model.MAX_TOTALCOUNT, or for
   static_decode the total its table has room for.  LEN is the payload's
   length (decode) or the output's room (encode).  SYMS holds the uint32
   symbols coded, H a static stream's K counts (0 in an adaptive frame),
   and WORK the working array of MODEL. */
enum frame {
    RNG, CODE, POS, SYM, TOTAL, RESCALES,
    K, INTERVAL, CAP, NEW_RESCALE,
    LEN, LIMIT,
    SYMS, H, WORK
};

/* the buffer at the address in slot i of the frame */
#define ADDR(type, i) ((type)(intptr_t)f[i])

typedef struct {
    u32 *h, *hk, *v;
    i64 k, interval, cap, new_rescale, total, rescales;
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

/* the model of a call over the working array at f[WORK].  A stream's
   first call (SYM 0) derives, with `init`, the array and the total in
   its first K + 1 entries: the prefix sums hk of a static stream's
   counts h, which no loop writes, or the v of an adaptive stream, which
   starts from K counts of one and has no h.  It checks the total,
   summed in 64 bits so that no table wraps it, against f[CAP]: above
   it, the call stores the total in f[TOTAL] and returns -2 before it
   codes a symbol or writes a symbol table.  A total within the cap (at
   most 2^20) keeps every count and sum within 32 bits. */
#define MODEL(init)                                                        \
    u32 *work = ADDR(u32 *, WORK);                                         \
    Model m = {ADDR(u32 *, H), work, work, f[K], f[INTERVAL], f[CAP],      \
               f[NEW_RESCALE], f[TOTAL], f[RESCALES]};                     \
    if (f[SYM] == 0) {                                                     \
        init(&m);                                                          \
        if (m.total > m.cap) {                                             \
            f[TOTAL] = m.total;                                            \
            return -2;                                                     \
        }                                                                  \
    }
/* the loop head and tail the decodes share, after MODEL */
#define DECODE_BEGIN                                                       \
    u32 *out = ADDR(u32 *, SYMS);                                          \
    Dec d = {buf, f[LEN], f[POS], (u32)f[RNG], (u32)f[CODE]};              \
    i64 i = f[SYM], limit = f[LIMIT];                                      \
    for (i64 o = 0; o < limit; o++, i++) {
#define DECODE_END                                                         \
    }                                                                      \
    f[RNG] = d.rng; f[CODE] = d.code; f[POS] = d.pos;                      \
    f[SYM] = i; f[TOTAL] = m.total; f[RESCALES] = m.rescales;              \
    return limit;

/* A static stream's symbol table, the paper's direct lookup: tab[c] is
   the symbol whose interval holds code value c, one uint16 entry for
   each c in [0, total), in the work array after hk.  The first call
   writes it after the total check, and later calls read it. */
static void table_init(Model *m) {
    prefix_init(m);
    if (m->total > m->cap)
        return;
    uint16_t *tab = (uint16_t *)(m->hk + m->k + 1);
    for (i64 s = 0; s < m->k; s++)
        for (u32 c = m->hk[s]; c < m->hk[s + 1]; c++)
            tab[c] = (uint16_t)s;
}

/* Each decode reads buf[0:f[LEN]], writes f[LIMIT] symbols to f[SYMS]
   and returns f[LIMIT], or returns -1 once the payload ends before the
   last of them (or -2, see MODEL). */
i64 static_decode(const unsigned char *buf, i64 *f) {
    const uint16_t *tab = (const uint16_t *)(ADDR(u32 *, WORK) + f[K] + 1);
    MODEL(table_init)
    Recip q = recip(m.total);
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
i64 adaptive_decode(const unsigned char *buf, i64 *f) {
    i64 top = 1;  /* top_level_index(K) */
    while (top <= f[K] >> 1)
        top <<= 1;
    MODEL(fenwick_init)
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

/* an encode starts from Encoder(): range 2**32 - 1, low 0, cache 0 and
   a cache size of one; the loop head follows MODEL */
#define ENCODE_BEGIN                                                       \
    const u32 *syms = ADDR(const u32 *, SYMS);                             \
    Enc e = {out, f[LEN], 0, 0, 1, 0, 0xFFFFFFFFu};                        \
    for (i64 i = 0, n = f[LIMIT]; i < n; i++) {                            \
        i64 s = syms[i];
#define ENCODE_END                                                         \
    }                                                                      \
    for (int j = 0; j < 5; j++)  /* Encoder.finish */                      \
        if (!shift_low(&e))                                                \
            return -1;                                                     \
    return e.pos;

/* Each encode codes the stream's f[LIMIT] symbols f[SYMS][0:f[LIMIT]] to
   out, flushes, and returns the bytes in out, or -1 if out (of f[LEN]
   bytes) is full (or -2, see MODEL). */
i64 static_encode(unsigned char *out, i64 *f) {
    MODEL(prefix_init)
    Recip q = recip(m.total);
    ENCODE_BEGIN
        if (!encode(&e, quot(q, e.rng), m.hk[s], m.h[s]))
            return -1;
    ENCODE_END
}

i64 adaptive_encode(unsigned char *out, i64 *f) {
    MODEL(fenwick_init)
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

/* An encode's first pass over syms[0:n]: the index of the first symbol
   at or above k, or n if there is none.  A non-NULL hist, k entries of
   zero, gets the count of each symbol before that index: for a static
   stream, the header's counts, with no numpy call. */
i64 first_pass(const u32 *syms, i64 n, i64 k, u32 *hist) {
    i64 i = 0;
    if (hist)
        for (; i < n && syms[i] < k; i++)
            hist[syms[i]]++;
    else
        for (; i < n && syms[i] < k; i++)
            ;
    return i;
}
