"""C source for the packed-word cache walk (the ``c`` engine's second
half).

This module holds only the cdef/source strings for the
L1 probe → miss walk → LLC fill/evict → monitor chain;
:mod:`repro.engine.c_backend` compiles them into the shared extension
(one translation unit with the Auto-Cuckoo kernel, so the inline
monitor path calls ``acf_access`` directly), and
:mod:`repro.engine.c_cache` owns install and sync.  Keeping
the strings in a leaf module with no repro imports lets c_backend hash
them into the build-cache tag without import cycles.

The C code is an exact-uint64 port of ``CacheHierarchy.access``, one
C function per Python body as the table below pairs them, so each
body has exactly one C twin to keep bit-identical; the compiler
(``-O3``) does the inlining.  Both sides share the packed-word bit
layout (``cache/line.py``), the statistics ordering, the channel
arithmetic and the Mersenne-Twister ``_randbelow`` draw sequence for
``lru_rand`` and ``random`` victims.  The Python walk probes an array
through ``_map`` directly; ``lookup`` is that probe's public form.

============================================  ==========================
Python body                                   C function
============================================  ==========================
``CacheHierarchy.access``                     ``cw_access``
``CacheHierarchy.clflush``                    ``cw_clflush``
``CacheHierarchy.prefetch_fill``              ``cw_prefetch_fill``
``CacheHierarchy._write_hit``                 ``cw_write_hit``
``CacheHierarchy._mark_written``              ``cw_mark_written``
``CacheHierarchy._serve_llc_hit``             ``cw_serve_llc_hit``
``CacheHierarchy._flush_core_line``           ``cw_flush_core_line``
``CacheHierarchy._invalidate_other_sharers``  ``cw_inval_other``
``CacheHierarchy._scrub_sharers``             ``cw_scrub_sharers``
``CacheHierarchy._set_core_state``            ``cw_set_state``
``CacheHierarchy._fill_private``              ``cw_fill_private``
``CacheHierarchy._handle_l2_eviction``        ``cw_handle_l2_eviction``
``CacheHierarchy._fill_l1``                   ``cw_fill_l1``
``CacheHierarchy._fetch_into_llc``            ``cw_fetch_into_llc``
``CacheHierarchy._handle_llc_eviction``       ``cw_handle_llc_eviction``
``SetAssociativeCache._fill``                 ``cw_fill``
``SetAssociativeCache.touch``                 ``cw_touch``
``SetAssociativeCache.lookup``                ``cw_slot``
``SetAssociativeCache._remove_word``          ``cw_del``
``SlicedLLC.slice_of``                        ``cw_slice_idx``
``MemoryController.fetch``                    ``cw_mc_fetch``
``MemoryController.writeback``                ``cw_mc_writeback``
============================================  ==========================

``tests/test_engine_kernels.py`` holds the table to the code: every
row names a C function the extension defines and a Python function
that exists, and every ``static`` function of the walk has a row,
except the ``_memory_versions`` map, the Mersenne Twister, the record
emitter and the scheduler's helpers.  A change to a body is made in
both columns of its row.

Storage is C-owned: per-cache flat tag/word/stamp arrays (admissible
because every policy's victim is a function of the stamps, which are
unique per cache, and a random set's fill order is its stamp order,
so dict iteration order is unobservable), plus one open-addressed u64
map for ``_memory_versions``.  Monitor side effects that live in
Python (alarm publication, captured-line tracking, the pEvict/prefetch
tail) come back through ``extern "Python"`` callbacks.

Error protocol: walk entry points return a negative latency (or the
prefetch helper -1) after setting ``err``/``err_addr``/``err_cache``
on the state; the Python wrappers re-raise the exact exception the
generic engine would have raised (duplicate insert, inclusion
violations, or a stored callback exception).

The same translation unit carries the C-resident run loop
(``cw_schedule``, PERFORMANCE.md rule 19): a port of the five
synthetic archetypes' record emission (``workloads/synthetic.py``,
MT19937 draw for draw), of ``random.Random(int)``'s seeding
(``cw_mt_seed``, CPython's ``init_by_array``), of the pointer chase's
chain (``cw_chain``, ``Random.shuffle`` draw for draw) and of
``MulticoreSystem.run``'s earliest-core-first loop around
``cw_access``.  It returns to Python when an event is due, after a
step that made a callback (counted in ``cw_hier.callbacks``), on a
walk error, and when every core is done.
"""

# Cache array layout inside ``cw_hier.caches``:
#   l1d[0..C) | l1i[C..2C) | l2[2C..3C) | llc slices[3C..3C+S)
# Entry addressing within one cw_cache: slot = (line & set_mask)*ways + way,
# with CW_EMPTY (all-ones) tagging a free way.

#: Every struct Python and C share, written once and spliced into both
#: the cdef (cffi drops the comments) and the source.
_TYPES = """
typedef struct {
    uint64_t *tags;
    uint64_t *words;
    uint64_t *stamps;
    uint16_t *counts;
    uint64_t stamp;
    uint64_t hits;
    uint64_t misses;
    uint64_t evictions;
    uint64_t set_mask;
    uint32_t ways;
} cw_cache;

typedef struct {
    uint32_t mt[624];
    uint32_t mti;
    uint32_t out[624];
} cw_mt;

typedef struct {
    uint64_t *keys;
    uint64_t *vals;
    uint64_t cap;
    uint64_t count;
} cw_map;

typedef struct {
    cw_cache *caches;
    int num_cores;
    int num_slices;
    int line_bits;
    int64_t l1_lat;
    int64_t l2_lat;
    int64_t llc_lat;
    int64_t dfp;
    int llc_set_bits;
    int llc_slice_shift;
    int llc_touch;            /* LLC hits restamp (not under random) */
    int llc_victim_rand;      /* 0: min stamp; 1: the pool draw */
    int pool_size;            /* draw size, at most ways (random: ways) */
    int rbits;                /* pool_size.bit_length() */
    cw_mt *rng;               /* per slice: the policy's random.Random */
    uint64_t write_counter;
    int64_t channel_free_at;
    int64_t burst_cycles;
    int64_t dram_latency;
    uint64_t total_queue_wait;
    uint64_t demand_fetches;
    uint64_t prefetch_fetches;
    uint64_t writebacks;
    cw_map memver;
    uint64_t s_writes;
    uint64_t s_ifetches;
    uint64_t s_l1_hits;
    uint64_t s_l1_misses;
    uint64_t s_l2_hits;
    uint64_t s_l2_misses;
    uint64_t s_llc_hits;
    uint64_t s_llc_misses;
    uint64_t s_llc_evictions;
    uint64_t s_l2_evictions;
    uint64_t s_back_invalidations;
    uint64_t s_writebacks_to_memory;
    uint64_t s_upgrades;
    uint64_t s_dirty_forwards;
    uint64_t s_prefetch_fills;
    uint64_t s_prefetch_skipped;
    uint64_t s_flushes;
    uint64_t s_flush_hits;
    uint64_t s_flush_writebacks;
    uint64_t s_flush_back_invalidations;
    uint64_t s_total_latency;
    uint64_t *per_core;
    int mon_kind;
    int needs_all;
    int capture_cb;
    uint32_t thresh;
    acf_state *acf;
    uint64_t m_accesses;
    uint64_t m_captures;
    void *ctx;
    int err;
    int err_cache;
    uint64_t err_addr;
    uint64_t callbacks;  /* Python callbacks made; cw_schedule returns on a change */
} cw_hier;

typedef struct {
    cw_mt rng;                /* the stream's random.Random, via cw_mt_seed */
    const uint64_t *chain;    /* pointer chase: the cycle cw_chain built */
    double gap_frac;
    double write_fraction;
    double ifetch_limit;
    double conflict_limit;
    double hot_probability;
    int64_t gap_base;
    int64_t visits_per_line;
    uint64_t data_base;
    uint64_t code_base;
    uint64_t num_lines;
    uint64_t hot_lines;
    uint64_t code_lines;
    uint64_t conflict_lines;
    uint64_t conflict_base;
    uint64_t conflict_stride;
    int64_t side;             /* stencil grid side */
    int kind;                 /* 0 stream, 1 random, 2 pointer, 3 stencil, 4 hotcold */
    int num_shift;            /* 32 - num_lines.bit_length() */
    int hot_shift;            /* 32 - hot_lines.bit_length() */
    /* Emission state (the locals of _SyntheticWorkload.generator). */
    int64_t position;
    uint64_t code_line;
    uint64_t conflict_index;
    uint64_t current_line;
    int64_t visits_left;
    int64_t st_i;
    int64_t st_j;
    int64_t st_k;
    /* Core state (Core.time / instructions / memory_ops / pending op). */
    int64_t time;
    int64_t instructions;
    int64_t memory_ops;
    int64_t penalty;          /* Core.penalty, refreshed before every entry */
    uint64_t pending_addr;
    int pending_op;
    int finished;
} cw_core;

typedef struct {
    cw_core *cores;
    int num_cores;
    int started;
    int64_t budget;
    int64_t event_at;         /* earliest pending event (INT64_MAX: none) */
    int64_t due;              /* out: the next core's time on CW_SCHED_EVENT */
} cw_sched;
"""

WALK_CDEF = _TYPES + """
int64_t cw_access(cw_hier *h, int core, int op, uint64_t addr, int64_t now);
int64_t cw_clflush(cw_hier *h, int core, uint64_t addr, int64_t now);
int cw_prefetch_fill(cw_hier *h, uint64_t line_addr, int64_t now, int tag);
int cw_schedule(cw_hier *h, cw_sched *s);
void cw_emit(cw_core *c, int64_t n, int64_t *gaps, int32_t *ops,
             uint64_t *addrs);
int cw_chain(cw_mt *r, uint64_t n, uint64_t *chain);
void cw_mt_seed(cw_mt *r, uint64_t seed);
void cw_mt_temper(cw_mt *r);
int cw_map_put(cw_hier *h, uint64_t key, uint64_t val);
void cw_map_items(cw_hier *h, uint64_t *keys_out, uint64_t *vals_out);
void cw_hier_free(cw_hier *h);

extern "Python" int cw_cb_access(void *ctx, uint64_t line_addr, int64_t now);
extern "Python" int cw_cb_capture(void *ctx, uint64_t line_addr, int64_t now);
extern "Python" int cw_cb_evict(void *ctx, uint64_t vaddr, uint64_t vword,
                                uint64_t vstamp, int64_t now);
"""

WALK_SOURCE = """
#include <stdlib.h>
#include <string.h>

#define CW_EMPTY 0xFFFFFFFFFFFFFFFFULL

/* Packed-word bit layout (cache/line.py): DIRTY=1, PINGPONG=2,
 * ACCESSED=4, state at bits 3..4, sharers at bits 5..20, version from
 * bit 21.  Masks below mirror hierarchy.py's aliases exactly. */
#define CW_VB        0x1FFFFFULL   /* VERSION_BELOW */
#define CW_KEEPFLUSH 0x1FFFE6ULL   /* (VB ^ DIRTY) & ~STATE_MASK */
#define CW_VBNSF     0x1EULL       /* VB & ~sharers_field & ~DIRTY */
#define CW_SMASK     0xFFFFULL
#define CW_SMULT     0x9E3779B97F4A7C15ULL

""" + _TYPES + """
static int cw_cb_access(void *ctx, uint64_t line_addr, int64_t now);
static int cw_cb_capture(void *ctx, uint64_t line_addr, int64_t now);
static int cw_cb_evict(void *ctx, uint64_t vaddr, uint64_t vword,
                       uint64_t vstamp, int64_t now);

/* Error codes stored in cw_hier.err (Python re-raises). */
#define CW_ERR_DUP       1   /* duplicate insert (ValueError) */
#define CW_ERR_INCL_L2   2   /* L2 victim absent from LLC */
#define CW_ERR_INCL_UPG  3   /* upgrade on line absent from LLC */
#define CW_ERR_OOM       4   /* memver map allocation failure */
#define CW_ERR_LOST_PF   5   /* prefetched line vanished mid-fill */
#define CW_ERR_CALLBACK  100 /* Python callback raised */

/* ------------------------------------------------------------------ */
/* Open-addressed u64 -> u64 map (_memory_versions).  C-owned (it must
 * grow unboundedly over a run); absent keys read as 0, matching the
 * Python dict's .get(line, 0). */

static uint64_t cw_map_hash(uint64_t k)
{
    k ^= k >> 30; k *= 0xBF58476D1CE4E5B9ULL;
    k ^= k >> 27; k *= 0x94D049BB133111EBULL;
    return k ^ (k >> 31);
}

static uint64_t cw_map_get(const cw_map *m, uint64_t key)
{
    uint64_t mask, i;
    if (!m->cap)
        return 0;
    mask = m->cap - 1;
    i = cw_map_hash(key) & mask;
    for (;;) {
        uint64_t k = m->keys[i];
        if (k == key)
            return m->vals[i];
        if (k == CW_EMPTY)
            return 0;
        i = (i + 1) & mask;
    }
}

static int cw_map_set(cw_map *m, uint64_t key, uint64_t val)
{
    uint64_t mask, i;
    if ((m->count + 1) * 10 >= m->cap * 7) {
        uint64_t ncap = m->cap ? m->cap * 2 : 1024;
        uint64_t nmask = ncap - 1, j;
        uint64_t *nk = (uint64_t *)malloc(ncap * sizeof(uint64_t));
        uint64_t *nv = (uint64_t *)malloc(ncap * sizeof(uint64_t));
        if (!nk || !nv) {
            free(nk);
            free(nv);
            return -1;
        }
        memset(nk, 0xFF, ncap * sizeof(uint64_t));
        for (j = 0; j < m->cap; j++) {
            uint64_t k = m->keys[j];
            if (k == CW_EMPTY)
                continue;
            i = cw_map_hash(k) & nmask;
            while (nk[i] != CW_EMPTY)
                i = (i + 1) & nmask;
            nk[i] = k;
            nv[i] = m->vals[j];
        }
        free(m->keys);
        free(m->vals);
        m->keys = nk;
        m->vals = nv;
        m->cap = ncap;
    }
    mask = m->cap - 1;
    i = cw_map_hash(key) & mask;
    for (;;) {
        uint64_t k = m->keys[i];
        if (k == key) {
            m->vals[i] = val;
            return 0;
        }
        if (k == CW_EMPTY) {
            m->keys[i] = key;
            m->vals[i] = val;
            m->count++;
            return 0;
        }
        i = (i + 1) & mask;
    }
}

int cw_map_put(cw_hier *h, uint64_t key, uint64_t val)
{
    return cw_map_set(&h->memver, key, val);
}

void cw_map_items(cw_hier *h, uint64_t *keys_out, uint64_t *vals_out)
{
    uint64_t i, n = 0;
    for (i = 0; i < h->memver.cap; i++) {
        if (h->memver.keys[i] == CW_EMPTY)
            continue;
        keys_out[n] = h->memver.keys[i];
        vals_out[n] = h->memver.vals[i];
        n++;
    }
}

void cw_hier_free(cw_hier *h)
{
    free(h->memver.keys);
    free(h->memver.vals);
    h->memver.keys = NULL;
    h->memver.vals = NULL;
    h->memver.cap = 0;
    h->memver.count = 0;
}

/* ------------------------------------------------------------------ */
/* Mersenne Twister (CPython's random.getrandbits(k <= 32) is
 * genrand_uint32() >> (32-k)).  mt[] and mti are CPython's state, the
 * untempered words and the index; out[] holds the same block tempered,
 * so a draw is a load and only a refill, once per 624 draws, twists.
 * An emitter's state is seeded here (cw_mt_seed, mti = 624: the first
 * draw refills); an LLC slice's is imported from Random.getstate() on
 * install, tempered in place without a twist (cw_mt_temper), and
 * exported through Random.setstate() by sync_lines. */

/* random.Random(seed) for 0 <= seed < 2**64: CPython's init_by_array
 * over the seed's 32-bit words, low word first (one word below 2**32,
 * zero included, two from 2**32 up), after init_genrand(19650218). */
void cw_mt_seed(cw_mt *r, uint64_t seed)
{
    uint32_t *mt = r->mt;
    uint32_t key[2], len = (seed >> 32) ? 2 : 1, i, j = 0, k;
    key[0] = (uint32_t)seed;
    key[1] = (uint32_t)(seed >> 32);
    mt[0] = 19650218U;
    for (i = 1; i < 624; i++)
        mt[i] = 1812433253U * (mt[i - 1] ^ (mt[i - 1] >> 30)) + i;
    i = 1;
    for (k = 624; k; k--) {   /* max(624, len) rounds */
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U))
            + key[j] + j;
        i++;
        j++;
        if (i >= 624) {
            mt[0] = mt[623];
            i = 1;
        }
        if (j >= len)
            j = 0;
    }
    for (k = 623; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U))
            - i;
        i++;
        if (i >= 624) {
            mt[0] = mt[623];
            i = 1;
        }
    }
    mt[0] = 0x80000000U;
    r->mti = 624;
}

/* Temper all 624 words of mt[] into out[], so a draw is one load.
 * Install calls it alone on an imported Random.getstate(): the words
 * from mti on are the ones that state has still to hand out. */
void cw_mt_temper(cw_mt *r)
{
    int i;
    for (i = 0; i < 624; i++) {
        uint32_t y = r->mt[i];
        y ^= (y >> 11);
        y ^= (y << 7) & 0x9D2C5680U;
        y ^= (y << 15) & 0xEFC60000U;
        r->out[i] = y ^ (y >> 18);
    }
}

/* Twist the spent block, then temper the new one. */
static void cw_mt_refill(cw_mt *r)
{
    uint32_t y;
    int kk;
    for (kk = 0; kk < 624 - 397; kk++) {
        y = (r->mt[kk] & 0x80000000U) | (r->mt[kk + 1] & 0x7FFFFFFFU);
        r->mt[kk] = r->mt[kk + 397] ^ (y >> 1)
            ^ ((y & 1U) ? 0x9908B0DFU : 0U);
    }
    for (; kk < 623; kk++) {
        y = (r->mt[kk] & 0x80000000U) | (r->mt[kk + 1] & 0x7FFFFFFFU);
        r->mt[kk] = r->mt[kk + (397 - 624)] ^ (y >> 1)
            ^ ((y & 1U) ? 0x9908B0DFU : 0U);
    }
    y = (r->mt[623] & 0x80000000U) | (r->mt[0] & 0x7FFFFFFFU);
    r->mt[623] = r->mt[396] ^ (y >> 1) ^ ((y & 1U) ? 0x9908B0DFU : 0U);
    cw_mt_temper(r);
    r->mti = 0;
}

static uint32_t cw_genrand(cw_mt *r)
{
    if (r->mti >= 624)
        cw_mt_refill(r);
    return r->out[r->mti++];
}

/* random.Random.random(): CPython's genrand_res53. */
static double cw_random(cw_mt *r)
{
    uint32_t a = cw_genrand(r) >> 5, b = cw_genrand(r) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* random.Random.randrange(n) for 0 < n < 2**32: getrandbits(k)
 * rejection with k = n.bit_length() (shift = 32 - k). */
static uint64_t cw_randbelow(cw_mt *r, uint64_t n, int shift)
{
    uint64_t v = cw_genrand(r) >> shift;
    while (v >= n)
        v = cw_genrand(r) >> shift;
    return v;
}

/* ------------------------------------------------------------------ */
/* Cache-array primitives. */

/* The probe (_map.get): line_addr's slot, or -1 when absent.  Every
 * way is scanned without an early exit (a tag is in a set at most
 * once, cw_fill refuses a duplicate), so the loop has no branch. */
static int64_t cw_slot(const cw_cache *c, uint64_t line_addr)
{
    uint64_t base = (line_addr & c->set_mask) * c->ways;
    const uint64_t *tags = c->tags + base;
    int64_t slot = -1;
    uint32_t i;
    for (i = 0; i < c->ways; i++)
        slot = tags[i] == line_addr ? (int64_t)(base + i) : slot;
    return slot;
}

/* _remove_word, at the slot the probe found. */
static void cw_del(cw_cache *c, int64_t slot, uint64_t line_addr)
{
    c->tags[slot] = CW_EMPTY;
    c->counts[line_addr & c->set_mask]--;
}

static int cw_slice_idx(const cw_hier *h, uint64_t line_addr)
{
    if (h->num_slices == 1)
        return 0;
    return (int)(((line_addr >> h->llc_set_bits) * CW_SMULT)
                 >> h->llc_slice_shift);
}

/* _fill on cache cidx: returns 1 with the victim's tag, word and stamp
 * in *v_addr, *v_word, *v_stamp when the set was full, 0 when it had a
 * free way, -1 on a duplicate insert.  One pass over the set makes the
 * duplicate check and, in a full set, finds the smallest stamp.  A set
 * with a free way takes its first empty way and never reads its stamps
 * (in a fresh cache, a read before the first write would fault each
 * untouched stamp page twice).  A full set's victim is that smallest
 * stamp or, handed a slice's MT state, the pool draw of lru_rand and
 * random: the exact _randbelow_with_getrandbits redraw v over
 * pool_size, then v more scans, each taking the smallest stamp above
 * the last one (stamps are unique per cache and start at 1, so this is
 * entry v of Python's sorted pool and, for random, of its fill order).
 * The new line takes the victim's way. */
static int cw_fill(cw_hier *h, int cidx, uint64_t line_addr, uint64_t word,
                   cw_mt *rng, uint64_t *v_addr, uint64_t *v_word,
                   uint64_t *v_stamp)
{
    cw_cache *c = &h->caches[cidx];
    uint64_t set = line_addr & c->set_mask;
    uint64_t base = set * c->ways;
    uint64_t *tags = c->tags + base;
    uint64_t *stamps = c->stamps + base;
    int full = c->counts[set] >= c->ways;
    uint64_t best = CW_EMPTY;
    uint32_t i, way = 0;
    int dup = 0;
    for (i = 0; i < c->ways; i++) {
        dup |= tags[i] == line_addr;
        if (full && stamps[i] < best) {
            best = stamps[i];
            way = i;
        }
    }
    if (dup) {
        h->err = CW_ERR_DUP;
        h->err_addr = line_addr;
        h->err_cache = cidx;
        return -1;
    }
    if (full) {
        uint64_t v = 0;
        if (rng)
            v = cw_randbelow(rng, (uint64_t)h->pool_size, 32 - h->rbits);
        while (v--) {
            uint64_t above = best;
            best = CW_EMPTY;
            for (i = 0; i < c->ways; i++) {
                if (stamps[i] > above && stamps[i] < best) {
                    best = stamps[i];
                    way = i;
                }
            }
        }
        *v_addr = tags[way];
        *v_word = c->words[base + way];
        *v_stamp = stamps[way];
        c->evictions++;
    } else {
        while (tags[way] != CW_EMPTY)
            way++;
        c->counts[set]++;
    }
    c->stamp++;
    tags[way] = line_addr;
    c->words[base + way] = word;
    stamps[way] = c->stamp;
    return full;
}

/* touch of the line in slot; restamp is the policy's touch_stamps
 * (always on the private levels, llc_touch on the LLC). */
static void cw_touch(cw_cache *c, int64_t slot, int restamp)
{
    c->stamp++;
    if (restamp)
        c->stamps[slot] = c->stamp;
}

/* ------------------------------------------------------------------ */
/* The memory controller. */

static int64_t cw_mc_fetch(cw_hier *h, int64_t now, int prefetch)
{
    int64_t start = now > h->channel_free_at ? now : h->channel_free_at;
    h->channel_free_at = start + h->burst_cycles;
    h->total_queue_wait += (uint64_t)(start - now);
    if (prefetch)
        h->prefetch_fetches++;
    else
        h->demand_fetches++;
    return start - now + h->dram_latency;
}

static void cw_mc_writeback(cw_hier *h, int64_t now)
{
    int64_t start = now > h->channel_free_at ? now : h->channel_free_at;
    h->channel_free_at = start + h->burst_cycles;
    h->total_queue_wait += (uint64_t)(start - now);
    h->writebacks++;
}

/* ------------------------------------------------------------------ */
/* The hierarchy's bodies, one C function each (the twin table). */

/* _scrub_sharers: drop the line from every private level of each core
 * in sharers, merging the dropped copies' dirty data into *dirty and
 * *version (the caller's own word's pair). */
static void cw_scrub_sharers(cw_hier *h, uint64_t line_addr, uint64_t sharers,
                             uint64_t *dirty, uint64_t *version)
{
    int core, i;
    for (core = 0; sharers; core++, sharers >>= 1) {
        if (!(sharers & 1))
            continue;
        for (i = 0; i < 3; i++) {
            cw_cache *c = &h->caches[i * h->num_cores + core];
            int64_t s = cw_slot(c, line_addr);
            uint64_t w;
            if (s < 0)
                continue;
            w = c->words[s];
            cw_del(c, s, line_addr);
            if (w & 1) {
                *dirty = 1;
                if ((w >> 21) > *version)
                    *version = w >> 21;
            }
        }
    }
}

static void cw_set_state(cw_hier *h, int core, uint64_t line_addr,
                         uint64_t state)
{
    uint64_t bits = state << 3;
    int i;
    for (i = 0; i < 3; i++) {
        cw_cache *c = &h->caches[i * h->num_cores + core];
        int64_t s = cw_slot(c, line_addr);
        if (s >= 0)
            c->words[s] = (c->words[s] & ~0x18ULL) | bits;
    }
}

static void cw_mark_written(cw_hier *h, int core, uint64_t line_addr)
{
    cw_cache *l1d = &h->caches[core];
    int64_t s;
    h->write_counter++;
    s = cw_slot(l1d, line_addr);
    if (s >= 0)
        l1d->words[s] = (l1d->words[s] & CW_VB) | (h->write_counter << 21)
            | 1ULL;
}

/* _flush_core_line: demote core's copies to SHARED, merging dirty
 * data into the LLC word; returns 1 when dirty data was forwarded. */
static int cw_flush_core_line(cw_hier *h, int core, uint64_t line_addr,
                              cw_cache *sl, int64_t ls)
{
    uint64_t lw = sl->words[ls];
    uint64_t newest = lw >> 21;
    int forwarded = 0, i, nh = 0;
    cw_cache *hc[3];
    int64_t hs[3];
    for (i = 0; i < 3; i++) {
        cw_cache *c = &h->caches[i * h->num_cores + core];
        int64_t s = cw_slot(c, line_addr);
        uint64_t w;
        if (s < 0)
            continue;
        hc[nh] = c;
        hs[nh] = s;
        nh++;
        w = c->words[s];
        if (w & 1) {
            uint64_t v = w >> 21;
            if (v > newest)
                newest = v;
            lw |= 1ULL;
            forwarded = 1;
        }
    }
    sl->words[ls] = (lw & CW_VB) | (newest << 21);
    for (i = 0; i < nh; i++)
        hc[i]->words[hs[i]] = (hc[i]->words[hs[i]] & CW_KEEPFLUSH)
            | (1ULL << 3) | (newest << 21);
    return forwarded;
}

static void cw_inval_other(cw_hier *h, int core, uint64_t line_addr,
                           cw_cache *sl, int64_t ls)
{
    uint64_t lw = sl->words[ls];
    uint64_t sharers = (lw >> 5) & CW_SMASK;
    uint64_t dirty = lw & 1;
    uint64_t version = lw >> 21;
    cw_scrub_sharers(h, line_addr, sharers & ~(1ULL << core),
                     &dirty, &version);
    sl->words[ls] = (lw & CW_VBNSF) | dirty
        | ((sharers & (1ULL << core)) << 5) | (version << 21);
}

/* _write_hit: returns extra latency, or -1 with err set. */
static int64_t cw_write_hit(cw_hier *h, int core, uint64_t line_addr,
                            uint64_t state)
{
    int64_t extra = 0;
    if (state == 1) {  /* SHARED -> MODIFIED upgrade */
        cw_cache *sl;
        int64_t ls;
        uint64_t lw;
        extra = h->llc_lat;
        h->s_upgrades++;
        sl = &h->caches[3 * h->num_cores + cw_slice_idx(h, line_addr)];
        ls = cw_slot(sl, line_addr);
        if (ls < 0) {
            h->err = CW_ERR_INCL_UPG;
            h->err_addr = line_addr;
            return -1;
        }
        cw_inval_other(h, core, line_addr, sl, ls);
        lw = sl->words[ls];
        if (lw & 2)
            sl->words[ls] = lw | 4;
    }
    cw_set_state(h, core, line_addr, 3);
    return extra;
}

/* _handle_l2_eviction: an L2 inclusion victim purges the core's L1
 * copies (the L2 copy is already gone), writes the merged dirty data
 * back into the LLC word and releases the directory presence bit. */
static int cw_handle_l2_eviction(cw_hier *h, int core, uint64_t vaddr,
                                 uint64_t vword)
{
    uint64_t dirty = vword & 1;
    uint64_t version = vword >> 21;
    cw_cache *sl;
    int64_t ls;
    uint64_t lw;
    h->s_l2_evictions++;
    cw_scrub_sharers(h, vaddr, 1ULL << core, &dirty, &version);
    sl = &h->caches[3 * h->num_cores + cw_slice_idx(h, vaddr)];
    ls = cw_slot(sl, vaddr);
    if (ls < 0) {
        h->err = CW_ERR_INCL_L2;
        h->err_addr = vaddr;
        return -1;
    }
    lw = sl->words[ls];
    if (dirty) {
        if (version > (lw >> 21))
            lw = (lw & CW_VB) | (version << 21);
        lw |= 1ULL;
    }
    sl->words[ls] = lw & ~(1ULL << (core + 5));
    return 0;
}

/* _fill_l1: fill one of core's L1s; a dirty victim writes back into
 * the core's L2 copy (present by inclusion). */
static int cw_fill_l1(cw_hier *h, int core, int l1_idx, uint64_t line_addr,
                      uint64_t word)
{
    uint64_t vaddr, vword, vstamp;
    int r = cw_fill(h, l1_idx, line_addr, word, NULL, &vaddr, &vword,
                    &vstamp);
    if (r <= 0)
        return r;
    if (vword & 1) {
        cw_cache *l2 = &h->caches[2 * h->num_cores + core];
        int64_t s = cw_slot(l2, vaddr);
        if (s >= 0) {
            uint64_t w = l2->words[s];
            uint64_t v = vword >> 21;
            if (v > (w >> 21))
                w = (w & CW_VB) | (v << 21);
            l2->words[s] = w | 1ULL;
        }
    }
    return 0;
}

/* _fill_private: fill the core's L2 and L1 from the LLC word in slot
 * ls, then set the core's directory presence bit. */
static int cw_fill_private(cw_hier *h, int core, int op, uint64_t line_addr,
                           uint64_t state, cw_cache *sl, int64_t ls)
{
    uint64_t llc_word = sl->words[ls];
    uint64_t word = ((llc_word >> 21) << 21) | (state << 3);
    uint64_t vaddr, vword, vstamp;
    int r = cw_fill(h, 2 * h->num_cores + core, line_addr, word, NULL,
                    &vaddr, &vword, &vstamp);
    if (r < 0)
        return -1;
    if (r && cw_handle_l2_eviction(h, core, vaddr, vword) < 0)
        return -1;
    if (cw_fill_l1(h, core, (op == 2 ? h->num_cores : 0) + core, line_addr,
                   word) < 0)
        return -1;
    /* llc_word is still current: the victim handling above only
     * rewrites other addresses' words. */
    sl->words[ls] = llc_word | (1ULL << (core + 5));
    return 0;
}

/* _handle_llc_eviction: a line that left the LLC, a capacity victim
 * or a clflush, in one body: the monitor hook while its directory
 * state is intact, the sharer scrub, then the writeback of the merged
 * dirty data.  Returns 1 when it wrote back, 0 when not, -1 with err
 * set; each caller keeps its own counters. */
static int cw_handle_llc_eviction(cw_hier *h, uint64_t vaddr, uint64_t vword,
                                  uint64_t vstamp, int64_t now)
{
    uint64_t dirty = vword & 1;
    uint64_t version = vword >> 21;
    if (h->mon_kind && ((vword & 2) || h->needs_all)) {
        h->callbacks++;
        if (cw_cb_evict(h->ctx, vaddr, vword, vstamp, now) != 0) {
            h->err = CW_ERR_CALLBACK;
            return -1;
        }
    }
    cw_scrub_sharers(h, vaddr, (vword >> 5) & CW_SMASK, &dirty, &version);
    if (!dirty)
        return 0;
    cw_mc_writeback(h, now);
    if (cw_map_set(&h->memver, vaddr, version) < 0) {
        h->err = CW_ERR_OOM;
        return -1;
    }
    h->s_writebacks_to_memory++;
    return 1;
}

/* _fetch_into_llc: fill slice si from memory; returns the memory
 * latency or -1. */
static int64_t cw_fetch_into_llc(cw_hier *h, uint64_t line_addr, int64_t now,
                                 int demand, int si)
{
    int captured = 0, r;
    int64_t latency;
    uint64_t flags, sharers, vaddr, vword, vstamp;
    if (demand && h->mon_kind) {
        if (h->mon_kind == 1) {
            /* PiPoMonitor inline: stats bump + Auto-Cuckoo access in
             * C; capture side effects (captured_lines, alarm publish)
             * via callback only when the config has them. */
            h->m_accesses++;
            if (acf_access(h->acf, line_addr) >= (int)h->thresh) {
                h->m_captures++;
                if (h->capture_cb) {
                    h->callbacks++;
                    if (cw_cb_capture(h->ctx, line_addr, now) != 0) {
                        h->err = CW_ERR_CALLBACK;
                        return -1;
                    }
                }
                captured = 1;
            }
        } else {
            h->callbacks++;
            captured = cw_cb_access(h->ctx, line_addr, now);
            if (captured < 0) {
                h->err = CW_ERR_CALLBACK;
                return -1;
            }
        }
    }
    latency = cw_mc_fetch(h, now, !demand);
    /* A captured demand fill is tagged and accessed; a prefetch fill
     * stays tagged with the access bit cleared. */
    if (demand)
        flags = captured ? 6ULL : 0ULL;
    else
        flags = 2ULL;
    r = cw_fill(h, 3 * h->num_cores + si, line_addr,
                (cw_map_get(&h->memver, line_addr) << 21) | flags,
                h->llc_victim_rand ? &h->rng[si] : NULL,
                &vaddr, &vword, &vstamp);
    if (r < 0)
        return -1;
    if (r) {
        h->s_llc_evictions++;
        if (cw_handle_llc_eviction(h, vaddr, vword, vstamp, now) < 0)
            return -1;
        for (sharers = (vword >> 5) & CW_SMASK; sharers;
             sharers &= sharers - 1)
            h->s_back_invalidations++;
    }
    return latency;
}

/* _serve_llc_hit: returns the coherence penalty or -1. */
static int64_t cw_serve_llc_hit(cw_hier *h, int core, int op,
                                uint64_t line_addr, cw_cache *sl,
                                int64_t ls)
{
    int64_t penalty = 0;
    uint64_t lw = sl->words[ls];
    uint64_t others = ((lw >> 5) & CW_SMASK) & ~(1ULL << core);
    uint64_t state;
    if (others) {
        int other;
        for (other = 0; other < h->num_cores; other++) {
            if (!((others >> other) & 1))
                continue;
            if (cw_flush_core_line(h, other, line_addr, sl, ls)) {
                penalty += h->dfp;
                h->s_dirty_forwards++;
            }
        }
        if (op == 1) {
            cw_inval_other(h, core, line_addr, sl, ls);
            state = 3;
        } else {
            state = 1;
        }
        lw = sl->words[ls];
    } else {
        state = (op == 1) ? 3 : 2;
    }
    if (lw & 2)
        sl->words[ls] = lw | 4;
    if (cw_fill_private(h, core, op, line_addr, state, sl, ls) < 0)
        return -1;
    cw_touch(sl, ls, h->llc_touch);
    return penalty;
}

/* ------------------------------------------------------------------ */
/* Entry points. */

int64_t cw_clflush(cw_hier *h, int core, uint64_t addr, int64_t now)
{
    uint64_t line_addr = addr >> h->line_bits;
    int64_t latency = h->l1_lat + h->llc_lat;
    cw_cache *sl = &h->caches[3 * h->num_cores + cw_slice_idx(h, line_addr)];
    int64_t ls;
    uint64_t word, stamp, sharers;
    int wrote_back;
    /* The issuer needs no special case: a flush hits every sharer,
     * the issuing core included.  The parameter mirrors
     * clflush(core, addr, now). */
    (void)core;
    h->s_flushes++;
    ls = cw_slot(sl, line_addr);
    if (ls < 0)
        return latency;
    word = sl->words[ls];
    stamp = sl->stamps[ls];
    cw_del(sl, ls, line_addr);
    h->s_flush_hits++;
    latency += h->llc_lat;
    wrote_back = cw_handle_llc_eviction(h, line_addr, word, stamp, now);
    if (wrote_back < 0)
        return -1;
    for (sharers = (word >> 5) & CW_SMASK; sharers; sharers &= sharers - 1)
        h->s_flush_back_invalidations++;
    if (wrote_back) {
        h->s_flush_writebacks++;
        latency += h->dram_latency;
    }
    return latency;
}

int cw_prefetch_fill(cw_hier *h, uint64_t line_addr, int64_t now, int tag)
{
    int si = cw_slice_idx(h, line_addr);
    cw_cache *sl = &h->caches[3 * h->num_cores + si];
    int64_t ls;
    uint64_t w;
    if (cw_slot(sl, line_addr) >= 0) {
        h->s_prefetch_skipped++;
        return 0;
    }
    if (cw_fetch_into_llc(h, line_addr, now, 0, si) < 0)
        return -1;
    ls = cw_slot(sl, line_addr);
    if (ls < 0) {
        /* The generic engine would KeyError here; it cannot happen
         * (an eviction chain never evicts the line just inserted). */
        h->err = CW_ERR_LOST_PF;
        h->err_addr = line_addr;
        return -1;
    }
    w = sl->words[ls];
    sl->words[ls] = tag ? (w | 2ULL) : (w & ~2ULL);
    h->s_prefetch_fills++;
    return 1;
}

int64_t cw_access(cw_hier *h, int core, int op, uint64_t addr, int64_t now)
{
    uint64_t line_addr = addr >> h->line_bits;
    int l1_idx = (op == 2 ? h->num_cores : 0) + core;
    cw_cache *l1 = &h->caches[l1_idx];
    int64_t latency = h->l1_lat, s, extra;
    if (op == 3)  /* OP_FLUSH: its own service path */
        return cw_clflush(h, core, addr, now);
    s = cw_slot(l1, line_addr);
    if (s >= 0) {
        l1->hits++;
        h->s_l1_hits++;
        if (op == 1) {
            uint64_t state = (l1->words[s] >> 3) & 3;
            /* A repeat write to an M line skips the upgrade: an M L1
             * copy implies M on every private level. */
            if (state != 3) {
                extra = cw_write_hit(h, core, line_addr, state);
                if (extra < 0)
                    return -1;
                latency += extra;
            }
        }
        cw_touch(l1, s, 1);
    } else {
        cw_cache *l2 = &h->caches[2 * h->num_cores + core];
        l1->misses++;
        h->s_l1_misses++;
        latency += h->l2_lat;
        s = cw_slot(l2, line_addr);
        if (s >= 0) {
            uint64_t w;
            l2->hits++;
            h->s_l2_hits++;
            if (op == 1) {
                extra = cw_write_hit(h, core, line_addr,
                                     (l2->words[s] >> 3) & 3);
                if (extra < 0)
                    return -1;
                latency += extra;
            }
            /* The L1 copy takes the L2 copy's version and state (the
             * upgrade above rewrote the state). */
            w = l2->words[s];
            if (cw_fill_l1(h, core, l1_idx, line_addr,
                           ((w >> 21) << 21) | (w & 0x18ULL)) < 0)
                return -1;
            cw_touch(l2, s, 1);
        } else {
            int si = cw_slice_idx(h, line_addr);
            cw_cache *sl = &h->caches[3 * h->num_cores + si];
            l2->misses++;
            h->s_l2_misses++;
            latency += h->llc_lat;
            s = cw_slot(sl, line_addr);
            if (s >= 0) {
                h->s_llc_hits++;
                extra = cw_serve_llc_hit(h, core, op, line_addr, sl, s);
                if (extra < 0)
                    return -1;
                latency += extra;
            } else {
                h->s_llc_misses++;
                extra = cw_fetch_into_llc(h, line_addr, now + latency, 1, si);
                if (extra < 0)
                    return -1;
                latency += extra;
                if (cw_fill_private(h, core, op, line_addr, op == 1 ? 3 : 2,
                                    sl, cw_slot(sl, line_addr)) < 0)
                    return -1;
            }
        }
    }
    if (op == 1) {
        /* Every path above leaves the line in this core's L1D. */
        cw_mark_written(h, core, line_addr);
        h->s_writes++;
    } else if (op == 2) {
        h->s_ifetches++;
    }
    h->s_total_latency += (uint64_t)latency;
    h->per_core[core]++;
    return latency;
}

/* ------------------------------------------------------------------ */
/* C-resident run loop (PERFORMANCE.md rule 19): the synthetic record
 * emission of workloads/synthetic.py and the earliest-core-first loop
 * of MulticoreSystem.run / Core.step around cw_access. */

#define CW_SCHED_DONE     0
#define CW_SCHED_EVENT    1
#define CW_SCHED_CALLBACK 2
#define CW_SCHED_ERROR    3

/* The archetype's _line_picker closure. */
static uint64_t cw_next_line(cw_core *c)
{
    static const int64_t di[5] = {0, -1, 1, 0, 0};
    static const int64_t dj[5] = {0, 0, 0, -1, 1};
    int64_t k, side, row, col;
    switch (c->kind) {
    case 0:
        c->position = (c->position + 1) % (int64_t)c->num_lines;
        return (uint64_t)c->position;
    case 1:
        return cw_randbelow(&c->rng, c->num_lines, c->num_shift);
    case 2:
        c->position = (int64_t)c->chain[c->position];
        return (uint64_t)c->position;
    case 3:
        k = c->st_k;
        side = c->side;
        if (++c->st_k == 5) {
            c->st_k = 0;
            if (++c->st_j >= side) {
                c->st_j = 0;
                c->st_i = (c->st_i + 1) % side;
            }
        }
        /* Python's % is non-negative for a positive modulus. */
        row = ((c->st_i + di[k]) % side + side) % side;
        col = ((c->st_j + dj[k]) % side + side) % side;
        return (uint64_t)(row * side + col);
    default:
        if (cw_random(&c->rng) < c->hot_probability)
            return cw_randbelow(&c->rng, c->hot_lines, c->hot_shift);
        return cw_randbelow(&c->rng, c->num_lines, c->num_shift);
    }
}

/* One record of the shared emission loop, draw for draw. */
static void cw_emit_one(cw_core *c, int64_t *gap, int *op, uint64_t *addr)
{
    double roll;
    uint64_t line;
    *gap = cw_random(&c->rng) < c->gap_frac ? c->gap_base + 1 : c->gap_base;
    roll = cw_random(&c->rng);
    if (roll >= c->conflict_limit) {
        if (c->visits_left > 0) {
            c->visits_left--;
            line = c->current_line;
        } else {
            line = cw_next_line(c);
            c->current_line = line;
            c->visits_left = c->visits_per_line;
        }
        *op = cw_random(&c->rng) < c->write_fraction ? 1 : 0;
        *addr = c->data_base + line * 64;
    } else if (roll < c->ifetch_limit) {
        if (++c->code_line == c->code_lines)
            c->code_line = 0;
        *op = 2;
        *addr = c->code_base + c->code_line * 64;
    } else {
        if (++c->conflict_index == c->conflict_lines)
            c->conflict_index = 0;
        line = c->conflict_base + c->conflict_index * c->conflict_stride;
        *op = cw_random(&c->rng) < c->write_fraction ? 1 : 0;
        *addr = c->data_base + line * 64;
    }
}

void cw_emit(cw_core *c, int64_t n, int64_t *gaps, int32_t *ops,
             uint64_t *addrs)
{
    int64_t i;
    for (i = 0; i < n; i++) {
        int op;
        cw_emit_one(c, &gaps[i], &op, &addrs[i]);
        ops[i] = op;
    }
}

/* PointerChaseWorkload._chain for 0 < n < 2**32 from its random.Random:
 * Random.shuffle of range(n), draw for draw (for i from n - 1 down to
 * 1, swap i with _randbelow(i + 1), a getrandbits(k) rejection with
 * k = (i + 1).bit_length()), then chain[order[i]] = order[i + 1]
 * around the cycle.  Returns -1 when the order cannot be allocated. */
int cw_chain(cw_mt *r, uint64_t n, uint64_t *chain)
{
    uint32_t *order = malloc(n * sizeof *order);
    uint64_t i, j, low = 1;   /* 2**(k - 1) for k = (i + 1).bit_length() */
    uint32_t t;
    int shift = 31;           /* 32 - k */
    if (order == NULL)
        return -1;
    for (i = 0; i < n; i++)
        order[i] = (uint32_t)i;
    while (low << 1 <= n) {
        low <<= 1;
        shift--;
    }
    for (i = n - 1; i > 0; i--) {
        if (i + 1 < low) {
            low >>= 1;
            shift++;
        }
        j = cw_randbelow(r, i + 1, shift);
        t = order[i];
        order[i] = order[j];
        order[j] = t;
    }
    for (i = 0; i + 1 < n; i++)
        chain[order[i]] = order[i + 1];
    chain[order[n - 1]] = order[0];
    free(order);
    return 0;
}

/* Core.advance: take the next record's compute gap, park its op. */
static void cw_advance(cw_core *c)
{
    int64_t gap;
    int op;
    uint64_t addr;
    cw_emit_one(c, &gap, &op, &addr);
    c->time += gap;
    c->instructions += gap;
    c->pending_op = op;
    c->pending_addr = addr;
}

/* MulticoreSystem.run until every core retired its budget.  Returns
 * to Python (which owns the event queue and the monitor) when an event
 * is due at the next core's time, after a step that made a Python
 * callback (it may have scheduled one), and on a walk error. */
int cw_schedule(cw_hier *h, cw_sched *s)
{
    cw_core *cores = s->cores;
    int n = s->num_cores, i;
    if (!s->started) {
        for (i = 0; i < n; i++)
            cw_advance(&cores[i]);
        s->started = 1;
    }
    for (;;) {
        int cid = -1;
        cw_core *c;
        uint64_t callbacks;
        int64_t lat;
        /* The heap's time << 8 | core_id minimum: earliest time, then
         * lowest core id. */
        for (i = 0; i < n; i++)
            if (!cores[i].finished
                && (cid < 0 || cores[i].time < cores[cid].time))
                cid = i;
        if (cid < 0)
            return CW_SCHED_DONE;
        c = &cores[cid];
        if (s->event_at <= c->time) {
            s->due = c->time;
            return CW_SCHED_EVENT;
        }
        callbacks = h->callbacks;
        lat = cw_access(h, cid, c->pending_op, c->pending_addr, c->time);
        if (lat < 0)
            return CW_SCHED_ERROR;
        /* Core.throttle: every op but the L1 read hit pays. */
        if (c->penalty && !(c->pending_op == 0 && lat == h->l1_lat))
            lat += c->penalty;
        c->time += lat;
        c->instructions++;
        c->memory_ops++;
        if (c->instructions >= s->budget)
            c->finished = 1;
        else
            cw_advance(c);
        if (h->callbacks != callbacks)
            return CW_SCHED_CALLBACK;
    }
}
"""
