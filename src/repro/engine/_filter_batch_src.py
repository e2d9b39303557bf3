"""C source for the batched storage-mode filter kernels.

Concatenated into :mod:`repro.engine.c_backend`'s translation unit
*after* ``_CSOURCE``, so the helpers defined there (``acf_candidates``,
``acf_insert_new``) are called directly.  Each function is a
line-for-line exact-uint64 port of the reference implementation in
:class:`repro.filters.auto_cuckoo.AutoCuckooFilter`:

``acf_insert``      — :meth:`insert` (insert-if-absent; never fails,
                      kick walk with autonomic deletion at MNK; no
                      Security churn, no access accounting)
``acf_query``       — :meth:`query` / :meth:`contains` (read-only scan)
``acf_delete``      — :meth:`delete` (first matching slot of the
                      primary bucket, then the alternate, is cleared)
``acf_*_many``      — the batch loops over a caller-owned ``uint64_t``
                      key buffer: one Python boundary crossing per
                      batch, zero per key.  ``install`` passes
                      ``array('Q')`` buffers through
                      ``ffi.from_buffer`` so large batches are not
                      even copied.

Bit-identical results against the Python reference are gated by the
conformance matrix and the batched-vs-per-key equivalence suites.  Like ``acf_access``, these
kernels assume the C alternate table ``st->alt_xor`` exists:
``CFilterState`` fills it with ``acf_fill_alt_xor`` at install, whether
or not the Python ``_alt_xor`` was ever built.  ``install`` refuses
wide-fingerprint (f > 16) filters, whose fingerprints do not fit the
``uint16_t`` rows; they stay on the Python reference path.
"""

BATCH_CDEF = """
int acf_insert(acf_state *st, uint64_t key);
int acf_query(acf_state *st, uint64_t key);
int acf_delete(acf_state *st, uint64_t key);
uint64_t acf_insert_many(acf_state *st, const uint64_t *keys, uint64_t n);
uint64_t acf_query_many(acf_state *st, const uint64_t *keys, uint64_t n);
uint64_t acf_delete_many(acf_state *st, const uint64_t *keys, uint64_t n);
"""

BATCH_SOURCE = """
int acf_insert(acf_state *st, uint64_t key)
{
    const uint32_t b = st->entries_per_bucket;
    uint32_t fp, i1, i2;
    acf_candidates(st, key, &fp, &i1, &i2);
    const uint16_t *r1 = st->fps + (size_t)i1 * b;
    for (uint32_t s = 0; s < b; s++)
        if (r1[s] == fp)
            return 0;
    const uint16_t *r2 = st->fps + (size_t)i2 * b;
    for (uint32_t s = 0; s < b; s++)
        if (r2[s] == fp)
            return 0;
    acf_insert_new(st, fp, i1, i2);
    return 1;
}

int acf_query(acf_state *st, uint64_t key)
{
    const uint32_t b = st->entries_per_bucket;
    uint32_t fp, i1, i2;
    acf_candidates(st, key, &fp, &i1, &i2);
    const uint16_t *r1 = st->fps + (size_t)i1 * b;
    for (uint32_t s = 0; s < b; s++)
        if (r1[s] == fp)
            return 1;
    const uint16_t *r2 = st->fps + (size_t)i2 * b;
    for (uint32_t s = 0; s < b; s++)
        if (r2[s] == fp)
            return 1;
    return 0;
}

int acf_delete(acf_state *st, uint64_t key)
{
    const uint32_t b = st->entries_per_bucket;
    uint32_t fp, i1, i2;
    acf_candidates(st, key, &fp, &i1, &i2);
    uint32_t indices[2];
    indices[0] = i1;
    indices[1] = i2;
    for (int j = 0; j < 2; j++) {
        uint16_t *row = st->fps + (size_t)indices[j] * b;
        for (uint32_t s = 0; s < b; s++)
            if (row[s] == fp) {
                row[s] = 0;
                st->security[(size_t)indices[j] * b + s] = 0;
                st->valid_count--;
                return 1;
            }
    }
    return 0;
}

uint64_t acf_insert_many(acf_state *st, const uint64_t *keys, uint64_t n)
{
    uint64_t fresh = 0;
    for (uint64_t i = 0; i < n; i++)
        fresh += (uint64_t)acf_insert(st, keys[i]);
    return fresh;
}

uint64_t acf_query_many(acf_state *st, const uint64_t *keys, uint64_t n)
{
    uint64_t present = 0;
    for (uint64_t i = 0; i < n; i++)
        present += (uint64_t)acf_query(st, keys[i]);
    return present;
}

uint64_t acf_delete_many(acf_state *st, const uint64_t *keys, uint64_t n)
{
    uint64_t removed = 0;
    for (uint64_t i = 0; i < n; i++)
        removed += (uint64_t)acf_delete(st, keys[i]);
    return removed;
}
"""
