"""C source for the batched storage-mode filter kernels.

Concatenated into :mod:`repro.engine.c_backend`'s translation unit
*after* ``_CSOURCE``, so the helpers defined there (``acf_candidates``,
``acf_find``, ``acf_insert_new``) are called directly.  Every filter
kernel, of ``_CSOURCE`` or of this module, is an exact-uint64 port of
one body of the reference
:class:`repro.filters.auto_cuckoo.AutoCuckooFilter` or of its
:class:`repro.filters.hashing.PartialKeyHasher`, as this twin table
pairs them; one row scan, ``acf_find``, is the C form of
``value in row`` / ``row.index(value)`` for all of them.  The last
row, in ``_CSOURCE`` beside the filter kernels, ports
:func:`repro.utils.rng.derive_seed`, which seeds every filter's
kick-walk LCG and every LSM level's hasher:

================================  =====================
Python body                       C function
================================  =====================
``AutoCuckooFilter._locate``      ``acf_candidates``
``PartialKeyHasher.alt_index``    ``acf_alt_index``
``AutoCuckooFilter.access``       ``acf_access``
``AutoCuckooFilter.access_many``  ``acf_access_many``
``AutoCuckooFilter._insert_new``  ``acf_insert_new``
``AutoCuckooFilter.insert``       ``acf_insert``
``AutoCuckooFilter.query``        ``acf_query``
``AutoCuckooFilter.delete``       ``acf_delete``
``AutoCuckooFilter.insert_many``  ``acf_insert_many``
``AutoCuckooFilter.query_many``   ``acf_query_many``
``AutoCuckooFilter.delete_many``  ``acf_delete_many``
``rng.derive_seed``               ``rng_derive_seed``
================================  =====================

``insert`` places only when no matching fingerprint is resident
(never fails: the kick walk deletes autonomically at MNK; no Security
churn, no access accounting), ``query`` is ``contains`` and
``delete`` clears the first matching slot of the primary bucket, then
the alternate.  The ``*_many`` forms loop over a caller-owned
``uint64_t`` key buffer: one Python boundary crossing per batch, zero
per key.  ``install`` passes ``array('Q')`` buffers through
``ffi.from_buffer`` so large batches are not even copied.

Bit-identical results against the Python reference are gated by the
conformance matrix and the batched-vs-per-key equivalence suites.
The rows are 32 bits wide and ``acf_alt_index`` computes the
alternate bucket with the hasher's mix, so every fingerprint width
f = 1..32 runs here; the reference path's ``_alt_xor`` table is a
Python-only memo of the same mix.  Only instrumented filters, whose
shadow address sets have no C form, stay on the reference path.
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
    uint32_t fp, i1, i2;
    acf_candidates(st, key, &fp, &i1, &i2);
    if (acf_find(st, i1, fp) >= 0 || acf_find(st, i2, fp) >= 0)
        return 0;
    acf_insert_new(st, fp, i1, i2);
    return 1;
}

int acf_query(acf_state *st, uint64_t key)
{
    uint32_t fp, i1, i2;
    acf_candidates(st, key, &fp, &i1, &i2);
    return acf_find(st, i1, fp) >= 0 || acf_find(st, i2, fp) >= 0;
}

int acf_delete(acf_state *st, uint64_t key)
{
    uint32_t fp, i1, i2;
    acf_candidates(st, key, &fp, &i1, &i2);
    uint32_t index = i1;
    int slot = acf_find(st, i1, fp);
    if (slot < 0) {
        index = i2;
        slot = acf_find(st, i2, fp);
        if (slot < 0)
            return 0;
    }
    size_t at = (size_t)index * st->entries_per_bucket + (size_t)slot;
    st->fps[at] = 0;
    st->security[at] = 0;
    st->valid_count--;
    return 1;
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
