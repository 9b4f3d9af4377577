"""Rank-and-Select Quotient Filter — vectorized numpy kernel.

Semantics ported from the reference (/root/reference/src/rsqf.cpp,
src/abstract_bqf.cpp; structure described in SURVEY.md §1.1): a 64-bit-word
quotient filter where an element's ``hash_bits``-bit hash splits into a
``q``-bit quotient (low bits, /root/reference/src/rsqf.cpp:442-444) and an
``r = hash_bits − q``-bit remainder (high bits, :446-448); elements of the
same quotient form a run of slots holding remainders in ascending order
(invariant /root/reference/src/headers/rsqf.hpp:67-69); ``occupieds`` and
``runends`` bitvectors + rank/select give run boundaries; a per-slot
``count_size``-bit "backpack" counter extends it to the BQF
(/root/reference/src/abstract_bqf.cpp:112).  Because the full hash is
stored and the token hash can be an invertible bijection, enumeration is
lossless and s-mer-level queries have no false positives beyond hash
collisions (README.md:54 analog: FP ≤ 2^-r when hash_bits models an
infinite hash).

Engine-specific design (Ray-Data-first, NOT a translation — deviations are
deliberate and observable-behavior-preserving):

- **Bulk vectorized construction** replaces per-element shift insertion
  (reference C1/C2/C17/C18).  Because counter updates commute
  (/root/reference/src/bqf_ec.cpp:120-133), the final filter state is
  insert-order-independent; we exploit that by buffering updates and
  rebuilding the slot layout with O(n) vectorized scans (cumsum +
  running-max placement) instead of porting ~520 LoC of circular bit-shift
  machinery.  Property tests (tests/test_bqf.py) verify dict-oracle
  equality exactly as the reference's unit tests do
  (/root/reference/unitary_tests/cqf_test.cpp:336-437).
- **Non-circular layout with overflow slack**: the reference's array is
  toroidal (runs wrap past slot 2^q−1 to 0, /root/reference/src/rsqf.cpp:
  609-612).  We allocate `2^q + slack` physical slots so runs spill right
  instead of wrapping; rank/select then index globally, which keeps every
  batch operation a flat vectorized scan.  Slot occupancy and run contents
  are identical up to that rotation.
- **In-memory slots are one uint64 each** (vectorized access); the
  *serialized* form (what travels through the object store, the shuffle
  and checkpoints) stores elements, not slots: the occupieds bitvector,
  one run-end bit per element, the ``r``-bit remainders of the occupied
  slots and their counters coded by exception (see the wire-format
  comment).  Empty slots cost nothing beyond their occupieds bit, and
  decoding re-places the runs exactly as a build does.
- **Partition pin**: a filter that will only ever hold the keys of one
  ``key % P`` partition (a :func:`build_partitioned` shard) is pinned
  with :meth:`for_partition`.  Its keys share their low k = ctz(P) bits,
  so it stores ``key >> k`` on ``hash_bits − k`` bits: the quotient
  comes from bits that vary within the shard, and every element saves
  k remainder bits.  The pin ``(low_bits, residue)`` travels in the
  blob; enumeration restores full keys, and keys outside the residue
  are absent (queries) or rejected (updates).
- **Resize** re-derives quotients from stored hashes at q+n — the
  observable contract of the reference's streaming in-place resize
  (/root/reference/src/abstract_bqf.cpp:302-479) at the same O(n) cost,
  vectorized.  Triggered at the same 95% load factor
  (/root/reference/src/rsqf.cpp:19).
"""

from __future__ import annotations

import numpy as np

from bqf_ray.sketches.base import MergeableSketch

U64 = np.uint64
_WORD = 64


def _popcount64(x: np.ndarray) -> np.ndarray:
    """SWAR popcount for uint64 arrays (numpy<2 has no bit_count ufunc)."""
    x = x - ((x >> U64(1)) & U64(0x5555555555555555))
    x = (x & U64(0x3333333333333333)) + ((x >> U64(2)) & U64(0x3333333333333333))
    x = (x + (x >> U64(4))) & U64(0x0F0F0F0F0F0F0F0F)
    return (x * U64(0x0101010101010101)) >> U64(56)


def _set_bits(bitvec: np.ndarray, positions: np.ndarray) -> None:
    np.bitwise_or.at(bitvec, positions >> 6, U64(1) << (positions.astype(np.uint64) & U64(63)))


def _test_bits(bitvec: np.ndarray, positions: np.ndarray) -> np.ndarray:
    return (bitvec[positions >> 6] >> (positions.astype(np.uint64) & U64(63))) & U64(1) != 0


def _bit_positions(bitvec: np.ndarray, limit: int) -> np.ndarray:
    """Sorted positions of set bits below ``limit`` (vectorized select table)."""
    bits = np.unpackbits(bitvec.view(np.uint8), bitorder="little")
    return np.flatnonzero(bits[:limit].view(bool)).astype(np.int64)


def _pack_flags(flags: np.ndarray) -> np.ndarray:
    """Bool array → bitvector words, flag i at bit i (read back with
    :func:`_bit_positions`)."""
    words = np.zeros((len(flags) + 63) // 64, dtype=np.uint64)
    packed = np.packbits(flags, bitorder="little")
    words.view(np.uint8)[: len(packed)] = packed
    return words


def _bitvec(positions: np.ndarray, nbits: int) -> np.ndarray:
    """⌈nbits/64⌉-word bitvector with the given bits set (on a fresh
    vector several times faster than :func:`_set_bits`)."""
    flags = np.zeros(nbits, dtype=bool)
    flags[positions] = True
    return _pack_flags(flags)


def _slot_order(keys: np.ndarray, q: int, key_bits: int) -> np.ndarray:
    """Order of unique ``key_bits``-bit keys by (quotient, remainder),
    quotient = the low ``q`` bits: one argsort of the key rotated so its
    quotient leads (the same order as ``lexsort((rem, quot))``)."""
    quot = keys & U64((1 << q) - 1)
    return np.argsort((quot << U64(key_bits - q)) | (keys >> U64(q)))


def _element_positions(first: np.ndarray, offsets: np.ndarray,
                       n: int) -> np.ndarray:
    """Slot of each of ``n`` elements listed in slot order, run ``j``
    starting at element ``first[j]``: element i of run j sits at
    i + max(offsets[:j + 1]), so a run starts at its home slot
    (offset = home − first) or right after the runs before it."""
    shift = np.full(n, np.iinfo(np.int64).min)
    shift[first] = offsets
    return np.arange(n) + np.maximum.accumulate(shift)


def _header_int(config: dict, name: str, default: int | None = None) -> int:
    """An integer header field (``default`` when absent), else ValueError."""
    v = config.get(name, default)
    if type(v) is not int:
        raise ValueError(f"filter blob: {name!r} is {v!r}, not an int")
    return v


def _check_words(arrays: dict, name: str, bits: int) -> None:
    """A decoded bitvector/packed array must be exactly ⌈bits/64⌉ words."""
    a = arrays.get(name)
    if bits < 0 or a is None or a.dtype != np.uint64 \
            or a.shape != ((bits + 63) // 64,):
        raise ValueError(f"filter blob: {name!r} does not hold {bits} bits")


def _decode_counts(config: dict, arrays: dict, c: int, n: int
                   ) -> np.ndarray:
    """The ``n`` stored counters of a wire-3 blob with ``c``-bit counters:
    ``count_base`` except where ``count_flags`` is set, there ``count_base
    + 1 +`` the next ``count_exc`` value.  Every length is checked, and
    every counter must fit ``c`` bits."""
    base = _header_int(config, "count_base")
    width = _header_int(config, "count_exc_bits")
    if not (0 <= base < 1 << c and 0 <= width <= c):
        raise ValueError(f"filter blob: count_base={base} count_exc_bits="
                         f"{width} do not fit {c}-bit counters")
    _check_words(arrays, "count_flags", n)
    flags = arrays["count_flags"]
    flagged = _bit_positions(flags, 64 * len(flags))
    if len(flagged) and flagged[-1] >= n:
        raise ValueError("filter blob: count flags past the last element")
    _check_words(arrays, "count_exc", len(flagged) * width)
    exc = unpack_bits(arrays["count_exc"], width, len(flagged))
    if len(exc) and int(exc.max()) > (1 << c) - 2 - base:
        raise ValueError(f"filter blob: counters past 2^{c} - 1")
    counts = np.full(n, U64(base))
    counts[flagged] = exc + U64(base + 1)
    return counts


def pack_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Bit-pack uint64 values to ``width`` bits each → uint64 word array."""
    n = len(values)
    total_bits = n * width
    words = np.zeros((total_bits + 63) // 64 + 1, dtype=np.uint64)
    if total_bits == 0:
        return words[:0]
    v = values.astype(np.uint64) & ((U64(1) << U64(width)) - U64(1) if width < 64 else U64(0xFFFFFFFFFFFFFFFF))
    off = np.arange(n, dtype=np.int64) * width
    widx = off >> 6
    shift = (off & 63).astype(np.uint64)
    np.bitwise_or.at(words, widx, v << shift)
    spill = shift != 0
    hi = np.zeros(n, dtype=np.uint64)
    hi[spill] = v[spill] >> (U64(64) - shift[spill])
    np.bitwise_or.at(words, widx + 1, hi)
    return words[: (total_bits + 63) // 64]


def unpack_bits(words: np.ndarray, width: int, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`."""
    if n == 0 or width == 0:
        return np.zeros(n, dtype=np.uint64)
    w = np.concatenate([words.astype(np.uint64), np.zeros(1, dtype=np.uint64)])
    off = np.arange(n, dtype=np.int64) * width
    widx = off >> 6
    shift = (off & 63).astype(np.uint64)
    lo = w[widx] >> shift
    # the next word's bits: << (64 − shift) in two steps, so shift = 0
    # gives 0 instead of an out-of-range shift
    hi = (w[widx + 1] << U64(1)) << (U64(63) - shift)
    mask = (U64(1) << U64(width)) - U64(1) if width < 64 else U64(0xFFFFFFFFFFFFFFFF)
    return (lo | hi) & mask


class _QuotientFilterKernel(MergeableSketch):
    """Shared kernel for Rsqf (c=0) and the counting BQF variants.

    Counting semantics are pluggable via three hooks mirroring the
    reference's pure-virtual surface
    (/root/reference/src/headers/abstract_bqf.hpp:154-170):
    ``_insert_process_count`` (stream count → stored count),
    ``_combine_counts`` (merge stored counts for the same key — the
    order-invariant generalization of ``add_to_counter``), and
    ``_query_process_count`` (stored count → reported count).
    """

    config_fields = ("hash_bits", "count_size", "low_bits", "residue")
    MAX_LOAD = 0.95          # /root/reference/src/rsqf.cpp:19
    _SLACK = 256

    def __init__(self, q: int = 10, hash_bits: int = 64, count_size: int = 0,
                 auto_resize: bool = True):
        assert 1 <= q < hash_bits <= 64
        # one-uint64-per-slot layout: remainder + counter must fit a word.
        # (q only grows capacity, so raising it is semantically safe.)
        min_q = hash_bits + count_size - 64
        if q < min_q:
            if not auto_resize:
                raise ValueError(
                    f"slot width {hash_bits - q + count_size} > 64 bits: "
                    f"need q >= {min_q} for hash_bits={hash_bits}, "
                    f"count_size={count_size}")
            q = min_q
        self.q = int(q)
        self.hash_bits = int(hash_bits)
        self.count_size = int(count_size)
        self.auto_resize = auto_resize
        self.low_bits = 0        # key bits fixed by a partition pin ...
        self.residue = 0         # ... and their value (for_partition)
        self.elements_inside = 0
        self._pend_keys: list[np.ndarray] = []
        self._pend_counts: list[np.ndarray] = []
        self._pend_n = 0
        self._neg_keys: list[np.ndarray] = []          # pending removals
        self._neg_counts: list[np.ndarray] = []
        self._alloc_empty()

    # --- codec hooks (overridden by subclasses; reference hook surface
    #     /root/reference/src/headers/abstract_bqf.hpp:154-170) -------------
    #
    # stored-domain = what sits in the slot's low count_size bits;
    # raw-domain   = stream occurrence counts.
    # _combine = "sum": per-key raw totals add (saturating encode) — ec, cf.
    # _combine = "max": per-key stored values max-combine — oom (the
    #   order-invariant replacement for the reference's first-wins no-op
    #   add, /root/reference/src/bqf_oom.cpp:112-114).

    _combine = "sum"

    def _to_raw(self, stored: np.ndarray) -> np.ndarray:
        """stored slot count → raw-equivalent count (ec: identity)."""
        return stored.astype(np.int64)

    def _from_raw(self, raw: np.ndarray) -> np.ndarray:
        """raw count → stored slot count (ec: saturate at 2^c−1,
        /root/reference/src/bqf_ec.cpp:148-150)."""
        return np.minimum(raw, np.int64(self._count_cap())).astype(np.uint64)

    def _report(self, stored: np.ndarray, found: np.ndarray) -> np.ndarray:
        """(stored slot count, presence mask) → reported count (ec: identity
        for present keys, /root/reference/src/bqf_ec.cpp:152-154).  Presence
        is passed separately because some codecs legitimately store 0 for
        present keys (oom exponent 0, cf seen-once bit)."""
        if self.count_size == 0:
            return found.astype(np.uint64)
        return np.where(found, stored, U64(0))

    def _count_cap(self) -> np.uint64:
        c = self.count_size
        return U64((1 << c) - 1) if c else U64(1)

    # --- geometry ----------------------------------------------------------

    @property
    def key_bits(self) -> int:
        """Bits stored per key: ``hash_bits`` less the pinned low bits."""
        return self.hash_bits - self.low_bits

    @property
    def remainder_bits(self) -> int:
        return self.key_bits - self.q

    @property
    def slot_width(self) -> int:
        return self.remainder_bits + self.count_size

    def error_bound(self) -> float:
        """Per-query false-positive bound 2^-(key_bits − q): an absent
        key is reported present only when its remainder matches a stored
        one in its quotient's run (README.md:54 analog, FP ≤ 2^-r).  The
        quotient must come from bits that vary across the keys, which is
        why a partition shard is pinned (:meth:`for_partition`): unpinned,
        its fixed low bits make runs P times longer and the rate P times
        higher."""
        self._compact()
        return 2.0 ** -self.remainder_bits

    # --- partition pin -----------------------------------------------------

    def for_partition(self, num_partitions: int, part: int
                      ) -> "_QuotientFilterKernel":
        """Pin this empty filter to partition ``part`` of a ``key %
        num_partitions`` split and return it.  Those keys share their
        low k = ctz(num_partitions) bits, so the filter stores ``key >>
        k`` on ``hash_bits − k`` bits (k is lowered to keep ``q <
        hash_bits − k``; odd P pins nothing).  Lossless: enumeration
        restores full keys, queries report keys of other residues
        absent, and updates reject them."""
        if self.elements_inside or self._dirty():
            raise ValueError("only an empty filter can be pinned")
        P = int(num_partitions)
        if P < 1:
            raise ValueError(f"num_partitions must be >= 1, got {P}")
        k = min((P & -P).bit_length() - 1, self.hash_bits - self.q - 1)
        self.low_bits, self.residue = k, int(part) % (1 << k)
        return self

    def _stored_keys(self, keys) -> np.ndarray:
        """``keys`` as this filter stores them: cut to ``hash_bits``, pin
        bits dropped.  A key outside the pinned residue raises."""
        keys = np.asarray(keys, dtype=np.uint64)
        if self.hash_bits < 64:
            keys = keys & ((U64(1) << U64(self.hash_bits)) - U64(1))
        if self.low_bits:
            if ((keys & U64((1 << self.low_bits) - 1))
                    != U64(self.residue)).any():
                raise ValueError(
                    f"key outside residue {self.residue} mod "
                    f"{1 << self.low_bits} of this partition filter")
            keys = keys >> U64(self.low_bits)
        return keys

    def _full_keys(self, keys: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`_stored_keys`."""
        if not self.low_bits:
            return keys
        return (keys << U64(self.low_bits)) | U64(self.residue)

    @property
    def size_limit(self) -> int:
        return int((1 << self.q) * self.MAX_LOAD)

    def _alloc_empty(self) -> None:
        nq = 1 << self.q
        cap = nq + self._SLACK
        self._slots = np.zeros(cap, dtype=np.uint64)
        self._occupieds = np.zeros((nq + 63) // 64, dtype=np.uint64)
        self._runends = np.zeros((cap + 63) // 64, dtype=np.uint64)
        self._extent = 0                     # slots in use are < _extent
        self._built_q = self.q               # q the current layout was built at
        self._occ_quots = np.empty(0, dtype=np.int64)     # select cache
        self._runend_pos = np.empty(0, dtype=np.int64)    # select cache
        self._occ_prefix = np.zeros(len(self._occupieds), dtype=np.int64)

    @classmethod
    def find_quotient_given_memory(cls, max_bytes: int, hash_bits: int = 64,
                                   count_size: int = 0) -> int:
        """Sizing helper (semantics of /root/reference/src/rsqf.cpp:153-172):
        largest q whose serialized filter fits the byte budget."""
        for q in range(30, 6, -1):
            bits = (1 << q) * (hash_bits - q + count_size + 2) + (1 << q)
            if bits // 8 <= max_bytes:
                return q
        return 7

    # --- updates -----------------------------------------------------------

    def insert(self, key: int, count: int = 1) -> None:
        self.update_batch(np.array([key], dtype=np.uint64),
                          np.array([count], dtype=np.uint64))

    def update_batch(self, keys: np.ndarray, counts: np.ndarray | None = None) -> None:
        keys = self._stored_keys(keys)
        if len(keys) == 0:
            return
        if counts is None:
            counts = np.ones(len(keys), dtype=np.uint64)
        else:
            counts = np.asarray(counts, dtype=np.uint64)
        self._pend_keys.append(keys)
        self._pend_counts.append(counts)
        self._pend_n += len(keys)
        # amortized compaction: rebuild when pending rivals filter size
        if self._pend_n >= max(4096, self.elements_inside):
            self._compact()

    def remove(self, key: int, count: int = 1) -> None:
        """Decrement-or-delete (semantics of /root/reference/src/rsqf.cpp:
        294-377 and src/bqf_ec.cpp:26-115): removing ≥ stored count deletes
        the slot."""
        self.remove_batch(np.array([key], dtype=np.uint64),
                          np.array([count], dtype=np.uint64))

    def remove_batch(self, keys: np.ndarray, counts: np.ndarray | None = None) -> None:
        keys = self._stored_keys(keys)
        if len(keys) == 0:
            return
        if counts is None:
            counts = np.ones(len(keys), dtype=np.uint64)
        self._neg_keys.append(keys)
        self._neg_counts.append(np.asarray(counts, dtype=np.uint64))

    # --- compaction (bulk build) -------------------------------------------

    def _dirty(self) -> bool:
        return bool(self._pend_keys or self._neg_keys)

    def _compact(self) -> None:
        if not self._dirty():
            return
        keys0, stored0 = self._enumerate_built()
        pend_k, pend_c = self._pend_keys, self._pend_counts
        neg_k, neg_c = self._neg_keys, self._neg_counts
        self._pend_keys, self._pend_counts, self._pend_n = [], [], 0
        self._neg_keys, self._neg_counts = [], []

        if self._combine == "sum":
            parts_k = [keys0] + pend_k + neg_k
            parts_c = ([self._to_raw(stored0)] +
                       [c.astype(np.int64) for c in pend_c] +
                       [-c.astype(np.int64) for c in neg_c])
            keys = np.concatenate(parts_k)
            deltas = np.concatenate(parts_c)
            if len(keys) == 0:
                self._alloc_empty()
                self.elements_inside = 0
                return
            uniq, inv = np.unique(keys, return_inverse=True)
            raw = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(raw, inv, deltas)
            alive = raw > 0
            uniq, raw = uniq[alive], raw[alive]
            stored = self._from_raw(raw)
        else:  # "max" combine (oom)
            ins_k = np.concatenate([keys0] + pend_k) if (len(keys0) or pend_k) \
                else np.empty(0, dtype=np.uint64)
            ins_s = np.concatenate(
                [stored0.astype(np.int64)] +
                [self._from_raw(c.astype(np.int64)).astype(np.int64) for c in pend_c]) \
                if (len(keys0) or pend_c) else np.empty(0, dtype=np.int64)
            if len(ins_k) == 0 and not neg_k:
                self._alloc_empty()
                self.elements_inside = 0
                return
            uniq, inv = np.unique(ins_k, return_inverse=True)
            smax = np.full(len(uniq), -1, dtype=np.int64)
            np.maximum.at(smax, inv, ins_s)
            if neg_k:
                decoded = self._to_raw(smax.astype(np.uint64))
                nk = np.concatenate(neg_k)
                nc = np.concatenate([c.astype(np.int64) for c in neg_c])
                pos = np.searchsorted(uniq, nk)
                hit = (pos < len(uniq))
                pos_c = np.minimum(pos, len(uniq) - 1)
                hit &= uniq[pos_c] == nk
                np.subtract.at(decoded, pos_c[hit], nc[hit])
                alive = decoded > 0
                uniq = uniq[alive]
                stored = self._from_raw(decoded[alive])
            else:
                alive = smax >= 0
                uniq, stored = uniq[alive], smax[alive].astype(np.uint64)
        # grow q until under load cap (reference resize(1) loop,
        # /root/reference/src/abstract_bqf.cpp:102-107)
        while self.auto_resize and len(uniq) > int((1 << self.q) * self.MAX_LOAD) \
                and self.q + 1 < self.key_bits:
            self.q += 1
        self._build(uniq, stored)

    def _build(self, ukeys: np.ndarray, counts: np.ndarray) -> None:
        """Vectorized layout construction from unique stored keys (any
        order)."""
        q = self.q
        order = _slot_order(ukeys, q, self.key_bits)
        ukeys, counts = ukeys[order], counts.astype(np.uint64)[order]
        quot = (ukeys & U64((1 << q) - 1)).astype(np.int64)
        rem = ukeys >> U64(q)
        uq, run_counts = np.unique(quot, return_counts=True)
        c = U64(self.count_size)
        self._place(uq, run_counts, (rem << c) | counts if self.count_size else rem)

    def _place(self, uq: np.ndarray, run_counts: np.ndarray,
               vals: np.ndarray) -> None:
        """Greedy run placement: the run of quotient ``uq[i]`` (sorted)
        takes ``run_counts[i]`` slots starting at max(uq[i], previous run
        end + 1); ``vals`` are the slot words in slot order.  The layout
        is a function of the elements alone, so a build, a resize and a
        wire decode of the same elements all land on the same slots."""
        q = self.q
        nq = 1 << q
        n = len(vals)
        self.elements_inside = n
        if n == 0:
            self._alloc_empty()
            return
        D = np.cumsum(run_counts)
        first = D - run_counts
        pos = _element_positions(first, uq - first, n)
        ends = pos[D - 1]
        self._built_q = q
        extent = int(ends[-1]) + 1
        cap = max(nq + self._SLACK, extent + 64)
        self._slots = np.zeros(cap, dtype=np.uint64)
        self._slots[pos] = vals
        self._occupieds = _bitvec(uq, nq)
        self._runends = _bitvec(ends, cap)
        self._extent = extent
        # rank/select caches
        self._occ_quots = uq
        self._runend_pos = ends
        pc = _popcount64(self._occupieds).astype(np.int64)
        self._occ_prefix = np.concatenate([[0], np.cumsum(pc)[:-1]])

    def resize(self, n: int = 1, chunk_runs: int = 1 << 14) -> None:
        """Grow quotient by ``n`` bits — STREAMING (contract of
        /root/reference/src/rsqf.cpp:418-437 / abstract_bqf.cpp:302-479,
        memory profile included).

        Key identity: splitting ``key = rem·2^q + quot`` at ``q+n``
        gives ``quot' = (rem mod 2^n)·2^q + quot`` and
        ``rem' = rem >> n`` — so the new layout is exactly the old
        elements filtered by ``rem mod 2^n = j`` for j = 0..2^n−1, in
        old run order, concatenated in j order.  The resize therefore
        streams the old runs ``2^n`` times in ``chunk_runs``-run
        chunks, emitting elements in final sorted order and growing
        the new layout incrementally (greedy run placement with a
        carried fill position, split-run continuation handled by
        re-opening the previous run).

        Allocations: the new layout arrays once (O(2^q_new) words +
        element-bounded select caches) and O(chunk) scratch — NOT the
        old path's full enumerate (16 B/elem) + lexsort (~40 B/elem)
        scratch, which is what let an actor near its memory ceiling
        grow the way the reference's in-place pass does (tested with a
        tracemalloc peak assertion)."""
        self._compact()
        assert self.q + n < self.key_bits
        old_q = self._built_q
        q2 = self.q + n
        if self.elements_inside == 0:
            self.q = q2
            self._alloc_empty()
            return
        c = U64(self.count_size)
        cmask = (U64(1) << c) - U64(1)
        low_mask = U64((1 << n) - 1)
        nq2 = 1 << q2
        cap2 = nq2 + self._SLACK
        slots2 = np.zeros(cap2, dtype=np.uint64)
        occ2 = np.zeros((nq2 + 63) // 64, dtype=np.uint64)
        run2 = np.zeros((cap2 + 63) // 64, dtype=np.uint64)
        uq_buf = np.empty(self.elements_inside, dtype=np.int64)
        end_buf = np.empty(self.elements_inside, dtype=np.int64)
        k = 0
        last_end = np.int64(-1)
        last_quot = np.int64(-2)
        old_uq = self._occ_quots
        old_starts, old_lens = self._runs()
        for j in range(1 << n):
            jq = np.int64(j) << np.int64(old_q)
            for r0 in range(0, len(old_uq), int(chunk_runs)):
                sl = slice(r0, r0 + int(chunk_runs))
                st, ln = old_starts[sl], old_lens[sl]
                m = int(ln.sum())
                off = np.concatenate([[0], np.cumsum(ln)[:-1]])
                pos = np.repeat(st, ln) + \
                    (np.arange(m) - np.repeat(off, ln))
                vals = self._slots[pos]
                rem = (vals >> c) if self.count_size else vals
                sel = (rem & low_mask) == U64(j)
                if not sel.any():
                    continue
                quots = np.repeat(old_uq[sl], ln)[sel] + jq
                rems2 = rem[sel] >> U64(n)
                cnts = (vals[sel] & cmask) if self.count_size else None
                uq2, rc2 = np.unique(quots, return_counts=True)
                D = np.cumsum(rc2)
                prev_d = np.concatenate([[0], D[:-1]])
                arr = uq2 - 1 - prev_d
                cont = k > 0 and uq2[0] == last_quot
                arr[0] = max(arr[0], last_end)
                g = np.maximum.accumulate(arr)
                ends2 = g + D
                starts2 = ends2 - rc2 + 1
                if ends2[-1] >= cap2:       # adversarial skew fallback
                    cap2 = int(ends2[-1]) + 64 + self._SLACK
                    grown = np.zeros(cap2, dtype=np.uint64)
                    grown[:len(slots2)] = slots2
                    slots2 = grown
                    grown_r = np.zeros((cap2 + 63) // 64,
                                       dtype=np.uint64)
                    grown_r[:len(run2)] = run2
                    run2 = grown_r
                pos2 = np.repeat(starts2, rc2) + \
                    (np.arange(len(quots)) - np.repeat(prev_d, rc2))
                slots2[pos2] = ((rems2 << c) | cnts) if self.count_size \
                    else rems2
                _set_bits(occ2, uq2)
                if cont:                    # re-open the split run
                    e = int(end_buf[k - 1])
                    run2[e >> 6] &= ~(U64(1) << U64(e & 63))
                    k -= 1
                _set_bits(run2, ends2)
                uq_buf[k:k + len(uq2)] = uq2
                end_buf[k:k + len(uq2)] = ends2
                k += len(uq2)
                last_quot = uq2[-1]
                last_end = ends2[-1]
        self.q = q2
        self._built_q = q2
        self._slots = slots2
        self._occupieds = occ2
        self._runends = run2
        self._extent = int(last_end) + 1
        self._occ_quots = uq_buf[:k].copy()
        self._runend_pos = end_buf[:k].copy()
        pc = _popcount64(occ2).astype(np.int64)
        self._occ_prefix = np.concatenate([[0], np.cumsum(pc)[:-1]])

    # --- queries -----------------------------------------------------------

    def query(self, key: int) -> int:
        return int(self.query_batch(np.array([key], dtype=np.uint64))[0])

    def query_batch(self, keys: np.ndarray) -> np.ndarray:
        """Reported count per key (0 = absent) — vectorized C4/C5."""
        self._compact()
        keys = np.asarray(keys, dtype=np.uint64)
        n = len(keys)
        if n == 0 or self.elements_inside == 0:
            return np.zeros(n, dtype=np.uint64)
        if self.hash_bits < 64:
            keys = keys & ((U64(1) << U64(self.hash_bits)) - U64(1))
        if not self.low_bits:
            return self._query_stored(keys)
        mine = (keys & U64((1 << self.low_bits) - 1)) == U64(self.residue)
        if mine.all():
            return self._query_stored(keys >> U64(self.low_bits))
        out = np.zeros(n, dtype=np.uint64)
        if mine.any():
            out[mine] = self._query_stored(keys[mine] >> U64(self.low_bits))
        return out

    def _query_stored(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`query_batch` of stored keys (a non-empty batch)."""
        n = len(keys)
        q = self.q
        quot = (keys & U64((1 << q) - 1)).astype(np.int64)
        rem = keys >> U64(q)
        out = np.zeros(n, dtype=np.uint64)
        occ = _test_bits(self._occupieds, quot)
        if not occ.any():
            return out
        qo = quot[occ]
        word = self._occupieds[qo >> 6]
        below = word & ((U64(1) << (qo.astype(np.uint64) & U64(63))) - U64(1))
        rank = self._occ_prefix[qo >> 6] + _popcount64(below).astype(np.int64)  # 0-based
        ends = self._runend_pos[rank]
        prev_end = np.where(rank > 0, self._runend_pos[np.maximum(rank - 1, 0)], -1)
        starts = np.maximum(qo, prev_end + 1)
        stored_o, found_o = self._run_lookup(starts, ends, rem[occ])
        found = np.zeros(n, dtype=bool)
        found[occ] = found_o
        out[occ] = stored_o
        return self._report(out, found)

    def _run_lookup(self, starts, ends, rems) -> tuple[np.ndarray, np.ndarray]:
        """Find each remainder in its (sorted) run → (stored count, found)."""
        m = len(starts)
        res = np.zeros(m, dtype=np.uint64)
        lens = ends - starts + 1
        c = U64(self.count_size)
        cmask = (U64(1) << c) - U64(1)
        maxlen = int(lens.max())
        chunk = maxlen if maxlen <= 64 else 64
        # gather matrix over the first `chunk` slots; rare longer runs loop
        idx = starts[:, None] + np.arange(chunk)
        valid = np.arange(chunk)[None, :] < lens[:, None]
        vals = self._slots[np.minimum(idx, len(self._slots) - 1)]
        srems = (vals >> c) if self.count_size else vals
        hit = valid & (srems == rems[:, None])
        found = hit.any(axis=1)
        first = np.argmax(hit, axis=1)
        if self.count_size:
            res[found] = vals[found, first[found]] & cmask
        long = lens > chunk
        if long.any():
            for i in np.flatnonzero(long & ~found):
                seg = self._slots[starts[i] + chunk: ends[i] + 1]
                sr = (seg >> c) if self.count_size else seg
                j = np.searchsorted(sr, rems[i])
                if j < len(sr) and sr[j] == rems[i]:
                    res[i] = (seg[j] & cmask) if self.count_size else U64(0)
                    found[i] = True
        return res, found

    # --- enumeration (C8) --------------------------------------------------

    def _runs(self) -> tuple[np.ndarray, np.ndarray]:
        """(first slot, length) of every run of the built layout."""
        ends = self._runend_pos
        starts = np.maximum(self._occ_quots,
                            np.concatenate([[-1], ends[:-1]]) + 1)
        return starts, ends - starts + 1

    def _element_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """(slot position of every stored element in slot order, length of
        every run) of the built layout."""
        starts, lens = self._runs()
        D = np.cumsum(lens)
        first = D - lens
        return _element_positions(first, starts - first,
                                  int(D[-1]) if len(D) else 0), lens

    def _enumerate_built(self) -> tuple[np.ndarray, np.ndarray]:
        """(stored keys, stored_counts) of the built (compacted) portion."""
        if self.elements_inside == 0:
            return (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64))
        pos, lens = self._element_slots()
        vals = self._slots[pos]
        c = U64(self.count_size)
        if self.count_size:
            rem = vals >> c
            counts = vals & ((U64(1) << c) - U64(1))
        else:
            rem = vals
            counts = np.ones(len(pos), dtype=np.uint64)
        keys = (rem << U64(self._built_q)) | \
            np.repeat(self._occ_quots, lens).astype(np.uint64)
        return keys, counts

    def enumerate(self) -> tuple[np.ndarray, np.ndarray]:
        """All (key, reported_count) pairs — the lossless enumeration that
        makes the filter mergeable (reference C8)."""
        self._compact()
        keys, stored = self._enumerate_built()
        return self._full_keys(keys), \
            self._report(stored, np.ones(len(stored), dtype=bool))

    # --- merge (engine-defined; absent in reference, SURVEY.md §2.4) -------

    def merge(self, other: "_QuotientFilterKernel") -> "_QuotientFilterKernel":
        return self.merge_many([other])

    def merge_many(self, others) -> "_QuotientFilterKernel":
        """Batched merge: buffer every input's enumeration and rebuild the
        layout ONCE (pairwise merging would rebuild per input)."""
        for other in others:
            self.check_mergeable(other)
            other._compact()
            keys, stored = other._enumerate_built()
            # raw-domain counts re-combine under the codec's order-invariant rule
            self._pend_keys.append(keys)
            self._pend_counts.append(self._to_raw(stored).astype(np.uint64))
            self._pend_n += len(keys)
            self.q = max(self.q, other.q)
        self._compact()
        return self

    # --- serde -------------------------------------------------------------
    # Wire format (``wire: 3``), the reference's on-disk layout idea
    # (its src/abstract_bqf.cpp:512-529) applied to elements instead of
    # slots.  The header holds q, hash_bits, count_size, auto_resize, the
    # element count ``n``, the partition pin ``low_bits``/``residue`` and
    # the counter code ``count_base``/``count_exc_bits``.  The arrays list
    # elements in slot order:
    #
    #   occupieds    2^q bits, one per quotient;
    #   run_ends     n bits, set on the last element of each run;
    #   rems         each element's r = hash_bits − low_bits − q remainder
    #                bits, packed;
    #   count_flags  (c > 0) n bits, set where the stored count is not
    #                count_base, the smallest stored count;
    #   count_exc    (c > 0) each flagged count − count_base − 1, packed at
    #                count_exc_bits, the bit width of the largest.
    #
    # Quotients stay implicit in the run structure and empty slots are not
    # written, so an element costs r + 1 + 2^q/n bits, one flag bit, and
    # count_exc_bits more when its counter is an exception, plus the JSON
    # header.  Decoding re-places the runs with ``_place``; the layout is
    # canonical, so slots, run ends, extent and the rank/select caches come
    # back identical.  Wire-2 blobs (``(remainder << c) | count`` packed at
    # slot_width, no pin) and blobs without ``wire`` (every slot up to
    # ``extent``) stay readable.

    def _state_arrays(self) -> dict[str, np.ndarray]:
        self._compact()
        pos, lens = self._element_slots()
        last = np.zeros(len(pos), dtype=bool)
        last[np.cumsum(lens) - 1] = True
        vals = self._slots[pos]
        arrays = {"occupieds": self._occupieds,
                  "run_ends": _pack_flags(last)}
        base = width = 0
        if self.count_size:
            c = U64(self.count_size)
            counts = vals & ((U64(1) << c) - U64(1))
            vals = vals >> c
            base = int(counts.min()) if len(counts) else 0
            flags = counts != U64(base)
            exc = counts[flags] - U64(base + 1)
            width = int(exc.max()).bit_length() if len(exc) else 0
            arrays["count_flags"] = _pack_flags(flags)
            arrays["count_exc"] = pack_bits(exc, width)
        arrays["rems"] = pack_bits(vals, self.remainder_bits)
        self._count_code = (base, width)    # for _config: to_bytes calls it next
        return arrays

    def _config(self) -> dict:
        base, width = self._count_code
        return {"q": self.q, "hash_bits": self.hash_bits,
                "count_size": self.count_size,
                "auto_resize": int(self.auto_resize),
                "wire": 3, "n": self.elements_inside,
                "low_bits": self.low_bits, "residue": self.residue,
                "count_base": base, "count_exc_bits": width}

    @classmethod
    def _construct(cls, config) -> "_QuotientFilterKernel":
        """Build an empty instance from config; subclasses with narrower
        __init__ signatures override."""
        return cls(q=int(config["q"]), hash_bits=int(config["hash_bits"]),
                   count_size=int(config["count_size"]),
                   auto_resize=bool(config["auto_resize"]))

    @classmethod
    def _from_state(cls, config, arrays):
        # every array length is checked against the header before the
        # 2^q-slot layout is allocated, so a corrupt header cannot make
        # the decoder allocate more than the blob itself justifies
        q, h, c, _ = (_header_int(config, k) for k in
                      ("q", "hash_bits", "count_size", "auto_resize"))
        k = _header_int(config, "low_bits", 0)
        res = _header_int(config, "residue", 0)
        if not (0 <= k and 1 <= q < h - k and h <= 64
                and 0 <= res < 1 << k and 0 <= c <= 64 - (h - k - q)):
            raise ValueError(f"bad filter geometry: q={q} hash_bits={h} "
                             f"low_bits={k} residue={res} count_size={c}")
        r = h - k - q
        nq = 1 << q
        _check_words(arrays, "occupieds", nq)
        wire = _header_int(config, "wire", 1)  # no field: slot-array blob
        if wire == 1:
            ext = arrays.get("extent")
            extent = int(ext[0]) if ext is not None and ext.shape == (1,) \
                else -1
            _check_words(arrays, "runends", extent)
            _check_words(arrays, "slots", extent * (r + c))
        elif wire in (2, 3):
            n = _header_int(config, "n")
            _check_words(arrays, "run_ends", n)
            if wire == 2:
                _check_words(arrays, "elems", n * (r + c))
            else:
                names = {"occupieds", "run_ends", "rems"} | \
                    ({"count_flags", "count_exc"} if c else set())
                if set(arrays) != names:
                    raise ValueError(f"filter blob: arrays {sorted(arrays)}"
                                     f" are not {sorted(names)}")
                _check_words(arrays, "rems", n * r)
                counts = _decode_counts(config, arrays, c, n) if c else None
            occ, run_ends = arrays["occupieds"], arrays["run_ends"]
            uq = _bit_positions(occ, 64 * len(occ))
            last = _bit_positions(run_ends, 64 * len(run_ends))
            if (len(last) != len(uq) or (len(uq) and uq[-1] >= nq)
                    or (int(last[-1]) + 1 if len(last) else 0) != n):
                raise ValueError("filter blob: run ends do not match "
                                 "occupieds and n")
        else:
            raise ValueError(f"unknown filter wire format {wire!r}")
        s = cls._construct(config)
        if (s.q, s.count_size) != (q, c):
            raise ValueError(f"filter blob geometry q={q} count_size={c} "
                             f"does not fit {cls.__name__}")
        s.low_bits, s.residue = k, res
        if wire == 1:
            s._load_slots(arrays, extent)
            return s
        if wire == 2:
            vals = unpack_bits(arrays["elems"], r + c, n)
        else:
            vals = unpack_bits(arrays["rems"], r, n)
            if c:
                vals = (vals << U64(c)) | counts
        s._place(uq, np.diff(last, prepend=-1), vals)
        return s

    def _load_slots(self, arrays, extent: int) -> None:
        """Restore a slot-array blob (written before the ``wire`` field):
        every slot up to ``extent`` bit-packed, plus the run-end bits of
        those slots."""
        nq = 1 << self.q
        cap = max(nq + self._SLACK, extent + 64)
        self._slots = np.zeros(cap, dtype=np.uint64)
        self._slots[:extent] = unpack_bits(arrays["slots"], self.slot_width,
                                           extent)
        self._occupieds = arrays["occupieds"]
        self._runends = np.zeros((cap + 63) // 64, dtype=np.uint64)
        self._runends[: len(arrays["runends"])] = arrays["runends"]
        self._extent = extent
        self._built_q = self.q
        self._occ_quots = _bit_positions(self._occupieds, nq)
        self._runend_pos = _bit_positions(self._runends, extent)
        pc = _popcount64(self._occupieds).astype(np.int64)
        self._occ_prefix = np.concatenate([[0], np.cumsum(pc)[:-1]])
        self.elements_inside = len(self._element_slots()[0])

    def serialized_bits_per_element(self) -> float:
        self._compact()
        if self.elements_inside == 0:
            return 0.0
        return len(self.to_bytes()) * 8.0 / self.elements_inside

    def debug_dump(self, max_slots: int = 128) -> str:
        """Readable slot-layout render (C19 ``block2string`` analog,
        /root/reference/src/rsqf.cpp:46-137): per-slot occupied/runend flags
        + remainder/count values, for tests and interactive debugging."""
        self._compact()
        lines = [f"<{type(self).__name__} q={self.q} hash_bits={self.hash_bits}"
                 f" c={self.count_size} elements={self.elements_inside}"
                 f" extent={self._extent}>"]
        cmask = (U64(1) << U64(self.count_size)) - U64(1)
        lim = min(self._extent, max_slots)
        occ = set(self._occ_quots.tolist())
        ends = set(self._runend_pos.tolist())
        for i in range(lim):
            val = self._slots[i]
            rem = val >> U64(self.count_size) if self.count_size else val
            cnt = int(val & cmask) if self.count_size else ""
            flags = (("occ" if i < (1 << self.q) and i in occ else "   ") +
                     (" run" if i in ends else "    "))
            lines.append(f"  slot {i:6d} [{flags}] rem={int(rem):>20d}"
                         + (f" count={cnt}" if self.count_size else ""))
        if self._extent > lim:
            lines.append(f"  ... {self._extent - lim} more slots")
        return "\n".join(lines)
