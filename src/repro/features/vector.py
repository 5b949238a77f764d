"""Vectorized AfterImage: a structure-of-arrays damped-statistics engine.

:class:`VectorIncStatDB` replaces the per-stream ``IncStat`` object
graph of :class:`repro.features.afterimage.IncStatDB` with flat NumPy
tables::

    state: (capacity, 3, D) float64   # [weight | linear_sum | squared_sum]
    last:  (capacity,)      float64   # shared last-update time per stream
    seq:   (capacity,)      int64     # insertion sequence (prune ties)
    key0, key1: (capacity,) uint64    # the row's packed key (key1 0: free)

where ``D`` is the number of decay factors. One row holds *all* decay
horizons of a stream, so decaying a stream is a single vectorized
multiply instead of ``D`` attribute-walking Python calls. Covariance
accumulators reuse the same row shape (``weight | sum_residual | —``),
which lets one packet's whole working set live in eight rows:
``[mac, ip, ch_ab, sk_ab, cov_ch, cov_sk, ch_ba, sk_ba]``.

**Keys are packed integers.** A stream key is two u64 words; the low
byte of ``key1`` is its kind, plus 8 for a covariance::

    kind        key0                     key1 above the kind byte
    mac (1)     ether flag << 48 | MAC   src IP << 32
    ip  (2)     src IP                   —
    ch  (3)     src IP << 32 | dst IP    —
    sk  (4)     src IP << 32 | dst IP    src port << 16 | dst port << 32

A covariance row is keyed by its forward (a→b) stream's key with the
covariance bit set. The words are a bijection of the scalar
reference's string keys (``"mac:{mac}|{ip}"`` with ``"??"`` for a
frame without Ethernet — the cleared ether flag — and so on), so both
engines track the same streams. An open-addressing index in a NumPy
array maps keys to rows. :meth:`VectorIncStatDB.update_batch` takes
per-packet key words (:meth:`repro.net.columnar.ColumnBatch.key_words`)
and resolves every packet's eight rows in one C call, in the scalar
reference's creation order, with no Python per packet or per flow.

**Pruning.** Past ``max_streams`` tracked streams the stalest half is
evicted, exactly as the reference's ``heapq.nsmallest`` does
(insertion order — ``seq`` — breaks ties); a covariance dies with
either endpoint key. The resolver pauses right after the creation
that crosses the bound, the prune runs here in NumPy, and resolution
resumes. Rows are resolved for the whole batch before any is updated,
so the prune judges each stream the batch has already updated at the
running maximum of its last update and those packets' timestamps, and
recycles no row the batch still references until the batch is done.

**Parity contract.** Every float operation runs in the same order as
the scalar reference (:class:`~repro.features.incstat.IncStat` /
:class:`~repro.features.incstat.IncStatCov`), so outputs are
bit-for-bit identical — enforced by ``tests/test_features_parity.py``.
The arrays are driven by a small C kernel (see
:mod:`repro.features._native`) compiled on demand; construction raises
when it cannot load, and :class:`repro.features.netstat.NetStat` then
uses the scalar reference instead.
"""

from __future__ import annotations

import math

import numpy as np

from repro.features import _native
from repro.utils.validation import check_positive

_HYPOT = math.hypot

# The covariance bit of a key's kind byte (the low byte of ``key1``),
# as in the C kernel.
_COV = 8
# ``_counts`` slots and resolver statuses, as in the C kernel.
_SIZE, _NFREE, _NKEYS, _NCOVS, _NEXT_SEQ, _STATUS = range(6)
_DONE, _GROW, _PRUNE = range(3)
#: Kernel row column of each resolution step (MAC, IP, ch a>b, ch b>a,
#: ch cov, sk a>b, sk b>a, sk cov).
_COL_OF_STEP = (0, 1, 2, 6, 4, 3, 7, 5)


class VectorIncStatDB:
    """Structure-of-arrays counterpart of :class:`IncStatDB`.

    Parameters
    ----------
    decays:
        Decay factors; one table column block per factor.
    max_streams:
        Soft bound on tracked keys; the stalest half is evicted past it
        (identical eviction set to the scalar reference).

    Raises :class:`RuntimeError` when the native kernel cannot load or
    there are more than ``_native.MAX_DECAYS`` decay factors.
    """

    def __init__(
        self,
        decays: tuple[float, ...] = (5.0, 3.0, 1.0, 0.1, 0.01),
        *,
        max_streams: int = 100_000,
        capacity: int = 1024,
    ) -> None:
        if not decays:
            raise ValueError("at least one decay factor is required")
        for decay in decays:
            check_positive("decay", decay)
        self.decays = tuple(float(d) for d in decays)
        self.max_streams = max_streams
        self._d = len(self.decays)
        self._capacity = max(int(capacity), 8)
        cap = self._capacity
        self._state = np.zeros((cap, 3, self._d))
        self._last = np.zeros(cap)
        self._seq = np.zeros(cap, dtype=np.int64)
        self._key0 = np.zeros(cap, dtype=np.uint64)
        self._key1 = np.zeros(cap, dtype=np.uint64)
        self._free = np.empty(cap, dtype=np.int64)
        self._counts = np.zeros(6, dtype=np.int64)
        d = self._d
        # The channel and socket blocks are adjacent with the same
        # stride, so one strided slice covers the magnitude (and one
        # the radius) slots of *both* blocks.
        self._mag_slice = slice(6 * d + 3, 20 * d, 7)
        self._rad_slice = slice(6 * d + 4, 20 * d, 7)
        self._init_kernel()

    # -- construction helpers -------------------------------------------
    def _init_kernel(self) -> None:
        if self._d > _native.MAX_DECAYS:
            raise RuntimeError(
                f"native AfterImage kernel supports at most "
                f"{_native.MAX_DECAYS} decay factors, got {self._d}"
            )
        library = _native.load_kernel()
        if library is None:
            raise RuntimeError(
                "native AfterImage kernel unavailable: "
                f"{_native.unavailable_reason() or 'not loaded'}"
            )
        self._native_batch_fn = library.afterimage_update_batch
        self._intern_fn = library.afterimage_intern
        self._insert_fn = library.afterimage_table_insert
        self._lookup_fn = library.afterimage_table_lookup
        self._decays_arr = np.array(self.decays)
        self._decays_ptr = self._decays_arr.ctypes.data
        self._counts_ptr = self._counts.ctypes.data
        self._table = np.empty(0, dtype=np.int64)
        live = int(self._counts[_NKEYS] + self._counts[_NCOVS])
        self._reindex(max(1024, 4 * live))

    def _reindex(self, slots: int) -> None:
        """Rebuild the key index over every live row in ``slots``
        slots (rounded up to a power of two)."""
        slots = 1 << (int(slots) - 1).bit_length()
        table = np.full(slots, -1, dtype=np.int64)
        live = np.flatnonzero(self._key1[: self._counts[_SIZE]])
        self._insert_fn(
            table.ctypes.data, slots - 1, self._key0.ctypes.data,
            self._key1.ctypes.data, live.ctypes.data, live.size,
        )
        self._table = table
        self._refresh_pointers()

    def _refresh_pointers(self) -> None:
        self._ptrs = (
            self._state.ctypes.data, self._last.ctypes.data,
            self._seq.ctypes.data, self._key0.ctypes.data,
            self._key1.ctypes.data, self._capacity,
            self._table.ctypes.data, self._table.size - 1,
            self._free.ctypes.data, self._counts_ptr,
        )

    def __len__(self) -> int:
        return int(self._counts[_NKEYS])

    @property
    def feature_count(self) -> int:
        return 20 * self._d

    def keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The tracked stream and covariance keys, each as an
        ``(m, 2)`` uint64 array of ``(key0, key1)`` words in insertion
        order (the order of the reference's dicts)."""
        size = self._counts[_SIZE]
        key1 = self._key1[:size]
        live = np.flatnonzero(key1)
        live = live[np.argsort(self._seq[live])]
        words = np.stack([self._key0[live], key1[live]], axis=1)
        cov = (words[:, 1] & np.uint64(_COV)) != 0
        return words[~cov], words[cov]

    # -- row allocation --------------------------------------------------
    def _grow(self) -> None:
        size = self._counts[_SIZE]
        new_capacity = self._capacity * 2

        def grown(array: np.ndarray, used: int) -> np.ndarray:
            bigger = np.zeros((new_capacity,) + array.shape[1:], array.dtype)
            bigger[:used] = array[:used]
            return bigger

        self._state = grown(self._state, size)
        self._last = grown(self._last, size)
        self._seq = grown(self._seq, size)
        self._key0 = grown(self._key0, size)
        self._key1 = grown(self._key1, size)
        self._free = grown(self._free, self._counts[_NFREE])
        self._capacity = new_capacity
        self._refresh_pointers()

    def _make_room(self) -> None:
        """Grow whatever stopped the resolver: the rows or the index."""
        counts = self._counts
        if counts[_NFREE] == 0 and counts[_SIZE] == self._capacity:
            self._grow()
        if 2 * (counts[_NKEYS] + counts[_NCOVS] + 1) > self._table.size:
            self._reindex(2 * self._table.size)

    def _release(self, rows: np.ndarray) -> None:
        nfree = self._counts[_NFREE]
        self._free[nfree : nfree + rows.size] = rows
        self._counts[_NFREE] = nfree + rows.size

    def _lookup(self, key0: np.ndarray, key1: np.ndarray) -> np.ndarray:
        """Row of each key, ``-1`` when it is not tracked."""
        key0 = np.ascontiguousarray(key0, dtype=np.uint64)
        key1 = np.ascontiguousarray(key1, dtype=np.uint64)
        out = np.empty(key0.size, dtype=np.int64)
        self._lookup_fn(
            self._table.ctypes.data, self._table.size - 1,
            self._key0.ctypes.data, self._key1.ctypes.data,
            key0.ctypes.data, key1.ctypes.data, key0.size, out.ctypes.data,
        )
        return out

    def _resolve(
        self, words: np.ndarray, timestamps: np.ndarray
    ) -> np.ndarray:
        """Every packet's eight rows, creating streams as needed, with
        the prunes the reference would run along the way."""
        n = timestamps.shape[0]
        rows = np.empty((n, 8), dtype=np.int64)
        in_flight: list[np.ndarray] = []
        pos = 0
        while True:
            pos = self._intern_fn(
                *self._ptrs, words.ctypes.data, timestamps.ctypes.data,
                n, pos, self.max_streams, self._d, rows.ctypes.data,
            )
            status = self._counts[_STATUS]
            if status == _DONE:
                break
            if status == _GROW:
                self._make_room()
            else:
                in_flight.append(self._prune(rows, timestamps, pos))
        for freed in in_flight:
            self._release(freed)
        return rows

    def _prune(
        self, rows: np.ndarray, timestamps: np.ndarray, pos: int
    ) -> np.ndarray:
        """Evict the stalest half of the streams by last update time.

        ``pos - 1`` is the resolution step (``packet * 8 + step``) whose
        creation crossed ``max_streams``. Rows are updated only after
        the whole batch is resolved, so ``last`` is stale for streams
        the batch has conceptually updated already: each earlier
        packet's stat rows (mac, ip, ch_ab, sk_ab), and the current
        packet's MAC, IP and forward channel once resolution has passed
        them (the reference updates group by group), count at the
        running maximum of ``last`` and those packets' timestamps — an
        ``IncStat`` clock never moves back. Partial selection via
        ``np.argpartition`` with insertion-order tie-breaking
        reproduces ``heapq.nsmallest`` exactly.

        Returns the freed rows the batch still references; they are
        recycled only once the batch is done, because the reference
        keeps evicted streams alive while a packet holds them.
        """
        counts = self._counts
        size = int(counts[_SIZE])
        packet, step = divmod(pos - 1, 8)
        virtual = self._last[:size].copy()
        np.maximum.at(
            virtual, rows[:packet, :4].ravel(),
            np.repeat(timestamps[:packet], 4),
        )
        # Columns 0-2 are mac, ip, ch_ab: updated once resolution has
        # passed steps 0, 1 and 4 (the channel's covariance).
        current = rows[packet, : (step >= 1) + (step >= 2) + (step >= 5)]
        virtual[current] = np.maximum(virtual[current], timestamps[packet])

        key1 = self._key1[:size]
        cov_bit = np.uint64(_COV)
        streams = np.flatnonzero((key1 != 0) & ((key1 & cov_bit) == 0))
        cutoff = streams.size // 2
        if cutoff == 0:
            return np.empty(0, dtype=np.int64)
        streams = streams[np.argsort(self._seq[streams])]
        stale = virtual[streams]
        kth = cutoff - 1
        boundary = stale[np.argpartition(stale, kth)[kth]]
        evict = stale < boundary
        ties = np.flatnonzero(stale == boundary)
        evict[ties[: cutoff - np.count_nonzero(evict)]] = True
        evicted = streams[evict]

        # A covariance dies when either endpoint *key* is evicted. An
        # endpoint that is not tracked (-1) indexes the extra last
        # slot of ``gone``, which stays False.
        covs = np.flatnonzero(key1 & cov_bit)
        fwd0 = self._key0[covs]
        fwd1 = key1[covs] ^ cov_bit
        rev0 = (fwd0 >> np.uint64(32)) | (fwd0 << np.uint64(32))
        port = np.uint64(0xFFFF)
        rev1 = (
            (fwd1 & np.uint64(0xFF))
            | ((fwd1 >> np.uint64(32) & port) << np.uint64(16))
            | ((fwd1 >> np.uint64(16) & port) << np.uint64(32))
        )
        gone = np.zeros(size + 1, dtype=bool)
        gone[evicted] = True
        dead = covs[
            gone[self._lookup(fwd0, fwd1)] | gone[self._lookup(rev0, rev1)]
        ]

        freed = np.concatenate([evicted, dead])
        self._key1[freed] = 0
        counts[_NKEYS] -= evicted.size
        counts[_NCOVS] -= dead.size
        self._reindex(self._table.size)
        held = np.zeros(size, dtype=bool)
        held[rows[:packet].ravel()] = True
        held[rows[packet, list(_COL_OF_STEP[: step + 1])]] = True
        busy = held[freed]
        self._release(freed[~busy])
        return freed[busy]

    # -- batch update ----------------------------------------------------
    def update_batch(
        self,
        words: np.ndarray,
        timestamps: np.ndarray,
        values: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Fold ``n`` packets into the tables in one batched pass.

        ``words`` is the ``(n, 3)`` uint64 per-packet key words of
        :meth:`repro.net.columnar.ColumnBatch.key_words`; ``out`` must
        be a C-contiguous ``(n, 20 * D)`` matrix. Every packet's rows
        are resolved first, then the native kernel folds the whole
        batch in one call, bit-identical to ``n`` scalar updates.
        """
        n = timestamps.shape[0]
        d = self._d
        if (
            np.shape(words) != (n, 3) or np.shape(values) != (n,)
            or out.shape != (n, 20 * d) or out.dtype != np.float64
            or not out.flags.c_contiguous
        ):
            raise ValueError(
                f"update_batch needs (n, 3) key words, n values and a "
                f"C-contiguous float64 (n, {20 * d}) out for n={n}"
            )
        if n == 0:
            return
        ts = np.ascontiguousarray(timestamps, dtype=np.float64)
        rows = self._resolve(np.ascontiguousarray(words, dtype=np.uint64), ts)
        v = np.ascontiguousarray(values, dtype=np.float64)
        aux = np.empty((n, 8 * d))
        self._native_batch_fn(
            self._ptrs[0], self._ptrs[1], rows.ctypes.data,
            ts.ctypes.data, v.ctypes.data, n, self._decays_ptr, d,
            out.ctypes.data, aux.ctypes.data,
        )
        self._fill_hypot(out, aux)

    def _fill_hypot(self, out: np.ndarray, aux: np.ndarray) -> None:
        """Fill the magnitude/radius slots with ``math.hypot``.

        CPython's hypot is more accurate than libm's, so the kernel
        defers these two derived statistics to this Python pass —
        keeping them bit-identical to the scalar reference. Each
        packet's ``aux`` row is operand-major: ``[mean_a | var_a |
        mean_b | var_b]``, each of length ``2 * D`` (channel then
        socket block).
        """
        d2 = 2 * self._d
        n = out.shape[0]
        count = n * d2
        mag = np.fromiter(
            map(_HYPOT,
                aux[:, :d2].ravel().tolist(),
                aux[:, 2 * d2:3 * d2].ravel().tolist()),
            dtype=np.float64, count=count,
        )
        out[:, self._mag_slice] = mag.reshape(n, d2)
        rad = np.fromiter(
            map(_HYPOT,
                aux[:, d2:2 * d2].ravel().tolist(),
                aux[:, 3 * d2:].ravel().tolist()),
            dtype=np.float64, count=count,
        )
        out[:, self._rad_slice] = rad.reshape(n, d2)

    # -- pickling --------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # The key index is derived from the rows; it is rebuilt on load.
        for transient in ("_native_batch_fn", "_intern_fn", "_insert_fn",
                          "_lookup_fn", "_decays_arr", "_decays_ptr",
                          "_counts_ptr", "_table", "_ptrs"):
            state.pop(transient, None)
        return state

    def __setstate__(self, state: dict) -> None:
        # ``setattr`` interns the names, as pickle's default restore
        # does, so a restored engine pickles byte-identically again.
        for name, value in state.items():
            setattr(self, name, value)
        self._init_kernel()
