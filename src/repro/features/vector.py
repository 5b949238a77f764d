"""Vectorized AfterImage: a structure-of-arrays damped-statistics engine.

:class:`VectorIncStatDB` replaces the per-stream ``IncStat`` object
graph of :class:`repro.features.afterimage.IncStatDB` with three flat
NumPy tables::

    state: (capacity, 3, D) float64   # [weight | linear_sum | squared_sum]
    last:  (capacity,)      float64   # shared last-update time per stream
    seq:   (capacity,)      int64     # insertion sequence (prune ties)

where ``D`` is the number of decay factors. One row holds *all* decay
horizons of a stream, so decaying a stream is a single vectorized
multiply instead of ``D`` attribute-walking Python calls. Covariance
accumulators reuse the same row shape (``weight | sum_residual | —``),
which lets one packet's whole working set live in eight rows:
``[mac, ip, ch_ab, sk_ab, cov_ch, cov_sk, ch_ba, sk_ba]``.

Keys are interned once — :class:`repro.features.netstat.NetStat` caches
the interned row ids per (MAC, IPs, ports) tuple, so the steady-state
packet path performs no f-string key construction and no string-dict
lookups. Pruning uses amortized partial selection (``np.argpartition``)
instead of a full sort, with insertion-order tie-breaking identical to
the reference implementation's ``heapq.nsmallest``.

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


class _PacketEntry:
    """Interned row ids for one (mac, src, dst, ports) packet shape."""

    __slots__ = ("epoch", "rows", "rows_arr", "rows_ptr")

    def __init__(self, epoch: int, rows: tuple[int, ...]) -> None:
        self.epoch = epoch
        self.rows = rows
        self.rows_arr = np.array(rows, dtype=np.int64)
        # ctypes pointer materialization costs ~2x the array build, and
        # batch callers never touch it — filled on first per-packet use.
        self.rows_ptr: int | None = None


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
        self._size = 0
        self._state = np.zeros((self._capacity, 3, self._d))
        self._last = np.zeros(self._capacity)
        self._seq = np.zeros(self._capacity, dtype=np.int64)
        self._next_seq = 0
        self._keys: dict[str, int] = {}
        self._cov_keys: dict[str, int] = {}
        self._cov_pair: dict[str, str] = {}
        self._free: list[int] = []
        #: Bumped whenever rows are freed; cached entries re-resolve.
        self.epoch = 0
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
        self._native_fn = library.afterimage_update_packet
        self._native_batch_fn = library.afterimage_update_batch
        self._decays_arr = np.array(self.decays)
        self._decays_ptr = self._decays_arr.ctypes.data
        self._aux = np.empty(8 * self._d)
        self._aux_ptr = self._aux.ctypes.data
        self._refresh_pointers()

    def _refresh_pointers(self) -> None:
        self._state_ptr = self._state.ctypes.data
        self._last_ptr = self._last.ctypes.data

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def feature_count(self) -> int:
        return 20 * self._d

    # -- row allocation --------------------------------------------------
    def _grow(self) -> None:
        new_capacity = self._capacity * 2
        state = np.zeros((new_capacity, 3, self._d))
        state[: self._size] = self._state[: self._size]
        last = np.zeros(new_capacity)
        last[: self._size] = self._last[: self._size]
        seq = np.zeros(new_capacity, dtype=np.int64)
        seq[: self._size] = self._seq[: self._size]
        self._state, self._last, self._seq = state, last, seq
        self._capacity = new_capacity
        self._refresh_pointers()

    def _alloc_row(self, exclude: set[int]) -> int:
        free = self._free
        if free:
            # Rows referenced by the packet being resolved must not be
            # recycled mid-packet — the scalar path keeps evicted
            # streams alive as locals until its update completes.
            skipped: list[int] = []
            row = -1
            while free:
                candidate = free.pop()
                if candidate in exclude:
                    skipped.append(candidate)
                else:
                    row = candidate
                    break
            free.extend(skipped)
            if row >= 0:
                # Recycled rows keep their evicted values until here
                # (freed-but-in-flight packets still read them); fresh
                # rows from growth are already zero.
                self._state[row] = 0.0
                self._last[row] = 0.0
                return row
        if self._size == self._capacity:
            self._grow()
        row = self._size
        self._size += 1
        return row

    def _intern(
        self,
        key,
        timestamp: float,
        pending: dict[int, float],
        exclude: set[int],
    ) -> int:
        row = self._keys.get(key)
        if row is not None:
            return row
        row = self._alloc_row(exclude)
        exclude.add(row)
        self._last[row] = timestamp
        self._seq[row] = self._next_seq
        self._next_seq += 1
        self._keys[key] = row
        if len(self._keys) > self.max_streams:
            self._prune(pending)
        return row

    def _intern_cov(self, key_ab, key_ba, exclude: set[int]) -> int:
        row = self._cov_keys.get(key_ab)
        if row is not None:
            return row
        row = self._alloc_row(exclude)
        exclude.add(row)
        # IncStatCov starts its clock at zero; _alloc_row hands out
        # zeroed rows, so no further initialisation is needed.
        self._cov_keys[key_ab] = row
        self._cov_pair[key_ab] = key_ba
        return row

    def _prune(self, pending: dict[int, float]) -> None:
        """Evict the stalest half of the streams by last update time.

        ``pending`` maps row → virtual timestamp for streams the current
        packet has conceptually already updated (the scalar path updates
        group by group, so a later group's creation sees earlier groups
        at the packet timestamp). Partial selection via
        ``np.argpartition`` with insertion-order tie-breaking reproduces
        ``heapq.nsmallest`` exactly without a full sort.
        """
        cutoff = len(self._keys) // 2
        if cutoff == 0:
            return
        keys_list = list(self._keys)
        rows_arr = np.fromiter(
            self._keys.values(), dtype=np.int64, count=len(keys_list)
        )
        saved = [(row, self._last[row]) for row in pending]
        for row, ts in pending.items():
            self._last[row] = ts
        stale_times = self._last[rows_arr]
        for row, value in saved:
            self._last[row] = value
        kth = cutoff - 1
        partition = np.argpartition(stale_times, kth)
        boundary = stale_times[partition[kth]]
        below = np.nonzero(stale_times < boundary)[0]
        ties = np.nonzero(stale_times == boundary)[0][: cutoff - below.size]
        evicted = {keys_list[i] for i in below.tolist()}
        evicted.update(keys_list[i] for i in ties.tolist())
        for key in evicted:
            self._free.append(self._keys.pop(key))
        dead_covs = [
            key_ab
            for key_ab, key_ba in self._cov_pair.items()
            if key_ab in evicted or key_ba in evicted
        ]
        for key_ab in dead_covs:
            self._free.append(self._cov_keys.pop(key_ab))
            del self._cov_pair[key_ab]
        self.epoch += 1

    # -- packet fast path ------------------------------------------------
    def packet_entry(
        self,
        src_mac: str,
        src_ip: str,
        dst_ip: str,
        src_port: int,
        dst_port: int,
        timestamp: float,
        pending: dict[int, float] | None = None,
        exclude: set[int] | None = None,
    ) -> _PacketEntry:
        """Intern one packet's eight rows (creating streams as needed).

        Keys are component tuples (``("ch", src, dst)``) rather than
        formatted strings — interning happens once per distinct packet
        shape, and the hot path never builds key strings at all.
        Creation order and prune timing replicate the scalar path:
        MAC, IP, channel a→b/b→a (+cov), socket a→b/b→a (+cov), with
        earlier groups' streams presented to the pruner at the packet
        timestamp (``pending``) because the scalar path has already
        updated them by the time a later group's creation prunes.

        Batch callers (:meth:`update_packet_batch` via ``NetStat``)
        pass shared ``pending``/``exclude`` spanning every in-flight
        packet: their row updates are deferred until the batched
        compute, so a mid-batch prune must both see those rows at
        their conceptual update times and keep them out of the free
        list until the batch completes.
        """
        mac_key = ("mac", src_mac, src_ip)
        ip_key = ("ip", src_ip)
        ch_ab = ("ch", src_ip, dst_ip)
        ch_ba = ("ch", dst_ip, src_ip)
        sk_ab = ("sk", src_ip, src_port, dst_ip, dst_port)
        sk_ba = ("sk", dst_ip, dst_port, src_ip, src_port)
        epoch_before = self.epoch
        if pending is None:
            pending = {}
        if exclude is None:
            exclude = set()
        r_mac = self._intern(mac_key, timestamp, pending, exclude)
        exclude.add(r_mac)
        pending[r_mac] = timestamp
        r_ip = self._intern(ip_key, timestamp, pending, exclude)
        exclude.add(r_ip)
        pending[r_ip] = timestamp
        r_ch_ab = self._intern(ch_ab, timestamp, pending, exclude)
        exclude.add(r_ch_ab)
        r_ch_ba = self._intern(ch_ba, timestamp, pending, exclude)
        exclude.add(r_ch_ba)
        r_cov_ch = self._intern_cov(ch_ab, ch_ba, exclude)
        exclude.add(r_cov_ch)
        pending[r_ch_ab] = timestamp
        r_sk_ab = self._intern(sk_ab, timestamp, pending, exclude)
        exclude.add(r_sk_ab)
        r_sk_ba = self._intern(sk_ba, timestamp, pending, exclude)
        exclude.add(r_sk_ba)
        r_cov_sk = self._intern_cov(sk_ab, sk_ba, exclude)
        rows = (r_mac, r_ip, r_ch_ab, r_sk_ab, r_cov_ch, r_cov_sk,
                r_ch_ba, r_sk_ba)
        epoch = self.epoch
        if epoch != epoch_before:
            # A prune ran mid-resolution; if it evicted any of this
            # packet's own rows the entry is single-use (the scalar
            # path would recreate those streams on the next packet).
            alive = (
                self._keys.get(mac_key) == r_mac
                and self._keys.get(ip_key) == r_ip
                and self._keys.get(ch_ab) == r_ch_ab
                and self._keys.get(ch_ba) == r_ch_ba
                and self._keys.get(sk_ab) == r_sk_ab
                and self._keys.get(sk_ba) == r_sk_ba
                and self._cov_keys.get(ch_ab) == r_cov_ch
                and self._cov_keys.get(sk_ab) == r_cov_sk
            )
            if not alive:
                epoch = -1
        return _PacketEntry(epoch, rows)

    def _new_row_unguarded(self, key, timestamp: float) -> int:
        if self._size == self._capacity:
            self._grow()
        row = self._size
        self._size += 1
        self._last[row] = timestamp
        self._seq[row] = self._next_seq
        self._next_seq += 1
        self._keys[key] = row
        return row

    def _new_cov_unguarded(self, key_ab, key_ba) -> int:
        if self._size == self._capacity:
            self._grow()
        row = self._size
        self._size += 1
        self._cov_keys[key_ab] = row
        self._cov_pair[key_ab] = key_ba
        return row

    def packet_entry_unguarded(
        self,
        src_mac: str,
        src_ip: str,
        dst_ip: str,
        src_port: int,
        dst_port: int,
        timestamp: float,
    ) -> _PacketEntry:
        """:meth:`packet_entry` minus the prune/recycle bookkeeping.

        Caller contract: the free list is empty AND interning up to
        eight new streams cannot push ``len(self._keys)`` past
        ``max_streams`` (so no prune can fire and ``_alloc_row`` would
        only ever extend the table). Under that contract the
        ``pending``/``exclude`` tracking is dead weight — this variant
        skips it while allocating rows in the exact same order, so the
        resulting entry is bit-identical to the guarded path. The
        columnar ingest resolver (``NetStat._resolve_flow_entries``)
        checks the contract before every batch and falls back to the
        guarded path otherwise.
        """
        keys = self._keys
        mac_key = ("mac", src_mac, src_ip)
        r_mac = keys.get(mac_key)
        if r_mac is None:
            r_mac = self._new_row_unguarded(mac_key, timestamp)
        ip_key = ("ip", src_ip)
        r_ip = keys.get(ip_key)
        if r_ip is None:
            r_ip = self._new_row_unguarded(ip_key, timestamp)
        ch_ab = ("ch", src_ip, dst_ip)
        r_ch_ab = keys.get(ch_ab)
        if r_ch_ab is None:
            r_ch_ab = self._new_row_unguarded(ch_ab, timestamp)
        ch_ba = ("ch", dst_ip, src_ip)
        r_ch_ba = keys.get(ch_ba)
        if r_ch_ba is None:
            r_ch_ba = self._new_row_unguarded(ch_ba, timestamp)
        r_cov_ch = self._cov_keys.get(ch_ab)
        if r_cov_ch is None:
            r_cov_ch = self._new_cov_unguarded(ch_ab, ch_ba)
        sk_ab = ("sk", src_ip, src_port, dst_ip, dst_port)
        r_sk_ab = keys.get(sk_ab)
        if r_sk_ab is None:
            r_sk_ab = self._new_row_unguarded(sk_ab, timestamp)
        sk_ba = ("sk", dst_ip, dst_port, src_ip, src_port)
        r_sk_ba = keys.get(sk_ba)
        if r_sk_ba is None:
            r_sk_ba = self._new_row_unguarded(sk_ba, timestamp)
        r_cov_sk = self._cov_keys.get(sk_ab)
        if r_cov_sk is None:
            r_cov_sk = self._new_cov_unguarded(sk_ab, sk_ba)
        return _PacketEntry(
            self.epoch,
            (r_mac, r_ip, r_ch_ab, r_sk_ab, r_cov_ch, r_cov_sk,
             r_ch_ba, r_sk_ba),
        )

    def update_packet(
        self,
        entry: _PacketEntry,
        value: float,
        timestamp: float,
        out: np.ndarray,
    ) -> None:
        """Fold one packet into all eight rows; write ``20 * D``
        features into ``out`` (a preallocated contiguous buffer)."""
        rows_ptr = entry.rows_ptr
        if rows_ptr is None:
            rows_ptr = entry.rows_ptr = entry.rows_arr.ctypes.data
        self._native_fn(
            self._state_ptr, self._last_ptr, rows_ptr,
            timestamp, value, self._decays_ptr, self._d,
            out.ctypes.data, self._aux_ptr,
        )
        self._fill_hypot(out, self._aux.tolist())

    def update_packet_batch(
        self,
        entries: list[_PacketEntry],
        values: np.ndarray,
        timestamps: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Fold ``n`` packets into the tables in one batched pass.

        ``out`` must be a C-contiguous ``(n, 20 * D)`` matrix. Entries
        must have been resolved with a shared ``pending``/``exclude``
        (see :meth:`packet_entry`); compute happens here, after all
        interning, so the state pointers survive any mid-batch growth.

        The native kernel takes one call for the whole batch.
        """
        n = len(entries)
        if n == 0:
            return
        rows = np.empty((n, 8), dtype=np.int64)
        for i, entry in enumerate(entries):
            rows[i] = entry.rows_arr
        self._dispatch_native_batch(rows, values, timestamps, out)

    def update_packet_batch_indexed(
        self,
        flow_entries: list[_PacketEntry],
        inverse: np.ndarray,
        values: np.ndarray,
        timestamps: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Batched update with per-flow entries plus an inverse index.

        ``flow_entries[inverse[i]]`` is packet ``i``'s entry. Columnar
        ingest resolves one entry per unique flow; gathering the row-id
        matrix with one fancy index beats the per-packet Python loop in
        :meth:`update_packet_batch` whenever flows repeat within the
        batch. Results are identical to expanding the entries per
        packet and calling :meth:`update_packet_batch`.
        """
        n = len(inverse)
        if n == 0:
            return
        k = len(flow_entries)
        flow_rows = np.empty((k, 8), dtype=np.int64)
        for j, entry in enumerate(flow_entries):
            flow_rows[j] = entry.rows_arr
        rows = flow_rows.take(inverse, axis=0)
        self._dispatch_native_batch(rows, values, timestamps, out)

    def _dispatch_native_batch(
        self,
        rows: np.ndarray,
        values: np.ndarray,
        timestamps: np.ndarray,
        out: np.ndarray,
    ) -> None:
        n = rows.shape[0]
        d = self._d
        ts = np.ascontiguousarray(timestamps, dtype=np.float64)
        v = np.ascontiguousarray(values, dtype=np.float64)
        aux = np.empty((n, 8 * d))
        self._native_batch_fn(
            self._state_ptr, self._last_ptr, rows.ctypes.data,
            ts.ctypes.data, v.ctypes.data, n, self._decays_ptr, d,
            out.ctypes.data, aux.ctypes.data,
        )
        self._fill_hypot_batch(out, aux)

    def _fill_hypot_batch(self, out: np.ndarray, aux: np.ndarray) -> None:
        """Batched ``math.hypot`` post-pass (same contract as
        :meth:`_fill_hypot`, amortised over the whole batch)."""
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

    def _fill_hypot(self, out: np.ndarray, aux: list[float]) -> None:
        """Fill the magnitude/radius slots with ``math.hypot``.

        CPython's hypot is more accurate than libm's, so the kernel
        defers these two derived statistics to this Python pass —
        keeping them bit-identical to the scalar reference. ``aux`` is
        operand-major: ``[mean_a | var_a | mean_b | var_b]``, each of
        length ``2 * D`` (channel then socket block).
        """
        d2 = 2 * self._d
        out[self._mag_slice] = list(
            map(_HYPOT, aux[:d2], aux[2 * d2:3 * d2])
        )
        out[self._rad_slice] = list(
            map(_HYPOT, aux[d2:2 * d2], aux[3 * d2:])
        )

    # -- pickling --------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for transient in ("_native_fn", "_native_batch_fn",
                          "_decays_arr", "_decays_ptr", "_aux", "_aux_ptr",
                          "_state_ptr", "_last_ptr"):
            state.pop(transient, None)
        return state

    def __setstate__(self, state: dict) -> None:
        # Checkpoints from before the engine was native-only carry a
        # ``kernel`` choice and row-kernel layout caches; every one of
        # them continues on the native kernel.
        for stale in ("kernel", "_block_1d", "_block_2d"):
            state.pop(stale, None)
        self.__dict__.update(state)
        self._init_kernel()
