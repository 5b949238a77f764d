"""Optional native (C) kernel for the vectorized AfterImage engine.

The structure-of-arrays packet update touches ~40 floats per packet —
small enough that NumPy's per-call dispatch overhead dominates a pure
ufunc implementation. This module compiles a tiny C kernel (once, cached
by source hash) that walks the same arrays in the same float operation
order, so its output is bit-for-bit identical to the scalar
:class:`repro.features.incstat.IncStat` reference:

* decay factors use libm ``pow(2.0, x)`` — the exact function CPython's
  ``math.pow`` wraps, so the bits match in-process;
* division, multiplication, ``sqrt`` and ``fabs`` are IEEE-754
  correctly-rounded and identical across C, NumPy and Python;
* the ``math.hypot``-derived features (magnitude/radius) are *not*
  computed here — CPython's hypot uses its own correction algorithm
  that differs from libm's — the Python caller fills those slots.

The same library holds the engine's stream table: an open-addressing
index from packed integer keys to rows, and ``afterimage_intern``,
which resolves (creating as needed) every packet's eight rows for a
whole batch and pauses where the Python prune must run.

Compilation requires a C compiler (``cc``/``gcc``); when unavailable
:class:`repro.features.netstat.NetStat` falls back to the scalar
engine. Set ``REPRO_DISABLE_NATIVE=1`` to force the fallback. The
compiled library is cached in ``$REPRO_NATIVE_CACHE`` (created on
demand; default: the system temp directory).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

#: Largest decay-vector length the kernel's stack buffers support.
MAX_DECAYS = 16

_KERNEL_SOURCE = r"""
#include <math.h>
#include <stdint.h>

#define MAXD 16

/* state layout: one row per stream = [weight[D] | linear_sum[D] |
 * squared_sum[D]]; covariance rows reuse the same shape as
 * [weight[D] | sum_residual[D] | unused[D]].  last[] holds one
 * timestamp per row (all decay factors of a stream share it). */

static void insert_row(double *state, double *last, int64_t row,
                       double ts, double v, const double *decays,
                       int64_t d, double *w_out, double *mean_out,
                       double *var_out, double *std_out)
{
    double *s = state + row * 3 * d;
    double dt = ts - last[row];
    int64_t i;
    if (dt > 0.0) {
        for (i = 0; i < d; i++) {
            double f = pow(2.0, (-decays[i]) * dt);
            s[i] *= f;
            s[d + i] *= f;
            s[2 * d + i] *= f;
        }
        last[row] = ts;
    }
    for (i = 0; i < d; i++) {
        double w = s[i] + 1.0;
        double ls = s[d + i] + v;
        double ss = s[2 * d + i] + v * v;
        double mean = ls / w;
        double var = fabs(ss / w - mean * mean);
        s[i] = w;
        s[d + i] = ls;
        s[2 * d + i] = ss;
        w_out[i] = w;
        mean_out[i] = mean;
        var_out[i] = var;
        std_out[i] = sqrt(var);
    }
}

static void read_row(const double *state, int64_t row, int64_t d,
                     double *mean_out, double *var_out, double *std_out)
{
    const double *s = state + row * 3 * d;
    int64_t i;
    for (i = 0; i < d; i++) {
        double w = s[i];
        double mean = 0.0;
        double var = 0.0;
        if (w > 0.0) {
            mean = s[d + i] / w;
            var = fabs(s[2 * d + i] / w - mean * mean);
        }
        mean_out[i] = mean;
        var_out[i] = var;
        std_out[i] = sqrt(var);
    }
}

static void update_cov_row(double *state, double *last, int64_t row,
                           double ts, double v, const double *decays,
                           int64_t d, const double *mean_a,
                           const double *std_a, const double *std_b,
                           double *cov_out, double *corr_out)
{
    double *s = state + row * 3 * d;
    double dt = ts - last[row];
    int64_t i;
    if (dt > 0.0) {
        for (i = 0; i < d; i++) {
            double f = pow(2.0, (-decays[i]) * dt);
            s[i] *= f;
            s[d + i] *= f;
        }
        last[row] = ts;
    } else if (last[row] == 0.0) {
        last[row] = ts;
    }
    for (i = 0; i < d; i++) {
        double resid = (v - mean_a[i]) * std_b[i];
        double sr = s[d + i] + resid;
        double wc = s[i] + 1.0;
        double cov = sr / wc;
        double denom = std_a[i] * std_b[i];
        double corr = 0.0;
        s[i] = wc;
        s[d + i] = sr;
        if (denom > 0.0) {
            /* Mirrors Python's max(-1.0, min(1.0, value)) exactly,
             * including its NaN-swallowing comparison order. */
            corr = cov / denom;
            corr = corr < 1.0 ? corr : 1.0;
            corr = corr > -1.0 ? corr : -1.0;
        }
        cov_out[i] = cov;
        corr_out[i] = corr;
    }
}

/* rows = [mac, ip, ch_ab, sk_ab, cov_ch, cov_sk, ch_ba, sk_ba].
 * out receives the full 20*D-feature layout except the hypot slots
 * (offsets +3/+4 of the 2-D blocks); aux receives the hypot operands
 * grouped operand-major (see below) for the Python post-pass. */
static void afterimage_update_packet(double *state, double *last,
                                     const int64_t *rows, double ts,
                                     double v, const double *decays,
                                     int64_t d, double *out, double *aux)
{
    double w[MAXD], mean[MAXD], var[MAXD], stdv[MAXD];
    double mb[MAXD], vb[MAXD], sb[MAXD];
    double cov[MAXD], corr[MAXD];
    double *block;
    int64_t i, g;

    insert_row(state, last, rows[0], ts, v, decays, d, w, mean, var, stdv);
    for (i = 0; i < d; i++) {
        out[3 * i] = w[i];
        out[3 * i + 1] = mean[i];
        out[3 * i + 2] = stdv[i];
    }
    insert_row(state, last, rows[1], ts, v, decays, d, w, mean, var, stdv);
    block = out + 3 * d;
    for (i = 0; i < d; i++) {
        block[3 * i] = w[i];
        block[3 * i + 1] = mean[i];
        block[3 * i + 2] = stdv[i];
    }
    for (g = 0; g < 2; g++) {
        insert_row(state, last, rows[2 + g], ts, v, decays, d,
                   w, mean, var, stdv);
        /* The reverse direction is read *after* the forward insert is
         * written back, so a self-conversation (src == dst) sees its
         * own post-insert statistics — matching the scalar path where
         * both keys resolve to one object. */
        read_row(state, rows[6 + g], d, mb, vb, sb);
        update_cov_row(state, last, rows[4 + g], ts, v, decays, d,
                       mean, stdv, sb, cov, corr);
        block = out + 6 * d + g * 7 * d;
        for (i = 0; i < d; i++) {
            block[7 * i] = w[i];
            block[7 * i + 1] = mean[i];
            block[7 * i + 2] = stdv[i];
            block[7 * i + 5] = cov[i];
            block[7 * i + 6] = corr[i];
        }
        /* aux = [mean_a x2 | var_a x2 | mean_b x2 | var_b x2] so the
         * Python hypot pass maps over contiguous slices. */
        for (i = 0; i < d; i++) {
            aux[g * d + i] = mean[i];
            aux[2 * d + g * d + i] = var[i];
            aux[4 * d + g * d + i] = mb[i];
            aux[6 * d + g * d + i] = vb[i];
        }
    }
}

/* Batched update: fold n packets into the tables in one call.
 *
 * rows is n x 8 (one interned working set per packet), out is n x 20*d
 * and aux n x 8*d, all contiguous. Packets are walked strictly in
 * sequence order, so the result is bit-identical to n single-packet
 * calls. */
void afterimage_update_batch(double *state, double *last,
                             const int64_t *rows, const double *ts,
                             const double *v, int64_t n,
                             const double *decays, int64_t d,
                             double *out, double *aux)
{
    int64_t p;
    for (p = 0; p < n; p++)
        afterimage_update_packet(state, last, rows + p * 8, ts[p], v[p],
                                 decays, d, out + p * 20 * d,
                                 aux + p * 8 * d);
}

/* ---- stream table ------------------------------------------------
 *
 * Every row carries its packed key in key0/key1 (key1 == 0: free
 * row). key1's low byte is the kind (MAC 1, IP 2, CH 3, SK 4, plus
 * COV 8 for a covariance row); see repro.features.vector for the
 * field layout. table[] is an open-addressing index (linear probing,
 * power-of-two size, -1 = empty) from key to row. Keys are never
 * deleted in place: the prune rebuilds the index from the surviving
 * rows with afterimage_table_insert. */

enum { K_MAC = 1, K_IP = 2, K_CH = 3, K_SK = 4, K_COV = 8 };
/* counts[]: the table's scalar state, shared with Python. */
enum { C_SIZE, C_NFREE, C_NKEYS, C_NCOVS, C_NEXT_SEQ, C_STATUS };
enum { ST_DONE, ST_GROW, ST_PRUNE };

static uint64_t mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/* Row holding (k0, k1), or -1 with *slot at the empty slot ending the
 * probe run. */
static int64_t probe(const int64_t *table, uint64_t mask,
                     const uint64_t *key0, const uint64_t *key1,
                     uint64_t k0, uint64_t k1, uint64_t *slot)
{
    uint64_t i = mix64(k0 ^ mix64(k1)) & mask;
    for (;;) {
        int64_t r = table[i];
        if (r < 0 || (key0[r] == k0 && key1[r] == k1)) {
            *slot = i;
            return r;
        }
        i = (i + 1) & mask;
    }
}

void afterimage_table_insert(int64_t *table, int64_t mask,
                             const uint64_t *key0, const uint64_t *key1,
                             const int64_t *rows, int64_t n)
{
    int64_t i;
    uint64_t slot;
    for (i = 0; i < n; i++) {
        probe(table, (uint64_t)mask, key0, key1, key0[rows[i]],
              key1[rows[i]], &slot);
        table[slot] = rows[i];
    }
}

void afterimage_table_lookup(const int64_t *table, int64_t mask,
                             const uint64_t *key0, const uint64_t *key1,
                             const uint64_t *k0, const uint64_t *k1,
                             int64_t n, int64_t *out)
{
    int64_t i;
    uint64_t slot;
    for (i = 0; i < n; i++)
        out[i] = probe(table, (uint64_t)mask, key0, key1, k0[i], k1[i],
                       &slot);
}

/* Resolve the eight rows of packets pos/8 .. n-1, creating streams
 * and covariances as needed, in the scalar reference's creation
 * order: MAC, IP, channel a>b, b>a, its covariance, socket a>b, b>a,
 * its covariance. words is n x 3 per packet:
 *   [ether flag << 48 | src MAC, src IP << 32 | dst IP,
 *    src port << 16 | dst port];
 * rows (n x 8) receives the kernel's layout
 *   [mac, ip, ch_ab, sk_ab, cov_ch, cov_sk, ch_ba, sk_ba].
 * A new stream row gets last = its packet's timestamp, a new
 * covariance row last = 0 (IncStatCov starts its clock at zero); both
 * get the next insertion sequence number. Recycled rows come off the
 * free list zeroed.
 *
 * Returns the position (packet * 8 + step) to resume from and sets
 * counts[C_STATUS]: ST_DONE; ST_GROW when the next creation needs a
 * larger table or more rows (nothing was done for that step); or
 * ST_PRUNE right after a stream creation took the stream count past
 * max_streams (the caller prunes, then resumes). */
int64_t afterimage_intern(double *state, double *last, int64_t *seq,
                          uint64_t *key0, uint64_t *key1,
                          int64_t capacity, int64_t *table, int64_t mask,
                          int64_t *free_rows, int64_t *counts,
                          const uint64_t *words, const double *ts,
                          int64_t n, int64_t pos, int64_t max_streams,
                          int64_t d, int64_t *rows)
{
    static const int col_of_step[8] = {0, 1, 2, 6, 4, 3, 7, 5};
    for (; pos < 8 * n; pos++) {
        int64_t p = pos >> 3, step = pos & 7, r;
        const uint64_t *w = words + 3 * p;
        uint64_t ab = w[1], ba = (ab >> 32) | (ab << 32);
        uint64_t ports_ab = (w[2] & 0xffff0000ULL)
                            | ((w[2] & 0xffffULL) << 32);
        uint64_t ports_ba = ((w[2] & 0xffffULL) << 16)
                            | ((w[2] >> 16 & 0xffffULL) << 32);
        uint64_t k0, k1, slot;
        int cov = 0;
        switch (step) {
        case 0: k0 = w[0]; k1 = K_MAC | (ab & 0xffffffff00000000ULL); break;
        case 1: k0 = ab >> 32; k1 = K_IP; break;
        case 2: k0 = ab; k1 = K_CH; break;
        case 3: k0 = ba; k1 = K_CH; break;
        case 4: k0 = ab; k1 = K_CH | K_COV; cov = 1; break;
        case 5: k0 = ab; k1 = K_SK | ports_ab; break;
        case 6: k0 = ba; k1 = K_SK | ports_ba; break;
        default: k0 = ab; k1 = K_SK | K_COV | ports_ab; cov = 1; break;
        }
        r = probe(table, (uint64_t)mask, key0, key1, k0, k1, &slot);
        if (r < 0) {
            if ((counts[C_NFREE] == 0 && counts[C_SIZE] == capacity)
                || 2 * (counts[C_NKEYS] + counts[C_NCOVS] + 1) > mask + 1) {
                counts[C_STATUS] = ST_GROW;
                return pos;
            }
            if (counts[C_NFREE] > 0) {
                int64_t i;
                double *s;
                r = free_rows[--counts[C_NFREE]];
                s = state + r * 3 * d;
                for (i = 0; i < 3 * d; i++)
                    s[i] = 0.0;
            } else {
                r = counts[C_SIZE]++;
            }
            table[slot] = r;
            key0[r] = k0;
            key1[r] = k1;
            seq[r] = counts[C_NEXT_SEQ]++;
            last[r] = cov ? 0.0 : ts[p];
            rows[8 * p + col_of_step[step]] = r;
            if (cov) {
                counts[C_NCOVS]++;
            } else if (++counts[C_NKEYS] > max_streams) {
                counts[C_STATUS] = ST_PRUNE;
                return pos + 1;
            }
            continue;
        }
        rows[8 * p + col_of_step[step]] = r;
    }
    counts[C_STATUS] = ST_DONE;
    return pos;
}
"""

#: IEEE-preserving flags: no FMA contraction, no unsafe reassociation —
#: the kernel's bit-parity contract depends on one rounding per op.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off",
           "-fno-unsafe-math-optimizations")


def _cache_path() -> Path:
    digest = hashlib.sha256(
        (_KERNEL_SOURCE + " ".join(_CFLAGS)).encode()
    ).hexdigest()[:16]
    base = os.environ.get("REPRO_NATIVE_CACHE") or tempfile.gettempdir()
    tag = f"repro-afterimage-{sys.implementation.name}-{digest}"
    return Path(base) / f"{tag}.so"


def _compile(target: Path) -> str | None:
    """Build the kernel at ``target``; ``None`` on success, else why not.

    The library is compiled into a temporary file next to ``target``
    and renamed into place, so the publish is atomic (concurrent
    workers may race to compile) and never crosses a filesystem.
    """
    compiler = os.environ.get("CC") or "cc"
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, name = tempfile.mkstemp(
            prefix=f".{target.stem}-", suffix=".partial", dir=target.parent
        )
        os.close(fd)
    except OSError as error:
        return f"kernel cache directory {target.parent} unusable: {error}"
    partial = Path(name)
    try:
        with tempfile.TemporaryDirectory(prefix="repro-native-") as tmp:
            source = Path(tmp) / "afterimage.c"
            source.write_text(_KERNEL_SOURCE)
            try:
                subprocess.run(
                    [compiler, *_CFLAGS, str(source), "-o", str(partial),
                     "-lm"],
                    check=True, capture_output=True, timeout=120,
                )
            except (OSError, subprocess.SubprocessError):
                return "C kernel compilation failed (no C compiler?)"
        try:
            os.replace(partial, target)
        except OSError as error:
            if target.exists():  # another worker published first
                return None
            return f"compiled kernel not published to {target}: {error}"
        return None
    finally:
        partial.unlink(missing_ok=True)


_cached_kernel: ctypes.CDLL | None = None
_load_attempted = False
_unavailable_reason: str | None = None


def unavailable_reason() -> str | None:
    """Why the native kernel is off, or ``None`` when it loaded."""
    load_kernel()
    return _unavailable_reason


def load_kernel() -> ctypes.CDLL | None:
    """The compiled kernel, or ``None`` when native support is off.

    A missing/broken compiler or an unusable cache directory degrades
    to the scalar engine with a single :class:`RuntimeWarning` (per
    process), never an exception; ``REPRO_DISABLE_NATIVE`` is a
    deliberate opt-out and stays silent.
    """
    global _cached_kernel, _load_attempted, _unavailable_reason
    if _load_attempted:
        return _cached_kernel
    _load_attempted = True
    if os.environ.get("REPRO_DISABLE_NATIVE"):
        _unavailable_reason = "REPRO_DISABLE_NATIVE is set"
        return None
    path = _cache_path()
    reason = None if path.exists() else _compile(path)
    if reason is not None:
        _unavailable_reason = reason
        warnings.warn(
            f"native AfterImage kernel unavailable: {reason}; falling "
            "back to the scalar engine",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    try:
        library = ctypes.CDLL(str(path))
    except OSError:
        _unavailable_reason = "compiled kernel failed to load"
        warnings.warn(
            "native AfterImage kernel unavailable: the compiled artifact "
            "failed to load; falling back to the scalar engine",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    batch = library.afterimage_update_batch
    batch.restype = None
    batch.argtypes = [
        ctypes.c_void_p,   # state
        ctypes.c_void_p,   # last
        ctypes.c_void_p,   # rows (n x 8)
        ctypes.c_void_p,   # timestamps (n)
        ctypes.c_void_p,   # values (n)
        ctypes.c_int64,    # packet count
        ctypes.c_void_p,   # decays
        ctypes.c_int64,    # decay count
        ctypes.c_void_p,   # out (n x 20*d)
        ctypes.c_void_p,   # aux (n x 8*d)
    ]
    intern = library.afterimage_intern
    intern.restype = ctypes.c_int64
    intern.argtypes = [
        ctypes.c_void_p,   # state
        ctypes.c_void_p,   # last
        ctypes.c_void_p,   # seq
        ctypes.c_void_p,   # key0
        ctypes.c_void_p,   # key1
        ctypes.c_int64,    # row capacity
        ctypes.c_void_p,   # table
        ctypes.c_int64,    # table mask
        ctypes.c_void_p,   # free rows
        ctypes.c_void_p,   # counts
        ctypes.c_void_p,   # key words (n x 3)
        ctypes.c_void_p,   # timestamps (n)
        ctypes.c_int64,    # packet count
        ctypes.c_int64,    # resume position
        ctypes.c_int64,    # max_streams
        ctypes.c_int64,    # decay count
        ctypes.c_void_p,   # rows out (n x 8)
    ]
    insert = library.afterimage_table_insert
    insert.restype = None
    insert.argtypes = [
        ctypes.c_void_p,   # table
        ctypes.c_int64,    # table mask
        ctypes.c_void_p,   # key0
        ctypes.c_void_p,   # key1
        ctypes.c_void_p,   # rows to index
        ctypes.c_int64,    # row count
    ]
    lookup = library.afterimage_table_lookup
    lookup.restype = None
    lookup.argtypes = [
        ctypes.c_void_p,   # table
        ctypes.c_int64,    # table mask
        ctypes.c_void_p,   # key0
        ctypes.c_void_p,   # key1
        ctypes.c_void_p,   # query key0 words
        ctypes.c_void_p,   # query key1 words
        ctypes.c_int64,    # query count
        ctypes.c_void_p,   # rows out (-1: absent)
    ]
    _cached_kernel = library
    return library
