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
void afterimage_update_packet(double *state, double *last,
                              const int64_t *rows, double ts, double v,
                              const double *decays, int64_t d,
                              double *out, double *aux)
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
    fn = library.afterimage_update_packet
    fn.restype = None
    fn.argtypes = [
        ctypes.c_void_p,   # state
        ctypes.c_void_p,   # last
        ctypes.c_void_p,   # rows
        ctypes.c_double,   # timestamp
        ctypes.c_double,   # value
        ctypes.c_void_p,   # decays
        ctypes.c_int64,    # decay count
        ctypes.c_void_p,   # out
        ctypes.c_void_p,   # aux
    ]
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
    _cached_kernel = library
    return library
