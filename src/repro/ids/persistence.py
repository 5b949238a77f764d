"""Persistence for trained anomaly detectors and live stream state.

Deploying an IDS means training once and executing for weeks, so the
trained state must survive a process restart. Two layers live here:

* **Model persistence** (:func:`save_kitnet` / :func:`load_kitnet`) —
  a trained :class:`repro.ids.kitsune.kitnet.KitNET`'s feature-mapper
  groups, frozen scalers, and every autoencoder's weights go to a
  single ``.npz`` file and restore into execute mode. The damped
  NetStat stream state is deliberately *not* part of this format: it
  is traffic state, not model state, and rebuilds online within a few
  decay horizons (exactly how Kitsune deployments behave after a
  restart).
* **Stream checkpoints** (:func:`write_stream_checkpoint` /
  :func:`load_stream_checkpoint`) — the sharded streaming engine's
  crash-resume unit. A checkpoint captures one worker's *entire*
  live detector (model weights **and** NetStat traffic state and any
  buffered micro-batch) plus its stream cursor, so a worker killed
  mid-run resumes bit-exactly: replaying its shard from the cursor
  reproduces the uninterrupted run's scores. Checkpoint files are
  written atomically (temp file + rename) and carry a content digest,
  so a crash *during* a checkpoint write can never leave a truncated
  file that a resume would trust — corrupt files are detected and the
  supervisor falls back to the previous checkpoint.

  Format 2 pickles the detector once, with protocol 5. Its arrays
  (NetStat's state is most of a Kitsune checkpoint) travel out of band:
  they are written straight from memory after the in-band stream, each
  on a 16-byte boundary, and the loader hands the pickle views into
  the ``bytearray`` it read, so a restore copies no array and its
  arrays are writable and aligned. The layout is::

      magic "RPSCKPT2" | sha256 of everything after it
      | u64 header length | header pickle (cursor, meta, lengths)
      | detector pickle | (padding | buffer) ...

  A format-1 file (``RPSCKPT1``) raises :class:`CheckpointCorrupt`.

  :func:`write_stream_checkpoint` writes one file to an open temp file
  and publishes nothing; the sharded worker uses it from a forked
  writer and renames the file itself once the writer exited 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.features.normalize import OnlineMinMaxScaler
from repro.ids.kitsune.kitnet import KitNET
from repro.ml.autoencoder import Autoencoder
from repro.utils.rng import SeededRNG

# Version history:
#   1 — initial format; the sample counter was stored under a misspelled
#       meta key (``"decaysamples_seen"``) and ignored on load.
#   2 — counter stored as ``"samples_seen"`` and restored faithfully.
#       Files written while KitNET still had a mini-batch training
#       mode also carry its two config keys; load ignores them, because
#       a saved model is always past its grace periods.
_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)


def _restore_scaler(dim: int, minimum, maximum, *, clip: bool) -> OnlineMinMaxScaler:
    scaler = OnlineMinMaxScaler(dim, clip=clip)
    scaler.min = np.asarray(minimum, dtype=np.float64)
    scaler.max = np.asarray(maximum, dtype=np.float64)
    scaler.freeze()
    return scaler


def save_kitnet(kitnet: KitNET, path: str | Path) -> None:
    """Serialise a trained KitNET to ``path`` (.npz).

    Raises ``ValueError`` if the detector has not finished its grace
    periods — persisting a half-trained model is a deployment bug.
    """
    if kitnet.in_feature_mapping or kitnet.in_training:
        raise ValueError(
            "KitNET is still in its grace periods; train before saving"
        )
    assert kitnet.output_layer is not None
    assert kitnet._output_scaler is not None

    arrays: dict[str, np.ndarray] = {}
    meta = {
        "format_version": _FORMAT_VERSION,
        "dim": kitnet.dim,
        "samples_seen": kitnet.samples_seen,
        "fm_grace": kitnet.fm_grace,
        "ad_grace": kitnet.ad_grace,
        "hidden_ratio": kitnet.hidden_ratio,
        "learning_rate": kitnet.learning_rate,
        "groups": kitnet.mapper.groups,
        "ensemble_size": len(kitnet.ensemble),
    }
    arrays["scaler_min"] = kitnet.scaler.min
    arrays["scaler_max"] = kitnet.scaler.max
    arrays["output_scaler_min"] = kitnet._output_scaler.min
    arrays["output_scaler_max"] = kitnet._output_scaler.max
    for i, ae in enumerate([*kitnet.ensemble, kitnet.output_layer]):
        arrays[f"ae{i}_enc_w"] = ae.encoder.weights
        arrays[f"ae{i}_enc_b"] = ae.encoder.bias
        arrays[f"ae{i}_dec_w"] = ae.decoder.weights
        arrays[f"ae{i}_dec_b"] = ae.decoder.bias
    arrays["meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)


def load_kitnet(path: str | Path) -> KitNET:
    """Restore a KitNET saved by :func:`save_kitnet`, in execute mode."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta.get("format_version") not in _SUPPORTED_VERSIONS:
            raise ValueError(
                f"unsupported model format {meta.get('format_version')!r}"
            )
        kitnet = KitNET(
            meta["dim"],
            fm_grace=meta["fm_grace"],
            ad_grace=meta["ad_grace"],
            hidden_ratio=meta["hidden_ratio"],
            learning_rate=meta["learning_rate"],
            rng=SeededRNG(0, "loaded-kitnet"),
        )
        kitnet.mapper.groups = [list(g) for g in meta["groups"]]
        kitnet.scaler = _restore_scaler(
            meta["dim"], data["scaler_min"], data["scaler_max"], clip=False
        )
        groups = kitnet.mapper.groups
        # The input scaler is unclipped (AfterImage semantics); the
        # output-RMSE scaler clips, matching KitNET._build_ensemble.
        kitnet._output_scaler = _restore_scaler(
            len(groups), data["output_scaler_min"], data["output_scaler_max"],
            clip=True,
        )

        def restore_ae(index: int, dim: int) -> Autoencoder:
            ae = Autoencoder(
                dim,
                hidden_ratio=meta["hidden_ratio"],
                learning_rate=meta["learning_rate"],
                rng=SeededRNG(index, "loaded-ae"),
            )
            ae.encoder.weights = np.asarray(data[f"ae{index}_enc_w"])
            ae.encoder.bias = np.asarray(data[f"ae{index}_enc_b"])
            ae.decoder.weights = np.asarray(data[f"ae{index}_dec_w"])
            ae.decoder.bias = np.asarray(data[f"ae{index}_dec_b"])
            return ae

        kitnet.ensemble = [
            restore_ae(i, len(group)) for i, group in enumerate(groups)
        ]
        kitnet.output_layer = restore_ae(len(groups), len(groups))
        # Checkpoints bypass _build_ensemble, so materialise the gather
        # index arrays here — per-group gathers (and the packed batched
        # scorer built from them) must be fancy-indexes everywhere.
        kitnet._group_index = [
            np.asarray(group, dtype=np.intp) for group in groups
        ]
        # Restore the true sample counter. Version-1 checkpoints stored
        # it under a misspelled key (and the old loader discarded it,
        # hardcoding fm+ad+1 — wrong for any detector that had executed
        # past the boundary before saving); fall back to that key, and
        # only then to the just-past-the-boundary legacy value.
        kitnet.samples_seen = int(
            meta.get(
                "samples_seen",
                meta.get(
                    "decaysamples_seen",
                    meta["fm_grace"] + meta["ad_grace"] + 1,
                ),
            )
        )
    return kitnet


# --------------------------------------------------------------------------
# Stream checkpoints: the sharded engine's crash-resume unit.

#: Stream-checkpoint format version (independent of the KitNET format).
_STREAM_CKPT_VERSION = 2
#: 8-byte magic prefixing every checkpoint file.
_STREAM_CKPT_MAGIC = b"RPSCKPT2"
#: Magic of format 1 (a pickled dict holding the detector's own pickle
#: as bytes); such files are refused, never loaded.
_STREAM_CKPT_MAGIC_V1 = b"RPSCKPT1"
#: Bytes before the digested body: magic, then the sha256 slot.
_STREAM_CKPT_HEAD = len(_STREAM_CKPT_MAGIC) + 32
_LENGTH = struct.Struct("<Q")
#: Out-of-band buffers start at file offsets that are multiples of
#: this. A ``bytearray``'s storage comes from ``malloc``, which aligns
#: it to 16 bytes, so every restored array is aligned for its dtype.
_BUFFER_ALIGN = 16
#: ``worker<id>-<consumed>.ckpt``
_CKPT_NAME_RE = re.compile(r"^worker(\d+)-(\d+)\.ckpt$")


class CheckpointCorrupt(ValueError):
    """A checkpoint file failed its integrity check (truncated write,
    partial disk, bit rot) or has another format. Resume falls back to
    an older checkpoint."""


@dataclass
class StreamCheckpoint:
    """One worker's resumable stream state.

    ``consumed`` is the worker's packet cursor: how many shard packets
    the detector had fully processed when the checkpoint was taken.
    Replaying the shard from exactly this offset resumes the stream
    bit-identically — the detector pickle carries *all* live state
    (model weights, NetStat traffic state, buffered micro-batch,
    ``items_scored``).

    ``data`` is the verified file; ``detector_at`` and ``buffers_at``
    are the ``(offset, length)`` of the detector's in-band pickle and
    of each of its out-of-band buffers within it.

    A checkpoint restores once: the restored arrays are views into
    ``data``. To restore the same state again, load the file again.
    """

    worker_id: int
    consumed: int
    emitted: int
    meta: dict
    data: bytearray = field(repr=False)
    detector_at: tuple[int, int] = field(repr=False)
    buffers_at: list[tuple[int, int]] = field(repr=False)

    def restore_detector(self):
        """Deserialise the captured detector, ready to keep streaming.

        Its arrays are writable views into ``data``, not copies.
        """
        view = memoryview(self.data)
        offset, length = self.detector_at
        return pickle.loads(
            view[offset:offset + length],
            buffers=[view[at:at + n] for at, n in self.buffers_at],
        )


def checkpoint_filename(worker_id: int, consumed: int) -> str:
    """Canonical checkpoint file name (sorts by cursor per worker)."""
    return f"worker{worker_id}-{consumed:012d}.ckpt"


def _buffer_layout(offset: int, lengths) -> list[tuple[int, int]]:
    """``(offset, length)`` of each out-of-band buffer, laid out from
    ``offset`` on, each one starting on a :data:`_BUFFER_ALIGN` boundary."""
    layout = []
    for length in lengths:
        offset += -offset % _BUFFER_ALIGN
        layout.append((offset, length))
        offset += length
    return layout


def write_stream_checkpoint(
    fd: int,
    detector,
    *,
    worker_id: int,
    consumed: int,
    meta: dict | None = None,
) -> None:
    """Write one checkpoint of ``detector`` to the open file ``fd``,
    fsync it and close ``fd``. It names no file: publishing it under
    :func:`checkpoint_filename` is the caller's rename.

    The detector is pickled once (protocol 5); its contiguous arrays
    go out of band and are written straight from their memory after
    the in-band stream, with no intermediate copy. The sha256 covers
    every byte after its slot and is filled in last.
    """
    buffers: list[pickle.PickleBuffer] = []
    blob = pickle.dumps(detector, protocol=5, buffer_callback=buffers.append)
    views = [buffer.raw() for buffer in buffers]
    lengths = [view.nbytes for view in views]
    header = pickle.dumps(
        {
            "format_version": _STREAM_CKPT_VERSION,
            "worker_id": int(worker_id),
            "consumed": int(consumed),
            "emitted": int(getattr(detector, "items_scored", 0)),
            "meta": dict(meta or {}),
            "detector_bytes": len(blob),
            "buffer_bytes": lengths,
        },
        protocol=5,
    )
    with os.fdopen(fd, "wb") as fh:
        digest = hashlib.sha256()
        offset = _STREAM_CKPT_HEAD

        def put(data) -> None:
            nonlocal offset
            digest.update(data)
            fh.write(data)
            offset += len(data)

        fh.write(_STREAM_CKPT_MAGIC + bytes(32))
        put(_LENGTH.pack(len(header)))
        put(header)
        put(blob)
        for (at, _), view in zip(_buffer_layout(offset, lengths), views):
            put(bytes(at - offset))
            put(view)
        fh.seek(len(_STREAM_CKPT_MAGIC))
        fh.write(digest.digest())
        fh.flush()
        os.fsync(fh.fileno())


def load_stream_checkpoint(path: str | Path) -> StreamCheckpoint:
    """Read and verify one checkpoint file.

    The file is read into a ``bytearray``, so the arrays a restore
    builds on it are writable. Raises :class:`CheckpointCorrupt` when
    the magic, digest, layout or format version does not check out —
    a format-1 file included.
    """
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size)
        if fh.readinto(data) != len(data):
            raise CheckpointCorrupt(f"{path}: changed while being read")
    magic = bytes(data[:len(_STREAM_CKPT_MAGIC)])
    if magic == _STREAM_CKPT_MAGIC_V1:
        raise CheckpointCorrupt(
            f"{path}: format-1 checkpoint; only format "
            f"{_STREAM_CKPT_VERSION} is read"
        )
    if (magic != _STREAM_CKPT_MAGIC
            or len(data) < _STREAM_CKPT_HEAD + _LENGTH.size):
        raise CheckpointCorrupt(f"{path}: not a stream checkpoint")
    view = memoryview(data)
    digest = hashlib.sha256(view[_STREAM_CKPT_HEAD:]).digest()
    if digest != view[len(_STREAM_CKPT_MAGIC):_STREAM_CKPT_HEAD]:
        raise CheckpointCorrupt(f"{path}: content digest mismatch")
    (header_bytes,) = _LENGTH.unpack_from(data, _STREAM_CKPT_HEAD)
    offset = _STREAM_CKPT_HEAD + _LENGTH.size
    header = pickle.loads(view[offset:offset + header_bytes])
    if header.get("format_version") != _STREAM_CKPT_VERSION:
        raise CheckpointCorrupt(
            f"{path}: unsupported checkpoint format "
            f"{header.get('format_version')!r}"
        )
    detector_at = (offset + header_bytes, header["detector_bytes"])
    buffers_at = _buffer_layout(sum(detector_at), header["buffer_bytes"])
    end = sum(buffers_at[-1]) if buffers_at else sum(detector_at)
    if end != len(data):
        raise CheckpointCorrupt(f"{path}: layout does not match file size")
    return StreamCheckpoint(
        worker_id=header["worker_id"],
        consumed=header["consumed"],
        emitted=header["emitted"],
        meta=header["meta"],
        data=data,
        detector_at=detector_at,
        buffers_at=buffers_at,
    )


def latest_stream_checkpoint(
    directory: str | Path, worker_id: int
) -> tuple[Path, StreamCheckpoint] | None:
    """The newest *valid* checkpoint for ``worker_id``, or ``None``.

    Corrupt files (e.g. from exotic filesystems defeating the atomic
    rename) are skipped, falling back to the next-newest — so a resume
    can always trust what this returns.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates: list[tuple[int, Path]] = []
    for entry in directory.iterdir():
        match = _CKPT_NAME_RE.match(entry.name)
        if match and int(match.group(1)) == worker_id:
            candidates.append((int(match.group(2)), entry))
    for _, path in sorted(candidates, reverse=True):
        try:
            return path, load_stream_checkpoint(path)
        except (CheckpointCorrupt, OSError, pickle.UnpicklingError):
            continue
    return None


def prune_stream_checkpoints(
    directory: str | Path, worker_id: int, *, keep: int = 2
) -> int:
    """Delete all but the ``keep`` newest checkpoints of one worker.

    Keeping two means a corrupt newest file still leaves a valid
    fallback. Returns the number of files removed.
    """
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    candidates: list[tuple[int, Path]] = []
    for entry in directory.iterdir():
        match = _CKPT_NAME_RE.match(entry.name)
        if match and int(match.group(1)) == worker_id:
            candidates.append((int(match.group(2)), entry))
    removed = 0
    for _, path in sorted(candidates, reverse=True)[keep:]:
        try:
            path.unlink()
            removed += 1
        except OSError:
            continue
    return removed
