"""Multimodal (image / audio / video) stages over opaque binary columns.

The engineering contract for 100 TB multimodal pipelines:

- media rides as a ``binary`` column + typed metadata; binary-heavy stages
  stay in ``batch_format="pyarrow"`` (arrow binary round-trips, pandas
  object dtype would copy);
- decode / resize / feature-extract / frame-sample are ACTOR-POOL
  ``map_batches`` stages (model/codec setup in ``__init__``, work per
  batch), with small ``batch_size`` because rows are megabytes;
- the codec boundary is explicit: :func:`bqf_ray.sources.media.
  decode_payload` decodes the deterministic RAWM container plus REAL
  PNG and WAV PCM via the pure-stdlib codecs in
  :mod:`bqf_ray.sources.codecs` (zlib + scanline unfiltering / RIFF
  parsing) and full baseline+progressive JPEG via
  :mod:`bqf_ray.sources.jpeg` (Huffman + DCT + successive
  approximation, pure stdlib); the remaining formats (MP3/H.264)
  still raise ``NotImplementedError`` at that single point — swap
  ffmpeg in there in production.
"""

from __future__ import annotations

import struct as _struct
import zlib as _zlib

import numpy as np
import pyarrow as pa

from bqf_ray.sources.media import decode_header, decode_payload

# the complete decode-failure surface of decode_payload and the
# stdlib codecs behind it (sources/codecs.py): foreign magic →
# NotImplementedError, malformed container → ValueError/struct.error,
# corrupt DEFLATE → zlib.error.  Anything else is a real bug and MUST
# propagate — a bare Exception catch would mask codec defects as
# ok=False rows.
_DECODE_ERRORS = (NotImplementedError, ValueError,
                  _zlib.error, _struct.error)


def _binary_views(col):
    """Zero-copy per-row ``memoryview`` iterator over a (large_)binary
    column (None for nulls) — avoids ``to_pylist()``'s per-batch bytes
    copies; the stdlib codecs accept any buffer object."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    for ch in chunks:
        valid = np.asarray(ch.is_valid()) if ch.null_count else None
        bufs = ch.buffers()
        width = (np.int64 if pa.types.is_large_binary(ch.type)
                 else np.int32)
        offs = np.frombuffer(bufs[1], dtype=width)[
            ch.offset: ch.offset + len(ch) + 1]
        # cast to unsigned: pyarrow buffers export format 'b' (signed),
        # under which a slice never compares equal to a bytes literal
        # containing values > 127 (e.g. the \x89 of PNG magic)
        data = (memoryview(bufs[2]).cast("B") if bufs[2] is not None
                else memoryview(b""))
        for i in range(len(ch)):
            if valid is not None and not valid[i]:
                yield None
            else:
                yield data[offs[i]: offs[i + 1]]


class DecodeMedia:
    """payload → (width, height, n_frames, n_bytes) metadata + validity.

    Stage contract: never throws on undecodable rows — emits ``ok=False``
    (a 100 TB run must not die on one corrupt blob)."""

    def __init__(self, payload_col: str = "payload"):
        self.payload_col = payload_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        widths, heights, frames, nbytes, ok = [], [], [], [], []
        for blob in _binary_views(batch.column(self.payload_col)):
            try:
                if blob is None:
                    raise ValueError("null payload")
                _, w, h, f, data = decode_payload(blob)
                widths.append(w)
                heights.append(h)
                frames.append(f)
                nbytes.append(int(data.nbytes))
                ok.append(True)
            except _DECODE_ERRORS:
                widths.append(0)
                heights.append(0)
                frames.append(0)
                nbytes.append(len(blob) if blob is not None else 0)
                ok.append(False)
        return (batch.append_column("width", pa.array(widths, pa.int32()))
                .append_column("height", pa.array(heights, pa.int32()))
                .append_column("n_frames", pa.array(frames, pa.int32()))
                .append_column("payload_bytes", pa.array(nbytes, pa.int64()))
                .append_column("ok", pa.array(ok, pa.bool_())))


class ResizeImages:
    """Nearest-neighbor resize of RAWM image payloads to (out_w, out_h).

    Deterministic pure-numpy resize (the real pipeline would call a codec
    library here; the gather math is identical)."""

    def __init__(self, out_w: int = 16, out_h: int = 16,
                 payload_col: str = "payload"):
        self.out_w, self.out_h = out_w, out_h
        self.payload_col = payload_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for blob in _binary_views(batch.column(self.payload_col)):
            try:
                kind, w, h, f, img = decode_payload(blob)
            except _DECODE_ERRORS:
                out.append(None)
                continue
            if kind != 0:
                out.append(None)
                continue
            yi = (np.arange(self.out_h) * h // self.out_h)
            xi = (np.arange(self.out_w) * w // self.out_w)
            out.append(np.ascontiguousarray(img[yi][:, xi]).tobytes())
        return batch.append_column("resized", pa.array(out, pa.binary()))


class MediaFeatures:
    """Deterministic feature vector per media row: 16-bin byte histogram +
    moments, L2-normalized — the stand-in for model inference (batched,
    state in __init__, float32 list column out)."""

    DIM = 20

    def __init__(self, payload_col: str = "payload"):
        self.payload_col = payload_col
        self.bins = np.linspace(0, 256, 17)

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = []
        for blob in _binary_views(batch.column(self.payload_col)):
            try:
                _, w, h, f, data = decode_payload(blob)
            except _DECODE_ERRORS:
                feats.append([0.0] * self.DIM)
                continue
            data = data.reshape(-1).astype(np.float64)
            if data.size and (data.min() < 0 or data.max() > 255):
                # 16-bit PCM → byte domain; exact inverse of the
                # generator's s = p·257 − 32768 ((p·257)>>8 == p)
                data = np.floor_divide(data + 32768.0, 256.0)
            hist, _ = np.histogram(data, bins=self.bins)
            v = np.concatenate([
                hist / max(len(data), 1),
                [data.mean() / 255.0, data.std() / 255.0,
                 float(w) / 4096.0, float(h) / 4096.0]])
            n = np.linalg.norm(v)
            feats.append((v / n if n else v).astype(np.float32).tolist())
        return batch.append_column(
            "features", pa.array(feats, pa.list_(pa.float32())))


class SampleFrames:
    """Video frame sampling: every ``stride``-th frame (up to max_frames)
    exploded to one row per frame — flat_map semantics done batch-wise.
    Null payloads, undecodable headers and containers whose claimed
    frames overrun the blob emit no rows."""

    def __init__(self, stride: int = 2, max_frames: int = 4,
                 payload_col: str = "payload", id_col: str = "media_id"):
        self.stride = stride
        self.max_frames = max_frames
        self.payload_col = payload_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, frame_no, frames_bin = [], [], []
        mids = batch.column(self.id_col).to_pylist()
        for mid, blob in zip(mids,
                             _binary_views(batch.column(self.payload_col))):
            if blob is None:
                continue
            try:
                kind, w, h, f, off = decode_header(blob)
            except _DECODE_ERRORS:
                continue
            fsize = w * h
            if kind != 2 or off + f * fsize > len(blob):
                continue
            for j, fi in enumerate(range(0, f, self.stride)):
                if j >= self.max_frames:
                    break
                ids.append(mid)
                frame_no.append(fi)
                frames_bin.append(blob[off + fi * fsize: off + (fi + 1) * fsize])
        return pa.table({
            self.id_col: pa.array(ids, pa.int64()),
            "frame_no": pa.array(frame_no, pa.int32()),
            "frame": pa.array(frames_bin, pa.binary()),
        })


def media_feature_pipeline(media_ds, concurrency: int = 2,
                           batch_size: int = 64):
    """decode → features for every media row (actor pools, small batches
    because rows are binary-heavy).

    Each actor reserves half a CPU: two chained pools that each grab a full
    CPU per actor can reserve the whole node and starve the upstream read
    (pool-sizing pitfall in the ray guide) — these stages are I/O-light
    until real codecs go in."""
    return (media_ds
            .map_batches(DecodeMedia, batch_format="pyarrow",
                         batch_size=batch_size, concurrency=concurrency,
                         num_cpus=0.5)
            .map_batches(MediaFeatures, batch_format="pyarrow",
                         batch_size=batch_size, concurrency=concurrency,
                         num_cpus=0.5)
            .select_columns(["media_id", "kind", "width", "height",
                             "n_frames", "ok", "features"]))


class PHashImages:
    """64-bit perceptual block-mean hash per RAWM image: mean-pool the
    grayscale image to an 8×8 grid, threshold each cell at the grid's
    mean → one bit per cell.  Robust to small pixel perturbations and
    nearest-neighbor rescaling (the standard blockhash construction);
    audio/video/undecodable rows get a null hash.  Per-row work is
    legitimate here (MB-sized blobs), matching the other media stages;
    production swaps the RAWM decode for a real codec, the hash math is
    unchanged."""

    def __init__(self, payload_col: str = "payload", grid: int = 8):
        self.payload_col = payload_col
        self.grid = int(grid)
        assert self.grid * self.grid == 64, \
            "PHashImages emits a 64-bit hash: grid must be 8"

    def _hash(self, img: np.ndarray) -> int:
        g = self.grid
        h, w = img.shape
        yi = (np.arange(h) * g // h)
        xi = (np.arange(w) * g // w)
        sums = np.zeros((g, g), dtype=np.float64)
        cnts = np.zeros((g, g), dtype=np.int64)
        np.add.at(sums, (yi[:, None], xi[None, :]), img.astype(np.float64))
        np.add.at(cnts, (yi[:, None], xi[None, :]), 1)
        means = sums / np.maximum(cnts, 1)
        bits = (means > means.mean()).reshape(-1)
        return int(np.packbits(bits).view(">u8")[0])

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for blob in batch.column(self.payload_col).to_pylist():
            try:
                # decode INSIDE the try: a truncated payload raises
                # ValueError and must become a null hash, not a dead task
                kind, w, h, f, img = decode_payload(blob)
                if kind != 0 or w < 1 or h < 1:
                    out.append(None)
                    continue
                if img.ndim == 3:     # RGB(A) → channel-mean grayscale
                    img = img.astype(np.float64).mean(axis=2)
            except (NotImplementedError, _struct.error, _zlib.error,
                    ValueError, TypeError, IndexError):
                out.append(None)
                continue
            out.append(np.int64(np.uint64(self._hash(img))).item())
        return batch.append_column("phash", pa.array(out, pa.int64()))


def media_dup_pairs(media_ds, max_hamming: int = 3,
                    id_col: str = "media_id", concurrency: int = 2,
                    batch_size: int = 64):
    """Near-duplicate image pairs: perceptual block-mean hash per image
    (actor pool) → the banded-Hamming engine shared with SimHash
    (:func:`bqf_ray.pipelines.dedup.fingerprint_dup_pairs`).  Non-image
    rows drop out via null hashes.  Genuinely non-SQL (binary decode),
    so verified by pytest rather than a DuckDB oracle."""
    from bqf_ray.pipelines.dedup import fingerprint_dup_pairs

    hashed = media_ds.map_batches(
        PHashImages, batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, num_cpus=0.5)
    return fingerprint_dup_pairs(hashed.select_columns([id_col, "phash"]),
                                 "phash", id_col=id_col,
                                 max_hamming=max_hamming)


def png_decode_stats(docs, id_col: str = "doc_id", max_id: int = 2000,
                     concurrency: int = 2):
    """Oracle-checkable REAL-PNG decode: per doc id below ``max_id``, a
    PNG is encoded from deterministic pixels
    ``p(i) = (id·2654435761 + i·40503) mod 256`` over a
    ``(16 + id mod 17) × (16 + id mod 13)`` grid — the encoder cycles
    all five scanline filters — then DECODED with the pure-stdlib
    decoder (:func:`bqf_ray.sources.codecs.png_decode`: zlib inflate +
    unfiltering), emitting ``(doc_id, width, height, px_sum, px_min,
    px_max)``.  A DuckDB oracle recomputes the same stats from the
    pixel formula alone, so any codec defect (filter math, stride,
    chunking) breaks value equality."""
    from bqf_ray.sources.codecs import png_decode, png_encode

    class EncodeDecode:
        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = np.asarray(batch.column(id_col), dtype=np.int64)
            ids = ids[ids < max_id]
            out = {"doc_id": [], "width": [], "height": [],
                   "px_sum": [], "px_min": [], "px_max": []}
            for did in ids:
                w = int(16 + did % 17)
                h = int(16 + did % 13)
                i = np.arange(w * h, dtype=np.int64)
                px = ((did * 2654435761 + i * 40503) % 256
                      ).astype(np.uint8)
                img = png_decode(png_encode(px.reshape(h, w)))
                out["doc_id"].append(int(did))
                out["width"].append(w)
                out["height"].append(h)
                out["px_sum"].append(int(img.astype(np.int64).sum()))
                out["px_min"].append(int(img.min()))
                out["px_max"].append(int(img.max()))
            return pa.table({k: pa.array(v, pa.int64())
                             for k, v in out.items()})

    return docs.map_batches(EncodeDecode, batch_format="pyarrow",
                            batch_size=256, concurrency=concurrency,
                            num_cpus=0.5)


def wav_decode_stats(docs, id_col: str = "doc_id", max_id: int = 2000,
                     concurrency: int = 2):
    """Oracle-checkable REAL-WAV decode (:func:`png_decode_stats`'s
    audio sibling): 16-bit PCM samples
    ``s(i) = ((id·48271 + i·12820163) mod 65536) − 32768`` over
    ``n = 256 + id mod 200`` frames, RIFF-encoded then decoded with
    the stdlib parser; emits ``(doc_id, n_samples, s_sum, s_min,
    s_max)`` for the SQL oracle to recompute arithmetically."""
    from bqf_ray.sources.codecs import wav_decode, wav_encode

    class EncodeDecode:
        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = np.asarray(batch.column(id_col), dtype=np.int64)
            ids = ids[ids < max_id]
            out = {"doc_id": [], "n_samples": [], "s_sum": [],
                   "s_min": [], "s_max": []}
            for did in ids:
                n = int(256 + did % 200)
                i = np.arange(n, dtype=np.int64)
                s = (((did * 48271 + i * 12820163) % 65536) - 32768
                     ).astype(np.int16)
                back, rate = wav_decode(wav_encode(s, rate=16_000,
                                                   bits=16))
                out["doc_id"].append(int(did))
                out["n_samples"].append(int(back.shape[0]))
                out["s_sum"].append(int(back.astype(np.int64).sum()))
                out["s_min"].append(int(back.min()))
                out["s_max"].append(int(back.max()))
            return pa.table({k: pa.array(v, pa.int64())
                             for k, v in out.items()})

    return docs.map_batches(EncodeDecode, batch_format="pyarrow",
                            batch_size=256, concurrency=concurrency,
                            num_cpus=0.5)


def jpeg_decode_stats(docs, id_col: str = "doc_id", max_id: int = 1500,
                      concurrency: int = 2):
    """Oracle-checkable REAL-JPEG decode — the lossy-codec sibling of
    :func:`png_decode_stats`, made EXACTLY SQL-replayable by encoding
    block-constant images with even pixel values at quality 50:
    the DC quantizer is then exactly 16 and the DCT DC coefficient of
    a constant block v is exactly 8·(v−128) (divisible by 16 when v
    is even), so quant → dequant → IDCT reconstructs v bit-exact
    while the FULL baseline bitstream machinery (DC prediction
    across blocks, Huffman categories, byte stuffing, restart
    markers — interval cycles 1..4 per id) is exercised.

    Per doc id < ``max_id``: a ``8·(2 + id mod 5) × 8·(2 + id mod 4)``
    grayscale image with block j's value ``v(j) = 2·((id·2654435761 +
    j·40503) mod 128)`` (row-major block index) is JPEG-encoded and
    decoded with :mod:`bqf_ray.sources.jpeg`; emits ``(doc_id, width,
    height, px_sum, px_min, px_max)`` which the DuckDB oracle
    recomputes from the block-value formula alone (px_sum = 64·Σv)."""
    from bqf_ray.sources.jpeg import jpeg_decode, jpeg_encode

    class EncodeDecode:
        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = np.asarray(batch.column(id_col), dtype=np.int64)
            ids = ids[ids < max_id]
            out = {"doc_id": [], "width": [], "height": [],
                   "px_sum": [], "px_min": [], "px_max": []}
            for did in ids:
                wb = int(2 + did % 5)
                hb = int(2 + did % 4)
                j = np.arange(hb * wb, dtype=np.int64)
                v = (2 * ((did * 2654435761 + j * 40503) % 128)
                     ).astype(np.uint8).reshape(hb, wb)
                img = np.repeat(np.repeat(v, 8, axis=0), 8, axis=1)
                # cycle the three bitstream modes per id so baseline,
                # spectral-selection progressive AND successive-
                # approximation progressive all sit under the oracle
                mode = did % 3
                if mode == 0:
                    blob = jpeg_encode(img, quality=50,
                                       restart_interval=int(1 + did % 4))
                elif mode == 1:
                    blob = jpeg_encode(img, quality=50, progressive=True)
                else:
                    blob = jpeg_encode(img, quality=50,
                                       successive=int(1 + did % 3))
                back = jpeg_decode(blob)
                out["doc_id"].append(int(did))
                out["width"].append(int(back.shape[1]))
                out["height"].append(int(back.shape[0]))
                out["px_sum"].append(int(back.astype(np.int64).sum()))
                out["px_min"].append(int(back.min()))
                out["px_max"].append(int(back.max()))
            return pa.table({k: pa.array(v, pa.int64())
                             for k, v in out.items()})

    return docs.map_batches(EncodeDecode, batch_format="pyarrow",
                            batch_size=256, concurrency=concurrency,
                            num_cpus=0.5)
