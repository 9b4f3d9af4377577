"""Multimodal plumbing: decode/resize/features/frame-sample over opaque
binary media columns (deterministic RAWM fake container; real-codec
boundary raises NotImplementedError)."""

import numpy as np
import pyarrow as pa
import pytest

from bqf_ray.pipelines.multimodal import (DecodeMedia, MediaFeatures,
                                          ResizeImages, SampleFrames,
                                          media_feature_pipeline)
from bqf_ray.sources.media import (decode_header, encode_media,
                                   generate_media, media_dataset)


def test_media_source_deterministic():
    a, b = generate_media(100, seed=9), generate_media(100, seed=9)
    assert a.equals(b)
    kinds = set(a["kind"].to_pylist())
    assert kinds == {"image", "audio", "video"}


def test_real_codec_boundary_raises():
    with pytest.raises(NotImplementedError):
        decode_header(b"\x89PNG\r\n\x1a\n....")


def test_decode_stage_robust_to_garbage(ray_session):
    import ray
    t = generate_media(20, seed=1)
    bad = pa.table({
        "media_id": pa.array([100, 101], pa.int64()),
        "kind": pa.array(["image", "image"]),
        "payload": pa.array([b"JUNKDATA", b"\x89PNG1234567890"], pa.binary()),
        "mime": pa.array(["image/png", "image/png"]),
    })
    ds = ray.data.from_arrow(pa.concat_tables([t, bad]))
    out = (ds.map_batches(DecodeMedia, batch_format="pyarrow", concurrency=1)
           .to_pandas())
    assert len(out) == 22
    assert out[out.media_id >= 100]["ok"].eq(False).all()
    good = out[out.media_id < 100]
    assert good["ok"].all()
    assert (good[good.kind == "image"]["n_frames"] == 1).all()
    assert (good[good.kind == "video"]["n_frames"] >= 2).all()


def test_resize_stage(ray_session):
    import ray
    t = generate_media(30, seed=2)
    out = (ray.data.from_arrow(t)
           .map_batches(ResizeImages, fn_constructor_kwargs={"out_w": 8, "out_h": 8},
                        batch_format="pyarrow", batch_size=16, concurrency=1)
           .to_pandas())
    imgs = out[out.kind == "image"]
    assert len(imgs) > 0
    for r in imgs["resized"]:
        assert r is not None and len(r) == 64
    assert out[out.kind != "image"]["resized"].isna().all()
    # deterministic: resizing the same payload twice gives identical bytes
    blob = t["payload"][int(imgs.index[0])].as_py()
    rz = ResizeImages(out_w=8, out_h=8)
    t1 = rz(pa.table({"payload": pa.array([blob], pa.binary())}))
    t2 = rz(pa.table({"payload": pa.array([blob], pa.binary())}))
    assert t1["resized"][0].as_py() == t2["resized"][0].as_py()


def test_feature_pipeline_schema_and_norm(ray_session):
    ds = media_dataset(120, seed=3, parallelism=3)
    out = media_feature_pipeline(ds, concurrency=2, batch_size=32).to_pandas()
    assert len(out) == 120
    assert set(out.columns) == {"media_id", "kind", "width", "height",
                                "n_frames", "ok", "features"}
    dims = {len(f) for f in out["features"]}
    assert dims == {MediaFeatures.DIM}
    norms = np.array([np.linalg.norm(f) for f in out["features"]])
    assert np.allclose(norms[out["ok"]], 1.0, atol=1e-5)


def test_frame_sampling(ray_session):
    import ray
    t = generate_media(40, seed=4)
    out = (ray.data.from_arrow(t)
           .map_batches(SampleFrames, fn_constructor_kwargs={"stride": 2,
                                                             "max_frames": 3},
                        batch_format="pyarrow", batch_size=16, concurrency=1)
           .to_pandas())
    vids = t.to_pandas().set_index("media_id")
    assert set(out["media_id"]) <= set(vids[vids.kind == "video"].index)
    for mid, grp in out.groupby("media_id"):
        _, w, h, f, _ = decode_header(vids.loc[mid, "payload"])
        assert list(grp["frame_no"]) == list(range(0, min(f, 6), 2))[:3]
        assert all(len(fr) == w * h for fr in grp["frame"])


def test_phash_and_media_dup_pairs(ray_session):
    import ray
    from bqf_ray.sources.media import encode_media
    from bqf_ray.pipelines.multimodal import PHashImages, media_dup_pairs
    rng = np.random.RandomState(5)
    rows = []
    # 20 base images; each gets a near-dup copy (few pixels nudged) —
    # pair (i, i+100) expected; distinct random images must not pair
    for i in range(20):
        w, h = 40, 30
        img = rng.randint(0, 256, w * h).astype(np.uint8)
        rows.append({"media_id": i,
                     "payload": encode_media(0, w, h, 1, img.tobytes())})
        near = img.copy()
        idx = rng.choice(w * h, 10, replace=False)
        near[idx] = np.clip(near[idx].astype(np.int64) + 2, 0, 255
                            ).astype(np.uint8)
        rows.append({"media_id": i + 100,
                     "payload": encode_media(0, w, h, 1, near.tobytes())})
    # an audio row and a corrupt blob: must be skipped, not crash
    rows.append({"media_id": 999,
                 "payload": encode_media(1, 64, 1, 1, b"\x00" * 128)})
    rows.append({"media_id": 998, "payload": b"JUNKJUNKJUNK"})
    ds = ray.data.from_items(rows)
    pairs = media_dup_pairs(ds, max_hamming=3).take_all()
    got = {(r["doc_a"], r["doc_b"]) for r in pairs}
    expected = {(i, i + 100) for i in range(20)}
    assert expected <= got
    # random distinct images: allow at most 1 coincidental pair
    assert len(got - expected) <= 1
    # identical image -> identical hash (determinism)
    one = PHashImages()(pa.Table.from_pylist(rows[:2]))
    assert one.column("phash")[0].as_py() is not None


def test_phash_truncated_blob_is_null(ray_session):
    # regression: a truncated image payload must yield a null hash,
    # not kill the task
    from bqf_ray.sources.media import encode_media
    from bqf_ray.pipelines.multimodal import PHashImages
    import pytest
    good = encode_media(0, 10, 10, 1, bytes(range(100)))
    trunc = encode_media(0, 200, 200, 1, b"\x01" * 16)   # claims 40000 bytes
    t = pa.table({"media_id": pa.array([1, 2], pa.int64()),
                  "payload": pa.array([good, trunc], pa.binary())})
    out = PHashImages()(t).column("phash").to_pylist()
    assert out[0] is not None and out[1] is None
    with pytest.raises(AssertionError):
        PHashImages(grid=4)


# --- real codecs (sources/codecs.py) ---------------------------------------

def test_png_roundtrip_all_shapes():
    from bqf_ray.sources.codecs import png_decode, png_encode
    rng = np.random.RandomState(5)
    for shape in [(1, 1), (7, 5), (23, 31), (16, 16, 3), (9, 11, 4),
                  (64, 3)]:
        img = rng.randint(0, 256, shape).astype(np.uint8)
        back = png_decode(png_encode(img))
        assert back.shape == img.shape
        assert (back == img).all()


def test_png_rejects_foreign_and_unsupported():
    import pytest as _pt

    from bqf_ray.sources.codecs import png_decode
    with _pt.raises(ValueError, match="not a PNG"):
        png_decode(b"JFIF....")


def test_wav_roundtrip():
    from bqf_ray.sources.codecs import wav_decode, wav_encode
    rng = np.random.RandomState(6)
    s16 = rng.randint(-32768, 32768, 500).astype(np.int16)
    back, rate = wav_decode(wav_encode(s16, rate=44_100, bits=16))
    assert rate == 44_100 and (back == s16).all()
    st = rng.randint(-32768, 32768, (300, 2)).astype(np.int16)
    back2, _ = wav_decode(wav_encode(st, bits=16))
    assert back2.shape == (300, 2) and (back2 == st).all()
    s8 = rng.randint(0, 256, 200).astype(np.uint8)
    back3, _ = wav_decode(wav_encode(s8, bits=8))
    assert (back3 == s8).all()


def test_decode_payload_dispatch(ray_session):
    """PNG / WAV / RAWM all decode through the one entry point; JPEG
    magic still raises the documented boundary error."""
    import pytest as _pt

    from bqf_ray.sources.codecs import png_encode, wav_encode
    from bqf_ray.sources.media import decode_payload, encode_media
    rng = np.random.RandomState(7)
    img = rng.randint(0, 256, (12, 9)).astype(np.uint8)
    k, w, h, f, data = decode_payload(png_encode(img))
    assert (k, w, h, f) == (0, 9, 12, 1) and (data == img).all()
    s = rng.randint(-32768, 32768, 333).astype(np.int16)
    k, w, h, f, data = decode_payload(wav_encode(s))
    assert (k, w, h, f) == (1, 333, 1, 1) and (data == s).all()
    raw = rng.randint(0, 256, 6 * 4).astype(np.uint8)
    k, w, h, f, data = decode_payload(encode_media(0, 6, 4, 1, raw.tobytes()))
    assert (k, w, h) == (0, 6, 4) and (data == raw.reshape(4, 6)).all()
    # JPEG is a real codec now: malformed JPEG bytes raise ValueError
    with _pt.raises(ValueError):
        decode_payload(b"\xff\xd8\xff\xe0 jpeg-ish")
    # remaining stub boundary: entropy formats without a codec
    with _pt.raises(NotImplementedError):
        decode_payload(b"ID3\x04 mp3-ish")


def test_phash_identical_for_png_and_rawm(ray_session):
    """The same pixels through PNG and RAWM must produce the same
    perceptual hash — the codec layer is transparent to dedup."""
    import ray

    from bqf_ray.pipelines.multimodal import PHashImages
    from bqf_ray.sources.codecs import png_encode
    from bqf_ray.sources.media import encode_media
    rng = np.random.RandomState(8)
    img = rng.randint(0, 256, (40, 30)).astype(np.uint8)
    t = pa.table({"payload": pa.array(
        [png_encode(img), encode_media(0, 30, 40, 1, img.tobytes())],
        pa.binary())})
    out = PHashImages()(t)
    ph = out.column("phash").to_pylist()
    assert ph[0] is not None and ph[0] == ph[1]


def test_media_feature_pipeline_real_formats(ray_session):
    """Real PNG/WAV rows flow through decode→features with ok=True."""
    import ray

    from bqf_ray.pipelines.multimodal import media_feature_pipeline
    from bqf_ray.sources.media import media_dataset
    out = media_feature_pipeline(
        media_dataset(200, seed=3, parallelism=2, real_formats=True),
        concurrency=2).to_pandas()
    assert len(out) == 200
    assert out["ok"].all()
    assert (out["features"].apply(len) == 20).all()


# --- property-based codec checks -------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=40, deadline=None)
@given(h=st.integers(1, 40), w=st.integers(1, 40),
       ch=st.sampled_from([1, 3, 4]), seed=st.integers(0, 2**31 - 1))
def test_png_roundtrip_property(h, w, ch, seed):
    from bqf_ray.sources.codecs import png_decode, png_encode
    rng = np.random.RandomState(seed)
    shape = (h, w) if ch == 1 else (h, w, ch)
    img = rng.randint(0, 256, shape).astype(np.uint8)
    back = png_decode(png_encode(img))
    assert back.shape == img.shape
    assert (back == img).all()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 2000), ch=st.integers(1, 3),
       bits=st.sampled_from([8, 16]), seed=st.integers(0, 2**31 - 1))
def test_wav_roundtrip_property(n, ch, bits, seed):
    from bqf_ray.sources.codecs import wav_decode, wav_encode
    rng = np.random.RandomState(seed)
    if bits == 16:
        s = rng.randint(-32768, 32768, (n, ch)).astype(np.int16)
    else:
        s = rng.randint(0, 256, (n, ch)).astype(np.uint8)
    if ch == 1:
        s = s[:, 0]
    back, rate = wav_decode(wav_encode(s, rate=22_050, bits=bits))
    assert rate == 22_050
    assert back.shape == s.shape and (back == s).all()


def _sample_frames(payloads):
    from bqf_ray.pipelines.multimodal import SampleFrames
    t = pa.table({"media_id": pa.array(np.arange(len(payloads),
                                                 dtype=np.int64)),
                  "payload": pa.array(payloads, pa.binary())})
    return SampleFrames(stride=1, max_frames=4)(t)


def test_sample_frames_skips_null_payload():
    from bqf_ray.sources.media import encode_media
    ok = encode_media(2, 2, 2, 2, bytes(range(8)))
    out = _sample_frames([None, ok])
    assert out.column("media_id").to_pylist() == [1, 1]
    assert out.column("frame").to_pylist() == [bytes(range(4)),
                                               bytes(range(4, 8))]


def test_sample_frames_skips_truncated_header():
    from bqf_ray.sources.media import MAGIC
    out = _sample_frames([MAGIC + b"\x02\x01"])      # 6 of 11 header bytes
    assert out.num_rows == 0


def test_sample_frames_skips_overrunning_frames():
    from bqf_ray.sources.media import encode_media
    # the header claims 65535 frames of 65535x65535 over an 11-byte blob
    out = _sample_frames([encode_media(2, 65535, 65535, 65535, b"")])
    assert out.num_rows == 0
