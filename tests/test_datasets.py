import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from securejscc import datasets
from securejscc.datasets import (DATASET_KINDS, SYNTH_CHUNK_PIXELS, DatasetSpec,
                                 read_image, synthesize_dataset)
from securejscc.rng import stream, streams

# (height, width, channels, count, data seed) of the stacked-synthesis checks
STACK_CASES = [(8, 8, 1, 500, 123), (16, 16, 1, 300, 5), (7, 9, 3, 200, 9)]


def write_image(path, image: np.ndarray) -> None:
    """Write an HxWxC fixture (C=1 as PGM, C=3 as PPM), rounding to 8 bits."""
    img = np.asarray(image)
    magic = b"P5" if img.shape[2] == 1 else b"P6"
    data = np.clip(np.rint(img), 0, 255).astype(np.uint8).tobytes()
    path.write_bytes(magic + f"\n{img.shape[1]} {img.shape[0]}\n255\n".encode() + data)


def test_empty_dataset():
    assert synthesize_dataset(DatasetSpec("blob", 0, 8, 8, 1), 0) == []


def test_spec_rejects_negative_count():
    with pytest.raises(ValueError, match="count must be >= 0, got -1"):
        DatasetSpec("blob", -1, 8, 8, 1)


def test_same_seed_identical():
    spec = DatasetSpec("blob", 5, 8, 8, 3)
    a = synthesize_dataset(spec, 42)
    b = synthesize_dataset(spec, 42)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_different_seed_differs():
    spec = DatasetSpec("blob", 3, 8, 8, 1)
    a = synthesize_dataset(spec, 1)
    b = synthesize_dataset(spec, 2)
    assert any(not np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("kind", DATASET_KINDS)
def test_values_in_pixel_range(kind):
    for img in synthesize_dataset(DatasetSpec(kind, 8, 16, 16, 1), 7):
        assert img.shape == (16, 16, 1)
        assert img.min() >= 0.0
        assert img.max() <= 255.0


def test_blob_dataset_nondegenerate():
    images = synthesize_dataset(DatasetSpec("blob", 16, 16, 16, 1), 5)
    stacked = np.stack(images)
    assert stacked.var() > 0.0
    per_pixel_var = stacked.reshape(16, -1).var(axis=0)
    assert per_pixel_var.mean() > 0.0


def blob_image(h: int, w: int, c: int, rng: np.random.Generator) -> np.ndarray:
    """One blob image drawn and summed blob by blob: the oracle for the
    stacked synthesis."""
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    img = np.zeros((h, w, c))
    for _ in range(int(rng.integers(1, 4))):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        width = rng.uniform(max(h, w) / 8.0, max(h, w) / 2.0)
        amp = rng.uniform(64, 255)
        bump = amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width ** 2))
        for ch in range(c):
            img[:, :, ch] += bump * rng.uniform(0.5, 1.0)
    return np.clip(img, 0.0, 255.0)


@pytest.mark.parametrize("h, w, c, count, seed", STACK_CASES)
def test_stacked_blobs_match_per_image_loop(h, w, c, count, seed):
    images = synthesize_dataset(DatasetSpec("blob", count, h, w, c), seed)
    assert len(images) == count
    # 16x16 crosses a chunk boundary
    assert any(count * h * w > SYNTH_CHUNK_PIXELS for h, w, _, count, _ in STACK_CASES)
    for i, image in enumerate(images):
        assert np.array_equal(image, blob_image(h, w, c, stream(seed, i))), i


def blob_draws(c: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Each stream's blob count, then its parameters, drawn by the generator:
    the oracle for the raw-word blob draws."""
    draws = [rng.random((int(rng.integers(1, 4)), 4 + c)) for rng in rngs]
    return np.array([len(d) for d in draws]), np.concatenate(draws)


@pytest.mark.parametrize("c", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 7, -3, 2**64 - 1])
def test_blob_draws_equal_generator_draws(c, seed):
    keys = range(300)
    counts, u = datasets._blob_draws(c, streams(seed, keys))
    expected_counts, expected_u = blob_draws(c, [stream(seed, i) for i in keys])
    assert set(expected_counts.tolist()) == {1, 2, 3}
    assert np.array_equal(counts, expected_counts)
    assert np.array_equal(u, expected_u)


def test_rejected_blob_count_is_drawn_by_the_generator(monkeypatch):
    # a count draw is rejected only when the first word's low half is 0,
    # which no real key is known to give: craft such words for rows 1 and 3
    crafted = [1, 3]
    real = datasets.raw_words

    def with_rejected_counts(rngs, n):
        words = real(rngs, n)
        words[crafted, 0] = 5 << 32
        words[crafted, 1:] = 0
        return words

    monkeypatch.setattr(datasets, "raw_words", with_rejected_counts)
    counts, u = datasets._blob_draws(3, streams(11, range(5)))
    expected_counts, expected_u = blob_draws(3, [stream(11, i) for i in range(5)])
    assert np.array_equal(counts, expected_counts)
    assert np.array_equal(u, expected_u)
    # mapped from the crafted words, rows 1 and 3 would be one all-zero blob
    assert all(u[np.cumsum(counts)[r] - counts[r]].any() for r in crafted)


@pytest.mark.parametrize("kind", DATASET_KINDS)
@pytest.mark.parametrize("h, w, c", [(8, 8, 1), (5, 11, 3), (1, 1, 2)])
def test_images_of_any_kind_are_drawn_per_stream(kind, h, w, c):
    # image i is the one the stream (seed, i) draws alone
    images = synthesize_dataset(DatasetSpec(kind, 40, h, w, c), 3)
    for i, image in enumerate(images):
        assert np.array_equal(image, blob_image(h, w, c, stream(3, i))), i


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        DatasetSpec("noise", 1, 8, 8, 1)


def test_pgm_round_trip(tmp_path):
    img = np.arange(48, dtype=np.float64).reshape(6, 8, 1)
    path = tmp_path / "img.pgm"
    write_image(path, img)
    back = read_image(path)
    assert back.shape == (6, 8, 1)
    assert np.array_equal(back, img)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = np.round(rng.uniform(0, 255, (5, 7, 3)))
    path = tmp_path / "img.ppm"
    write_image(path, img)
    assert np.array_equal(read_image(path), img)


def test_read_rejects_other_formats(tmp_path):
    path = tmp_path / "img.pbm"
    path.write_bytes(b"P1\n2 2\n0 1 1 0\n")
    with pytest.raises(ValueError):
        read_image(path)


@pytest.mark.parametrize("dims", [(-2, -2, 1), (0, 4, 1), (4, 4, 0)])
def test_spec_rejects_non_positive_dimensions(dims):
    with pytest.raises(ValueError, match="must be positive"):
        DatasetSpec("blob", 4, *dims)


@pytest.mark.parametrize("header", [b"P5\n-4 4\n255\n", b"P5\n0 4\n255\n",
                                    b"P5\n4 0\n255\n"])
def test_read_rejects_non_positive_dimensions(tmp_path, header):
    path = tmp_path / "bad.pgm"
    path.write_bytes(header + bytes(16))
    with pytest.raises(ValueError, match="bad.pgm"):
        read_image(path)


def test_read_rejects_sixteen_bit_images(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ValueError, match="only maxval 255 supported, got 65535"):
        read_image(path)


def test_read_rejects_short_pixel_data(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(15))
    with pytest.raises(ValueError, match="needs 16 pixel bytes, the file has 15"):
        read_image(path)


@st.composite
def image_bytes(draw):
    """Arbitrary bytes, or a P5/P6 header of drawn dimensions over arbitrary
    pixel bytes; the expected shape when the header is well formed."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=40)), None
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    w, h = draw(st.integers(-2, 6)), draw(st.integers(-2, 6))
    comment = draw(st.sampled_from([b"", b"# note\n"]))
    body = draw(st.binary(max_size=120))
    shape = (h, w, 1 if magic == b"P5" else 3)
    return magic + b"\n" + comment + f"{w} {h}\n255\n".encode() + body, shape


@settings(max_examples=300, deadline=None)
@given(case=image_bytes())
def test_read_image_fuzz(tmp_path_factory, case):
    data, shape = case
    path = tmp_path_factory.mktemp("img") / "x.pgm"
    path.write_bytes(data)
    try:
        img = read_image(path)
    except ValueError:
        return
    assert img.dtype == np.float64 and img.ndim == 3 and img.shape[2] in (1, 3)
    assert min(img.shape) >= 1
    if shape is not None:
        assert img.shape == shape
