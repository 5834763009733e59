import os

import numpy as np
import pytest

from rrsitr import data
from rrsitr.data import (Dataset, NoiseSpec, batch_iter, dataset_manifest, generate_synthetic,
                         inject_noise, load_dataset_arg, read_dataset,
                         write_dataset, write_manifest)
from rrsitr.errors import ConfigError, DataError, FormatError


def test_generate_labels_all_one():
    ds = generate_synthetic(4, 2, 4, 2, 2, intra_class_spread=0.1, seed=7)
    assert ds.n_pairs == 4 and ds.dim == 4 and ds.d1 == 2 and ds.d2 == 2
    assert np.all(ds.y == 1)
    assert ds.class_id is not None


def test_generate_deterministic():
    a = generate_synthetic(4, 2, 4, 2, 2, intra_class_spread=0.1, seed=7)
    b = generate_synthetic(4, 2, 4, 2, 2, intra_class_spread=0.1, seed=7)
    for name in ("image_global", "image_local", "text_global", "text_local"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.class_id, b.class_id)
    c = generate_synthetic(4, 2, 4, 2, 2, intra_class_spread=0.1, seed=8)
    assert not np.array_equal(a.image_global, c.image_global)


def test_generate_matched_beats_cross_class():
    ds = generate_synthetic(100, 10, 16, 3, 3, intra_class_spread=0.3, seed=1)
    S = ds.image_global @ ds.text_global.T  # rows are unit norm
    matched = np.diag(S).mean()
    cross = S[ds.class_id[:, None] != ds.class_id[None, :]].mean()
    assert matched > cross + 0.2


def test_generate_rows_unit_norm():
    ds = generate_synthetic(30, 3, 8, 2, 4, intra_class_spread=0.5, seed=2)
    for block in (ds.image_global, ds.text_global):
        assert np.allclose(np.linalg.norm(block, axis=-1), 1.0, atol=1e-6)
    for block in (ds.image_local, ds.text_local):
        assert np.allclose(np.linalg.norm(block, axis=-1), 1.0, atol=1e-6)


@pytest.mark.parametrize("kwargs", [
    dict(n_pairs=0, n_classes=2, dim=4, d1=1, d2=1),
    dict(n_pairs=4, n_classes=1, dim=4, d1=1, d2=1),
    dict(n_pairs=4, n_classes=2, dim=1, d1=1, d2=1),
    dict(n_pairs=4, n_classes=2, dim=4, d1=0, d2=1),
])
def test_generate_invalid_counts(kwargs):
    with pytest.raises(ConfigError):
        generate_synthetic(intra_class_spread=0.1, seed=0, **kwargs)


def test_generate_invalid_spread():
    with pytest.raises(ConfigError):
        generate_synthetic(4, 2, 4, 1, 1, intra_class_spread=0.0, seed=0)


@pytest.mark.parametrize("spread", [float("nan"), float("inf"), float("-inf")])
def test_generate_non_finite_spread(spread):
    with pytest.raises(ConfigError, match="finite"):
        generate_synthetic(4, 2, 4, 1, 1, intra_class_spread=spread, seed=0)


def test_inject_zero_rho_is_identity():
    ds = generate_synthetic(10, 2, 4, 2, 2, intra_class_spread=0.1, seed=0)
    out = inject_noise(ds, NoiseSpec(rho=0.0, seed=3))
    assert np.array_equal(out.text_global, ds.text_global)
    assert np.array_equal(out.text_local, ds.text_local)
    assert np.all(out.y == 1)


def test_inject_exact_count():
    ds = generate_synthetic(100, 5, 8, 2, 2, intra_class_spread=0.2, seed=0)
    out = inject_noise(ds, NoiseSpec(rho=0.4, seed=1))
    assert int((out.y == 0).sum()) == 40
    assert np.all(ds.y == 1)  # input untouched


def test_inject_full_swap_of_two():
    ds = generate_synthetic(2, 2, 4, 1, 1, intra_class_spread=0.1, seed=5)
    out = inject_noise(ds, NoiseSpec(rho=1.0, seed=9))
    assert np.all(out.y == 0)
    assert np.array_equal(out.text_global[0], ds.text_global[1])
    assert np.array_equal(out.text_global[1], ds.text_global[0])
    assert np.array_equal(out.text_local[0], ds.text_local[1])


def test_inject_refuses_a_single_shuffled_pair():
    # round(0.1 * 10) = 1: one pair has no derangement and would keep its text under y = 0
    ds = generate_synthetic(10, 2, 4, 2, 2, intra_class_spread=0.1, seed=0)
    with pytest.raises(ConfigError, match="derangement"):
        inject_noise(ds, NoiseSpec(rho=0.1, seed=3))
    assert int((inject_noise(ds, NoiseSpec(rho=0.2, seed=3)).y == 0).sum()) == 2


def test_inject_untouched_rows_identical_and_no_fixed_points():
    ds = generate_synthetic(50, 5, 8, 2, 2, intra_class_spread=0.2, seed=3)
    out = inject_noise(ds, NoiseSpec(rho=0.3, seed=4))
    moved = out.y == 0
    assert moved.sum() == 15
    # untouched rows byte-identical
    assert np.array_equal(out.text_global[~moved], ds.text_global[~moved])
    assert np.array_equal(out.text_local[~moved], ds.text_local[~moved])
    assert np.array_equal(out.image_global, ds.image_global)
    assert np.array_equal(out.image_local, ds.image_local)
    # no selected pair keeps its own text
    assert not np.any(np.all(out.text_global[moved] == ds.text_global[moved], axis=1))


def test_inject_locals_travel_with_global():
    ds = generate_synthetic(30, 3, 6, 2, 3, intra_class_spread=0.2, seed=8)
    out = inject_noise(ds, NoiseSpec(rho=0.5, seed=2))
    # every noisy row's (global, local) pair must come from the same source row
    for i in np.flatnonzero(out.y == 0):
        src = np.flatnonzero(np.all(ds.text_global == out.text_global[i], axis=1))
        assert len(src) == 1
        assert np.array_equal(out.text_local[i], ds.text_local[src[0]])


def test_inject_shares_read_only_image_blocks():
    # the noised set's image blocks and class ids are the source's memory,
    # read-only through the noised set; the source stays writable and unchanged
    ds = generate_synthetic(30, 3, 6, 2, 3, intra_class_spread=0.2, seed=8)
    before = {k: getattr(ds, k).copy() for k in ("image_global", "image_local", "text_global",
                                                 "text_local", "y", "class_id")}
    out = inject_noise(ds, NoiseSpec(rho=0.5, seed=2))
    for name in ("image_global", "image_local", "class_id"):
        shared, source = getattr(out, name), getattr(ds, name)
        assert np.shares_memory(shared, source) and np.array_equal(shared, source), name
        assert not shared.flags.writeable and source.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0
    for name in ("text_global", "text_local", "y"):
        assert not np.shares_memory(getattr(out, name), getattr(ds, name)), name
    for name, value in before.items():
        assert np.array_equal(getattr(ds, name), value), name
    ds.image_global[0] = ds.image_global[0]      # still writable


def test_inject_allocates_only_the_text_blocks():
    # tracemalloc peak of inject_noise: the gathered text blocks, plus y, the
    # source index and the draws, far below 256 KiB here; copies of the image
    # blocks (2.3 MB) would exceed it
    import tracemalloc
    ds = generate_synthetic(2000, 5, 32, 8, 2, intra_class_spread=0.2, seed=1)
    inject_noise(ds, NoiseSpec(rho=0.4, seed=2))
    text_bytes = ds.text_global.nbytes + ds.text_local.nbytes
    tracemalloc.start()
    try:
        inject_noise(ds, NoiseSpec(rho=0.4, seed=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= text_bytes + (256 << 10), (peak, text_bytes)


def test_inject_rejects_double_injection():
    ds = generate_synthetic(10, 2, 4, 1, 1, intra_class_spread=0.1, seed=0)
    once = inject_noise(ds, NoiseSpec(rho=0.5, seed=1))
    with pytest.raises(DataError):
        inject_noise(once, NoiseSpec(rho=0.5, seed=2))


def test_inject_rho_out_of_range():
    with pytest.raises(ConfigError):
        NoiseSpec(rho=1.5, seed=0)
    with pytest.raises(ConfigError):
        NoiseSpec(rho=-0.1, seed=0)


def test_inject_deterministic():
    ds = generate_synthetic(40, 4, 8, 2, 2, intra_class_spread=0.2, seed=0)
    a = inject_noise(ds, NoiseSpec(rho=0.4, seed=11))
    b = inject_noise(ds, NoiseSpec(rho=0.4, seed=11))
    assert np.array_equal(a.text_global, b.text_global)
    assert np.array_equal(a.y, b.y)


def test_roundtrip(tmp_path):
    ds = generate_synthetic(17, 3, 6, 2, 3, intra_class_spread=0.4, seed=6)
    noised = inject_noise(ds, NoiseSpec(rho=0.3, seed=1))
    path = str(tmp_path / "ds.rrse")
    write_dataset(noised, path)
    back = read_dataset(path)
    for name in ("image_global", "image_local", "text_global", "text_local"):
        assert np.array_equal(getattr(back, name), getattr(noised, name)), name
    assert np.array_equal(back.y, noised.y)
    assert np.array_equal(back.class_id, noised.class_id)


def test_roundtrip_without_class_id(tmp_path):
    ds = generate_synthetic(5, 2, 4, 1, 1, intra_class_spread=0.1, seed=0)
    bare = Dataset(ds.image_global, ds.image_local, ds.text_global, ds.text_local, ds.y)
    path = str(tmp_path / "bare.rrse")
    write_dataset(bare, path)
    back = read_dataset(path)
    assert back.class_id is None
    assert np.array_equal(back.image_global, bare.image_global)


def test_truncated_file_names_section(tmp_path):
    ds = generate_synthetic(8, 2, 4, 2, 2, intra_class_spread=0.1, seed=0)
    path = str(tmp_path / "t.rrse")
    write_dataset(ds, path)
    blob = open(path, "rb").read()
    cut = 24 + 8 * 4 * 4 + 10  # inside image_local
    with open(path, "wb") as f:
        f.write(blob[:cut])
    with pytest.raises(FormatError, match="image_local"):
        read_dataset(path)


@pytest.mark.parametrize("junk", [1, 13])
def test_trailing_bytes_rejected(tmp_path, junk):
    ds = generate_synthetic(8, 2, 4, 2, 2, intra_class_spread=0.1, seed=0)
    path = str(tmp_path / "t.rrse")
    write_dataset(ds, path)
    size = len(open(path, "rb").read())
    with open(path, "ab") as f:
        f.write(b"\x07" * junk)
    with pytest.raises(FormatError, match=f"trailing bytes .* offset {size}"):
        read_dataset(path)


def test_data_layer_returns_float32(tmp_path):
    ds = generate_synthetic(12, 3, 8, 2, 3, intra_class_spread=0.3, seed=1)
    path = str(tmp_path / "f.rrse")
    write_dataset(ds, path)
    for out in (ds, ds.subset(np.arange(5)), inject_noise(ds, NoiseSpec(0.5, 2)),
                read_dataset(path)):
        for name in ("image_global", "image_local", "text_global", "text_local"):
            assert getattr(out, name).dtype == np.float32, name


def test_float64_dataset_writes_same_bytes(tmp_path):
    ds = _multi_chunk_world()
    wide = Dataset(*(getattr(ds, k).astype(np.float64) for k in
                     ("image_global", "image_local", "text_global", "text_local")),
                   y=ds.y, class_id=ds.class_id)
    write_dataset(ds, str(tmp_path / "a.rrse"))
    write_dataset(wide, str(tmp_path / "b.rrse"))
    assert open(tmp_path / "a.rrse", "rb").read() == open(tmp_path / "b.rrse", "rb").read()


@pytest.mark.parametrize("dtype", [np.float16, np.int32])
@pytest.mark.parametrize("field", ["image_global", "text_local"])
def test_dataset_rejects_other_dtypes(dtype, field):
    ds = generate_synthetic(6, 2, 4, 2, 2, intra_class_spread=0.1, seed=0)
    blocks = {f: getattr(ds, f) for f in
              ("image_global", "image_local", "text_global", "text_local")}
    blocks[field] = blocks[field].astype(dtype)
    with pytest.raises(ConfigError, match=f"{field} must be float32 or float64"):
        Dataset(y=ds.y, **blocks)


@pytest.mark.parametrize("shape", [(6 * 4,), (6, 1, 4)], ids=["1-d", "3-d"])
def test_dataset_rejects_image_global_that_is_not_2d(shape):
    ds = generate_synthetic(6, 2, 4, 2, 2, intra_class_spread=0.1, seed=0)
    bad = ds.image_global.reshape(shape)
    with pytest.raises(ConfigError, match=r"image_global must be \(n, dim\)") as e:
        Dataset(bad, ds.image_local, ds.text_global, ds.text_local, ds.y)
    assert e.value.exit_code == 2


def test_dataset_rejects_labels_outside_0_1():
    ds = generate_synthetic(6, 2, 4, 1, 1, intra_class_spread=0.1, seed=0)
    y = ds.y.copy()
    y[3] = 7
    with pytest.raises(DataError, match="7"):
        Dataset(ds.image_global, ds.image_local, ds.text_global, ds.text_local, y)


@pytest.mark.parametrize("field", ["image_global", "image_local", "text_global", "text_local"])
def test_dataset_rejects_non_unit_rows(field):
    ds = generate_synthetic(6, 2, 4, 2, 2, intra_class_spread=0.1, seed=0)
    blocks = {f: getattr(ds, f).copy() for f in
              ("image_global", "image_local", "text_global", "text_local")}
    blocks[field][3] *= 1.0 + 1e-7   # inside the tolerance: accepted
    Dataset(y=ds.y, **blocks)
    blocks[field][3] *= 1.0 + 1e-5
    with pytest.raises(DataError, match=f"{field} row \\(3"):
        Dataset(y=ds.y, **blocks)


@pytest.mark.parametrize("field", ["image_global", "text_local"])
def test_dataset_rejects_non_finite_rows(field):
    ds = generate_synthetic(6, 2, 4, 2, 2, intra_class_spread=0.1, seed=0)
    blocks = {f: getattr(ds, f).copy() for f in data._BLOCKS}
    blocks[field][2] = np.nan
    with pytest.raises(ConfigError, match=f"{field} contains non-finite values"):
        Dataset(y=ds.y, **blocks)


@pytest.mark.parametrize("class_id,error,match", [
    (np.arange(5, dtype=np.uint32), ConfigError, r"class_id must be \(n,\)"),
    (np.zeros((6, 1), dtype=np.uint32), ConfigError, r"class_id must be \(n,\)"),
    (np.full(6, 1.0), ConfigError, "class_id must hold integers, got float64"),
    (np.array([0, 1, -1, 1, 0, -3]), DataError, r"found \[-3, -1\]"),
    (np.array([0, 2**32, 1, 1, 0, 1], dtype=np.uint64), DataError, r"found \[4294967296\]"),
], ids=["one-short", "2-d", "float", "negative", "too-large"])
def test_dataset_rejects_class_id_that_cannot_round_trip(class_id, error, match):
    ds = generate_synthetic(6, 2, 4, 1, 1, intra_class_spread=0.1, seed=0)
    with pytest.raises(error, match=match):
        Dataset(ds.image_global, ds.image_local, ds.text_global, ds.text_local, ds.y, class_id)


def test_dataset_class_id_of_any_integer_dtype_round_trips(tmp_path):
    ds = generate_synthetic(6, 2, 4, 1, 1, intra_class_spread=0.1, seed=0)
    class_id = np.array([0, 2**32 - 1, 5, 0, 1, 7], dtype=np.int64)
    path = str(tmp_path / "c.rrse")
    write_dataset(Dataset(ds.image_global, ds.image_local, ds.text_global, ds.text_local,
                          ds.y, class_id), path)
    assert read_dataset(path).class_id.tolist() == class_id.tolist()


def test_unit_rows_checked_only_at_the_boundary(tmp_path, monkeypatch):
    calls = []
    check = data._check_unit_rows

    def spy(name, rows):
        calls.append(name)
        check(name, rows)

    monkeypatch.setattr(data, "_check_unit_rows", spy)
    world = generate_synthetic(30, 3, 8, 2, 3, intra_class_spread=0.2, seed=1)
    train = world.subset(np.arange(20))
    held = world.subset(np.array([25, 21, 29]))
    noisy = inject_noise(train, NoiseSpec(rho=0.4, seed=2))
    assert calls == []

    path = str(tmp_path / "n.rrse")
    write_dataset(noisy, path)
    read_dataset(path)
    assert calls == list(data._BLOCKS)

    calls.clear()
    Dataset(held.image_global, held.image_local, held.text_global, held.text_local, held.y)
    assert calls == list(data._BLOCKS)


def test_internal_construction_runs_every_other_check():
    ds = generate_synthetic(6, 2, 4, 2, 2, intra_class_spread=0.1, seed=0)
    blocks = {f: getattr(ds, f).copy() for f in data._BLOCKS}
    blocks["image_global"][3] *= 2.0  # the unit-row pass is the one check skipped
    assert Dataset._from_unit_rows(y=ds.y, **blocks).class_id is None
    y = ds.y.copy()
    y[1] = 2
    with pytest.raises(DataError, match="y must be 0 or 1"):
        Dataset._from_unit_rows(y=y, **blocks)
    with pytest.raises(ConfigError, match="class_id must be"):
        Dataset._from_unit_rows(y=ds.y, class_id=ds.class_id[:5], **blocks)
    half = ds.text_local.astype(np.float16)
    with pytest.raises(ConfigError, match="text_local must be float32 or float64"):
        Dataset._from_unit_rows(y=ds.y, **{**blocks, "text_local": half})
    with pytest.raises(ConfigError, match="text_global shape mismatch"):
        Dataset._from_unit_rows(y=ds.y, **{**blocks, "text_global": ds.text_global[:5]})


def test_bad_magic(tmp_path):
    path = str(tmp_path / "bad.rrse")
    with open(path, "wb") as f:
        f.write(b"NOPE" + b"\x00" * 40)
    with pytest.raises(FormatError, match="magic"):
        read_dataset(path)


def test_zero_dim_header_rejected_before_payload(tmp_path):
    import struct
    path = str(tmp_path / "z.rrse")
    with open(path, "wb") as f:
        f.write(b"RRSE")
        f.write(struct.pack("<5I", 1, 4, 0, 1, 1))  # dim=0
        f.write(b"\x00" * 100)
    with pytest.raises(FormatError, match="dim=0"):
        read_dataset(path)


def test_manifest_loading(tmp_path):
    ds = generate_synthetic(6, 2, 4, 1, 1, intra_class_spread=0.1, seed=0)
    data_path = str(tmp_path / "d.rrse")
    man_path = str(tmp_path / "d.json")
    write_dataset(ds, data_path)
    write_manifest(man_path, data_path, rho=0.0, seed=0)
    back = load_dataset_arg(man_path)
    assert np.array_equal(back.image_global, ds.image_global)


def test_manifest_naming_its_file_from_the_cwd_still_loads(tmp_path, monkeypatch):
    # manifests written before 'file' was relative to the manifest named it
    # from the directory they were written in
    ds = generate_synthetic(6, 2, 4, 1, 1, intra_class_spread=0.1, seed=0)
    os.mkdir(tmp_path / "sub")
    write_dataset(ds, str(tmp_path / "sub" / "d.rrse"))
    (tmp_path / "sub" / "d.rrse.json").write_text(
        '{"file": "sub/d.rrse", "noise": {"rho": 0.0, "seed": 5}}')
    monkeypatch.chdir(tmp_path)
    back = load_dataset_arg("sub/d.rrse.json")
    assert np.array_equal(back.image_global, ds.image_global)
    assert dataset_manifest("sub/d.rrse")[1]["noise"] == {"rho": 0.0, "seed": 5}


def test_batch_iter_partitions_indices():
    ds = generate_synthetic(10, 2, 4, 1, 1, intra_class_spread=0.1, seed=0)
    batches = list(batch_iter(ds, 5, epoch_seed=3))
    assert len(batches) == 2
    seen = np.concatenate([b.indices for b in batches])
    assert sorted(seen.tolist()) == list(range(10))


def test_batch_iter_drops_short_tail():
    ds = generate_synthetic(11, 2, 4, 1, 1, intra_class_spread=0.1, seed=0)
    batches = list(batch_iter(ds, 5, epoch_seed=3))
    assert [b.size for b in batches] == [5, 5]
    ds12 = generate_synthetic(12, 2, 4, 1, 1, intra_class_spread=0.1, seed=0)
    assert [b.size for b in batch_iter(ds12, 5, epoch_seed=3)] == [5, 5, 2]


def test_batch_iter_deterministic_and_epoch_dependent():
    ds = generate_synthetic(20, 2, 4, 1, 1, intra_class_spread=0.1, seed=0)
    a = [b.indices for b in batch_iter(ds, 5, epoch_seed=1)]
    b = [b.indices for b in batch_iter(ds, 5, epoch_seed=1)]
    c = [b.indices for b in batch_iter(ds, 5, epoch_seed=2)]
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_batch_iter_rejects_small_batch():
    ds = generate_synthetic(10, 2, 4, 1, 1, intra_class_spread=0.1, seed=0)
    with pytest.raises(ConfigError):
        list(batch_iter(ds, 1, epoch_seed=0))


# ---------------------------------------------------------------------------
# byte identity and bounded memory of the row-chunked data layer

# sha256 of write_dataset(inject_noise(generate_synthetic(...))), taken from the
# whole-block implementation the chunked one replaced
PINNED_FILES = [
    pytest.param(dict(n_pairs=300, n_classes=20, dim=32, d1=8, d2=8,
                      intra_class_spread=0.3, seed=5), 0.4, 6,
                 "098a42e4136f4c9d6da0e883a81d48b7b7d176d161b7a873b3dc517eb0705e9f",
                 id="desk"),
    pytest.param(dict(n_pairs=40, n_classes=6, dim=256, d1=36, d2=16,
                      intra_class_spread=0.1, seed=7), 0.4, 8,
                 "cb6e6b0a1115e3490498c0c99f8035108e8d68e95f7f351b6320e760d039b769",
                 id="paper"),
    # one pair cannot be shuffled, so it stays clean: the earlier pin at rho 1.0
    # ("3edc3f44...") with its y byte set from 0 to 1
    pytest.param(dict(n_pairs=1, n_classes=2, dim=8, d1=3, d2=2,
                      intra_class_spread=0.5, seed=9), 0.0, 10,
                 "ccb9118b04e40af33353fd232947cc98006761d394d2cd83db430083a5d8e538",
                 id="n1"),
]
SMALL_CHUNK = 5000  # bytes: 1-2 local rows or 2-19 global rows at the shapes below


@pytest.mark.parametrize("chunk_bytes", [None, SMALL_CHUNK], ids=["default", "small"])
@pytest.mark.parametrize("gen,rho,noise_seed,sha", PINNED_FILES)
def test_written_bytes_pinned(tmp_path, monkeypatch, gen, rho, noise_seed, sha, chunk_bytes):
    import hashlib
    if chunk_bytes is not None:
        monkeypatch.setattr(data, "_CHUNK_BYTES", chunk_bytes)
    path = str(tmp_path / "p.rrse")
    write_dataset(inject_noise(generate_synthetic(**gen), NoiseSpec(rho, noise_seed)), path)
    with open(path, "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == sha


def _multi_chunk_world():
    ds = generate_synthetic(57, 4, 16, 3, 5, intra_class_spread=0.3, seed=2)
    return inject_noise(ds, NoiseSpec(rho=0.4, seed=1))


def test_roundtrip_and_truncation_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_CHUNK_BYTES", 3 * 5 * 16 * 8)  # 3 text_local rows
    noised = _multi_chunk_world()
    path = str(tmp_path / "c.rrse")
    write_dataset(noised, path)
    back = read_dataset(path)
    for name in ("image_global", "image_local", "text_global", "text_local", "y", "class_id"):
        assert np.array_equal(getattr(back, name), getattr(noised, name)), name
    blob = open(path, "rb").read()
    start = 24 + 4 * 57 * 16 * (1 + 3 + 1)  # text_local, 19 chunks
    with open(path, "wb") as f:
        f.write(blob[:start + 1000])
    with pytest.raises(FormatError, match=f"expected {4 * 57 * 5 * 16} bytes for section "
                                          f"'text_local' at byte offset {start}, got 1000$"):
        read_dataset(path)


def _read_through_pipe(blob, read=read_dataset):
    # read (read_dataset by default) on the read end of a pipe that a thread
    # fills with blob
    import os
    import threading
    r, w = os.pipe()

    def feed():
        with os.fdopen(w, "wb") as f:
            try:
                f.write(blob)
            except BrokenPipeError:  # the reader stopped at a bad section
                pass

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return read(f"/dev/fd/{r}")
    finally:
        os.close(r)
        writer.join()


def test_pipe_roundtrip_and_truncation_across_chunks(tmp_path, monkeypatch):
    # a pipe's sections grow chunk by chunk to their exact size
    monkeypatch.setattr(data, "_CHUNK_BYTES", 3 * 5 * 16 * 8)  # 3 text_local rows
    noised = _multi_chunk_world()
    path = str(tmp_path / "c.rrse")
    write_dataset(noised, path)
    blob = open(path, "rb").read()
    back = _read_through_pipe(blob)
    for name in ("image_global", "image_local", "text_global", "text_local", "y", "class_id"):
        got, want = getattr(back, name), getattr(noised, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    start = 24 + 4 * 57 * 16 * (1 + 3 + 1)  # text_local, 19 chunks
    with pytest.raises(FormatError, match=f"expected {4 * 57 * 5 * 16} bytes for section "
                                          f"'text_local' at byte offset {start}, got 1000$"):
        _read_through_pipe(blob[:start + 1000])


def _small_rrse(path):
    # n=3, dim=4, d1=2, d2=1 with class ids: the section sizes in file order
    write_dataset(generate_synthetic(3, 2, 4, 2, 1, intra_class_spread=0.2, seed=1), path)
    return read_dataset, [4, 20, 4 * 3 * 4, 4 * 3 * 2 * 4, 4 * 3 * 4, 4 * 3 * 1 * 4, 3, 1, 4 * 3]


def _small_rrsp(path):
    # 3x4 heads: magic, header, W_img, b_img, W_txt, b_txt
    from rrsitr.trainer import init_heads, load_heads, save_heads
    save_heads(init_heads(4, dim_out=3, seed=2), path)
    return load_heads, [4, 12, 8 * 12, 8 * 3, 8 * 12, 8 * 3]


@pytest.mark.parametrize("source", ["file", "pipe"])
@pytest.mark.parametrize("make", [_small_rrse, _small_rrsp], ids=["rrse", "rrsp"])
def test_truncation_at_every_section_boundary(tmp_path, monkeypatch, make, source):
    # a cut at each section boundary and one byte either side fails as a
    # FormatError, from a regular file and from a pipe, and never otherwise;
    # with 16-byte chunks each embedding or weight section takes several reads
    monkeypatch.setattr(data, "_CHUNK_BYTES", 16)
    path = str(tmp_path / "whole")
    read, sizes = make(path)
    blob = open(path, "rb").read()
    assert sum(sizes) == len(blob)
    ends = np.cumsum([0] + sizes)
    cuts = sorted({c for end in ends for c in (end - 1, end, end + 1) if 0 <= c < len(blob)})
    for cut in cuts:
        with pytest.raises(FormatError, match="truncated file"):
            if source == "pipe":
                _read_through_pipe(blob[:cut], read)
            else:
                with open(path, "wb") as f:
                    f.write(blob[:cut])
                read(path)


@pytest.mark.parametrize("idx", [
    np.array([5, 0, 5, -1]),
    np.arange(12) % 3 == 1,
    slice(2, 11, 3),
    np.arange(3, 9),
    np.array([1, 4, 5, 9]),
    np.arange(8, 2, -1),
    slice(2, 9),
    np.array([5]),
    np.array([], dtype=np.intp),
], ids=["int-array", "bool-mask", "slice", "contiguous", "non-contiguous", "descending",
        "contiguous-slice", "single-row", "empty"])
def test_subset_selects_rows(idx):
    # byte for byte what np.take gives, in memory the subset owns
    ds = generate_synthetic(12, 3, 4, 2, 3, intra_class_spread=0.2, seed=4)
    rows = np.arange(ds.n_pairs)[idx]
    sub = ds.subset(idx)
    for name in ("image_global", "image_local", "text_global", "text_local", "y", "class_id"):
        got, parent = getattr(sub, name), getattr(ds, name)
        want = np.take(parent, rows, axis=0)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        assert got.base is None and not np.shares_memory(got, parent), name


@pytest.mark.parametrize("n", [1, 7, 8, 17, 40, 256])
def test_row_chunks_are_near_equal_and_no_smaller_than_min_rows(monkeypatch, n):
    # at one row per chunk of budget, min_rows merges chunks so that none is
    # smaller than it (or than the block); the bounds still tile the rows
    monkeypatch.setattr(data, "_CHUNK_BYTES", 8)
    for min_rows in (1, 8):
        chunks = list(data._row_chunks((n, 1), min_rows))
        assert [r0 for r0, _ in chunks] == [0] + [r1 for _, r1 in chunks[:-1]]
        assert chunks[-1][1] == n
        sizes = [r1 - r0 for r0, r1 in chunks]
        assert min(sizes) >= min(n, min_rows) and max(sizes) - min(sizes) <= 1
        assert len(chunks) == (n if min_rows == 1 else max(1, n // min_rows))


@pytest.mark.parametrize("chunk", ["default", "single-pair"])
@pytest.mark.parametrize("dim", [32, 200, 255, 256])
@pytest.mark.parametrize("d2", [1, 2, 3, 4, 16])
def test_text_local_gemm_matches_stacked_product(monkeypatch, d2, dim, chunk):
    # the text side's gap is one stacked product over the class tables, made
    # before any chunk, and every block is then a gather and an add per row:
    # at the default budget and at one pair per chunk, all four blocks have
    # the bytes of one whole-block chunk
    shape = dict(n_pairs=24, n_classes=4, dim=dim, d1=2, d2=d2, intra_class_spread=0.1, seed=3)
    budget = {"default": data._CHUNK_BYTES, "single-pair": 1}[chunk]
    monkeypatch.setattr(data, "_CHUNK_BYTES", 8 * 24 * max(2, d2) * dim)
    whole = generate_synthetic(**shape)
    monkeypatch.setattr(data, "_CHUNK_BYTES", budget)
    got = generate_synthetic(**shape)
    for name in ("image_global", "image_local", "text_global", "text_local"):
        assert getattr(got, name).tobytes() == getattr(whole, name).tobytes(), name


def test_data_layer_memory_bounded(tmp_path, monkeypatch):
    # tracemalloc peak per step as a multiple of the dataset's bytes; whole-block
    # temporaries read 2.1x (generate), 0.45x (write) and 1.2x (read) here, and a
    # float64 copy of a whole block adds 0.11x (a global) to 0.89x (a local)
    import tracemalloc
    from rrsitr.evaluation import evaluate
    from rrsitr.trainer import Hyper, init_heads
    monkeypatch.setattr(data, "_CHUNK_BYTES", 4 * 8 * 32 * 8)  # 4 local rows
    shape = dict(n_pairs=400, n_classes=20, dim=32, d1=8, d2=8, intra_class_spread=0.3)
    path = str(tmp_path / "m.rrse")
    write_dataset(generate_synthetic(seed=0, **shape), path)  # warm lazy imports
    read_dataset(path)

    def peak_ratio(call):
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out, peak

    def nbytes(ds):
        return sum(getattr(ds, k).nbytes for k in ("image_global", "image_local",
                                                   "text_global", "text_local", "y", "class_id"))

    ds, peak = peak_ratio(lambda: generate_synthetic(seed=1, **shape))
    assert peak <= 1.5 * nbytes(ds)
    _, peak = peak_ratio(lambda: write_dataset(ds, path))
    assert peak <= 0.1 * nbytes(ds)
    del ds
    back, peak = peak_ratio(lambda: read_dataset(path))
    assert peak <= 1.05 * nbytes(back)

    # the unit-norm check upcasts one row chunk at a time
    _, peak = peak_ratio(lambda: Dataset(back.image_global, back.image_local,
                                         back.text_global, back.text_local, back.y))
    assert peak <= 0.05 * nbytes(back)

    # batch_iter upcasts each gathered batch, not the dataset (two batches of 10
    # are alive at a time, 0.12x)
    def one_epoch():
        for _ in batch_iter(back, 10, epoch_seed=0):
            pass
    _, peak = peak_ratio(one_epoch)
    assert peak <= 0.2 * nbytes(back)

    # evaluate holds its projected float64 rows and little else: at this shape a
    # whole-block upcast of the text locals reads 1.67x them, of every block 2.0x
    test = generate_synthetic(40, 4, 512, 2, 8, intra_class_spread=0.3, seed=2)
    heads = init_heads(test.dim)
    evaluate(heads, test, Hyper())
    projected = 8 * test.n_pairs * (2 + test.d1 + test.d2) * test.dim
    _, peak = peak_ratio(lambda: evaluate(heads, test, Hyper()))
    assert peak <= 1.3 * projected
