import numpy as np
import pytest

from rrsitr.data import (Dataset, NoiseSpec, batch_iter, generate_synthetic,
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
