"""Paired-embedding datasets: synthetic generation, text-shuffle noise injection,
RRSE binary (de)serialization, and epoch batching."""
from __future__ import annotations

import json
import math
import os
import stat
import struct
from dataclasses import dataclass, fields
from typing import Iterator, Optional, Tuple

import numpy as np

from .errors import ConfigError, DataError, FormatError

RRSE_MAGIC = b"RRSE"
RRSE_VERSION = 1
UNIT_NORM_TOL = 1e-6  # allows for rows rounded to the float32 grid
# The one working-set budget: every streamed loop of the data layer (the
# generator, writer and unit-norm check below), of trainer.project and of
# evaluation.evaluate takes its bounds from _row_chunks, so none holds a
# per-chunk temporary of more than this many float64 bytes (or one item); the
# reader reads chunks of this many bytes. The
# generator holds two such chunk buffers at once; at 4 MiB they set the peak
# RSS of a process that builds several desk-shape sets in turn.
_CHUNK_BYTES = 1 << 20
_BLOCKS = ("image_global", "image_local", "text_global", "text_local")


@dataclass(frozen=True)
class Dataset:
    """Aligned image/text embeddings with per-pair correspondence labels.

    All embedding rows are unit-norm. The program stores them as float32 (the
    RRSE payload type, so file round-trips are bit-exact) and upcasts to
    float64 only the rows its arithmetic reads; a caller may pass float64
    blocks instead, with the same results for the same values. Any other
    dtype is refused. y[i] = 1 means pair i is a true correspondence; 0 means
    its text was shuffled in by noise injection.

    Every construction checks shapes, dtypes, y and class_id. The unit-row
    pass reads every value, so it runs only at the boundary: on a Dataset a
    caller builds and on each block read_dataset reads. generate_synthetic,
    subset and inject_noise skip it (through the private _from_unit_rows),
    since their rows are unit by construction or taken from a dataset that
    was already checked.

    The program never writes into a Dataset's blocks. A noised set from
    inject_noise shares its image blocks and class ids with its source, as
    read-only views, so neither set is written through the other; subset
    copies.
    """

    image_global: np.ndarray   # (n, dim)
    image_local: np.ndarray    # (n, d1, dim)
    text_global: np.ndarray    # (n, dim)
    text_local: np.ndarray     # (n, d2, dim)
    y: np.ndarray              # (n,) uint8
    class_id: Optional[np.ndarray] = None  # (n,) uint32, synthetic only

    def __post_init__(self):
        self._check_structure()
        for name in _BLOCKS:
            _check_unit_rows(name, getattr(self, name))

    @classmethod
    def _from_unit_rows(cls, **blocks) -> "Dataset":
        """A Dataset of blocks whose rows are known to be unit: every check of
        __post_init__ but the unit-row pass."""
        ds = cls.__new__(cls)
        for f in fields(cls):
            object.__setattr__(ds, f.name, blocks.get(f.name, f.default))
        ds._check_structure()
        return ds

    def _check_structure(self) -> None:
        if self.image_global.ndim != 2:
            raise ConfigError("image_global must be (n, dim)")
        n, dim = self.image_global.shape
        if dim < 2:
            raise ConfigError(f"dim must be >= 2, got {dim}")
        if self.image_local.ndim != 3 or self.image_local.shape[0] != n:
            raise ConfigError("image_local must be (n, d1, dim)")
        if self.text_local.ndim != 3 or self.text_local.shape[0] != n:
            raise ConfigError("text_local must be (n, d2, dim)")
        if self.d1 < 1 or self.d2 < 1:
            raise ConfigError("d1 and d2 must be >= 1")
        if self.text_global.shape != (n, dim):
            raise ConfigError("text_global shape mismatch")
        if self.image_local.shape[2] != dim or self.text_local.shape[2] != dim:
            raise ConfigError("local feature dim mismatch")
        if self.y.shape != (n,):
            raise ConfigError("y must be (n,)")
        bad = self.y[(self.y != 0) & (self.y != 1)]
        if bad.size:
            raise DataError(f"y must be 0 or 1, found {sorted(set(bad.tolist()))[:5]}")
        for name in _BLOCKS:
            dtype = getattr(self, name).dtype
            if dtype.type not in (np.float32, np.float64):
                raise ConfigError(f"{name} must be float32 or float64, got {dtype}")
        c = self.class_id
        if c is not None:
            # RRSE stores class ids as uint32, so anything else cannot round-trip
            if c.shape != (n,):
                raise ConfigError("class_id must be (n,)")
            if c.dtype.kind not in "iu":
                raise ConfigError(f"class_id must hold integers, got {c.dtype}")
            if n and (int(c.min()) < 0 or int(c.max()) >= 2**32):
                bad = sorted({v for v in c.tolist() if not 0 <= v < 2**32})
                raise DataError(f"class_id must be in [0, 2**32), found {bad[:5]}")

    @property
    def n_pairs(self) -> int:
        return self.image_global.shape[0]

    @property
    def dim(self) -> int:
        return self.image_global.shape[1]

    @property
    def d1(self) -> int:
        return self.image_local.shape[1]

    @property
    def d2(self) -> int:
        return self.text_local.shape[1]

    def subset(self, idx) -> "Dataset":
        """New dataset holding the selected rows.

        idx is anything that indexes the first axis: an integer array, a boolean
        mask or a slice; the values are those of self[idx]. Each block is
        gathered once with np.take, straight into memory the result owns, so a
        small subset pins no parent alive.
        """
        rows = np.arange(self.n_pairs)[idx]

        def take(a):
            return np.take(a, rows, axis=0)

        return Dataset._from_unit_rows(
            image_global=take(self.image_global),
            image_local=take(self.image_local),
            text_global=take(self.text_global),
            text_local=take(self.text_local),
            y=take(self.y),
            class_id=None if self.class_id is None else take(self.class_id),
        )


def _check_unit_rows(name: str, rows: np.ndarray) -> None:
    """Refuse a float32/float64 block that holds a non-finite value or has a
    row whose norm is off 1 by more than UNIT_NORM_TOL.

    Squared row norms are summed in float64 one upcast row chunk at a time,
    so the check holds no temporary larger than a chunk. A non-finite value
    anywhere is reported first, then the first non-unit row.
    """
    finite, first_bad = True, None
    for r0, r1 in _row_chunks(rows.shape):
        chunk = rows[r0:r1].astype(np.float64, copy=False)
        # a non-finite value makes its row's sum non-finite
        sq = np.einsum("...i,...i->...", chunk, chunk)
        finite = finite and bool(np.isfinite(sq).all())
        if first_bad is None:
            bad = (sq < (1.0 - UNIT_NORM_TOL) ** 2) | (sq > (1.0 + UNIT_NORM_TOL) ** 2)
            if bad.any():
                where = np.unravel_index(np.argmax(bad), bad.shape)
                first_bad = (r0 + int(where[0]),) + tuple(int(i) for i in where[1:]), sq[where]
    if not finite:
        raise ConfigError(f"{name} contains non-finite values")
    if first_bad is not None:
        where, sq = first_bad
        raise DataError(f"{name} row {where} has norm {np.sqrt(sq):.9g}; rows must be "
                        f"unit-norm within {UNIT_NORM_TOL:g}")


@dataclass(frozen=True)
class PairBatch:
    """Rows of a dataset selected for one training step."""

    indices: np.ndarray        # (b,) dataset row ids
    image_global: np.ndarray   # (b, dim)
    image_local: np.ndarray    # (b, d1, dim)
    text_global: np.ndarray    # (b, dim)
    text_local: np.ndarray     # (b, d2, dim)
    y: np.ndarray              # (b,)

    def __post_init__(self):
        if len(self.indices) < 2:
            raise ConfigError("batch size must be >= 2")

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise-injection recipe: fraction of pairs to shuffle and the RNG seed."""

    rho: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError(f"rho must be in [0, 1], got {self.rho}")


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _chunk_rows(row_size: int) -> int:
    """The most rows of row_size float64 values each that one chunk holds:
    as many as fit in _CHUNK_BYTES, at least one."""
    return max(1, _CHUNK_BYTES // max(1, 8 * row_size))


def _row_chunks(shape: Tuple[int, ...], min_rows: int = 1) -> Iterator[Tuple[int, int]]:
    """(r0, r1) bounds of consecutive first-axis chunks of a block of this shape,
    each of at most _chunk_rows rows and of near-equal size, but fewer and
    larger chunks where that would leave one under min_rows rows. No chunk is
    a sliver of a few rows: a GEMM over one to three rows can round
    differently from the same rows inside a larger product."""
    n = shape[0]
    count = min(-(-n // _chunk_rows(math.prod(shape[1:]))), max(1, n // min_rows))
    for k in range(count):
        yield n * k // count, n * (k + 1) // count


# Fixed structural knobs of the synthetic family. The latent span gives a
# trainable projection real denoising headroom; the modality-gap rotation on
# the text side is the shared misalignment the heads must learn to undo.
LATENT_RANK_FRACTION = 0.5
MODALITY_GAP_RADIANS = np.radians(30.0)
COPY_NOISE_FRACTION = 0.6


def _plane_rotation(dim: int, theta: float, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal matrix rotating by theta in dim//2 random disjoint planes."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    g = np.eye(dim)
    c, s = np.cos(theta), np.sin(theta)
    for k in range(0, dim - 1, 2):
        g[k:k + 2, k:k + 2] = [[c, -s], [s, c]]
    return q @ g @ q.T


def generate_synthetic(n_pairs: int, n_classes: int, dim: int, d1: int, d2: int,
                       intra_class_spread: float, seed: int) -> Dataset:
    """Generate unit-norm paired embeddings with latent class/pair structure.

    Hierarchy: each pair draws a class center, then its own latent core inside
    the class (offset scale = intra_class_spread); image and text embeddings
    are independent noisy copies of that core. Local features are copies of
    per-class per-part sub-centers shifted by the same pair offset, so a
    caption's parts carry its pair identity. All labels start at y=1.

    Centers, pair cores, and sub-centers live on a random half-dimensional
    latent span (copy noise is isotropic over the full space) and the text
    side is rotated by a fixed modality gap, so trained heads can beat the
    raw features by denoising toward the span and undoing the gap.

    All four blocks have one base-row form: a pair's row of a class table
    (the centers for a global block, the sub-centers for a local one) plus
    its pair offset. The gap is linear, so the text side rotates its two
    tables and the pair offsets once, up front, and then gathers and offsets
    as the image side does.

    Each block is a float32 array allocated once and filled in row chunks of
    about _CHUNK_BYTES through two float64 chunk buffers made once per call:
    noise is drawn into one, the chunk's base rows are gathered into the
    other and added, the rows are normalized, then rounded into the block.
    The draws and every per-row operation are those of a whole-block float64
    computation, so the output is byte-identical to it whatever the chunk
    size.
    """
    if n_pairs < 1:
        raise ConfigError(f"n_pairs must be >= 1, got {n_pairs}")
    if n_classes < 2:
        raise ConfigError(f"n_classes must be >= 2, got {n_classes}")
    if dim < 2:
        raise ConfigError(f"dim must be >= 2, got {dim}")
    if d1 < 1 or d2 < 1:
        raise ConfigError("d1 and d2 must be >= 1")
    if not (np.isfinite(intra_class_spread) and intra_class_spread > 0):
        raise ConfigError(f"intra_class_spread must be finite and > 0, got {intra_class_spread}")

    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(dim)  # keep offsets ~spread regardless of dim

    rank = max(2, int(dim * LATENT_RANK_FRACTION))
    basis, _ = np.linalg.qr(rng.normal(size=(dim, rank)))  # latent span, (dim, rank)

    def span_points(*shape_head):
        return rng.normal(size=shape_head + (rank,)) @ basis.T

    centers = _unit_rows(span_points(n_classes))
    # per-part sub-centers sit partway between their class center and span noise
    img_sub = _unit_rows(centers[:, None, :] + 0.5 * scale * span_points(n_classes, d1))
    txt_sub = _unit_rows(centers[:, None, :] + 0.5 * scale * span_points(n_classes, d2))
    gap = _plane_rotation(dim, MODALITY_GAP_RADIANS, rng)

    cls = rng.integers(0, n_classes, size=n_pairs)
    pair_offset = intra_class_spread * scale * span_points(n_pairs)
    s = COPY_NOISE_FRACTION * intra_class_spread * scale

    # float64 chunk buffers, made once at the largest chunk's size: work holds the
    # rows being drawn, spare a chunk's base rows and then their squares
    size = max(min(n_pairs, _chunk_rows(row)) * row for row in (dim, d1 * dim, d2 * dim))
    work, spare = np.empty(size), np.empty(size)

    def rows_of(buf, r0, r1, tail):
        return buf[:(r1 - r0) * math.prod(tail)].reshape((r1 - r0,) + tail)

    def noisy(table: np.ndarray, offset: np.ndarray) -> np.ndarray:
        # float32 unit rows of table[cls] + offset + s * N(0, 1), chunk by chunk
        shape = (n_pairs,) + table.shape[1:]
        offset = offset.reshape((n_pairs,) + (1,) * (table.ndim - 2) + (dim,))
        out = np.empty(shape, dtype=np.float32)
        for r0, r1 in _row_chunks(shape):
            chunk = rows_of(work, r0, r1, shape[1:])
            rng.standard_normal(out=chunk)  # the stream and bits of rng.normal
            chunk *= s
            # cls is in range, and mode="clip" writes into spare where "raise" would buffer
            base = np.take(table, cls[r0:r1], axis=0, out=rows_of(spare, r0, r1, shape[1:]),
                           mode="clip")
            base += offset[r0:r1]
            chunk += base
            # the reduction np.linalg.norm runs, so rows match _unit_rows bit for bit
            sq = np.multiply(chunk, chunk, out=base)
            chunk /= np.sqrt(np.add.reduce(sq, axis=-1, keepdims=True))
            out[r0:r1] = chunk  # round to float32, as astype does
        return out

    image_global = noisy(centers, pair_offset)
    image_local = noisy(img_sub, pair_offset)
    pair_offset = pair_offset @ gap.T
    text_global = noisy(centers @ gap.T, pair_offset)
    text_local = noisy(txt_sub @ gap.T, pair_offset)
    return Dataset._from_unit_rows(image_global=image_global, image_local=image_local,
                                   text_global=text_global, text_local=text_local,
                                   y=np.ones(n_pairs, dtype=np.uint8),
                                   class_id=cls.astype(np.uint32))


def _derangement(rng: np.random.Generator, k: int) -> np.ndarray:
    """Random permutation of range(k), k >= 2, with no fixed points."""
    while True:
        perm = rng.permutation(k)
        if not np.any(perm == np.arange(k)):
            return perm


def inject_noise(dataset: Dataset, spec: NoiseSpec) -> Dataset:
    """Shuffle the texts of a random round(rho*n) subset of pairs.

    Texts (global + local together) are permuted by a derangement within the
    selected subset; affected rows get y=0. The input dataset is untouched.
    Refuses datasets that already contain y=0 rows, and a rho that selects
    exactly one pair, which no derangement can move (ConfigError).

    Only the text blocks are new: each is gathered once through a source-row
    index (the identity with the deranged subset written in), byte-identical
    to copying it and scattering the shuffled rows into it. The image blocks
    and class ids are the input's own memory, returned as read-only views:
    the noised set shares them with its source, a write through the noised
    set raises ValueError, and the source stays as writable as it was.
    """
    if np.any(dataset.y == 0):
        raise DataError("dataset already contains noisy pairs; refusing to inject twice")
    n = dataset.n_pairs
    k = int(round(spec.rho * n))
    if k == 1:
        raise ConfigError(f"rho={spec.rho} selects 1 pair; a derangement needs 0 or at least 2")
    rng = np.random.default_rng(spec.seed)

    source = np.arange(n)
    y = np.ones(n, dtype=np.uint8)
    if k > 0:
        subset = np.sort(rng.choice(n, size=k, replace=False))
        perm = _derangement(rng, k)
        source[subset] = subset[perm]
        y[subset] = 0

    return Dataset._from_unit_rows(
        image_global=_read_only(dataset.image_global),
        image_local=_read_only(dataset.image_local),
        text_global=np.take(dataset.text_global, source, axis=0),
        text_local=np.take(dataset.text_local, source, axis=0),
        y=y,
        class_id=None if dataset.class_id is None else _read_only(dataset.class_id),
    )


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of a, which itself stays writable."""
    view = a.view()
    view.flags.writeable = False
    return view


def write_dataset(dataset: Dataset, path: str) -> None:
    """Write the RRSE binary format (little-endian, float32 payload).

    float32 blocks are written as they are; float64 blocks are converted one
    row chunk of about _CHUNK_BYTES at a time, giving the bytes of converting
    each block whole.
    """
    n, dim, d1, d2 = dataset.n_pairs, dataset.dim, dataset.d1, dataset.d2
    with open(path, "wb") as f:
        f.write(RRSE_MAGIC)
        f.write(struct.pack("<5I", RRSE_VERSION, n, dim, d1, d2))
        for name in _BLOCKS:
            block = getattr(dataset, name)
            for r0, r1 in _row_chunks(block.shape):
                f.write(np.ascontiguousarray(block[r0:r1], dtype="<f4"))
        f.write(dataset.y.astype(np.uint8).tobytes())
        if dataset.class_id is not None:
            f.write(struct.pack("<B", 1))
            f.write(dataset.class_id.astype("<u4").tobytes())
        else:
            f.write(struct.pack("<B", 0))


class SectionReader:
    """Consecutive sections of a binary file, read with the byte offset counted
    from the bytes read (a pipe cannot tell()), so that every error names the
    section and its offset. A section longer than the bytes left fails before
    its array is allocated: in a regular file by its size, in a pipe by reading
    the section's bytes first."""

    def __init__(self, f):
        self.f = f
        self.pos = 0
        st = os.fstat(f.fileno())
        self.size = st.st_size if stat.S_ISREG(st.st_mode) else None

    def _truncated(self, nbytes: int, section: str, got: int) -> FormatError:
        return FormatError(f"truncated file: expected {nbytes} bytes for section '{section}' "
                           f"at byte offset {self.pos}, got {got}")

    def array(self, shape: Tuple[int, ...], dtype, section: str) -> np.ndarray:
        """The next section as an array of this shape and dtype: a view of one
        uint8 buffer that its bytes are read into in chunks of at most
        _CHUNK_BYTES. A regular file too short for the section fails by its
        size, before the buffer is allocated whole. A pipe's length is unknown
        until it ends, so its buffer grows (by realloc) one chunk at a time to
        exactly the section's size: a header claiming more bytes than the pipe
        holds fails after the bytes that came, not on an allocation of its
        claimed size."""
        nbytes = np.dtype(dtype).itemsize * math.prod(shape)
        if self.size is not None and self.size - self.pos < nbytes:
            raise self._truncated(nbytes, section, self.size - self.pos)
        buf = np.empty(0 if self.size is None else nbytes, dtype=np.uint8)
        for done in range(0, nbytes, _CHUNK_BYTES):
            end = min(nbytes, done + _CHUNK_BYTES)
            if buf.size < end:
                buf.resize(end, refcheck=False)  # no views of buf live
            got = self.f.readinto(buf[done:end])
            if got != end - done:
                raise self._truncated(nbytes, section, done + got)
        self.pos += nbytes
        return buf.view(dtype).reshape(shape)

    def raw(self, nbytes: int, section: str) -> bytes:
        return self.array((nbytes,), np.uint8, section).tobytes()

    def expect_eof(self) -> None:
        """Raise FormatError if the file has bytes after the sections read."""
        if self.f.read(1):
            raise FormatError(f"trailing bytes after the last section at byte offset {self.pos}")


def read_dataset(path: str) -> Dataset:
    """Read an RRSE file; embeddings come back as float32 blocks.

    The file comes from outside the program, so the Dataset built from it
    runs every check, the unit-row pass over each embedding block included.

    Every section is read through a SectionReader, so a truncated regular
    file fails before its short section is allocated, and a pipe (e.g.
    /dev/stdin) reads and fails as a file does.
    """
    with open(path, "rb") as f:
        r = SectionReader(f)
        magic = r.raw(4, "magic")
        if magic != RRSE_MAGIC:
            raise FormatError(f"bad magic {magic!r} at byte offset 0, expected {RRSE_MAGIC!r}")
        version, n, dim, d1, d2 = struct.unpack("<5I", r.raw(20, "header"))
        if version != RRSE_VERSION:
            raise FormatError(f"unsupported version {version} at byte offset 4")
        if n < 1 or dim < 2 or d1 < 1 or d2 < 1:
            raise FormatError(
                f"invalid header at byte offset 8: n={n}, dim={dim}, d1={d1}, d2={d2} "
                "(need n>=1, dim>=2, d1>=1, d2>=1)")
        image_global = r.array((n, dim), "<f4", "image_global")
        image_local = r.array((n, d1, dim), "<f4", "image_local")
        text_global = r.array((n, dim), "<f4", "text_global")
        text_local = r.array((n, d2, dim), "<f4", "text_local")
        y = r.array((n,), np.uint8, "y")
        (flag,) = r.raw(1, "class_id flag")
        class_id = None
        if flag == 1:
            class_id = r.array((n,), "<u4", "class_id")
        elif flag != 0:
            raise FormatError(f"bad class_id presence flag {flag} at byte offset {r.pos - 1}")
        r.expect_eof()
    return Dataset(image_global, image_local, text_global, text_local, y, class_id)


def write_manifest(path: str, data_path: str, rho: float, seed: int, source: str | None = None,
                   extra: dict | None = None) -> None:
    """JSON manifest naming a dataset file, and the file it was made from
    (source), relative to the manifest's own directory, and its noise
    provenance."""
    here = os.path.dirname(os.path.abspath(path))
    doc = {"file": os.path.relpath(data_path, here), "noise": {"rho": rho, "seed": seed}}
    if source is not None:
        doc["source"] = os.path.relpath(source, here)
    if extra:
        doc.update(extra)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def _read_manifest(path: str) -> Tuple[str, dict]:
    """The dataset path a manifest names, and the manifest.

    'file' is looked up beside the manifest first. Manifests written before
    write_manifest took that rule named it from the directory they were
    written in, so where nothing is beside the manifest but the name exists
    from the current directory, that path is taken. A manifest that is not
    JSON, or not an object whose 'file' is a string, raises FormatError."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as e:         # JSONDecodeError, UnicodeDecodeError
            raise FormatError(f"manifest {path} is not JSON: {e}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("file"), str):
        raise FormatError(f"manifest {path} must be a JSON object with a string 'file' entry")
    beside = os.path.join(os.path.dirname(path), doc["file"])
    if os.path.exists(beside) or not os.path.exists(doc["file"]):
        return beside, doc
    return doc["file"], doc


def load_dataset_arg(path: str) -> Dataset:
    """Load a dataset from an .rrse path or a JSON manifest naming one."""
    return read_dataset(_read_manifest(path)[0] if path.endswith(".json") else path)


def dataset_manifest(path: str) -> Tuple[str, Optional[dict]]:
    """The data file a dataset argument names, and its manifest: the manifest
    given, or the sidecar manifest gen and inject write beside an .rrse
    (<path>.json) when it names that .rrse; None without one."""
    if path.endswith(".json"):
        return _read_manifest(path)
    try:
        named, doc = _read_manifest(path + ".json")
    except (OSError, FormatError):      # none, or not a manifest: not a sidecar
        return path, None
    if os.path.exists(named) and os.path.samefile(named, path):
        return path, doc
    return path, None


def batch_iter(dataset: Dataset, batch_size: int, epoch_seed: int) -> Iterator[PairBatch]:
    """One shuffled pass over the dataset; a final batch shorter than 2 is dropped.

    Each batch's rows are gathered and upcast to float64, the only copy of the
    dataset's rows the trainer's arithmetic reads."""
    if batch_size < 2:
        raise ConfigError(f"batch_size must be >= 2, got {batch_size}")
    n = dataset.n_pairs
    order = np.random.default_rng(epoch_seed).permutation(n)
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        if len(idx) < 2:
            break
        rows = [getattr(dataset, name)[idx].astype(np.float64, copy=False) for name in _BLOCKS]
        yield PairBatch(idx, *rows, y=dataset.y[idx])
