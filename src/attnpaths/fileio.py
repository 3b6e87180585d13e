"""On-disk formats: flat binary artifacts and CSV exports.

Every binary file starts with a four-byte magic, a little-endian u32 version,
u64 header fields, and a 32-byte sha256 config digest, followed by row-major
payloads, float64 unless noted, and nothing after them (readers reject
trailing bytes):

    APKS  datasets          (token width, T, P, n_train), tokens then int8 labels,
                            in .apkd files
    APKL  attention logits  (L, H, token width), in .apkw files
    APKE  path features     (H, L, width, P, n_train), example-major: one
                            (H^L, width) row per example, in .apkf files
    APKO  order parameters  (H, L), level i an H^(L-i) square for i = 0..L,
                            in .apku files

Each header holds only what a reader cannot derive: the array shapes follow
from the fields.  A file of an earlier layout fails with "bad magic"; the
path-major features layout (H^L, width, P) had magic APKP.  Readers check
every size against the file before reading.  Arrays are read into their own
memory, except a dataset's tokens and a features file's rows: read_dataset
and read_features leave them in the file as TokenRows, which the stages read
in row blocks, so no command holds the whole token or feature payload.
create_features writes a features file's header and sizes its payload, and
compute_features fills the rows block by block.

CSV exports start with a `# config_digest=<hex>` comment line, then a header
row; floats are written with repr so reads round-trip exactly and reruns are
byte-identical.  One-based head indices appear in all labels.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import struct

import numpy as np

from .analysis import head_shares
from .data import SequenceDataset, TokenRows
from .kernel import PathFeatureMatrix
from .model import check_logits
from .paths import path_heads, path_label
from .solver import OrderParameterSet

FORMAT_VERSION = 1
ZERO_DIGEST = "0" * 64


class FormatError(ValueError):
    """Malformed or mismatched binary artifact; message carries the byte offset."""


def config_digest(config: dict) -> str:
    """sha256 over the canonical JSON rendering of a config mapping."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _write(path, magic: bytes, fields: list, digest: str, arrays) -> None:
    """A header (magic, version, fields, digest), then each array's raw bytes."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI" + "Q" * len(fields), magic, FORMAT_VERSION, *fields))
        fh.write(bytes.fromhex(digest))
        for a in arrays:
            fh.write(np.ascontiguousarray(a))


def _read(path, magic: bytes, n_fields: int, layout):
    """(fields, arrays, digest) of a file _write wrote; layout(*fields) yields
    the (shape, dtype) of each array in file order."""
    path = str(path)
    with open(path, "rb") as fh:
        head_len = 8 + 8 * n_fields + 32
        raw = fh.read(head_len)
        if len(raw) < head_len:
            raise FormatError(f"{path}: truncated header at byte {len(raw)}")
        got_magic, version = struct.unpack_from("<4sI", raw, 0)
        if got_magic != magic:
            raise FormatError(f"{path}: bad magic {got_magic!r} at byte 0, expected {magic!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version} at byte 4")
        fields = struct.unpack_from("<" + "Q" * n_fields, raw, 8)
        arrays = [_read_array(fh, shape, path, dtype) for shape, dtype in layout(*fields)]
        _check_end(fh, path)
    return fields, arrays, raw[8 + 8 * n_fields :].hex()


def _read_array(fh, shape: tuple, path: str, dtype):
    """The next array of the file; dtype TokenRows leaves float64 rows in the
    file and returns their view."""
    # header sizes are untrusted: check them against the file before allocating
    start = fh.tell()
    left = os.fstat(fh.fileno()).st_size - start
    on_disk = dtype is TokenRows
    itemsize = np.dtype(np.float64 if on_disk else dtype).itemsize
    nbytes = math.prod(int(d) for d in shape) * itemsize
    if nbytes > left:
        raise FormatError(f"{path}: truncated payload at byte {start + left}, "
                          f"wanted {nbytes} bytes from byte {start}")
    if on_disk:
        fh.seek(start + nbytes)
        return TokenRows(path, start, shape)
    out = np.empty(shape, dtype=dtype)
    fh.readinto(out)
    return out


def _check_end(fh, path: str) -> None:
    end = fh.tell()
    if fh.read(1):
        raise FormatError(f"{path}: trailing bytes after the payload at byte {end}")


def write_dataset(path, dataset: SequenceDataset, digest: str = ZERO_DIGEST) -> None:
    n_ex, width, n_tok = dataset.tokens.shape
    _write(path, b"APKS", [width, n_tok, n_ex, dataset.n_train], digest,
           [dataset.tokens, dataset.labels])


def read_dataset(path):
    """(dataset, digest); the tokens stay in the file as TokenRows, the labels are read."""
    (_, _, _, n_train), (tokens, labels), digest = _read(
        path, b"APKS", 4, lambda width, n_tok, n_ex, n_train: [
            ((n_ex, width, n_tok), TokenRows), ((n_ex,), np.int8)])
    return SequenceDataset(tokens=tokens, labels=labels, n_train=int(n_train)), digest


def write_attention_specs(path, logits: np.ndarray, digest: str = ZERO_DIGEST) -> None:
    """logits: (L, H, width, width), logits[l, h] the logit matrix of head h in layer l."""
    check_logits(logits)
    _write(path, b"APKL", list(np.shape(logits)[:3]), digest,
           [np.asarray(logits, dtype=np.float64)])


def read_attention_specs(path):
    _, (logits,), digest = _read(path, b"APKL", 3, lambda depth, n_heads, width: [
        ((depth, n_heads, width, width), np.float64)])
    return logits, digest


def create_features(path, n_heads: int, depth: int, width: int, n_examples: int,
                    n_train: int, digest: str = ZERO_DIGEST) -> TokenRows:
    """A features file's header and a payload of zeros: its (P, H^L, width)
    rows, returned as TokenRows for compute_features to fill."""
    fields = [n_heads, depth, width, n_examples, n_train]
    _write(path, b"APKE", fields, digest, [])
    rows = TokenRows(path, 8 + 8 * len(fields) + 32, (n_examples, n_heads**depth, width))
    os.truncate(path, rows.offset + 8 * math.prod(rows.shape))
    return rows


def read_features(path):
    """(features, digest); the features stay in the file as TokenRows."""
    # the exponent is clamped so a corrupt L builds no huge int; H >= 2 past 64
    # fails the size check
    (n_heads, depth, _, _, n_train), (values,), digest = _read(
        path, b"APKE", 5, lambda n_heads, depth, width, n_ex, n_train: [
            ((n_ex, n_heads ** min(depth, 64), width), TokenRows)])
    return PathFeatureMatrix(values=values, n_train=int(n_train), n_heads=int(n_heads),
                             depth=int(depth)), digest


def write_order_parameters(path, params: OrderParameterSet, digest: str = ZERO_DIGEST) -> None:
    _write(path, b"APKO", [params.n_heads, params.depth], digest, params.matrices)


def _order_levels(n_heads: int, depth: int):
    # level i is H^(L-i) square, its exponent clamped as in read_features; a
    # generator, so an inflated L fails at the first level the file cannot hold
    if n_heads < 1:  # zero-size levels would let a corrupt L run on without reading
        raise FormatError(f"order parameters need n_heads >= 1, got {n_heads} at byte 8")
    return (((n_heads ** min(depth - i, 64),) * 2, np.float64) for i in range(depth + 1))


def read_order_parameters(path):
    (n_heads, depth), mats, digest = _read(path, b"APKO", 2, _order_levels)
    return OrderParameterSet(matrices=mats, n_heads=int(n_heads), depth=int(depth)), digest


def write_csv(path, digest: str, header: list, rows: list) -> None:
    buf = io.StringIO()
    buf.write(f"# config_digest={digest}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def read_csv_digest(path) -> str:
    with open(path) as fh:
        first = fh.readline().strip()
    if not first.startswith("# config_digest="):
        raise FormatError(f"{path}: missing config digest comment line")
    return first.split("=", 1)[1]


def write_u1_csv(path, u1: np.ndarray, n_heads: int, depth: int,
                 digest: str = ZERO_DIGEST) -> None:
    """U^(1) with one-based path labels on rows and columns."""
    u1 = np.asarray(u1, dtype=float)
    labels = [path_label(path) for path in path_heads(n_heads, depth).T]
    rows = [[labels[i]] + [float(v) for v in u1[i]] for i in range(u1.shape[0])]
    write_csv(path, digest, ["path"] + labels, rows)


def write_trace_csv(path, trace, digest: str = ZERO_DIGEST) -> None:
    rows = [
        [i, float(a), float(e), float(g), float(n)]
        for i, (a, e, g, n) in enumerate(zip(trace.actions, trace.entropies,
                                             trace.energies, trace.grad_norms))
    ]
    write_csv(path, digest, ["iteration", "action", "entropy", "energy", "grad_norm"], rows)


def write_predictor_csv(path, examples, means, variances, labels,
                        digest: str = ZERO_DIGEST) -> None:
    """One row per evaluated example; example is its index in the dataset."""
    rows = [[int(i), float(m), float(v), int(l)]
            for i, m, v, l in zip(examples, means, variances, labels)]
    write_csv(path, digest, ["example", "mean", "variance", "label"], rows)


def write_alignment_csv(path, eigenvalues, overlaps, digest: str = ZERO_DIGEST) -> None:
    rows = [[i, float(e), float(o)] for i, (e, o) in enumerate(zip(eigenvalues, overlaps))]
    write_csv(path, digest, ["rank", "eigenvalue", "overlap"], rows)


def write_head_scores_csv(path, scores: np.ndarray, digest: str = ZERO_DIGEST) -> None:
    """The (L, H) head scores and each one's share of its layer's total (0 for
    a layer whose total is 0), with one-based layers and heads."""
    shares = head_shares(scores)
    rows = [[layer + 1, head + 1, float(scores[layer, head]), float(shares[layer, head])]
            for layer, head in np.ndindex(scores.shape)]
    write_csv(path, digest, ["layer", "head", "score", "normalized"], rows)


def write_sweep_csv(path, result, digest: str = ZERO_DIGEST) -> None:
    rows = [
        [r["temperature"], "" if r["accuracy"] is None else float(r["accuracy"]),
         r["converged"], r["error"]]
        for r in result.rows
    ]
    write_csv(path, digest, ["temperature", "accuracy", "converged", "error"], rows)


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
