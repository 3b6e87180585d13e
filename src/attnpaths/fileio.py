"""On-disk formats: flat binary artifacts and CSV exports.

Every binary file starts with a four-byte magic, a little-endian u32 version,
fixed-width header fields, and a 32-byte sha256 config digest, followed by
row-major float64 payloads and nothing after them (readers reject trailing bytes):

    APKD  datasets          (feature width, token width, T, P, n_train, seed)
    APKL  attention logits  (L, H, token width), in .apkw files
    APKP  path features     (H, L, width, P, n_train), one row per path, in .apkf files
    APKU  order parameters  (H, L, level count, sides)

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


def _pack_header(magic: bytes, fields: list, digest: str) -> bytes:
    raw = struct.pack("<4sI" + "Q" * len(fields), magic, FORMAT_VERSION, *fields)
    return raw + bytes.fromhex(digest)


def _read_header(fh, magic: bytes, n_fields: int, path: str):
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
    digest = raw[8 + 8 * n_fields :].hex()
    return fields, digest


def _read_array(fh, shape: tuple, path: str, dtype=np.float64) -> np.ndarray:
    # header sizes are untrusted: check them against the file before allocating
    start = fh.tell()
    left = os.fstat(fh.fileno()).st_size - start
    nbytes = math.prod(int(d) for d in shape) * np.dtype(dtype).itemsize
    if nbytes > left:
        raise FormatError(f"{path}: truncated payload at byte {start + left}, "
                          f"wanted {nbytes} bytes from byte {start}")
    out = np.empty(shape, dtype=dtype)
    fh.readinto(out)
    return out


def _check_end(fh, path: str) -> None:
    end = fh.tell()
    if fh.read(1):
        raise FormatError(f"{path}: trailing bytes after the payload at byte {end}")


def write_dataset(path, dataset, digest: str = ZERO_DIGEST) -> None:
    from .data import SequenceDataset  # local import to avoid a cycle

    assert isinstance(dataset, SequenceDataset)
    fields = [dataset.feature_width, dataset.token_width, dataset.n_tokens,
              dataset.n_examples, dataset.n_train, dataset.seed & (2**64 - 1)]
    with open(path, "wb") as fh:
        fh.write(_pack_header(b"APKD", fields, digest))
        fh.write(np.ascontiguousarray(dataset.tokens, dtype=np.float64))
        fh.write(np.ascontiguousarray(dataset.labels, dtype=np.int8))


def read_dataset(path):
    from .data import SequenceDataset

    with open(path, "rb") as fh:
        (n0, width, n_tok, n_ex, n_train, seed), digest = _read_header(fh, b"APKD", 6, str(path))
        tokens = _read_array(fh, (n_ex, width, n_tok), str(path))
        labels = _read_array(fh, (n_ex,), str(path), dtype=np.int8)
        _check_end(fh, str(path))
    ds = SequenceDataset(tokens=tokens, labels=labels, n_train=int(n_train),
                         feature_width=int(n0), seed=int(seed))
    return ds, digest


def write_attention_specs(path, logits: np.ndarray, digest: str = ZERO_DIGEST) -> None:
    """logits: (L, H, width, width), logits[l, h] the logit matrix of head h in layer l."""
    check_logits(logits)
    with open(path, "wb") as fh:
        fh.write(_pack_header(b"APKL", list(np.shape(logits)[:3]), digest))
        fh.write(np.ascontiguousarray(logits, dtype=np.float64))


def read_attention_specs(path):
    with open(path, "rb") as fh:
        (depth, n_heads, width), digest = _read_header(fh, b"APKL", 3, str(path))
        logits = _read_array(fh, (depth, n_heads, width, width), str(path))
        _check_end(fh, str(path))
    return logits, digest


def write_features(path, features: PathFeatureMatrix, digest: str = ZERO_DIGEST) -> None:
    fields = [features.n_heads, features.depth, features.width, features.n_examples,
              features.n_train]
    with open(path, "wb") as fh:
        fh.write(_pack_header(b"APKP", fields, digest))
        fh.write(np.ascontiguousarray(features.values, dtype=np.float64))


def read_features(path):
    with open(path, "rb") as fh:
        (n_heads, depth, width, n_ex, n_train), digest = _read_header(fh, b"APKP", 5, str(path))
        # clamped so a corrupt L builds no huge int; H >= 2 past 64 fails the size check
        values = _read_array(fh, (n_heads ** min(depth, 64), width, n_ex), str(path))
        _check_end(fh, str(path))
    return PathFeatureMatrix(values=values, n_train=int(n_train), n_heads=int(n_heads),
                             depth=int(depth)), digest


def write_order_parameters(path, params: OrderParameterSet, digest: str = ZERO_DIGEST) -> None:
    with open(path, "wb") as fh:
        fh.write(_pack_header(b"APKU", [params.n_heads, params.depth,
                                        len(params.matrices)], digest))
        for m in params.matrices:
            fh.write(struct.pack("<Q", m.shape[0]))
            fh.write(np.ascontiguousarray(m, dtype=np.float64))


def read_order_parameters(path):
    with open(path, "rb") as fh:
        (n_heads, depth, n_levels), digest = _read_header(fh, b"APKU", 3, str(path))
        mats = []
        for _ in range(n_levels):
            start = fh.tell()
            raw = fh.read(8)
            if len(raw) < 8:
                raise FormatError(f"{path}: truncated level header at byte {start + len(raw)}")
            (side,) = struct.unpack("<Q", raw)
            mats.append(_read_array(fh, (side, side), str(path)))
        _check_end(fh, str(path))
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


def write_predictor_csv(path, report, digest: str = ZERO_DIGEST) -> None:
    rows = [
        [i, float(m), float(v), int(l)]
        for i, (m, v, l) in enumerate(zip(report.means, report.variances, report.eval_labels))
    ]
    write_csv(path, digest, ["example", "mean", "variance", "label"], rows)


def write_alignment_csv(path, eigenvalues, overlaps, digest: str = ZERO_DIGEST) -> None:
    rows = [[i, float(e), float(o)] for i, (e, o) in enumerate(zip(eigenvalues, overlaps))]
    write_csv(path, digest, ["rank", "eigenvalue", "overlap"], rows)


def write_head_scores_csv(path, table, digest: str = ZERO_DIGEST) -> None:
    rows = [
        [int(l), int(h) + 1, float(s), float(n)]
        for l, h, s, n in zip(table.layers, table.heads, table.scores, table.normalized)
    ]
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
