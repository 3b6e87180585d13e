import csv
import json
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from attnpaths import fileio, kernel
from attnpaths.data import HmcTaskConfig, TokenRows, gen_hmc_dataset
from attnpaths.fileio import FormatError, ZERO_DIGEST, config_digest
from attnpaths.kernel import PathFeatureMatrix, compute_features
from attnpaths.model import Readout
from attnpaths.solver import OrderParameterSet, SolveTrace


DIGEST = "ab" * 32


def _dataset():
    cfg = HmcTaskConfig(chain_length=4, feature_width=6, n_train=4, n_test=2)
    return gen_hmc_dataset(cfg, seed=3)


def _features(rng):
    return PathFeatureMatrix(values=rng.standard_normal((4, 3, 5)), n_train=3,
                             n_heads=2, depth=2)


def _write_features(path, feats, digest=ZERO_DIGEST):
    """The features file of an in-memory matrix: header first, then its rows."""
    rows = fileio.create_features(path, feats.n_heads, feats.depth, feats.width,
                                  feats.n_examples, feats.n_train, digest)
    rows[:] = feats.values.transpose(2, 0, 1)


def test_config_digest_canonical():
    a = config_digest({"b": 1, "a": [1, 2], "c": {"x": 0.5}})
    b = config_digest({"c": {"x": 0.5}, "a": [1, 2], "b": 1})
    assert a == b
    assert len(a) == 64 and set(a) <= set("0123456789abcdef")
    assert config_digest({"a": 1}) != config_digest({"a": 2})


def test_dataset_round_trip(tmp_path):
    ds = _dataset()
    p = tmp_path / "d.apkd"
    fileio.write_dataset(p, ds, DIGEST)
    back, digest = fileio.read_dataset(p)
    assert digest == DIGEST
    assert np.array_equal(back.tokens, ds.tokens)
    assert np.array_equal(back.labels, ds.labels)
    assert back.n_train == ds.n_train
    # a 72-byte header (magic, version, four fields, digest), then the payload
    assert p.stat().st_size == 72 + ds.tokens.nbytes + ds.labels.nbytes
    # identical writes are byte-identical
    p2 = tmp_path / "d2.apkd"
    fileio.write_dataset(p2, ds, DIGEST)
    assert p.read_bytes() == p2.read_bytes()


def test_dataset_tokens_stay_in_the_file(tmp_path):
    # read_dataset reads the labels only; a contiguous row slice reads its own rows
    ds = gen_hmc_dataset(HmcTaskConfig(chain_length=20, feature_width=100, n_train=4,
                                       n_test=2), seed=3)
    p = tmp_path / "d.apkd"
    fileio.write_dataset(p, ds, DIGEST)
    tracemalloc.start()
    try:
        back, _ = fileio.read_dataset(p)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read_peak < 0.1 * ds.tokens.nbytes
    assert isinstance(back.tokens, TokenRows)
    assert back.tokens.shape == ds.tokens.shape and len(back.tokens) == ds.n_examples
    for rows in (slice(None), slice(2, 5), slice(4, None), slice(-1, None), slice(3, 3)):
        got = np.asarray(back.tokens[rows])
        assert got.shape == ds.tokens[rows].shape and np.array_equal(got, ds.tokens[rows])
    with pytest.raises(ValueError, match="contiguous slices"):
        back.tokens[::2]
    # a file cut after read_dataset checked it fails when the rows are read
    blob = p.read_bytes()
    p.write_bytes(blob[: 72 + ds.tokens[0].nbytes + 8])
    with pytest.raises(OSError, match=f"token rows end at byte {72 + ds.tokens[0].nbytes + 8}"):
        np.asarray(back.tokens[1:3])


def test_earlier_dataset_layout_is_rejected(tmp_path):
    # the earlier layout: magic APKD, header (feature width, token width, T, P,
    # n_train, seed), then the same payload
    ds = _dataset()
    p = tmp_path / "old.apkd"
    n_ex, width, n_tok = ds.tokens.shape
    head = struct.pack("<4sI6Q", b"APKD", 1, 6, width, n_tok, n_ex, ds.n_train, 3)
    p.write_bytes(head + bytes.fromhex(DIGEST) + ds.tokens.tobytes() + ds.labels.tobytes())
    with pytest.raises(FormatError, match="bad magic b'APKD' at byte 0"):
        fileio.read_dataset(p)


def test_attention_specs_round_trip_direct(tmp_path):
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((2, 3, 5, 5)) * (1.5 + np.arange(3))[:, None, None]
    p = tmp_path / "w.apkw"
    fileio.write_attention_specs(p, logits, DIGEST)
    back, digest = fileio.read_attention_specs(p)
    assert digest == DIGEST
    assert back.shape == (2, 3, 5, 5)
    assert np.array_equal(back, logits)
    # identical writes are byte-identical
    p2 = tmp_path / "w2.apkw"
    fileio.write_attention_specs(p2, logits, DIGEST)
    assert p.read_bytes() == p2.read_bytes()


def test_rejected_attention_write_leaves_no_file(tmp_path):
    bad_values = np.zeros((1, 2, 3, 3))
    bad_values[0, 1, 0, 0] = np.nan
    for name, bad in [("flat.apkw", np.zeros((2, 3, 3))), ("wide.apkw", np.zeros((1, 2, 3, 4))),
                      ("nan.apkw", bad_values)]:
        with pytest.raises(ValueError):
            fileio.write_attention_specs(tmp_path / name, bad, DIGEST)
        assert not (tmp_path / name).exists()


def test_earlier_attention_layout_is_rejected(tmp_path):
    # the earlier layout: magic APKW, header (L, H, form tag, width, qk dim),
    # then one beta field and one (width, width) matrix per head
    head = struct.pack("<4sI5Q", b"APKW", 1, 1, 1, 1, 2, 0) + bytes.fromhex(DIGEST)
    p = tmp_path / "old.apkw"
    p.write_bytes(head + struct.pack("<d", 10.0) + np.eye(2).tobytes())
    with pytest.raises(FormatError, match="bad magic b'APKW' at byte 0"):
        fileio.read_attention_specs(p)


def test_features_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    feats = _features(rng)
    feats.values[[0, 2]] = 0.0  # the rows of pruned paths stay, as zeros
    p = tmp_path / "f.apkf"
    _write_features(p, feats, DIGEST)
    back, digest = fileio.read_features(p)
    assert digest == DIGEST
    assert isinstance(back.values, TokenRows)
    # example-major: one (H^L, width) row per example
    assert np.array_equal(np.asarray(back.values), feats.values.transpose(2, 0, 1))
    rows = back.examples(np.arange(5))
    assert np.array_equal(rows, feats.values.transpose(2, 0, 1)) and rows.flags.c_contiguous
    assert np.array_equal(back.train().values, feats.train().values)
    assert back.n_train == 3 and back.n_heads == 2 and back.depth == 2
    # an 80-byte header (magic, version, five fields, digest), then the values
    assert p.stat().st_size == 80 + feats.values.nbytes


def test_path_major_features_layout_is_rejected(tmp_path):
    # the earlier layout: magic APKP, the same header, then (H^L, width, P)
    values = np.random.default_rng(4).standard_normal((4, 3, 5))
    head = struct.pack("<4sI5Q", b"APKP", 1, 2, 2, 3, 5, 3) + bytes.fromhex(DIGEST)
    p = tmp_path / "old.apkf"
    p.write_bytes(head + values.tobytes())
    with pytest.raises(FormatError, match="bad magic b'APKP' at byte 0"):
        fileio.read_features(p)


@settings(max_examples=30, deadline=None)
@given(n_ex=st.integers(1, 40), train_frac=st.floats(0, 1), chunk=st.integers(1, 17),
       ends=st.tuples(st.integers(0, 40), st.integers(0, 40)), seed=st.integers(0, 2**32 - 1))
# one in-memory example gathered at index [0]: its row is already a C-contiguous
# view of the values, which examples() must copy
@example(n_ex=1, train_frac=0.0, chunk=1, ends=(0, 0), seed=15)
def test_feature_rows_read_back_bit_for_bit(tmp_path_factory, n_ex, train_frac, chunk, ends,
                                            seed):
    # features written block by block into their file, then any contiguous
    # range of examples read back, equal compute_features' in-memory columns
    rng = np.random.default_rng(seed)
    tokens = rng.standard_normal((n_ex, 5, 4))
    logits = 1.3 * rng.standard_normal((2, 2, 5, 5))
    n_train = int(train_frac * n_ex)
    p = tmp_path_factory.mktemp("rows") / "f.apkf"
    rows = fileio.create_features(p, 2, 2, 5, n_ex, n_train, DIGEST)
    with mock.patch.object(kernel, "FEATURE_BLOCK", chunk):
        want = compute_features(tokens, logits, Readout.token(1), n_train)
        written = compute_features(tokens, logits, Readout.token(1), n_train, out=rows)
    back, _ = fileio.read_features(p)
    a, b = sorted(end % (n_ex + 1) for end in ends)
    # any index list: the rows of numpy's own gather of the in-memory values,
    # value for value, in a C-order array of their own
    idx = rng.integers(-n_ex, n_ex, size=int(rng.integers(0, 9)))
    for feats in (want, written, back):
        got = feats.examples(np.arange(a, b))
        assert got.tobytes() == want.values[:, :, a:b].transpose(2, 0, 1).tobytes()
        assert np.asarray(feats.rows[a:b]).tobytes() == (
            want.values[:, :, a:b].transpose(2, 0, 1).tobytes())
        train = feats.train().values
        assert train.tobytes() == want.values[:, :, :n_train].tobytes()
        assert train.flags.c_contiguous
        got = feats.examples(idx)
        assert got.tobytes() == want.values[:, :, idx].transpose(2, 0, 1).tobytes()
        assert got.shape == (len(idx), 4, 5) and got.flags.c_contiguous
        assert not np.shares_memory(got, want.values)


def test_earlier_features_layout_is_rejected(tmp_path):
    # the earlier layout: magic APKF, header (H, L, width, P, n_train, norm, row
    # count), then the row count's flat path indices before the values
    values = np.random.default_rng(4).standard_normal((2, 3, 5))
    head = struct.pack("<4sI7Q", b"APKF", 1, 2, 2, 3, 5, 3, 4, 2) + bytes.fromhex(DIGEST)
    p = tmp_path / "old.apkf"
    p.write_bytes(head + np.array([3, 1], dtype=np.int64).tobytes() + values.tobytes())
    with pytest.raises(FormatError, match="bad magic b'APKF' at byte 0"):
        fileio.read_features(p)


def test_order_parameters_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    mats = []
    for size in (4, 2, 1):
        a = rng.standard_normal((size, size))
        mats.append(a @ a.T + size * np.eye(size))
    params = OrderParameterSet(matrices=mats, n_heads=2, depth=2)
    p = tmp_path / "u.apku"
    fileio.write_order_parameters(p, params, DIGEST)
    back, digest = fileio.read_order_parameters(p)
    assert digest == DIGEST
    assert back.n_heads == 2 and back.depth == 2
    for a, b in zip(back.matrices, params.matrices):
        assert np.array_equal(a, b)
    # a 56-byte header (magic, version, H, L, digest), then the levels
    assert p.stat().st_size == 56 + 8 * (16 + 4 + 1)


def test_earlier_order_parameter_layout_is_rejected(tmp_path):
    # the earlier layout: magic APKU, header (H, L, level count), then each
    # level's side before its values
    head = struct.pack("<4sI3Q", b"APKU", 1, 2, 1, 2) + bytes.fromhex(DIGEST)
    levels = (struct.pack("<Q", 2) + np.eye(2).tobytes()
              + struct.pack("<Q", 1) + np.eye(1).tobytes())
    p = tmp_path / "old.apku"
    p.write_bytes(head + levels)
    with pytest.raises(FormatError, match="bad magic b'APKU' at byte 0"):
        fileio.read_order_parameters(p)


def test_bad_magic_and_version_and_truncation(tmp_path):
    ds = _dataset()
    p = tmp_path / "d.apkd"
    fileio.write_dataset(p, ds, DIGEST)
    blob = bytearray(p.read_bytes())

    wrong = tmp_path / "wrong.apkd"
    wrong.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(FormatError, match="bad magic"):
        fileio.read_dataset(wrong)

    stale = tmp_path / "stale.apkd"
    stale.write_bytes(bytes(blob[:4]) + (99).to_bytes(4, "little") + bytes(blob[8:]))
    with pytest.raises(FormatError, match="unsupported version"):
        fileio.read_dataset(stale)

    cut_header = tmp_path / "cut1.apkd"
    cut_header.write_bytes(bytes(blob[:20]))
    with pytest.raises(FormatError, match="truncated header at byte 20"):
        fileio.read_dataset(cut_header)

    cut_payload = tmp_path / "cut2.apkd"
    cut_payload.write_bytes(bytes(blob[:-9]))
    with pytest.raises(FormatError, match="truncated payload"):
        fileio.read_dataset(cut_payload)


def test_every_truncated_format_names_a_byte_offset(tmp_path):
    rng = np.random.default_rng(7)
    params = OrderParameterSet(matrices=[np.eye(2), np.eye(1)], n_heads=2, depth=1)
    artifacts = [
        ("d.apkd", fileio.write_dataset, _dataset(), fileio.read_dataset),
        ("w.apkw", fileio.write_attention_specs, rng.standard_normal((2, 2, 3, 3)),
         fileio.read_attention_specs),
        ("f.apkf", _write_features, _features(rng), fileio.read_features),
        ("u.apku", fileio.write_order_parameters, params, fileio.read_order_parameters),
    ]
    for name, write, obj, read in artifacts:
        p = tmp_path / name
        write(p, obj, DIGEST)
        blob = p.read_bytes()
        # every cut: inside the header, the first payload byte, mid payload, one short
        for size in sorted({20, 80, len(blob) // 2, len(blob) - 9, len(blob) - 1}):
            cut = tmp_path / f"cut-{size}-{name}"
            cut.write_bytes(blob[:size])
            with pytest.raises(FormatError, match=rf"truncated .* at byte {size}\b"):
                read(cut)


def test_readers_reject_trailing_bytes(tmp_path):
    rng = np.random.default_rng(8)
    logits = rng.standard_normal((1, 2, 3, 3))
    params = OrderParameterSet(matrices=[np.eye(2), np.eye(1)], n_heads=2, depth=1)
    artifacts = [
        ("d.apkd", fileio.write_dataset, _dataset(), fileio.read_dataset),
        ("w.apkw", fileio.write_attention_specs, logits, fileio.read_attention_specs),
        ("f.apkf", _write_features, _features(rng), fileio.read_features),
        ("u.apku", fileio.write_order_parameters, params, fileio.read_order_parameters),
    ]
    for name, write, obj, read in artifacts:
        p = tmp_path / name
        write(p, obj, DIGEST)
        size = p.stat().st_size
        assert read(p)[1] == DIGEST
        with open(p, "ab") as fh:
            fh.write(b"garbage")
        with pytest.raises(FormatError, match=f"trailing bytes after the payload at byte {size}"):
            read(p)


def test_arrays_cross_the_file_boundary_without_a_bytes_copy(tmp_path):
    # a writer hands the array itself to the file, and read_features leaves
    # the rows there: neither holds a second copy of the payload, and a block
    # of examples is read into its own memory
    rng = np.random.default_rng(9)
    examples = rng.standard_normal((4096, 4, 64))  # (P, H^L, width)
    payload = examples.nbytes
    p = tmp_path / "f.apkf"
    tracemalloc.start()
    try:
        rows = fileio.create_features(p, 2, 2, 64, 4096, 96, DIGEST)
        rows[:] = examples
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back, _ = fileio.read_features(p)
        read_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        block = back.examples(np.arange(100, 164))
        block_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert write_peak <= 0.25 * payload
    assert read_peak <= 0.01 * payload
    assert block_peak <= 1.25 * block.nbytes + 64 * 1024
    assert np.array_equal(np.asarray(back.values), examples)
    assert np.array_equal(block, examples[100:164])
    assert block.flags.c_contiguous and block.flags.writeable and block.flags.owndata


def test_format_error_is_value_error():
    assert issubclass(FormatError, ValueError)
    assert ZERO_DIGEST == "0" * 64


def test_write_csv_digest_and_float_round_trip(tmp_path):
    p = tmp_path / "t.csv"
    values = [0.1 + 0.2, 1e-17, -3.5, 123456789.123456789]
    fileio.write_csv(p, DIGEST, ["i", "x"], [[i, v] for i, v in enumerate(values)])
    assert fileio.read_csv_digest(p) == DIGEST
    lines = p.read_text().splitlines()
    assert lines[0] == f"# config_digest={DIGEST}"
    assert lines[1] == "i,x"
    for line, want in zip(lines[2:], values):
        got = float(line.split(",")[1])
        assert got == want  # repr round-trips exactly
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    with pytest.raises(FormatError):
        fileio.read_csv_digest(bad)


def test_write_u1_csv_labels(tmp_path):
    u1 = np.arange(16, dtype=float).reshape(4, 4)
    p = tmp_path / "u1.csv"
    fileio.write_u1_csv(p, u1, n_heads=2, depth=2, digest=DIGEST)
    lines = p.read_text().splitlines()
    assert lines[1] == 'path,"(1,1)","(1,2)","(2,1)","(2,2)"'
    assert lines[2].startswith('"(1,1)",0.0,1.0,2.0,3.0')


def test_trace_and_predictor_and_score_csvs(tmp_path):
    trace = SolveTrace(actions=np.array([3.0, 2.0]), entropies=np.array([1.0, 1.5]),
                       energies=np.array([2.0, 0.5]), grad_norms=np.array([0.1, 0.01]),
                       converged=True, n_iter=2, n_eval=3)
    p = tmp_path / "trace.csv"
    fileio.write_trace_csv(p, trace, DIGEST)
    lines = p.read_text().splitlines()
    assert lines[1] == "iteration,action,entropy,energy,grad_norm"
    assert lines[2] == "0,3.0,1.0,2.0,0.1"
    assert len(lines) == 4

    # examples are dataset indices: here the test block of a dataset with n_train = 100
    p2 = tmp_path / "pred.csv"
    fileio.write_predictor_csv(p2, np.arange(100, 102), np.array([0.5, -0.25]),
                               np.array([0.1, 0.2]), np.array([1, -1], dtype=np.int8), DIGEST)
    lines2 = p2.read_text().splitlines()
    assert lines2[1] == "example,mean,variance,label"
    assert lines2[2:] == ["100,0.5,0.1,1", "101,-0.25,0.2,-1"]

    # scores of an (L, H) = (3, 2) grid; the second layer's total is zero
    scores = np.array([[1.0, 3.0], [0.0, 0.0], [2.5, 0.0]])
    p3 = tmp_path / "scores.csv"
    fileio.write_head_scores_csv(p3, scores, DIGEST)
    lines3 = p3.read_text().splitlines()
    assert lines3[1] == "layer,head,score,normalized"
    # layers and heads are rendered one-based, each score with its layer share
    assert lines3[2:] == ["1,1,1.0,0.25", "1,2,3.0,0.75", "2,1,0.0,0.0", "2,2,0.0,0.0",
                          "3,1,2.5,1.0", "3,2,0.0,0.0"]
    rng = np.random.default_rng(1)
    fileio.write_head_scores_csv(p3, rng.random((2, 3)), DIGEST)
    with open(p3) as fh:
        rows = list(csv.DictReader(fh.readlines()[1:]))
    for layer in ("1", "2"):
        shares = [float(r["normalized"]) for r in rows if r["layer"] == layer]
        assert len(shares) == 3 and min(shares) >= 0
        assert abs(sum(shares) - 1.0) <= 1e-12


def test_alignment_and_sweep_csvs(tmp_path):
    p = tmp_path / "align.csv"
    fileio.write_alignment_csv(p, [2.0, 1.0], [0.9, 0.1], DIGEST)
    lines = p.read_text().splitlines()
    assert lines[1] == "rank,eigenvalue,overlap"
    assert lines[2] == "0,2.0,0.9"

    from attnpaths.predictor import SweepResult
    result = SweepResult(best_temperature=0.1, best_accuracy=0.75, rows=[
        {"temperature": 0.1, "accuracy": 0.75, "converged": True, "error": ""},
        {"temperature": 0.5, "accuracy": None, "converged": False, "error": "diverged"},
    ])
    p2 = tmp_path / "sweep.csv"
    fileio.write_sweep_csv(p2, result, DIGEST)
    lines2 = p2.read_text().splitlines()
    assert lines2[1] == "temperature,accuracy,converged,error"
    assert lines2[2] == "0.1,0.75,True,"
    assert lines2[3] == "0.5,,False,diverged"


def test_write_json_stable(tmp_path):
    p = tmp_path / "x.json"
    fileio.write_json(p, {"b": 1, "a": [1.5]})
    text = p.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"a": [1.5], "b": 1}
    # keys are sorted, so semantically equal payloads are byte-identical
    p2 = tmp_path / "y.json"
    fileio.write_json(p2, {"a": [1.5], "b": 1})
    assert p.read_text() == p2.read_text()
