"""The sidecar ``<file>.tsr-index.npz`` that load_collection and
load_features keep beside their input: outputs never depend on it, and
one that is stale, damaged or cannot be written is ignored and
rewritten, or skipped with a warning."""

import errno
import io
import json
import logging
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import tsr.collection
from tsr import load_collection
from tsr.cli import main
from tsr.collection import SIDECAR, load_features
from tsr.textcore import write_arrays
from oracles import assert_same_collection
from test_cli import SMALL_GRID, ws  # noqa: F401 (ws is a fixture)

def outputs(ws, mode: str) -> dict[str, bytes]:
    """The outputs of pipeline, of retrieve then rerank, and of tune in
    mode, each run once over the ws inputs."""

    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    def at(*names):
        return [ws / name for name in names]

    inputs = ["--collection", *at("collection.tsv"), "--idf", *at("idf.txt"),
              "--kbest", *at("kbest.txt")]
    gate = {
        "txt": [],
        "cnn": ["--features", *at("features.tsv"), "--queries",
                *at("queries.tsv")],
        "hca": ["--queries", *at("queries.tsv")],
    }[mode]
    out = ws / "out"
    run("pipeline", *inputs, *gate, "--mode", mode, "--out-dir", out,
        "--diagnostics")
    run("retrieve", *inputs, *gate, "--mode", mode, "--out", out / "m.txt")
    run("rerank", *inputs, "--matches", out / "m.txt", "--out", out / "r.txt",
        "--diagnostics", out / "rd.txt")
    grid = {**SMALL_GRID, "mode": mode}
    (ws / "grid.json").write_text(json.dumps(grid), encoding="utf-8")
    run("tune", "--grid", ws / "grid.json", *inputs, *gate,
        "--references", ws / "refs.txt", "--trace-out", out / "trace.jsonl",
        "--best-out", out / "best.json")
    names = ["output.txt", "diagnostics.txt", "m.txt", "r.txt", "rd.txt",
             "trace.jsonl", "best.json"]
    return {name: (out / name).read_bytes() for name in names}


def no_space(member, header):
    """The npy header writer of textcore.write_arrays, running out of
    disk space partway through a sidecar."""
    member.write(b"\x93NUMPY partial")
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def inode(path: Path) -> int:
    return path.stat().st_ino


@pytest.mark.parametrize("mode", ["txt", "cnn", "hca"])
def test_outputs_do_not_depend_on_the_sidecar(ws, mode, monkeypatch, caplog):
    """Runs with no sidecar (every write fails), that write it, that
    adopt it, and that find it damaged and fail to rewrite it give the
    same bytes; a failed write leaves no file and warns."""
    sources = [ws / "collection.tsv"] + [ws / "features.tsv"] * (mode == "cnn")
    sidecars = [Path(f"{path}{SIDECAR}") for path in sources]
    before = sorted(os.listdir(ws))
    with monkeypatch.context() as patch, caplog.at_level(logging.WARNING):
        patch.setattr(np.lib.format, "write_array_header_1_0", no_space)
        unwritten = outputs(ws, mode)
    assert sorted(os.listdir(ws)) == sorted(before + ["grid.json", "out"])
    warned = [r.getMessage() for r in caplog.records]
    assert warned and all("sidecar not written" in m for m in warned)

    written = outputs(ws, mode)
    inodes = list(map(inode, sidecars))
    adopted = outputs(ws, mode)
    assert list(map(inode, sidecars)) == inodes

    for sidecar in sidecars:
        sidecar.write_bytes(sidecar.read_bytes()[:-100])
    with monkeypatch.context() as patch:
        patch.setattr(np.lib.format, "write_array_header_1_0", no_space)
        failed = outputs(ws, mode)
    assert unwritten == written == adopted == failed
    assert not [name for name in os.listdir(ws) if name.endswith(".tmp")]


COLLECTION = "".join(
    f"c{i}\timg{i // 3}\tw{i % 7} the {'dog' if i % 2 else 'cat'} w{i % 5}"
    f"{chr(9) + 'dog,person' if i % 3 else ''}\n"
    for i in range(40)
)


@pytest.fixture
def coll_path(tmp_path):
    path = tmp_path / "coll.tsv"
    path.write_text(COLLECTION, encoding="utf-8")
    return path


def parsed(path):
    """The collection at path by the text route, which keeps no sidecar."""
    return load_collection(path, skip_empty=True)


def assert_rewritten(path, damaged: int):
    """The load of path ignores its damaged sidecar, of that inode, and
    gives the text route's collection; a sidecar it writes in its place
    is adopted by the next load."""
    sidecar = Path(f"{path}{SIDECAR}")
    assert_same_collection(load_collection(path), parsed(path))
    written = inode(sidecar)
    assert written != damaged
    assert_same_collection(load_collection(path), parsed(path))
    assert inode(sidecar) == written


def stored(path) -> dict:
    with np.load(f"{path}{SIDECAR}") as npz:
        return dict(npz)


def restore(path, arrays: dict) -> int:
    """Write arrays, a well-formed npz, as path's sidecar; its inode."""
    sidecar = Path(f"{path}{SIDECAR}")
    np.savez(sidecar, **arrays)
    return inode(sidecar)


def test_edited_input_of_the_same_size_and_mtime(coll_path):
    load_collection(coll_path)
    sidecar = Path(f"{coll_path}{SIDECAR}")
    stat = coll_path.stat()
    coll_path.write_text(COLLECTION.replace("cat", "cow", 1), encoding="utf-8")
    os.utime(coll_path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert coll_path.stat().st_size == stat.st_size
    assert coll_path.stat().st_mtime_ns == stat.st_mtime_ns
    assert_rewritten(coll_path, inode(sidecar))
    assert "cow" in load_collection(coll_path).vocab


def test_sidecar_of_another_loader_source(coll_path, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(tsr.collection, "_loader_digest", lambda: bytes(32))
        load_collection(coll_path)
    sidecar = Path(f"{coll_path}{SIDECAR}")
    assert stored(coll_path)["key"][32:].tolist() == [0] * 32
    assert_rewritten(coll_path, inode(sidecar))


def npy_versions(sidecar: Path) -> set[bytes]:
    """The .npy format version bytes of every member of the sidecar."""
    with zipfile.ZipFile(sidecar) as archive:
        return {archive.read(name)[6:8] for name in archive.namelist()}


def test_sidecar_of_npy_format_2_0(coll_path, monkeypatch):
    """A sidecar under a matching key whose members have .npy 2.0
    headers, which write_arrays never writes, is refused and rewritten
    with 1.0 headers."""
    with monkeypatch.context() as patch:
        patch.setattr(
            np.lib.format, "write_array_header_1_0",
            np.lib.format.write_array_header_2_0,
        )
        load_collection(coll_path)
    sidecar = Path(f"{coll_path}{SIDECAR}")
    assert npy_versions(sidecar) == {bytes([2, 0])}
    key = tsr.collection._key(coll_path)
    assert np.array_equal(stored(coll_path)["key"], key)
    assert_rewritten(coll_path, inode(sidecar))
    assert npy_versions(sidecar) == {bytes([1, 0])}


def member_data_end(sidecar: Path, name: str) -> int:
    """The offset just past the stored bytes of one npz member."""
    with zipfile.ZipFile(sidecar) as archive:
        info = archive.getinfo(f"{name}.npy")
    local = sidecar.read_bytes()[info.header_offset:info.header_offset + 30]
    name_len, extra_len = np.frombuffer(local[26:30], "<u2").tolist()
    return info.header_offset + 30 + name_len + extra_len + info.compress_size


@pytest.mark.parametrize("damage", ["truncated", "flipped byte"])
def test_damaged_sidecar(coll_path, damage):
    load_collection(coll_path)
    sidecar = Path(f"{coll_path}{SIDECAR}")
    data = bytearray(sidecar.read_bytes())
    if damage == "truncated":
        data = data[:len(data) // 2]
    else:  # the last byte of the ids' blob: the member's CRC fails
        data[member_data_end(sidecar, "caption_ids") - 1] ^= 0x10
    sidecar.write_bytes(bytes(data))
    assert_rewritten(coll_path, inode(sidecar))


def test_any_damage_leaves_results_alone(coll_path):
    """Truncations and single-bit flips at spread positions: every load
    gives the text route's collection, and the next load adopts."""
    load_collection(coll_path)
    sidecar = Path(f"{coll_path}{SIDECAR}")
    good = sidecar.read_bytes()
    want = parsed(coll_path)
    rng = np.random.default_rng(7)
    for at in rng.integers(0, len(good), 60).tolist():
        flipped = bytearray(good)
        flipped[at] ^= 1 << int(rng.integers(8))
        for data in (good[:at], bytes(flipped)):
            sidecar.write_bytes(data)
            assert_same_collection(load_collection(coll_path), want)
            kept = inode(sidecar)
            assert_same_collection(load_collection(coll_path), want)
            assert inode(sidecar) == kept


def shorter(arrays):
    arrays["image_code"] = arrays["image_code"][:-1]


def emptied(arrays):
    """No caption, term or group, and no offsets either."""
    for name, array in arrays.items():
        if name != "key":
            arrays[name] = array[:int(name == "indptr")]


def term_out_of_range(arrays):
    arrays["indices"][0] = arrays["term_rank"].size


def unsorted_row(arrays):
    indptr, indices = arrays["indptr"], arrays["indices"]
    row = int(np.flatnonzero(np.diff(indptr) > 1)[0])
    start = indptr[row]
    indices[start:start + 2] = indices[start:start + 2][::-1].copy()


def rank_not_a_permutation(arrays):
    arrays["caption_rank"][0] = arrays["caption_rank"][1]


def repeated_id(arrays):
    ids = arrays["caption_ids"].tobytes().decode().split("\n")
    ids[1] = ids[0]
    arrays["caption_ids"] = np.frombuffer("\n".join(ids).encode(), np.uint8)


def rank_below_zero(name):
    """The entry n - 1 of the rank array name stored as -1: a permutation
    once wrapped, which only the range check of _sorts refuses."""

    def breach(arrays):
        rank = arrays[name]
        rank[rank == rank.size - 1] = -1

    breach.__name__ = f"{name}_below_zero"
    return breach


def rank_past_the_end(name):
    """An entry of the rank array name stored as n, one past the end."""

    def breach(arrays):
        arrays[name][0] = arrays[name].size

    breach.__name__ = f"{name}_past_the_end"
    return breach


def rank_of_another_dtype(arrays):
    """caption_rank stored as uint32: the same bytes as the int32 array,
    which only the layout check of the sidecar reader refuses."""
    arrays["caption_rank"] = arrays["caption_rank"].astype(np.uint32)


@pytest.mark.parametrize("breach", [
    shorter, emptied, term_out_of_range, unsorted_row, rank_not_a_permutation,
    repeated_id, rank_of_another_dtype,
    *(f(name) for f in (rank_below_zero, rank_past_the_end)
      for name in ("caption_rank", "term_rank")),
])
def test_sidecar_that_breaks_an_invariant(coll_path, breach):
    load_collection(coll_path)
    arrays = stored(coll_path)
    breach(arrays)
    assert_rewritten(coll_path, restore(coll_path, arrays))


@pytest.mark.parametrize("breach", ["non-finite", "repeated id", "row count"])
def test_feature_sidecar_that_fails_a_block_check(tmp_path, breach):
    path = tmp_path / "feats.tsv"
    path.write_text("i1\t0.5 1.5\ni2\t1.0 -2.0\ni3\t3.0 4.0\n")
    want = load_features(path)
    arrays = stored(path)
    if breach == "non-finite":
        arrays["matrix"][1, 0] = np.inf
    elif breach == "repeated id":
        arrays["ids"] = np.frombuffer(b"i1\ni2\ni1\n", np.uint8)
    else:
        arrays["matrix"] = arrays["matrix"][:2]
    damaged = restore(path, arrays)
    for _ in range(2):  # ignored and rewritten, then adopted
        feats = load_features(path)
        assert feats._row == want._row
        assert np.array_equal(feats.matrix, want.matrix)
    assert inode(Path(f"{path}{SIDECAR}")) != damaged


@pytest.mark.parametrize("load", [load_collection, load_features])
def test_failed_write_warns_once_and_leaves_no_file(
    tmp_path, monkeypatch, caplog, load
):
    path = tmp_path / "in.tsv"
    text = COLLECTION if load is load_collection else "i1\t1 2\ni2\t3 4\n"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(np.lib.format, "write_array_header_1_0", no_space)
    with caplog.at_level(logging.WARNING):
        load(path)
    assert os.listdir(tmp_path) == ["in.tsv"]
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", f"{path}{SIDECAR}: sidecar not written: [Errno"
         f" {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"),
    ]


def test_input_changed_during_the_parse_keeps_no_sidecar(
    coll_path, monkeypatch
):
    """A file rewritten while it is parsed gets no sidecar: it would
    hold the arrays of one content under the key of another."""
    read_columns = tsr.collection._read_columns

    def read_then_edit(path, skip_empty):
        columns = read_columns(path, skip_empty)
        coll_path.write_text(COLLECTION + "c99\timg0\tnew\n", encoding="utf-8")
        return columns

    monkeypatch.setattr(tsr.collection, "_read_columns", read_then_edit)
    assert len(load_collection(coll_path)) == 40
    assert not Path(f"{coll_path}{SIDECAR}").exists()
    monkeypatch.undo()
    assert len(load_collection(coll_path)) == 41


def test_skip_empty_neither_reads_nor_writes_a_sidecar(coll_path, tmp_path):
    """With skip_empty the file is parsed: no sidecar is written, and one
    that load_collection would adopt, here another file's arrays under
    this file's key, is not read."""
    assert_same_collection(parsed(coll_path), load_collection(coll_path))
    assert sorted(os.listdir(tmp_path)) == [
        coll_path.name, f"{coll_path.name}{SIDECAR}"
    ]
    other = tmp_path / "other.tsv"
    other.write_text("x1\ti\tanother caption\n", encoding="utf-8")
    load_collection(other)
    arrays = stored(other)
    arrays["key"] = stored(coll_path)["key"]
    restore(coll_path, arrays)
    assert load_collection(coll_path).caption_ids == ["x1"]
    assert len(load_collection(coll_path, skip_empty=True)) == 40
    os.remove(f"{coll_path}{SIDECAR}")
    parsed(coll_path)
    assert not Path(f"{coll_path}{SIDECAR}").exists()


def test_sidecar_loads_without_pickle(coll_path):
    """Every member is a plain array, read with allow_pickle=False."""
    load_collection(coll_path)
    with zipfile.ZipFile(f"{coll_path}{SIDECAR}") as archive:
        for name in archive.namelist():
            array = np.lib.format.read_array(
                io.BytesIO(archive.read(name)), allow_pickle=False
            )
            assert array.dtype != object


def test_a_pipe_is_parsed_once(tmp_path):
    """A collection read from a pipe, which cannot be read twice, is
    parsed and keeps no sidecar."""
    script = (
        "import sys; from tsr import load_collection;"
        " print(len(load_collection('/dev/stdin')))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", script], input=COLLECTION, text=True,
        capture_output=True, cwd=tmp_path, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "40\n", "")


def test_written_arrays_read_back_with_numpy(tmp_path):
    """write_arrays writes an npz that np.load reads back, without
    pickle, array for array: empty ones and a 2-D one too."""
    arrays = {
        "ids": np.frombuffer("a\nbé\n".encode(), np.uint8),
        "codes": np.arange(5, dtype=np.int32),
        "none": np.empty(0, np.int64),
        "matrix": np.arange(6, dtype=np.float32).reshape(2, 3),
        "no_rows": np.empty((0, 0), np.float32),
    }
    write_arrays(tmp_path / "a.npz", arrays)
    assert os.listdir(tmp_path) == ["a.npz"]
    with np.load(tmp_path / "a.npz", allow_pickle=False) as npz:
        assert sorted(npz.files) == sorted(arrays)
        for name, array in arrays.items():
            got = npz[name]
            assert (got.dtype, got.shape) == (array.dtype, array.shape)
            assert got.tobytes() == array.tobytes()
