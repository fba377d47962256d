import math

import numpy as np
import pytest

from tsr import IdfTable, build_idf
from tsr.textcore import read_token_lines


def test_build_idf_counts_documents_not_tokens():
    table = build_idf([["a", "a", "dog"], ["a", "cat"], ["dog"]])
    assert table.doc_count == 3
    assert table.df == {"a": 2, "dog": 2, "cat": 1}


def test_idf_formula():
    table = IdfTable(8, {"common": 8, "rare": 1, "mid": 2})
    assert table.idf("common") == 0.0
    assert table.idf("rare") == pytest.approx(math.log(8), rel=1e-15)
    assert table.idf("mid") == pytest.approx(math.log(4), rel=1e-15)


def test_unseen_term_gets_df_floor():
    table = build_idf([["a"], ["b"], ["c"]])
    assert table.idf("zebra") == pytest.approx(math.log(3), rel=1e-15)


def test_idf_nonnegative_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 500))
        df = {f"t{i}": int(rng.integers(1, n + 1)) for i in range(20)}
        table = IdfTable(n, df)
        for term in df:
            assert table.idf(term) >= 0.0


def test_build_idf_rejects_empty_corpus():
    with pytest.raises(ValueError):
        build_idf([])


def test_invalid_df_rejected():
    with pytest.raises(ValueError):
        IdfTable(5, {"a": 0})
    with pytest.raises(ValueError):
        IdfTable(5, {"a": 6})
    with pytest.raises(ValueError):
        IdfTable(0, {})


def test_save_load_round_trip(tmp_path):
    table = build_idf([["a", "dog"], ["a", "cat", "dog"], ["bird"]])
    path = tmp_path / "idf.txt"
    table.save(path)
    loaded = IdfTable.load(path)
    assert loaded == table
    assert loaded.idf("dog") == table.idf("dog")


def test_save_is_deterministic(tmp_path):
    table = build_idf([["b", "a"], ["c", "a"]])
    p1, p2 = tmp_path / "one.txt", tmp_path / "two.txt"
    table.save(p1)
    table.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("dog\t3\n")
    with pytest.raises(ValueError, match="header"):
        IdfTable.load(path)


def test_load_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("N=3\ndog 3\n")
    with pytest.raises(ValueError, match="2"):
        IdfTable.load(path)
    path.write_text("N=3\ndog\tthree\n")
    with pytest.raises(ValueError, match="non-integer"):
        IdfTable.load(path)
    path.write_text("N=3\ncat\t1\ndog\t1\ndog\t2\n")
    with pytest.raises(ValueError, match="bad.txt:4: repeated term 'dog'"):
        IdfTable.load(path)


def test_split_tokens(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a  dog\truns \n")
    assert list(read_token_lines(path)) == [["a", "dog", "runs"]]


def test_read_token_lines(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a dog\nthe cat sat\n")
    assert list(read_token_lines(path)) == [["a", "dog"], ["the", "cat", "sat"]]
