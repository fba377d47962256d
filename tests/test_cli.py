import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tsr
from tsr import CaptionDoc
from tsr.cli import _PIPELINE_KEYS, build_parser, main


CORPUS = (
    "a man rides a horse\n"
    "the dog runs\n"
    "the man walks\n"
    "the horse eats\n"
)

COLLECTION = (
    "c1\ti1\ta man rides a horse\tperson,horse\n"
    "c2\ti1\ta rider on a brown horse\tperson,horse\n"
    "c3\ti2\tthe dog runs across a field\tdog\n"
    "c4\ti3\ta man walks the dog\tperson,dog\n"
)

FEATURES = (
    "i1\t0.0 0.0\n"
    "i2\t3.0 4.0\n"
    "i3\t60.0 80.0\n"
)

KBEST = (
    "s1 ||| a man rides a horse ||| -1.0\n"
    "s1 ||| the man rides a horse ||| -1.5\n"
    "s2 ||| the dog runs ||| -2.0\n"
    "s2 ||| a dog runs ||| -2.25\n"
)

QUERIES = "s1\ti1\tperson,horse\ns2\ti2\tdog\n"

REFS_KEYED = "s1 ||| a man rides a horse\ns2 ||| a dog runs\n"

SMALL_GRID = {"k_n": [1, 2], "k_m": [2], "k_r": [2], "interp_weight": [0.0]}


@pytest.fixture
def ws(tmp_path):
    (tmp_path / "corpus.txt").write_text(CORPUS, encoding="utf-8")
    (tmp_path / "collection.tsv").write_text(COLLECTION, encoding="utf-8")
    (tmp_path / "features.tsv").write_text(FEATURES, encoding="utf-8")
    (tmp_path / "kbest.txt").write_text(KBEST, encoding="utf-8")
    (tmp_path / "queries.tsv").write_text(QUERIES, encoding="utf-8")
    (tmp_path / "refs.txt").write_text(REFS_KEYED, encoding="utf-8")
    main(
        [
            "extract-idf",
            str(tmp_path / "corpus.txt"),
            str(tmp_path / "idf.txt"),
        ]
    )
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


class TestExtractIdf:
    def test_reports_counts(self, ws, capsys):
        assert run("extract-idf", ws / "corpus.txt", ws / "idf2.txt") == 0
        out = capsys.readouterr().out
        assert "documents: 4" in out

    def test_rerun_is_byte_identical(self, ws):
        run("extract-idf", ws / "corpus.txt", ws / "a.txt")
        run("extract-idf", ws / "corpus.txt", ws / "b.txt")
        assert (ws / "a.txt").read_bytes() == (ws / "b.txt").read_bytes()

    def test_missing_corpus_exits_nonzero(self, ws, capsys):
        assert run("extract-idf", ws / "nope.txt", ws / "x.txt") == 1
        assert "error:" in capsys.readouterr().err


class TestBuildIndex:
    def test_round_trip(self, ws, capsys):
        assert run("build-index", ws / "collection.tsv", ws / "index.tsv") == 0
        out = capsys.readouterr().out
        assert "captions: 4" in out
        assert "images: 3" in out
        # normalized output reloads to the same collection
        assert run("build-index", ws / "index.tsv", ws / "index2.tsv") == 0
        assert (ws / "index.tsv").read_bytes() == (ws / "index2.tsv").read_bytes()

    def test_output_may_be_its_own_input(self, ws):
        """build-index x.tsv x.tsv leaves x.tsv's normal form in its place
        and no temporary file."""
        folder = ws / "in-place"
        folder.mkdir()
        path = folder / "x.tsv"
        path.write_text(
            "c2\ti1\t a  man\u3000rides \tperson,,horse,person\n"
            "\n"
            "c1\ti2\tthe dog\t,\n"
            "c3\ti2\t \tdog\n",
            encoding="utf-8",
        )
        assert run("build-index", path, path, "--skip-empty") == 0
        assert path.read_text(encoding="utf-8") == (
            "c2\ti1\ta man rides\thorse,person\n"
            "c1\ti2\tthe dog\n"
        )
        assert os.listdir(folder) == ["x.tsv"]

    def test_empty_caption_fails_without_skip(self, ws, capsys):
        bad = ws / "bad.tsv"
        bad.write_text(COLLECTION + "c9\ti9\t\n", encoding="utf-8")
        assert run("build-index", bad, ws / "x.tsv") == 1
        assert "error:" in capsys.readouterr().err
        assert run("build-index", bad, ws / "x.tsv", "--skip-empty") == 0

    def test_skipped_caption_is_warned_on_stderr(self, ws):
        """The one log line: a fresh process prints it at the default
        WARNING level. -v is no flag."""
        bad = ws / "bad.tsv"
        bad.write_text(COLLECTION + "c9\ti9\t\n", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tsr.__file__).parents[1]))

        def tsr_cli(*argv):
            return subprocess.run(
                [sys.executable, "-m", "tsr.cli", *map(str, argv)],
                capture_output=True, text=True, env=env, timeout=120,
            )

        proc = tsr_cli("build-index", bad, ws / "x.tsv", "--skip-empty")
        assert proc.returncode == 0
        assert proc.stdout == "captions: 4\nimages: 3\nterms: 13\n"
        assert proc.stderr == (
            f"WARNING tsr.collection: {bad}:5: skipping empty caption 'c9'\n"
        )
        proc = tsr_cli("-v", "build-index", bad, ws / "y.tsv", "--skip-empty")
        assert proc.returncode == 2
        assert "unrecognized arguments: -v" in proc.stderr
        assert not (ws / "y.tsv").exists()


class TestRetrieveRerank:
    def retrieve(self, ws, *extra):
        return run(
            "retrieve",
            "--collection", ws / "collection.tsv",
            "--idf", ws / "idf.txt",
            "--kbest", ws / "kbest.txt",
            "--out", ws / "matches.txt",
            *extra,
        )

    def test_txt_retrieve_writes_dump(self, ws, capsys):
        assert self.retrieve(ws) == 0
        out = capsys.readouterr().out
        assert "sentences: 2" in out
        assert "fallbacks: 0 / 2" in out
        lines = (ws / "matches.txt").read_text().splitlines()
        assert all(" ||| " in line for line in lines)
        assert any(line.startswith("s1 ||| ") for line in lines)

    def test_cnn_requires_features(self, ws, capsys):
        assert self.retrieve(ws, "--mode", "cnn") == 1
        assert "features" in capsys.readouterr().err

    def test_cnn_with_features_and_queries(self, ws, capsys):
        assert (
            self.retrieve(
                ws,
                "--mode", "cnn",
                "--features", ws / "features.tsv",
                "--queries", ws / "queries.tsv",
            )
            == 0
        )
        assert "sentences: 2" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, ws):
        self.retrieve(ws)
        first = (ws / "matches.txt").read_bytes()
        self.retrieve(ws)
        assert (ws / "matches.txt").read_bytes() == first

    def test_rerank_over_dump(self, ws, capsys):
        self.retrieve(ws)
        assert (
            run(
                "rerank",
                "--collection", ws / "collection.tsv",
                "--idf", ws / "idf.txt",
                "--kbest", ws / "kbest.txt",
                "--matches", ws / "matches.txt",
                "--out", ws / "output.txt",
                "--diagnostics", ws / "diag.txt",
            )
            == 0
        )
        out_lines = (ws / "output.txt").read_text().splitlines()
        assert len(out_lines) == 2
        assert out_lines[0].startswith("s1 ||| ")
        diag_lines = (ws / "diag.txt").read_text().splitlines()
        assert len(diag_lines) == 2

    def assert_rerank_rejects_dump(self, ws, capsys, dump, found):
        assert (
            run(
                "rerank",
                "--collection", ws / "collection.tsv",
                "--idf", ws / "idf.txt",
                "--kbest", ws / "kbest.txt",
                "--matches", dump,
                "--out", ws / "output.txt",
            )
            == 1
        )
        kbest = ws / "kbest.txt"
        assert capsys.readouterr().err == (
            f"error: {dump}: sent_ids do not match {kbest}: {found}\n"
        )
        assert not (ws / "output.txt").exists()

    def test_rerank_rejects_sentence_missing_from_dump(self, ws, capsys):
        self.retrieve(ws)
        dump = ws / "matches.txt"
        lines = dump.read_text().splitlines(keepends=True)
        dump.write_text(
            "".join(line for line in lines if not line.startswith("s2 ")),
            encoding="utf-8",
        )
        self.assert_rerank_rejects_dump(ws, capsys, dump, "missing s2")

    def test_rerank_rejects_sentence_the_kbest_lacks(self, ws, capsys):
        # the dump is joined by the rule references are: exactly the
        # k-best's sent_ids, none left over
        self.retrieve(ws)
        dump = ws / "matches.txt"
        with dump.open("a", encoding="utf-8") as handle:
            handle.write("s3 ||| c1 ||| 1.0 ||| 0\n")
        self.assert_rerank_rejects_dump(ws, capsys, dump, "extra s3")

    def test_padded_sent_id_in_dump_still_matches(self, ws):
        # sent_ids are compared without surrounding whitespace
        self.retrieve(ws)
        dump = ws / "matches.txt"
        padded = ws / "padded.txt"
        padded.write_text(
            "".join(
                " " + line.replace(" ||| ", "  ||| ", 1)
                for line in dump.read_text().splitlines(keepends=True)
            ),
            encoding="utf-8",
        )
        for matches, out in ((dump, "clean.txt"), (padded, "padded_out.txt")):
            assert run(
                "rerank",
                "--collection", ws / "collection.tsv",
                "--idf", ws / "idf.txt",
                "--kbest", ws / "kbest.txt",
                "--matches", matches,
                "--out", ws / out,
            ) == 0
        assert (ws / "padded_out.txt").read_bytes() == (
            ws / "clean.txt"
        ).read_bytes()

    def test_padded_sent_id_in_queries_still_matches(self, ws, capsys):
        padded = ws / "padded.tsv"
        padded.write_text("s1 \ti1\n s2\ti2\n", encoding="utf-8")
        cnn = ("--mode", "cnn", "--features", ws / "features.tsv")
        assert self.retrieve(ws, *cnn, "--queries", padded) == 0
        assert "fallbacks: 0 / 2" in capsys.readouterr().out

    def assert_two_stage_equals_pipeline(
        self, ws, collection, retrieve_args=(), rerank_args=()
    ):
        inputs = (
            "--collection", collection,
            "--idf", ws / "idf.txt",
            "--kbest", ws / "kbest.txt",
        )
        assert run("retrieve", *inputs, "--out", ws / "matches.txt",
                   *retrieve_args) == 0
        assert run("rerank", *inputs, "--matches", ws / "matches.txt",
                   "--out", ws / "two_stage.txt", *rerank_args) == 0
        assert run("pipeline", *inputs, "--out-dir", ws / "pipe",
                   *retrieve_args, *rerank_args) == 0
        assert (ws / "two_stage.txt").read_bytes() == (
            ws / "pipe" / "output.txt"
        ).read_bytes()

    def test_two_stage_equals_pipeline(self, ws):
        self.assert_two_stage_equals_pipeline(
            ws,
            ws / "collection.tsv",
            ("--k-n", "2", "--k-m", "3"),
            ("--k-r", "2", "--interp-weight", "10.0"),
        )

    def test_two_stage_equals_pipeline_with_caption_id_dash(self, ws):
        # "-" is a valid caption id; only "- ||| 0.0" is the empty-list
        # placeholder of a match dump
        dashed = ws / "dashed.tsv"
        dashed.write_text(
            "-\ti1\ta man rides a horse\nc2\ti2\tthe dog runs\n",
            encoding="utf-8",
        )
        self.assert_two_stage_equals_pipeline(ws, dashed)
        assert "s1 ||| - ||| " in (ws / "matches.txt").read_text()

    def test_stages_make_no_caption_docs(self, ws, monkeypatch):
        # matches are collection rows from retrieval to the written dump
        def refuse(doc):
            raise AssertionError(f"CaptionDoc made for {doc.caption_id!r}")

        monkeypatch.setattr(CaptionDoc, "__post_init__", refuse)
        self.assert_two_stage_equals_pipeline(ws, ws / "collection.tsv")

    def test_caption_id_a_dump_cannot_hold_fails_retrieve(self, ws, capsys):
        # the id would split its dump line into five fields, which rerank
        # could not read back; pipeline writes no dump and is unaffected
        odd = ws / "odd.tsv"
        odd.write_text("c ||| 1\ti1\ta man rides a horse\n", encoding="utf-8")
        inputs = (
            "--collection", odd,
            "--idf", ws / "idf.txt",
            "--kbest", ws / "kbest.txt",
        )
        assert run("retrieve", *inputs, "--out", ws / "m.txt") == 1
        assert "'c ||| 1'" in capsys.readouterr().err
        assert list(ws.glob("m.txt*")) == []
        assert run("pipeline", *inputs, "--out-dir", ws / "pipe") == 0

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_checked_before_loading(self, ws, capsys, workers):
        argv = (
            "retrieve",
            "--collection", ws / "missing.tsv",
            "--idf", ws / "idf.txt",
            "--kbest", ws / "kbest.txt",
            "--out", ws / "m.txt",
            "--workers", workers,
        )
        assert run(*argv) == 1
        assert capsys.readouterr().err == (
            f"error: workers must be a positive integer, got {workers}\n"
        )
        assert not (ws / "m.txt").exists()


class TestPipeline:
    def pipeline(self, ws, out="pipe", *extra):
        return run(
            "pipeline",
            "--collection", ws / "collection.tsv",
            "--idf", ws / "idf.txt",
            "--kbest", ws / "kbest.txt",
            "--out-dir", ws / out,
            *extra,
        )

    def test_zero_weight_keeps_decoder_best(self, ws):
        assert self.pipeline(ws, "pipe", "--interp-weight", "0") == 0
        lines = (ws / "pipe" / "output.txt").read_text().splitlines()
        assert lines == [
            "s1 ||| a man rides a horse",
            "s2 ||| the dog runs",
        ]

    def test_txt_mode_never_reads_features(self, ws):
        # point --features at a nonexistent path: txt mode must not open it
        assert (
            self.pipeline(ws, "pipe", "--features", str(ws / "missing.tsv"))
            == 0
        )

    def test_writes_config_and_report(self, ws, capsys):
        assert (
            self.pipeline(
                ws, "pipe", "--references", str(ws / "refs.txt"),
                "--diagnostics",
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "BLEU:" in out
        cfg = json.loads((ws / "pipe" / "config.json").read_text())
        assert cfg["k_n"] == 300 and cfg["k_m"] == 500
        assert cfg["k_r"] == 5 and cfg["interp_weight"] == 5e4
        report = (ws / "pipe" / "report.txt").read_text()
        assert "sentences: 2" in report
        assert "BLEU:" in report
        assert (ws / "pipe" / "diagnostics.txt").exists()

    def test_config_file_with_flag_override(self, ws):
        cfg_path = ws / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "collection": str(ws / "collection.tsv"),
                    "idf": str(ws / "idf.txt"),
                    "kbest": str(ws / "kbest.txt"),
                    "out_dir": str(ws / "from_cfg"),
                    "interp_weight": 0.0,
                }
            ),
            encoding="utf-8",
        )
        assert run("pipeline", "--config", cfg_path) == 0
        resolved = json.loads((ws / "from_cfg" / "config.json").read_text())
        assert resolved["interp_weight"] == 0.0
        # flag beats config field
        assert (
            run(
                "pipeline",
                "--config", cfg_path,
                "--out-dir", ws / "overridden",
                "--interp-weight", "7.5",
            )
            == 0
        )
        resolved = json.loads((ws / "overridden" / "config.json").read_text())
        assert resolved["interp_weight"] == 7.5

    def test_unknown_config_key_rejected(self, ws, capsys):
        cfg_path = ws / "cfg.json"
        cfg_path.write_text(json.dumps({"weight": 1.0}), encoding="utf-8")
        assert run("pipeline", "--config", cfg_path) == 1
        assert "unknown config keys: weight" in capsys.readouterr().err

    def test_missing_required_key_rejected(self, ws, capsys):
        assert (
            run(
                "pipeline",
                "--collection", ws / "collection.tsv",
                "--idf", ws / "idf.txt",
                "--kbest", ws / "kbest.txt",
            )
            == 1
        )
        assert "out_dir" in capsys.readouterr().err

    def test_cnn_mode_requires_features(self, ws, capsys):
        assert self.pipeline(ws, "pipe", "--mode", "cnn") == 1
        assert "features" in capsys.readouterr().err

    def test_hca_mode_requires_categories(self, ws, capsys):
        bare = ws / "bare.tsv"
        bare.write_text(
            "c1\ti1\ta man rides a horse\n", encoding="utf-8"
        )
        grid = ws / "grid.json"
        grid.write_text(
            json.dumps({"mode": "hca", "k_n": [1], "k_m": [1], "k_r": [1],
                        "interp_weight": [0.0]}),
            encoding="utf-8",
        )
        inputs = (
            "--collection", bare,
            "--idf", ws / "idf.txt",
            "--kbest", ws / "kbest.txt",
            "--queries", ws / "queries.tsv",
        )
        for argv in (
            ("pipeline", *inputs, "--out-dir", ws / "pipe", "--mode", "hca"),
            ("retrieve", *inputs, "--out", ws / "m.txt", "--mode", "hca"),
            ("tune", *inputs, "--grid", grid,
             "--references", ws / "refs.txt"),
        ):
            assert run(*argv) == 1, argv[0]
            assert "hca mode requires category annotations" in (
                capsys.readouterr().err
            )
        assert not (ws / "m.txt").exists()

    def test_hca_mode_flips_to_annotated_caption(self, ws):
        assert (
            self.pipeline(
                ws, "hca_run",
                "--mode", "hca",
                "--queries", str(ws / "queries.tsv"),
                "--interp-weight", "1000000",
                "--k-r", "2",
            )
            == 0
        )
        lines = (ws / "hca_run" / "output.txt").read_text().splitlines()
        assert lines[1] == "s2 ||| a dog runs"

    def test_rerun_is_byte_identical(self, ws):
        self.pipeline(ws, "one", "--references", str(ws / "refs.txt"))
        self.pipeline(ws, "two", "--references", str(ws / "refs.txt"))
        for name in ("output.txt", "report.txt"):
            assert (ws / "one" / name).read_bytes() == (
                ws / "two" / name
            ).read_bytes()

    @pytest.mark.parametrize(
        "refs, message",
        [
            (None, "No such file"),
            ("s1 ||| a man\n", "kbest.txt: missing s2"),
            ("a man\n", "refs.txt: 1 sentences, expected 2 as in"),
            (
                REFS_KEYED + "s1 ||| a man\n",
                "refs.txt:3: duplicate sent_id 's1'",
            ),
        ],
        ids=[
            "missing-file", "missing-sentence", "plain-count", "duplicate-id"
        ],
    )
    def test_bad_references_rejected_before_scoring(
        self, ws, capsys, refs, message
    ):
        path = ws / "bad" / "refs.txt"
        if refs is not None:
            path.parent.mkdir()
            path.write_text(refs, encoding="utf-8")
        assert self.pipeline(ws, "pipe", "--references", path) == 1
        assert message in capsys.readouterr().err
        assert not (ws / "pipe").exists()

    def test_references_with_an_extra_sentence_fail_as_in_evaluate(
        self, ws, capsys
    ):
        """pipeline, tune and evaluate align references by one rule, so
        a references file holding a sent_id the k-best lacks fails all
        three, naming the file."""
        kbest = ws / "one.txt"
        kbest.write_text(KBEST.splitlines(True)[0], encoding="utf-8")
        output = ws / "output.txt"
        output.write_text("s1 ||| a man rides a horse\n", encoding="utf-8")
        refs = ws / "refs.txt"  # s1 and s2
        grid = ws / "grid.json"
        grid.write_text(json.dumps(SMALL_GRID), encoding="utf-8")
        inputs = ("--collection", ws / "collection.tsv",
                  "--idf", ws / "idf.txt", "--kbest", kbest)
        for argv, base in [
            (("pipeline", *inputs, "--out-dir", ws / "pipe",
              "--references", refs), kbest),
            (("tune", *inputs, "--grid", grid, "--references", refs), kbest),
            (("evaluate", output, refs), output),
        ]:
            assert run(*argv) == 1, argv[0]
            assert capsys.readouterr().err == (
                f"error: {refs}: sent_ids do not match {base}: extra s2\n"
            )
        assert not (ws / "pipe").exists()

    @pytest.mark.parametrize(
        "name, mode, lineno, fault",
        [
            ("kbest.txt", "txt", 4, "s2 ||| a dog runs ||| x"),
            ("features.tsv", "cnn", 3, "i3\t60.0 inf"),
        ],
        ids=["kbest-last-line", "features-last-line"],
    )
    def test_failed_run_leaves_earlier_outputs_whole(
        self, ws, capsys, name, mode, lineno, fault
    ):
        args = (
            "--mode", mode,
            "--features", ws / "features.tsv",
            "--queries", ws / "queries.tsv",
            "--references", ws / "refs.txt",
            "--diagnostics",
        )
        outputs = ("output.txt", "diagnostics.txt", "config.json", "report.txt")
        assert self.pipeline(ws, "pipe", *args) == 0
        before = {out: (ws / "pipe" / out).read_bytes() for out in outputs}
        bad = ws / "bad" / name
        bad.parent.mkdir()
        lines = (ws / name).read_text().splitlines()
        bad.write_text("\n".join(lines[:-1] + [fault]) + "\n")
        flag = "--" + name.split(".")[0]  # the last --kbest/--features wins
        capsys.readouterr()
        assert self.pipeline(ws, "pipe", *args, flag, bad) == 1
        assert f"error: {bad}:{lineno}: " in capsys.readouterr().err
        assert {
            out: (ws / "pipe" / out).read_bytes() for out in outputs
        } == before
        assert sorted(p.name for p in (ws / "pipe").iterdir()) == sorted(
            outputs
        )

    def test_worker_count_does_not_change_output(self, ws):
        self.pipeline(ws, "w1", "--workers", "1")
        self.pipeline(ws, "w4", "--workers", "4")
        assert (ws / "w1" / "output.txt").read_bytes() == (
            ws / "w4" / "output.txt"
        ).read_bytes()


class TestEvaluateCompare:
    def test_evaluate_perfect_match(self, ws, capsys):
        hyp = ws / "hyp.txt"
        hyp.write_text(
            "s1 ||| a man rides a horse\ns2 ||| a dog runs\n",
            encoding="utf-8",
        )
        assert run("evaluate", hyp, ws / "refs.txt") == 0
        out = capsys.readouterr().out
        assert "BLEU: 100.00 (1.000000)" in out

    def test_compare_identical_systems(self, ws, capsys):
        hyp = ws / "hyp.txt"
        hyp.write_text(
            "s1 ||| a man rides a horse\ns2 ||| a dog runs\n",
            encoding="utf-8",
        )
        assert (
            run("compare", hyp, hyp, ws / "refs.txt", "--trials", "50") == 0
        )
        out = capsys.readouterr().out
        assert "p-value: 1.000000" in out
        assert "diff: 0.00" in out

    def test_compare_misaligned_exits_nonzero(self, ws, capsys):
        a = ws / "a.txt"
        b = ws / "b.txt"
        a.write_text("s1 ||| x\ns2 ||| y\n", encoding="utf-8")
        b.write_text("s1 ||| x\ns3 ||| y\n", encoding="utf-8")
        assert run("compare", a, b, ws / "refs.txt") == 1
        assert "error:" in capsys.readouterr().err

    def test_compare_seed_reproducible(self, ws, capsys):
        a = ws / "a.txt"
        b = ws / "b.txt"
        ref = ws / "r.txt"
        a.write_text("a man rides a horse\nthe dog runs fast\n", encoding="utf-8")
        b.write_text("a man rides the horse\na dog runs quick\n", encoding="utf-8")
        ref.write_text("a man rides a horse\nthe dog runs quick\n", encoding="utf-8")
        run("compare", a, b, ref, "--trials", "200", "--seed", "5")
        first = capsys.readouterr().out
        run("compare", a, b, ref, "--trials", "200", "--seed", "5")
        assert capsys.readouterr().out == first

    def test_compare_and_evaluate_run_without_scipy(self, ws):
        # scipy builds the index; these two commands build none.
        a, b, ref = ws / "a.txt", ws / "b.txt", ws / "r.txt"
        a.write_text("a man rides a horse\nthe dog runs fast\n", encoding="utf-8")
        b.write_text("a man rides the horse\na dog runs quick\n", encoding="utf-8")
        ref.write_text("a man rides a horse\nthe dog runs quick\n", encoding="utf-8")
        script = (
            "import sys\n"
            "if sys.argv[1] == 'blocked':\n"
            "    sys.modules['scipy'] = None\n"
            "import tsr.cli\n"
            "if sys.argv[1] == 'open':\n"
            "    assert 'scipy' not in sys.modules\n"
            "sys.exit(tsr.cli.main(sys.argv[2:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(tsr.__file__).parents[1]))

        def stdout(scipy, *argv):
            proc = subprocess.run(
                [sys.executable, "-c", script, scipy, *map(str, argv)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        for argv in (
            ("compare", a, b, ref, "--trials", "300", "--seed", "3"),
            ("evaluate", a, ref),
        ):
            blocked = stdout("blocked", *argv)
            assert "BLEU" in blocked and blocked == stdout("open", *argv)


class TestTune:
    def tune(self, ws, grid, *extra, collection=None):
        path = ws / "grid.json"
        path.write_text(json.dumps(grid), encoding="utf-8")
        return run(
            "tune",
            "--grid", path,
            "--collection", collection or ws / "collection.tsv",
            "--idf", ws / "idf.txt",
            "--kbest", ws / "kbest.txt",
            "--references", ws / "refs.txt",
            *extra,
        )

    def test_end_to_end(self, ws, capsys):
        grid = {
            "k_n": [1, 2],
            "k_m": [1, 2],
            "k_r": [2],
            "interp_weight": [0.0, 1000.0],
        }
        assert (
            self.tune(
                ws, grid,
                "--trace-out", ws / "trace.jsonl",
                "--best-out", ws / "best.json",
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "evaluated points: 7" in out
        trace = [
            json.loads(line)
            for line in (ws / "trace.jsonl").read_text().splitlines()
        ]
        assert len(trace) == 7
        assert all("bleu" in rec and "k_n" in rec for rec in trace)
        best = json.loads((ws / "best.json").read_text())
        assert best["bleu"] == max(rec["bleu"] for rec in trace)
        assert best["mode"] == "txt"

    def test_unknown_grid_key_rejected(self, ws, capsys):
        grid = {"k_n": [1], "k_m": [1], "k_r": [1], "interp_weight": [0.0],
                "cutoff": [1.0]}
        assert self.tune(ws, grid) == 1
        assert "unknown grid keys: cutoff" in capsys.readouterr().err

    def test_missing_grid_list_rejected(self, ws, capsys):
        assert self.tune(ws, {"k_n": [1], "k_m": [1], "k_r": [1]}) == 1
        assert "interp_weight" in capsys.readouterr().err

    def test_unknown_mode_rejected_before_loading(self, ws, capsys):
        grid = {"mode": "foo", **SMALL_GRID}
        assert self.tune(ws, grid, collection=ws / "missing.tsv") == 1
        err = capsys.readouterr().err
        assert "unknown mode 'foo'" in err and "missing.tsv" not in err

    def test_cnn_without_features_rejected_before_loading(self, ws, capsys):
        grid = {"mode": "cnn", **SMALL_GRID}
        assert self.tune(ws, grid, collection=ws / "missing.tsv") == 1
        err = capsys.readouterr().err
        assert "features" in err and "missing.tsv" not in err

    def test_duplicate_reference_ids_rejected(self, ws, capsys):
        refs = ws / "refs.txt"
        refs.write_text(REFS_KEYED + "s1 ||| a man\n", encoding="utf-8")
        assert self.tune(ws, SMALL_GRID, "--best-out", ws / "best.json") == 1
        assert f"{refs}:3: duplicate sent_id 's1'" in capsys.readouterr().err
        assert not (ws / "best.json").exists()

    def test_txt_mode_never_reads_features(self, ws):
        bad = ws / "bad_features.tsv"
        bad.write_text("i1\tnot numbers\n", encoding="utf-8")
        assert self.tune(ws, SMALL_GRID, "--best-out", ws / "plain.json") == 0
        assert (
            self.tune(
                ws, SMALL_GRID, "--features", bad, "--best-out", ws / "bad.json"
            )
            == 0
        )
        assert (ws / "bad.json").read_bytes() == (ws / "plain.json").read_bytes()


COUNT = "must be a positive integer, got"
WEIGHT = "must be a finite non-negative number, got"
CUTOFF = "must be positive, got"


ROUTE_CASES = [
    ("flag", "k_n", "0", f"k_n {COUNT} 0"),
    ("flag", "k_m", "-2", f"k_m {COUNT} -2"),
    ("flag", "k_r", "0", f"k_r {COUNT} 0"),
    ("flag", "interp_weight", "nan", f"interp_weight {WEIGHT} nan"),
    ("flag", "distance_weight", "nan", f"distance_weight {WEIGHT} nan"),
    ("flag", "distance_cutoff", "nan", f"distance_cutoff {CUTOFF} nan"),
    ("config", "k_n", 2.5, f"k_n {COUNT} 2.5"),
    ("config", "k_m", "3", f"k_m {COUNT} '3'"),
    ("config", "k_r", True, f"k_r {COUNT} True"),
    # "inf" spells no cutoff in JSON, and only for distance_cutoff
    ("config", "interp_weight", "inf", f"interp_weight {WEIGHT} 'inf'"),
    ("config", "distance_weight", -1, f"distance_weight {WEIGHT} -1"),
    ("config", "distance_cutoff", 0, f"distance_cutoff {CUTOFF} 0"),
    ("grid", "k_n", 1.5, f"k_n {COUNT} 1.5"),
    ("grid", "k_n", "3", f"k_n {COUNT} '3'"),
    ("grid", "k_m", True, f"k_m {COUNT} True"),
    ("grid", "k_r", 0, f"k_r {COUNT} 0"),
    ("grid", "interp_weight", "nan", f"interp_weight {WEIGHT} 'nan'"),
    ("grid", "distance_cutoff", 0, f"distance_cutoff {CUTOFF} 0"),
    ("bare grid value", "k_n", 3, "k_n must be a list of candidates, got 3"),
    ("bare grid value", "distance_weight", "x",
     f"distance_weight {WEIGHT} 'x'"),
]


@pytest.mark.parametrize(
    "route, field, value, message",
    ROUTE_CASES,
    ids=[f"{route}-{field}-{value}" for route, field, value, _ in ROUTE_CASES],
)
def test_bad_parameter_named_on_every_route(
    ws, capsys, route, field, value, message
):
    inputs = (
        "--collection", ws / "collection.tsv",
        "--idf", ws / "idf.txt",
        "--kbest", ws / "kbest.txt",
    )
    if route == "flag":
        flag = "--" + field.replace("_", "-")
        argv = ("pipeline", *inputs, "--out-dir", ws / "out", flag, value)
    elif route == "config":
        cfg = ws / "cfg.json"
        cfg.write_text(json.dumps({field: value}), encoding="utf-8")
        argv = ("pipeline", "--config", cfg, *inputs, "--out-dir", ws / "out")
    else:
        candidates = [value] if route == "grid" else value
        grid = ws / "grid.json"
        grid.write_text(
            json.dumps({**SMALL_GRID, field: candidates}), encoding="utf-8"
        )
        argv = (
            "tune", "--grid", grid, *inputs,
            "--references", ws / "refs.txt",
            "--trace-out", ws / "out",
        )
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (ws / "out").exists()


CONFIG_TYPE_CASES = [
    ("workers", "2", f"workers {COUNT} '2'"),
    ("workers", 0, f"workers {COUNT} 0"),
    ("diagnostics", "yes", "diagnostics must be true or false, got 'yes'"),
    # build-index --skip-empty is the one way to drop empty captions
    ("skip_empty", 1, "unknown config keys: skip_empty"),
]


@pytest.mark.parametrize(
    "key, value, message",
    CONFIG_TYPE_CASES,
    ids=[f"{key}-{value}" for key, value, _ in CONFIG_TYPE_CASES],
)
def test_pipeline_config_types_checked_before_loading(
    ws, capsys, key, value, message
):
    cfg = ws / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    argv = (
        "pipeline", "--config", cfg,
        "--collection", ws / "missing.tsv",
        "--idf", ws / "idf.txt",
        "--kbest", ws / "kbest.txt",
        "--out-dir", ws / "out",
    )
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (ws / "out").exists()


@pytest.mark.parametrize("value", [0, False, 1, ["idf.txt"]])
@pytest.mark.parametrize(
    "key",
    ["collection", "idf", "kbest", "out_dir", "features", "queries",
     "references"],
)
def test_pipeline_config_paths_must_be_strings(ws, capsys, key, value):
    cfg = ws / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    flags = {
        "collection": ws / "collection.tsv",
        "idf": ws / "idf.txt",
        "kbest": ws / "kbest.txt",
        "out-dir": ws / "out",
    }
    argv = ["pipeline", "--config", cfg]
    for flag, path in flags.items():
        if flag.replace("-", "_") != key:
            argv += ["--" + flag, path]
    assert run(*argv) == 1
    assert capsys.readouterr().err == (
        f"error: {key} must be a path string or null, got {value!r}\n"
    )
    assert not (ws / "out").exists()


@pytest.mark.parametrize("route", ["config", "grid"])
@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "null"])
def test_json_file_must_hold_an_object(ws, capsys, route, text):
    path = ws / "spec.json"
    path.write_text(text, encoding="utf-8")
    inputs = (
        "--collection", ws / "collection.tsv",
        "--idf", ws / "idf.txt",
        "--kbest", ws / "kbest.txt",
    )
    if route == "config":
        argv = ("pipeline", "--config", path, *inputs, "--out-dir", ws / "out")
    else:
        argv = (
            "tune", "--grid", path, *inputs,
            "--references", ws / "refs.txt",
            "--best-out", ws / "out",
        )
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {path}: expected a JSON object\n"
    assert not (ws / "out").exists()


def cnn_argv(ws, route, *inputs):
    """A cnn run of route over the workspace, writing only to ws/out."""
    inputs = (
        "--collection", ws / "collection.tsv",
        "--idf", ws / "idf.txt",
        "--kbest", ws / "kbest.txt",
        *inputs,
    )
    if route == "retrieve":
        return ("retrieve", "--mode", "cnn", *inputs, "--out", ws / "out")
    if route == "pipeline":
        return ("pipeline", "--mode", "cnn", *inputs, "--out-dir", ws / "out")
    grid = ws / "grid.json"
    grid.write_text(
        json.dumps({**SMALL_GRID, "mode": "cnn"}), encoding="utf-8"
    )
    return (
        "tune", "--grid", grid, *inputs,
        "--references", ws / "refs.txt",
        "--trace-out", ws / "out",
    )


@pytest.mark.parametrize("route", ["retrieve", "pipeline", "tune"])
@pytest.mark.parametrize("text", ["", "i9\t0.0 0.0\n"], ids=["empty", "other"])
def test_features_must_cover_a_collection_image(ws, capsys, route, text):
    # every sentence would fall back to txt, as on an unannotated hca run
    feats = ws / "feats.tsv"
    feats.write_text(text, encoding="utf-8")
    inputs = ("--features", feats, "--queries", ws / "queries.tsv")
    assert run(*cnn_argv(ws, route, *inputs)) == 1
    assert capsys.readouterr().err == (
        f"error: {feats}: no feature vector for any collection image\n"
    )
    assert not (ws / "out").exists()


@pytest.mark.parametrize("route", ["retrieve", "pipeline", "tune"])
def test_queries_may_not_name_a_sentence_the_kbest_lacks(ws, capsys, route):
    queries = ws / "queries.tsv"
    queries.write_text("s1x\ti1\ns2x\ti2\n", encoding="utf-8")
    inputs = ("--features", ws / "features.tsv", "--queries", queries)
    assert run(*cnn_argv(ws, route, *inputs)) == 1
    assert capsys.readouterr().err == (
        f"error: {queries}: sent_ids do not match {ws / 'kbest.txt'}:"
        " extra s1x, s2x\n"
    )
    assert not (ws / "out").exists()
    # a sentence may have no image, so the file may leave one out
    queries.write_text("s1\ti1\n", encoding="utf-8")
    assert run(*cnn_argv(ws, route, *inputs)) == 0


@pytest.mark.parametrize("route", ["retrieve", "pipeline", "tune"])
@pytest.mark.parametrize("mode", ["cnn", "hca"])
def test_gated_mode_requires_queries(ws, capsys, route, mode):
    # without queries no sentence has an image or categories, so every
    # sentence would fall back to txt; fail before reading any input
    inputs = (
        "--collection", ws / "missing.tsv",
        "--idf", ws / "idf.txt",
        "--kbest", ws / "kbest.txt",
        "--features", ws / "features.tsv",
    )
    if route == "retrieve":
        argv = ("retrieve", "--mode", mode, *inputs, "--out", ws / "out")
    elif route == "pipeline":
        argv = ("pipeline", "--mode", mode, *inputs, "--out-dir", ws / "out")
    else:
        grid = ws / "grid.json"
        grid.write_text(
            json.dumps({**SMALL_GRID, "mode": mode}), encoding="utf-8"
        )
        argv = (
            "tune", "--grid", grid, *inputs,
            "--references", ws / "refs.txt",
            "--trace-out", ws / "out",
        )
    assert run(*argv) == 1
    assert capsys.readouterr().err == (
        f"error: {mode} mode requires a queries path\n"
    )
    assert not (ws / "out").exists()


@pytest.mark.parametrize("command", ["retrieve", "pipeline", "rerank", "tune"])
def test_parameters_checked_before_loading(ws, capsys, command):
    grid = ws / "grid.json"
    grid.write_text(
        json.dumps({**SMALL_GRID, "mode": "hca", "distance_cutoff": [1.0]}),
        encoding="utf-8",
    )
    extra, message = {
        "retrieve": (("--out", ws / "out", "--k-m", "0"), f"k_m {COUNT} 0"),
        "pipeline": (
            ("--out-dir", ws / "out", "--k-r", "0"), f"k_r {COUNT} 0"
        ),
        "rerank": (
            ("--out", ws / "out", "--matches", ws / "m.txt", "--k-r", "0"),
            f"k_r {COUNT} 0",
        ),
        "tune": (
            ("--trace-out", ws / "out", "--grid", grid,
             "--queries", ws / "queries.tsv", "--references", ws / "refs.txt"),
            "distance_cutoff can only be swept in cnn mode",
        ),
    }[command]
    argv = (
        command,
        "--collection", ws / "missing.tsv",
        "--idf", ws / "idf.txt",
        "--kbest", ws / "kbest.txt",
        *extra,
    )
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (ws / "out").exists()


@pytest.mark.parametrize("command", ["retrieve", "pipeline", "rerank"])
def test_failure_while_scoring_writes_nothing(
    ws, capsys, monkeypatch, command
):
    def boom(*args, **kwargs):
        raise ValueError("boom")

    inputs = (
        "--collection", ws / "collection.tsv",
        "--idf", ws / "idf.txt",
        "--kbest", ws / "kbest.txt",
    )
    if command == "rerank":
        assert run("retrieve", *inputs, "--out", ws / "matches.txt") == 0
        monkeypatch.setattr("tsr.cli.select_best", boom)
    else:
        monkeypatch.setattr("tsr.retrieval.Retriever.retrieve", boom)
    out = {
        "retrieve": ("--out", ws / "out"),
        "pipeline": ("--out-dir", ws / "out", "--references", ws / "refs.txt",
                     "--diagnostics"),
        "rerank": ("--out", ws / "out", "--matches", ws / "matches.txt",
                   "--diagnostics", ws / "diag.txt"),
    }[command]
    capsys.readouterr()
    assert run(command, *inputs, *out) == 1
    assert capsys.readouterr() == ("", "error: boom\n")
    assert not (ws / "out").exists()
    assert not (ws / "diag.txt").exists()


def test_pipeline_flags_are_the_config_keys():
    args = build_parser().parse_args(["pipeline"])
    dests = set(vars(args)) - {"command", "func"}
    assert dests == {*_PIPELINE_KEYS, "config"}


def strict_json(text):
    """text parsed as JSON proper: NaN and Infinity fail."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_no_cutoff_is_spelled_inf_and_reruns_from_config_json(ws):
    """An infinite cutoff is written "inf" in strict JSON, and the run's
    config.json, given back as --config, reruns it byte for byte."""
    gate = (
        "--mode", "cnn",
        "--features", ws / "features.tsv",
        "--queries", ws / "queries.tsv",
    )
    assert run(
        "pipeline",
        "--collection", ws / "collection.tsv",
        "--idf", ws / "idf.txt",
        "--kbest", ws / "kbest.txt",
        "--out-dir", ws / "a",
        "--diagnostics", "--distance-cutoff", "inf", *gate,
    ) == 0
    config = ws / "a" / "config.json"
    assert strict_json(config.read_text())["distance_cutoff"] == "inf"
    assert run("pipeline", "--config", config, "--out-dir", ws / "b") == 0
    for name in ("output.txt", "diagnostics.txt", "config.json"):
        got = (ws / "b" / name).read_text()
        assert got == (ws / "a" / name).read_text().replace(
            str(ws / "a"), str(ws / "b")
        )
    # a finite cutoff moves the scores, so "inf" was read as no cutoff
    assert run("pipeline", "--config", config, "--out-dir", ws / "c",
               "--distance-cutoff", "4.0") == 0
    diagnostics = (ws / "c" / "diagnostics.txt").read_text()
    assert diagnostics != (ws / "a" / "diagnostics.txt").read_text()

    grid = ws / "grid.json"
    grid.write_text(
        json.dumps({**SMALL_GRID, "mode": "cnn", "distance_cutoff": ["inf"]}),
        encoding="utf-8",
    )
    assert run(
        "tune", "--grid", grid,
        "--collection", ws / "collection.tsv",
        "--idf", ws / "idf.txt",
        "--kbest", ws / "kbest.txt",
        "--references", ws / "refs.txt",
        "--features", ws / "features.tsv",
        "--queries", ws / "queries.tsv",
        "--trace-out", ws / "trace.jsonl",
        "--best-out", ws / "best.json",
    ) == 0
    trace = (ws / "trace.jsonl").read_text().splitlines()
    assert len(trace) == 6
    assert {strict_json(line)["distance_cutoff"] for line in trace} == {"inf"}
    best = strict_json((ws / "best.json").read_text())
    assert best["distance_cutoff"] == "inf"


def test_rerun_resolves_relative_paths_where_it_starts(
    ws, monkeypatch, capsys
):
    """config.json keeps relative paths as given, and a rerun resolves
    them against its own working directory: from the run's directory it
    reproduces the run, from another it fails before writing anything."""
    monkeypatch.chdir(ws)
    assert run(
        "pipeline",
        "--collection", "collection.tsv",
        "--idf", "idf.txt",
        "--kbest", "kbest.txt",
        "--out-dir", "a",
        "--diagnostics",
    ) == 0
    config = ws / "a" / "config.json"
    assert strict_json(config.read_text())["collection"] == "collection.tsv"
    assert run("pipeline", "--config", "a/config.json", "--out-dir", "b") == 0
    for name in ("output.txt", "diagnostics.txt"):
        assert (ws / "b" / name).read_bytes() == (ws / "a" / name).read_bytes()
    elsewhere = ws / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    capsys.readouterr()
    assert run("pipeline", "--config", config) == 1
    assert capsys.readouterr().err == (
        "error: [Errno 2] No such file or directory: 'idf.txt'\n"
    )
    assert os.listdir(elsewhere) == []


@pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize("route", ["config", "grid"])
def test_json_inputs_refuse_nan_and_infinity(ws, capsys, route, constant):
    inputs = (
        "--collection", ws / "collection.tsv",
        "--idf", ws / "idf.txt",
        "--kbest", ws / "kbest.txt",
    )
    path = ws / f"{route}.json"
    if route == "config":
        path.write_text(f'{{"distance_cutoff": {constant}}}', encoding="utf-8")
        argv = ("pipeline", "--config", path, *inputs, "--out-dir", ws / "out")
    else:
        grid = json.dumps({**SMALL_GRID, "mode": "cnn"})
        path.write_text(
            grid[:-1] + f', "distance_cutoff": [{constant}]}}',
            encoding="utf-8",
        )
        argv = (
            "tune", "--grid", path, *inputs,
            "--references", ws / "refs.txt",
            "--features", ws / "features.tsv",
            "--queries", ws / "queries.tsv",
            "--trace-out", ws / "out",
        )
    assert run(*argv) == 1
    refusal = f'{constant} is not JSON; no cutoff is spelled "inf"'
    assert capsys.readouterr().err == f"error: {path}: {refusal}\n"
    assert not (ws / "out").exists()
