"""Drive every CLI subcommand end to end over temporary files.

Run with:  python3 demos/06_cli_walkthrough.py

The subcommands chain through plain text artifacts: extract-idf and
build-index persist the statics, retrieve writes a match dump, rerank
consumes it, pipeline does both in memory, and evaluate / compare /
tune close the loop on references. A stage that loads a collection or
features file leaves a sidecar, ``<file>.tsr-index.npz``, beside it:
a cache of the built arrays that the next stage adopts instead of
parsing the text again. Everything here also works from a shell via
the installed ``tsr`` entry point.
"""

import json
import tempfile
from pathlib import Path

from tsr.cli import main


def run(*argv):
    argv = [str(a) for a in argv]
    print(f"$ tsr {' '.join(argv)}")
    code = main(argv)
    print(f"(exit {code})\n")


def walkthrough(work: Path) -> None:
    print(f"working in {work}\n")

    (work / "corpus.txt").write_text(
        "a man rides a horse\n"
        "the dog runs\n"
        "the man walks\n"
        "the horse eats\n"
    )
    (work / "collection.tsv").write_text(
        "c1\ti1\ta man rides a horse\tperson,horse\n"
        "c2\ti1\ta rider on a brown horse\tperson,horse\n"
        "c3\ti2\tthe dog runs across a field\tdog\n"
        "c4\ti3\ta man walks the dog\tperson,dog\n"
    )
    (work / "features.tsv").write_text(
        "i1\t0.0 0.0\ni2\t3.0 4.0\ni3\t60.0 80.0\n"
    )
    (work / "kbest.txt").write_text(
        "s1 ||| a man rides a horse ||| -1.0\n"
        "s1 ||| the man rides a horse ||| -1.5\n"
        "s2 ||| the dog runs ||| -2.0\n"
        "s2 ||| a dog runs ||| -2.25\n"
    )
    (work / "queries.tsv").write_text("s1\ti1\tperson,horse\ns2\ti2\tdog\n")
    (work / "refs.txt").write_text(
        "s1 ||| a man rides a horse\ns2 ||| a dog runs\n"
    )
    (work / "grid.json").write_text(json.dumps({
        "k_n": [1, 2], "k_m": [1, 2], "k_r": [2],
        "interp_weight": [0.0, 1000.0],
    }))

    run("extract-idf", work / "corpus.txt", work / "idf.txt")
    run("build-index", work / "collection.tsv", work / "index.tsv")
    run("retrieve",
        "--collection", work / "index.tsv", "--idf", work / "idf.txt",
        "--kbest", work / "kbest.txt", "--out", work / "matches.txt",
        "--mode", "cnn", "--features", work / "features.tsv",
        "--queries", work / "queries.tsv")
    run("rerank",
        "--collection", work / "index.tsv", "--idf", work / "idf.txt",
        "--kbest", work / "kbest.txt", "--matches", work / "matches.txt",
        "--out", work / "output.txt", "--diagnostics", work / "diag.txt")
    run("pipeline",
        "--collection", work / "index.tsv", "--idf", work / "idf.txt",
        "--kbest", work / "kbest.txt", "--out-dir", work / "run",
        "--mode", "hca", "--queries", work / "queries.tsv",
        "--references", work / "refs.txt", "--interp-weight", "1000000",
        "--k-r", "2")
    run("evaluate", work / "run" / "output.txt", work / "refs.txt")
    run("compare",
        work / "output.txt", work / "run" / "output.txt", work / "refs.txt",
        "--trials", "200", "--seed", "1")
    run("tune",
        "--grid", work / "grid.json",
        "--collection", work / "index.tsv", "--idf", work / "idf.txt",
        "--kbest", work / "kbest.txt", "--references", work / "refs.txt",
        "--trace-out", work / "trace.jsonl", "--best-out", work / "best.json")

    print("artifacts:")
    for path in sorted(work.rglob("*")):
        if path.is_file():
            print(f"  {path.relative_to(work)}")


# The directory and every artifact in it are removed on exit.
with tempfile.TemporaryDirectory(prefix="tsr-demo-") as tmp:
    walkthrough(Path(tmp))
