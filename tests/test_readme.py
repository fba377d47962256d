"""The README's library quickstart runs as written, and the README
names every name the package exports."""

import contextlib
import io
import re
from pathlib import Path

import tsr

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split(
        "## Library quickstart", 1
    )[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    (tmp_path / "corpus.txt").write_text(
        "a man rides a horse\nthe dog runs\na man and a dog\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    chosen, matches = out.getvalue().splitlines()
    assert chosen == "('a', 'man', 'rides', 'a', 'horse') 1"
    assert matches.startswith("[('c1', ")


def test_every_export_is_documented():
    text = README.read_text(encoding="utf-8")
    undocumented = [
        name for name in tsr.__all__ if not re.search(rf"\b{name}\b", text)
    ]
    assert undocumented == []
