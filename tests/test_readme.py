"""The README's library quickstart runs as written."""

import contextlib
import io
import re
from pathlib import Path

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
