"""Output gate: compare what the program wrote with ``model.py``.

Each checker returns ``(attempted, failed, notes)``. A pipeline run
attempts one item per sentence (its chosen hypothesis, decoder rank,
relevance and fallback flag) plus one for the evaluation (the report's
BLEU and the compare p-value). A tune run attempts the best point, with
the BLEU of every point in its trace, and the p-value. A crashed
invocation fails everything it attempted.

Pinned digests (``pins.json``) fix the exact output bytes for the
benchmark's own seeds; any other seed reports "unchecked" for them.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

PINS = Path(__file__).resolve().parent / "pins.json"


def _close(a: float, b: float, rtol: float = 1e-9, atol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def _words(ids) -> str:
    return " ".join(f"w{i}" for i in ids)


def _field(text: str, label: str) -> str | None:
    m = re.search(rf"^{re.escape(label)}: .*?\(?([0-9.]+)\)?$", text, re.M)
    return m.group(1) if m else None


def check_compare(stdout: str, expect: dict) -> list[str]:
    notes = []
    for label, key in (("BLEU_A", "bleu_a"), ("BLEU_B", "bleu_b")):
        got = _field(stdout, label)
        if got is None or abs(float(got) - expect[key]) > 6e-7:
            notes.append(f"compare {label} {got} != {expect[key]:.6f}")
    got = _field(stdout, "p-value")
    if got != f"{expect['p']:.6f}":
        notes.append(f"compare p-value {got} != {expect['p']:.6f}")
    return notes


def check_pipeline(out_dir: Path, compare_stdout: str | None, expect: dict, kbests) -> tuple[int, int, list[str]]:
    sentences = expect["sentences"]
    attempted = len(sentences) + 1
    try:
        outputs = (out_dir / "output.txt").read_text().splitlines()
        diags = (out_dir / "diagnostics.txt").read_text().splitlines()
        report = (out_dir / "report.txt").read_text()
    except OSError as exc:
        return attempted, attempted, [f"missing output: {exc}"]
    failed, notes = 0, []
    exact = True
    for s, exp in enumerate(sentences):
        ok = s < len(outputs) and s < len(diags)
        if ok:
            sid, _, text = outputs[s].partition(" ||| ")
            dsid, rank, _comb, rel, flag = (diags[s].split(" ||| ") + [""] * 5)[:5]
            choice = int(rank) - 1 if rank.isdigit() else -1
            ok = (
                sid == dsid == f"s{s}"
                and choice in exp["accept"]
                and text == _words(kbests[s][choice][0])
                and flag == str(int(exp["fallback"]))
            )
            if ok and choice == exp["chosen"]:
                ok = _close(float(rel), exp["relevance"])
            exact = exact and choice == exp["chosen"]
        if not ok:
            failed += 1
            if len(notes) < 5:
                notes.append(f"sentence s{s}: wrong output or diagnostics")
    if exact:
        evaluation = []
        got = _field(report, "BLEU")
        if got is None or abs(float(got) - expect["bleu"]) > 6e-7:
            evaluation.append(f"report BLEU {got} != {expect['bleu']:.6f}")
        if compare_stdout is None:
            evaluation.append("compare did not run")
        else:
            evaluation += check_compare(compare_stdout, expect["compare"])
        if evaluation:
            failed += 1
            notes += evaluation
    else:
        notes.append("a near-tie chose another hypothesis; BLEU and p-value unchecked")
    return attempted, failed, notes


def check_tune(best_path: Path, trace_path: Path, compare_stdout: str | None, expect: dict) -> tuple[int, int, list[str]]:
    failed, notes = 0, []
    want = expect["best"]
    try:
        best = json.loads(best_path.read_text())
        trace = [json.loads(line)["bleu"] for line in trace_path.read_text().splitlines()]
        ok = (
            all(best[k] == want[k] for k in ("k_n", "k_m", "k_r", "interp_weight"))
            and _close(best["bleu"], want["bleu"], 1e-12)
            and len(trace) == len(expect["trace"])
            and all(_close(a, b, 1e-12) for a, b in zip(trace, expect["trace"]))
        )
    except (OSError, ValueError, KeyError) as exc:
        ok, notes = False, [f"tune output unreadable: {exc}"]
    if not ok:
        failed += 1
        notes.append(f"tune best point or trace differs from {want}")
    cmp_notes = ["compare did not run"] if compare_stdout is None else check_compare(compare_stdout, expect["compare"])
    if cmp_notes:
        failed += 1
        notes += cmp_notes
    return 2, failed, notes


def digest(paths: list[Path], compare_stdout: str) -> str:
    """sha256 over the verdict-bearing outputs and the p-value line."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    h.update((_field(compare_stdout, "p-value") or "").encode())
    return h.hexdigest()


def pinned_status(workload: str, seed: int, value: str) -> str:
    """"match", "mismatch", or "unchecked" when the seed has no pin."""
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    want = pins.get(workload, {}).get(str(seed))
    if want is None:
        return "unchecked"
    return "match" if want == value else "mismatch"
