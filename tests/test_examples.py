"""Every example script must run clean end-to-end.

Examples are user-facing documentation; this keeps them from rotting.
Each runs as a subprocess with the repo's interpreter.
"""

import subprocess
import sys
from pathlib import Path

import pytest

_EXAMPLES = sorted(
    (Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize(
    "script", _EXAMPLES, ids=[p.stem for p in _EXAMPLES]
)
def test_example_runs_clean(script, tmp_path):
    args = [sys.executable, str(script)]
    if script.stem == "themeview_export":
        args.append(str(tmp_path / "out"))
    proc = subprocess.run(
        args,
        capture_output=True,
        text=True,
        timeout=600,
        cwd=script.parent.parent,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "examples must narrate what they do"


def test_examples_exist():
    names = {p.stem for p in _EXAMPLES}
    assert {
        "quickstart",
        "pubmed_scaling",
        "trec_loadbalance",
        "themeview_export",
        "interactive_analysis",
        "streaming_updates",
    } <= names


def _tutorial_block(heading: str) -> str:
    """The first python block under ``heading`` in docs/tutorial.md."""
    text = (
        Path(__file__).parent.parent / "docs" / "tutorial.md"
    ).read_text()
    section = text[text.index("\n" + heading):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_tutorial_spmd_program_runs(capsys):
    """§8 is the tutorial's self-contained runtime snippet; run it
    verbatim so the communicator it shows stays the real one."""
    namespace: dict = {}
    exec(_tutorial_block("## 8."), namespace)
    assert namespace["res"].rank_results[0] == (28, 7, None, 7)
    assert capsys.readouterr().out.strip()
