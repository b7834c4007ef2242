"""README's documented calls run as written, on a smaller draw."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_snippet_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "100_000" in snippet and "70_000" in snippet
    exec(snippet.replace("100_000", "4_000").replace("70_000", "2_800"), {})
