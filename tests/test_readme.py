"""README's documented calls run as written, on a smaller draw, and its list of public names is whole."""

import re
from pathlib import Path

import detcal

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_snippet_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "100_000" in snippet and "70_000" in snippet
    exec(snippet.replace("100_000", "4_000").replace("70_000", "2_800"), {})


def test_library_use_lists_the_public_names():
    """A name added to or dropped from ``detcal.__all__`` needs the README's list edited too."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1].split("\n## ", 1)[0]
    [paragraph] = [p for p in section.split("\n\n") if "`detcal.__all__`" in p]
    listed = set(re.findall(r"`(\w+)`", paragraph))
    assert listed == set(detcal.__all__)
