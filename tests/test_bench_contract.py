"""The benchmark's span tracer must find every detcal attribute it wraps.

``perfbench/spans.py`` replaces functions such as ``harness.labels`` or
``cli.write_matched_samples`` in their callers' namespaces; a refactor that
drops one makes traced benchmark runs crash with ``AttributeError``. This
test installs and removes the tracer without running any workload.
"""

import sys
from pathlib import Path

from detcal import calibrators, cli, features, harness, metrics, synth

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (calibrators, cli, features, harness, metrics, synth)


def test_tracer_installs_and_uninstalls():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from spans import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    before = _namespaces()
    tracer = Tracer("t")
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert _namespaces() == before


def _namespaces() -> list[dict[str, int]]:
    return [{name: id(value) for name, value in vars(m).items()} for m in MODULES]
