"""The benchmark's span tracer must find every detcal attribute it wraps.

``perfbench/spans.py`` replaces functions such as ``harness.labels`` or
``cli.write_matched_samples`` in their callers' namespaces; a refactor that
drops one makes traced benchmark runs crash with ``AttributeError``. The
tracer also counts records with ``len()`` on what the wrapped readers
return and writers take, so those counts are checked on a small CLI chain.
Solver work is counted through ``calibrators.minimize``, which every
parametric fit calls, so an lc-dep fit must show nonzero counts.
"""

import sys
from pathlib import Path

from detcal import calibrators, cli, features, harness, metrics, synth

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (calibrators, cli, features, harness, metrics, synth)


def _tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from spans import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return Tracer("t")


def test_tracer_installs_and_uninstalls():
    before = _namespaces()
    tracer = _tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert _namespaces() == before


def _namespaces() -> list[dict[str, int]]:
    return [{name: id(value) for name, value in vars(m).items()} for m in MODULES]


def _records(path: Path) -> int:
    return sum(1 for line in path.read_text().splitlines() if line.strip())


def test_tracer_counts_records_read_and_written(tmp_path):
    raw, cal, model = tmp_path / "raw.jsonl", tmp_path / "cal.jsonl", tmp_path / "lc.json"
    commands = [
        ["synth", "--scenario", "fig3_boundary_decay", "--n", "300", "--seed", "1", "--out", raw],
        ["fit", "--in", raw, "--method", "lc", "--features", "conf", "--out", model],
        ["apply", "--model", model, "--in", raw, "--out", cal],
        ["eval", "--in", raw, "--features", "conf", "--bins", "5", "--min-samples", "0"],
        ["eval", "--in", cal, "--features", "conf", "--bins", "5", "--min-samples", "0"],
        ["heatmap", "--in", cal, "--features", "conf+xy", "--bins", "3", "--axes", "cx,cy",
         "--out", tmp_path / "grid.csv"],
    ]
    tracer = _tracer()
    tracer.install()
    try:
        for argv in commands:
            assert cli.main([str(a) for a in argv]) == 0
    finally:
        tracer.uninstall()
    read = sum(_records(Path(argv[argv.index("--in") + 1])) for argv in commands if "--in" in argv)
    written = _records(raw) + _records(cal)
    assert (read, written) == (1500, 600)
    counts = tracer.layer_metrics()
    assert counts["matching.read_matched_samples.records"] == read
    assert counts["matching.write_matched_samples.records"] == written


def test_tracer_counts_lc_dep_solver_work(tmp_path):
    raw, model = tmp_path / "raw.jsonl", tmp_path / "lc_dep.json"
    assert cli.main(["synth", "--scenario", "fig3_boundary_decay", "--n", "600", "--seed", "2",
                     "--out", str(raw)]) == 0
    tracer = _tracer()
    tracer.install()
    try:
        assert cli.main(["fit", "--in", str(raw), "--method", "lc-dep", "--features", "conf+xy",
                         "--out", str(model)]) == 0
    finally:
        tracer.uninstall()
    counts = tracer.layer_metrics()
    assert counts["calibrators.fit.lc-dep.conf_xy.iterations"] > 0
    assert counts["calibrators.fit.lc-dep.conf_xy.obj_evals"] > 0
