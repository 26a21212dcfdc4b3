"""The table list and the two entry points that iterate it."""
import contextlib
import importlib.util
import io
import os
import pathlib
import subprocess
import sys

from repro.tables.registry import TABLES

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_registry_stems_match_committed_results():
    committed = {p.stem for p in (ROOT / "bench_results").glob("*.csv")}
    assert {t.stem for t in TABLES} | {"table06_speedups"} == committed


def test_run_tables_job_prints_table5():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, str(ROOT / "jobs" / "run_tables.py"), "table05", "--scale", "0.05"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert "=== Table 5 — dataset properties (measured) ===" in out.stdout
    assert "Table 6" not in out.stdout


def test_make_experiments_emits_one_section_per_table():
    spec = importlib.util.spec_from_file_location(
        "make_experiments", ROOT / "scripts" / "make_experiments.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        mod.main()
    headings = [ln[4:] for ln in buf.getvalue().splitlines() if ln.startswith("### ")]
    assert headings == [t.title for t in TABLES]
