"""Regenerate the data tables inside EXPERIMENTS.md from bench_results/.

Run after ``pytest benchmarks/ --benchmark-only``:

    python scripts/make_experiments.py > EXPERIMENTS_tables.md

The curated EXPERIMENTS.md embeds this output together with commentary.
"""
from __future__ import annotations

import pathlib

import pandas as pd

from repro.tables import table06
from repro.tables.registry import TABLES

RES = pathlib.Path(__file__).resolve().parent.parent / "bench_results"


def md(df: pd.DataFrame) -> str:
    """Minimal GitHub-markdown table (tabulate is not installed offline)."""
    cols = list(df.columns)
    lines = ["| " + " | ".join(str(c) for c in cols) + " |",
             "|" + "|".join("---" for _ in cols) + "|"]
    for _, r in df.iterrows():
        lines.append("| " + " | ".join(
            "" if pd.isna(v) else (f"{v:g}" if isinstance(v, float) else str(v))
            for v in r
        ) + " |")
    return "\n".join(lines)


def load(name: str) -> pd.DataFrame | None:
    p = RES / f"{name}.csv"
    return pd.read_csv(p) if p.exists() else None


def emit(title: str, measured: pd.DataFrame | None, paper: pd.DataFrame | None) -> None:
    print(f"\n### {title}\n")
    if measured is None:
        print("_no bench_results CSV found — run the benchmarks first_")
        return
    print("**Measured**\n")
    print(md(measured))
    if paper is not None:
        print("\n**Paper**\n")
        print(md(paper))


def emit_table06(title: str, t6: pd.DataFrame | None) -> None:
    emit(title, None if t6 is None else t6[["dataset", "algo", "system", "seconds",
                                            "e2e_s", "paper_s", "steps"]], None)
    sp = load("table06_speedups")
    if sp is not None:
        print("\n**Slowdown vs TRW (measured)**\n")
        print(md(sp.pivot_table(index=["dataset", "algo"], columns="system",
                                values="x_slower_than_TRW").reset_index()))
    if t6 is not None:
        print("\n**Slowdown vs TRW by `e2e_s` (measured)**\n")
        e2e = table06.speedups(t6.assign(seconds=t6["e2e_s"]))
        print(md(e2e.pivot_table(index=["dataset", "algo"], columns="system",
                                 values="x_slower_than_TRW").reset_index()))


def main() -> None:
    for t in TABLES:
        if t.stem == "table06":
            emit_table06(t.title, load(t.stem))
        else:
            emit(t.title, load(t.stem), t.paper)


if __name__ == "__main__":
    main()
