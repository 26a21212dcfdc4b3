"""Regenerate the data tables inside EXPERIMENTS.md from bench_results/.

Run after ``pytest benchmarks/ --benchmark-only``:

    python scripts/make_experiments.py > EXPERIMENTS_tables.md

The curated EXPERIMENTS.md embeds this output together with commentary.
"""
from __future__ import annotations

import pathlib

import pandas as pd

from repro.tables import (
    table01,
    table02,
    table03,
    table05,
    table06,
    table09,
    table10,
    table07_08,
    table11_12,
    table13,
)

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


def main() -> None:
    emit("Table 1 — pipeline-slot breakdown", load("table01"), table01.PAPER)
    emit("Table 2 — per-step time breakdown", load("table02"), table02.PAPER)
    emit("Table 3 — per-step complexity (empirical)", load("table03"), table03.PAPER)
    emit("Table 5 — dataset properties", load("table05"), table05.PAPER)
    t6 = load("table06")
    emit(
        "Table 6 — overall comparison (seconds)",
        None if t6 is None else t6[["dataset", "algo", "system", "seconds",
                                    "e2e_s", "paper_s", "steps"]],
        None,
    )
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
    emit("Table 7 — vary walk length (wo/si)", load("table07"), table07_08.PAPER_T7)
    emit("Table 8 — vary #queries (wo/si)", load("table08"), table07_08.PAPER_T8)
    emit("Table 9 — ring-size tuning time", load("table09"), table09.PAPER)
    emit("Table 10 — prefetch cache level", load("table10"), table10.PAPER)
    emit("Table 11 — vary walk length (w/si)", load("table11"), table11_12.PAPER_T11)
    emit("Table 12 — vary #queries (w/si)", load("table12"), table11_12.PAPER_T12)
    emit("Table 13 — switch mechanisms", load("table13"), table13.PAPER)


if __name__ == "__main__":
    main()
