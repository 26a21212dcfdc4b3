"""The reproduced evaluation tables, in paper order.

One entry per table: the stem of its ``bench_results/`` CSV, its title,
the paper's numbers (``None`` for Table 6, whose ``PAPER`` is a nested
dict folded into its rows) and ``compute(spark, scale)``. ``jobs/run_tables.py``
and ``scripts/make_experiments.py`` iterate this list. Only Table 6 reads
``spark``; Table 3's graphs are fixed, so it ignores ``scale``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pandas as pd

from repro.tables import (
    table01,
    table02,
    table03,
    table05,
    table06,
    table07_08,
    table09,
    table10,
    table11_12,
    table13,
)


@dataclass(frozen=True)
class Table:
    stem: str
    title: str
    paper: pd.DataFrame | None
    compute: Callable[..., pd.DataFrame]


TABLES = [
    Table("table01", "Table 1 — pipeline slot breakdown", table01.PAPER,
          lambda spark, scale: table01.compute(scale=scale)),
    Table("table02", "Table 2 — time breakdown per step", table02.PAPER,
          lambda spark, scale: table02.compute(scale=scale)),
    Table("table03", "Table 3 — per-step cost by RW type × sampler", table03.PAPER,
          lambda spark, scale: table03.compute()),
    Table("table05", "Table 5 — dataset properties", table05.PAPER,
          lambda spark, scale: table05.compute(scale=scale)),
    Table("table06", "Table 6 — overall comparison (seconds)", None,
          lambda spark, scale: table06.compute(spark, scale=scale)),
    Table("table07", "Table 7 — vary walk length (wo/si)", table07_08.PAPER_T7,
          lambda spark, scale: table07_08.compute_t7(scale=scale)),
    Table("table08", "Table 8 — vary number of queries (wo/si)", table07_08.PAPER_T8,
          lambda spark, scale: table07_08.compute_t8(scale=scale)),
    Table("table09", "Table 9 — ring-size tuning time", table09.PAPER,
          lambda spark, scale: table09.compute(scale=scale)),
    Table("table10", "Table 10 — prefetch destination cache level", table10.PAPER,
          lambda spark, scale: table10.compute(scale=scale)),
    Table("table11", "Table 11 — vary walk length (w/si)", table11_12.PAPER_T11,
          lambda spark, scale: table11_12.compute_t11(scale=scale)),
    Table("table12", "Table 12 — vary number of queries (w/si)", table11_12.PAPER_T12,
          lambda spark, scale: table11_12.compute_t12(scale=scale)),
    Table("table13", "Table 13 — switch mechanisms (per-step instructions & cycles)",
          table13.PAPER, lambda spark, scale: table13.compute(scale=scale)),
]
