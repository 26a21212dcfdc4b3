"""Reproduce the paper's evaluation tables and print them next to the paper's.

Usage: spark-submit jobs/run_tables.py [table06 table13 ...] [--scale 1.0]

With no table names every table runs, in paper order. Only Table 6 runs
on Spark, so a SparkSession starts only when it is asked for; the other
tables run under plain ``python`` too.
"""
import argparse
import os

from repro.tables import common, table03, table06
from repro.tables.registry import TABLES


def _spark():
    """The session the tests use too: broadcast joins off, Arrow on."""
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("run_tables")
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions",
                os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .getOrCreate()
    )


def main() -> None:
    stems = [t.stem for t in TABLES]
    p = argparse.ArgumentParser()
    p.add_argument("tables", nargs="*", metavar="table", help=f"any of {', '.join(stems)} (default: all)")
    p.add_argument("--scale", type=float, default=1.0)
    args = p.parse_args()
    unknown = sorted(set(args.tables) - set(stems))
    if unknown:
        p.error(f"unknown table(s): {', '.join(unknown)}")
    todo = [t for t in TABLES if not args.tables or t.stem in args.tables]
    spark = _spark() if any(t.stem == "table06" for t in todo) else None
    try:
        for t in todo:
            df = t.compute(spark, args.scale)
            common.print_table(t.title, df, t.paper)
            if t.stem == "table03":
                bad = table03.check_relations(df)
                if bad:
                    print("\nVIOLATED relations:")
                    for b in bad:
                        print(" -", b)
                else:
                    print("\nAll Table 3 complexity relations hold empirically.")
            elif t.stem == "table06":
                common.print_table("Table 6 — slowdown vs TRW", table06.speedups(df))
    finally:
        if spark is not None:
            spark.stop()


if __name__ == "__main__":
    main()
