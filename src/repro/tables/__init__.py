"""One module per reproduced evaluation table.

Each module exposes ``compute(...) -> pandas.DataFrame`` producing the
same rows the paper reports, plus a ``PAPER`` constant with the published
numbers so EXPERIMENTS.md (and the job's stdout) can print them side by
side. ``registry.TABLES`` lists every table once (CSV stem, title,
``PAPER``, ``compute(spark, scale)``); ``jobs/run_tables.py`` and
``scripts/make_experiments.py`` walk it, and ``benchmarks/`` wrap the same
functions in pytest-benchmark. This package does not import the registry,
so importing one table module (or ``common``) loads no other.
"""
