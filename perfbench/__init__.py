"""The repository benchmark for rsvdreg.

``perfbench/run.py`` runs one workload in a fresh process and prints one JSON
result line; ``series.py`` repeats it over seeds and ``compare.py`` judges two
result sets against the bounds in ``BENCHMARK.json``.  See ``README.md``.
"""
