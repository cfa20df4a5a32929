"""The repo's benchmark: seven named workloads, end-to-end and per-layer
metrics, and an outside-in traced run.  See ``bench/README.md``.

Entry points: ``python -m bench.run`` and ``python -m bench.compare``.
"""
