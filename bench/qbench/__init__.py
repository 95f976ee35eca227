"""End-to-end and per-layer benchmark for qcompat.

``bench/run.py`` is the entry point.  The package is split by concern:

* :mod:`qbench.inputs` draws seeded inputs with planted answers;
* :mod:`qbench.workloads` defines the workloads, their cells and the output
  check of every operation;
* :mod:`qbench.measure` runs a closed loop over a workload and reduces the
  latencies to the end-to-end metrics;
* :mod:`qbench.tracing` wraps the library's layers for the traced run and
  reduces the spans to per-layer metrics.

Only numpy and the standard library are used.
"""
