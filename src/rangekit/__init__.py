"""Adaptive range-coding toolkit.

Pluggable decoder symbol searches, linear and binary-indexed cumulative
count models, a byte-oriented range coder, deterministic data generation,
and an instrumented benchmark harness.
"""
