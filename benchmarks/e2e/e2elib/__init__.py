"""Support package of the end-to-end benchmark (``benchmarks/e2e/run.py``).

Nothing here is imported by ``src/``; the benchmark measures the program
from outside, through its public API only.
"""
