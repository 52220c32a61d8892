"""Benchmark for the mapfgnn pipeline; run it as ``python3 perfbench/run.py``."""
