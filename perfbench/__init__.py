"""Benchmark harness for the fedosov package.

`run.py` is the entry point.  The modules here import only the standard
library at import time; the package under test is imported from the
checkout's `src/` directory by the worker process (`worker.py`).
"""
