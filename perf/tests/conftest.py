import os
import sys

PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(os.path.dirname(PERF_DIR), "src")

for path in (PERF_DIR, SRC_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)
