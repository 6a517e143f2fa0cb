"""Time what a scoring process pays before its first request.

Usage: python3 probe_setup.py <src directory> <model.json>

Prints the seconds from just before `import splinefm` to the end of
`load_model`, measured in a fresh interpreter so the import is cold.
"""
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import splinefm  # noqa: E402

splinefm.load_model(sys.argv[2])
print(time.perf_counter() - start)
