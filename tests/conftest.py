"""Pytest configuration: make tests/helpers.py importable and keep
hypothesis deadlines off (interpreted executors are slow but
deterministic)."""
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

# Stage-boundary IR verification is on by default under pytest (the prod
# default is "off"); CI additionally runs one leg with REPRO_VERIFY=full.
os.environ.setdefault("REPRO_VERIFY", "boundary")
