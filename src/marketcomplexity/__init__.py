"""Complexity analysis of market price histories: statistical moments,
entropy and compressibility, algorithmic-probability estimates, and
fractal roughness, plus the time alignment needed to compare markets."""

__version__ = "0.1.0"

from . import align, analysis, bdm, encode, entropy, fractal, ingest, lzw, returns
