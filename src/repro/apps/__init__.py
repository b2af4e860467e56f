"""Benchmark applications: the paper's evaluation workloads, each with an
IR program (differentiated by our AD), a NumPy reference, a hand-written
gradient/Jacobian where the paper has a "Manual" column, and an eager-tape
formulation (the PyTorch/Tapenade comparator)."""
from . import ba, datagen, gmm, hand, kmeans, kmeans_sparse, lstm, rsbench, xsbench  # noqa: F401
