"""Exact tools for simplicial and crystallographic hyperplane arrangements.

Import from the modules (``cryarr.geometry``, ``cryarr.verifier``, ...);
the package itself re-exports nothing."""

__version__ = "0.1.0"
