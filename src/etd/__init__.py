"""Equivariant trisection and bridge-trisection diagrams of 4-manifolds."""

__version__ = "0.1.0"


class EtdError(ValueError):
    """The root of every error etd raises."""
