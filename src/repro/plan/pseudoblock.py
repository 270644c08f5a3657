"""Benchmark-resolved alias of the pseudo-block orthogonalizer factory."""

from ..la.orthogonalization import make_pseudo_block_orthogonalizer

__all__ = ["make_pseudo_block_orthogonalizer"]
