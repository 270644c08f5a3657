"""Benchmark-resolved stub; no solver calls it (the traced count stays 0)."""

__all__ = ["compiled_block_arnoldi_cycle"]


def compiled_block_arnoldi_cycle(*args, **kwargs):
    raise NotImplementedError(
        "the plan compiler was removed; krylov.cycle.block_arnoldi_cycle "
        "is the one Arnoldi cycle")
