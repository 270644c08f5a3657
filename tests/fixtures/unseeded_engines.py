"""Arnoldi engines whose ``begin`` takes the seed block as given.

``repro.la.orthogonalization.make_arnoldi_engine`` builds engines whose
``begin(v1, ck)`` projects ``v1`` against ``C_k`` (one charged reduction)
and returns the projected block.  The list-of-blocks oracle
(``legacy_cycle.py``) does that projection itself before it calls
``begin``, as the cycle did before the engines took it over; this factory
hands it the same engines with the projection left out of ``begin``, so the
oracle runs unchanged.
"""

from __future__ import annotations

from repro.la import orthogonalization as orth


class _TakesSeedAsGiven(orth._EngineBase):
    def begin(self, v1, ck=None):
        return v1


def make_arnoldi_engine(scheme, **kw):
    """``orth.make_arnoldi_engine(scheme, **kw)``, re-classed so that the
    base ``begin`` an engine defers to (``super().begin``) returns ``v1``
    untouched; an engine's own state set-up (the sketch) still runs."""
    engine = orth.make_arnoldi_engine(scheme, **kw)
    base = type(engine)
    engine.__class__ = type(f"Unseeded{base.__name__}",
                            (base, _TakesSeedAsGiven), {})
    return engine
