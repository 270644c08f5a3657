"""Sequence requests: transient workloads driven through the service.

:class:`SequenceDriver` feeds the operator/RHS sequences of
:mod:`repro.problems.transient` through a :class:`SolveService` (sync) or
:class:`AsyncSolveService` — the *sequence request* type of the service
layer.  A sequence is ordered per tenant (step ``t+1``'s RHS derives from
step ``t``'s solution), so the driver advances all tenants in lock-step
*waves*: within a wave every tenant's next step is submitted, the service
coalesces across tenants exactly as it would for independent requests,
and only after the wave's batches complete does any tenant's next step
exist.  Intra-sequence order is preserved while cross-tenant coalescing
still happens.

Per step the driver exercises the full reuse ladder:

* unchanged fingerprint → same-system fast path + setup-cache hit;
* epoch boundary (``dt`` / frequency change) → recycle carry-over via
  :meth:`SetupCache.adopt_from` — the adopted space keeps its foreign
  fingerprint stamp and is *repaired* at the adoption boundary, never
  trusted, whatever ``options.recycle_same_system`` says
  (``options.sequence_adopt``; :func:`repro.krylov.recycling.same_system`).

Cost attribution is per step: each record carries the request's ledger
share (``info["service"]["cost"]``) and its modeled duration at the
driver's rank count; shares merge bit-for-bit back to the batch ledgers
(the ``ledger_verified`` check of ``bench_transient``).

Trace shape (checked by ``check_sequence_shape`` in the test suite's
``tests/trace_gate.py``)::

    sequence.run
      sequence.wave (wave=w)
        service.batch ...        # the wave's dispatches
        sequence.step (tenant=..., step=..., fp_changed=..., batch=...)
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..perfmodel.estimate import modeled_time
from ..trace import tracer as trace
from ..util.options import Options
from .fingerprint import operator_fingerprint
from .scheduler import DEFAULT_NRANKS, AsyncSolveService
from .service import SolveService

__all__ = ["SequenceDriver", "SequenceHandle"]


class SequenceHandle:
    """One tenant's live sequence: schedule, field state, step records."""

    def __init__(self, sequence: Any, options: Options, tenant: str):
        self.sequence = sequence
        self.options = options
        self.tenant = tenant
        self.steps = sequence.steps()
        self.u = sequence.u0()
        self.fp_prev = None
        self.records: list[dict[str, Any]] = []

    @property
    def done(self) -> bool:
        return len(self.records) >= len(self.steps)

    @property
    def all_converged(self) -> bool:
        return all(r["converged"] for r in self.records)

    @property
    def total_iterations(self) -> int:
        return sum(r["iterations"] for r in self.records)

    @property
    def modeled_seconds(self) -> float:
        return sum(r["modeled_seconds"] for r in self.records)


class SequenceDriver:
    """Advance one or more transient sequences through a solve service.

    Parameters
    ----------
    service:
        a :class:`SolveService` or :class:`AsyncSolveService`; its cache
        provides setup reuse and (when it implements ``adopt_from``)
        recycle carry-over across epoch boundaries.
    nranks:
        rank count for per-step modeled durations.
    """

    def __init__(self, service: SolveService, *,
                 nranks: int = DEFAULT_NRANKS):
        self.service = service
        self.nranks = int(nranks)
        self.handles: list[SequenceHandle] = []
        self.is_async = isinstance(service, AsyncSolveService)

    def add(self, sequence: Any, *, options: Options | None = None,
            tenant: str | None = None) -> SequenceHandle:
        """Register one sequence; ``options.sequence_*`` tune its reuse."""
        opts = options or self.service.options
        handle = SequenceHandle(
            sequence, opts, tenant or f"seq{len(self.handles)}")
        if len({h.tenant for h in self.handles + [handle]}) \
                != len(self.handles) + 1:
            raise ValueError(f"duplicate tenant name {handle.tenant!r}")
        self.handles.append(handle)
        return handle

    # -- one wave --------------------------------------------------------
    def _submit_step(self, handle: SequenceHandle, wave: int) -> dict:
        seq = handle.sequence
        opts = handle.options
        step = handle.steps[wave]
        rhs = seq.rhs(step, handle.u)
        kwargs: dict[str, Any] = {}
        if self.is_async:
            kwargs["tenant"] = handle.tenant
        a = seq.operator(step)
        fp = operator_fingerprint(a)
        fp_changed = handle.fp_prev is None or fp != handle.fp_prev
        adopted: list[str] = []
        if fp_changed and handle.fp_prev is not None \
                and opts.sequence_adopt \
                and hasattr(self.service.cache, "adopt_from"):
            adopted = self.service.cache.adopt_from(fp, handle.fp_prev)
        x0 = handle.u if opts.sequence_warm_start else None
        req = self.service.submit(a, rhs, options=opts, x0=x0,
                                  fingerprint=fp, **kwargs)
        if getattr(req, "rejected", None) is not None:
            raise RuntimeError(
                f"sequence step {step.index} of tenant {handle.tenant!r} "
                f"was rejected at admission ({req.rejected}); sequences "
                f"need admission (disable service_queue_depth/deadline)")
        handle.fp_prev = fp
        return {"handle": handle, "step": step, "req": req, "fp": fp,
                "fp_changed": fp_changed, "adopted": adopted}

    def _complete_step(self, pend: dict) -> None:
        handle, step, req = pend["handle"], pend["step"], pend["req"]
        res = self.service.result(req)
        handle.u = np.asarray(res.x).copy()
        svc = res.info["service"]
        cost = svc["cost"]
        modeled = float(modeled_time(cost, self.nranks,
                                     block_width=svc["batch_width"]).total)
        converged = bool(np.asarray(res.converged).all())
        record = {
            "step": step.index,
            "tenant": handle.tenant,
            "epoch": step.epoch,
            "t": step.t,
            "dt": step.dt,
            "sigma": step.sigma,
            "fingerprint": pend["fp"].short(),
            "fp_changed": pend["fp_changed"],
            "adopted_kinds": list(pend["adopted"]),
            "batch": svc["batch"],
            "batch_width": svc["batch_width"],
            "coalesced_requests": svc["coalesced_requests"],
            "setup_cache_hit": svc["setup_cache_hit"],
            "recycle_cache_hit": svc.get("recycle_cache_hit"),
            "recycle_adopted": svc.get("recycle_adopted"),
            "iterations": res.iterations,
            "converged": converged,
            "modeled_seconds": modeled,
            "cost": cost,
        }
        handle.records.append(record)
        tr = trace.current()
        with tr.span("sequence.step", tenant=handle.tenant,
                     step=step.index, epoch=step.epoch,
                     fp_changed=pend["fp_changed"],
                     adopted=bool(pend["adopted"]),
                     batch=svc["batch"]):
            pass

    # -- the drive loop --------------------------------------------------
    def run(self, *, strict: bool = True) -> list[dict[str, Any]]:
        """Advance every registered sequence to completion, in waves.

        Returns the flat list of per-step records (wave-major, then
        tenant registration order).  With ``strict`` (default) a
        non-converged step raises immediately — transient state would
        propagate garbage into every later RHS.
        """
        if not self.handles:
            return []
        n_waves = max(len(h.steps) for h in self.handles)
        tr = trace.current()
        out: list[dict[str, Any]] = []
        with tr.span("sequence.run", tenants=len(self.handles),
                     waves=n_waves):
            for wave in range(n_waves):
                live = [h for h in self.handles if wave < len(h.steps)]
                if not live:
                    break
                with tr.span("sequence.wave", wave=wave):
                    pending = [self._submit_step(h, wave) for h in live]
                    self.service.flush()
                    for pend in pending:
                        self._complete_step(pend)
                for pend in pending:
                    rec = pend["handle"].records[-1]
                    out.append(rec)
                    if strict and not rec["converged"]:
                        raise RuntimeError(
                            f"sequence step {rec['step']} of tenant "
                            f"{rec['tenant']!r} did not converge "
                            f"({rec['iterations']} iterations)")
        return out

    # -- aggregation -----------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Macro numbers: modeled seconds per simulated second, per tenant."""
        tenants = {}
        for h in self.handles:
            sim = h.sequence.total_time if h.records else 0.0
            modeled = h.modeled_seconds
            tenants[h.tenant] = {
                "steps": len(h.records),
                "epochs": h.sequence.n_epochs,
                "iterations": h.total_iterations,
                "all_converged": h.all_converged,
                "modeled_seconds": modeled,
                "simulated_seconds": sim,
                "modeled_per_simulated_second":
                    modeled / sim if sim else 0.0,
            }
        total_modeled = sum(t["modeled_seconds"] for t in tenants.values())
        total_sim = sum(t["simulated_seconds"] for t in tenants.values())
        return {
            "tenants": tenants,
            "steps": sum(t["steps"] for t in tenants.values()),
            "all_converged": all(t["all_converged"]
                                 for t in tenants.values()),
            "modeled_seconds": total_modeled,
            "simulated_seconds": total_sim,
            "modeled_per_simulated_second":
                total_modeled / total_sim if total_sim else 0.0,
        }
