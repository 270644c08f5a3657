"""``CostLedger.split`` as first written — oracle for the one-pass split.

One closure call per (share, counter): every share recomputes each
counter's quotient and remainder.  The production split computes one
``divmod`` per counter and fills the shares from it; the values, each
share's key order and the fractional flop residue on share 0 must be
this function's **bitwise** (``tests/test_util_ledger.py``).
"""

from __future__ import annotations

from repro.util.ledger import CostLedger


def reference_split(led: CostLedger, parts: int) -> list[CostLedger]:
    if parts < 1:
        raise ValueError("parts must be >= 1")

    def ishare(v: int, j: int) -> int:
        return v // parts + (1 if j < v % parts else 0)

    shares = []
    for j in range(parts):
        out = CostLedger(
            reductions=ishare(led.reductions, j),
            reduction_bytes=ishare(led.reduction_bytes, j),
            p2p_messages=ishare(led.p2p_messages, j),
            p2p_bytes=ishare(led.p2p_bytes, j),
        )
        for kern in sorted(led.flops):
            v = led.flops[kern]
            iv = int(v)
            part = float(ishare(iv, j))
            if j == 0:
                part += v - float(iv)
            if part:
                out.flops[kern] = part
        for name in sorted(led.calls):
            part = ishare(led.calls[name], j)
            if part:
                out.calls[name] = part
        shares.append(out)
    return shares
