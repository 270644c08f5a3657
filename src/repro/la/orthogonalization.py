"""Orthogonalization kernels: Gram-Schmidt variants, CholQR, TSQR, sketching.

These are the communication-critical kernels of the paper (section III-D):

* the distributed QR of a tall-skinny block (paper lines 11 and 24) costs a
  **single** global reduction with CholQR or TSQR, but ``k`` reductions with
  Classical Gram-Schmidt and ``k`` (sequential!) reductions with Modified
  Gram-Schmidt;
* Arnoldi orthogonalization against an existing basis costs one reduction
  per *batch* of dot products (CGS), or one per basis vector (MGS — kept
  as the count oracle ``tests/fixtures/mgs_projection.py``, not a scheme);
* the low-synchronization schemes (``cgs2_1r``, ``cholqr2``) cap the count
  at <= 2 reductions per Arnoldi step at *every* basis depth by fusing all
  Gram blocks of a pass into one stacked GEMM whose result travels in a
  single reduction (Thomas/Baker/Gaudreault low-sync block Gram-Schmidt).

Every kernel reports its (virtual) reduction count to the active
:class:`repro.util.ledger.CostLedger`, which is how the benchmarks verify
the ``2(m-k)`` vs ``m`` reductions-per-cycle claim.

All kernels accept ``n x p`` blocks and work for real or complex dtypes.

The module also owns the *scheme registry* (:data:`SCHEMES`): one table
driving `Options` validation, the verifier's per-scheme drift tolerances,
the docs matrix and the benchmark sweep, so a scheme added here is wired
through every layer automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ..util import ledger
from ..util.ledger import Kernel
from ..util.misc import as_block, column_norms

__all__ = [
    "conj_gram",
    "slab_matmul",
    "cholqr",
    "shifted_cholqr",
    "cholqr2",
    "cholqr_rr",
    "tsqr",
    "sketched_qr",
    "classical_gram_schmidt_qr",
    "modified_gram_schmidt_qr",
    "qr_factorization",
    "project_out",
    "project_out_fused",
    "arnoldi_orthogonalize",
    "apply_sketch",
    "sketch_size",
    "make_arnoldi_engine",
    "PseudoBlockOrthogonalizer",
    "make_pseudo_block_orthogonalizer",
    "pseudo_block_tensor",
    "OrthoScheme",
    "SCHEMES",
    "ORTHO_SCHEME_NAMES",
    "LOW_SYNC_SCHEMES",
]


@dataclass(frozen=True)
class OrthoScheme:
    """One row of the orthogonalization scheme registry.

    ``arnoldi_reductions`` / ``loo_bound`` are the human-readable figures
    quoted in docs/ORTHOGONALIZATION.md and the benchmark report;
    ``orth_tol`` is the basis-orthonormality drift ceiling the runtime
    verifier uses for the scheme (see ``verify/checker.py``).
    """

    name: str
    arnoldi_reductions: str = "-"       # reductions per Arnoldi step
    loo_bound: str = "-"                # loss of orthogonality, informal
    orth_tol: float = 1.0e-6            # verifier drift ceiling
    description: str = ""


#: Single source of truth for every scheme name ``Options.orthogonalization``
#: accepts.  Order matters only for error-message stability.
SCHEMES: dict[str, OrthoScheme] = {s.name: s for s in (
    OrthoScheme("cgs", "2", "O(eps * kappa^2)", 1.0e-6,
                description="classical Gram-Schmidt, one fused Gram per step"),
    OrthoScheme("cgs2_1r", "2", "O(eps)", 1.0e-8,
                description="CGS2 with one delayed reorthogonalization pass; "
                            "Gram blocks fused into one stacked GEMM, norm "
                            "by Pythagorean downdate: <=2 reductions/step"),
    OrthoScheme("cholqr2", "2", "O(eps * kappa)", 1.0e-4,
                description="single-pass projection + CholQR2 intra-block "
                            "normalizer: <=2 reductions/step"),
)}

ORTHO_SCHEME_NAMES: tuple[str, ...] = tuple(SCHEMES)
#: Schemes whose step fuses every projection and the normalizer Gram into
#: at most two stacked reductions, so their cycle seed must start
#: ``C_k``-orthogonal (``_EngineBase.begin``).
LOW_SYNC_SCHEMES: tuple[str, ...] = ("cgs2_1r", "cholqr2")


def conj_gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Uncharged ``x^H y`` that never materializes ``conj(x)``: ``x`` is the
    tall operand (a basis slab), so a complex product conjugates the skinny
    ``y`` and the small result instead.  One BLAS call; over a column-major
    slab view ``x.T`` is C-contiguous and the GEMM reads it as it lies
    (a self-Gram, ``y is x``, is BLAS ``syrk``)."""
    if np.iscomplexobj(x):
        return (x.T @ y.conj()).conj()
    return x.T @ y


def slab_matmul(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Uncharged ``x @ c`` for a tall slab ``x`` and a small ``c``, spelled
    ``(c.T @ x.T).T``: one GEMM whose result comes back column-major, with
    the tall dimension as BLAS's leading one — over a column-major slab
    the plain ``x @ c`` is up to three times slower (see
    docs/ORTHOGONALIZATION.md, "Column-major slab")."""
    return (c.T @ x.T).T


def _right_solve(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Uncharged whitening ``x r^{-1}`` (``r`` upper triangular): a right-side
    ``trsm`` on one F-ordered copy, returned as it is — column-major, the
    basis slab's layout — since the left-side solve on the ``p x n``
    transpose is the slow way round.  The copy is forced: an ``(n, 1)``
    block is C- *and* F-contiguous, so ``overwrite_b`` would otherwise
    write into the caller's array."""
    trsm, = sla.get_blas_funcs(("trsm",), (r, x))
    return trsm(1.0, r, np.array(x, order="F"), side=1, overwrite_b=1)


def _gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^H y with flop + single-reduction accounting."""
    led = ledger.current()
    led.flop(Kernel.BLAS3, 2.0 * x.shape[0] * x.shape[1] * y.shape[1])
    led.reduction(nbytes=x.shape[1] * y.shape[1] * x.itemsize)
    return conj_gram(x, y)


def _chol_from_gram(x: np.ndarray, g: np.ndarray, *, shift: bool = False
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Uncharged CholQR back half: factorize a precomputed Gram, whiten x.

    ``shift`` adds the classic ``11(np + p(p+1)) u ||x||^2`` diagonal shift
    that makes the factorization safe.  Raises
    :class:`numpy.linalg.LinAlgError` before any work when ``g`` is
    numerically indefinite.
    """
    if shift:
        n, p = x.shape
        u = np.finfo(x.dtype).eps
        g = g + (11.0 * (n * p + p * (p + 1)) * u *
                 float(np.trace(g).real)) * np.eye(p, dtype=g.dtype)
    r = np.linalg.cholesky(g).conj().T
    return _right_solve(x, r), r


def cholqr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky QR: ``x = Q R`` with one global reduction.

    Returns ``Q`` (n x p, orthonormal columns) and ``R`` (p x p upper
    triangular).  Raises :class:`numpy.linalg.LinAlgError` when the Gram
    matrix is numerically indefinite (severely ill-conditioned block) —
    callers that must survive that case should use :func:`shifted_cholqr`
    or :func:`cholqr_rr`.
    """
    x = as_block(x)
    g = _gram(x, x)
    q, r = _chol_from_gram(x, g)
    ledger.current().flop(Kernel.BLAS3, 1.0 * x.shape[0] * x.shape[1] ** 2)
    return q, r


def shifted_cholqr(x: np.ndarray, *, refine: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """CholQR with a diagonal shift making the Cholesky factorization safe.

    The shift follows the classic ``11(np + p(p+1)) u ||x||^2`` recipe; one
    optional re-orthonormalization pass (CholQR2) restores orthogonality to
    machine precision.  Still one reduction per pass.
    """
    x = as_block(x)
    q, r = _chol_from_gram(x, _gram(x, x), shift=True)
    if refine:
        q2, r2 = cholqr(q)
        return q2, r2 @ r
    return q, r


def cholqr2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CholQR2: two passes of Cholesky QR — 2 reductions, O(eps) orthogonality.

    The first pass uses the shifted Gram so the factorization cannot break
    down; the second (the "2") restores orthogonality to machine precision.
    This is also the intra-block normalizer of the ``cholqr2`` Arnoldi
    scheme — for a single block the delayed reorthogonalization pass of
    (B)CGS2-1r *is* the second Cholesky pass.
    """
    return shifted_cholqr(x, refine=True)


def cholqr_rr(x: np.ndarray, *, tol: float = 1e-12,
              scale: float | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """Rank-revealing CholQR used for block-breakdown detection (paper §V-C).

    Eigen-decomposes the Gram matrix; directions whose singular value falls
    below ``tol * max(sigma_max, scale)`` are flagged as (near-)colinear.
    ``scale`` lets callers supply an *absolute* reference magnitude — e.g.
    the norm of the candidate block before Arnoldi projection, so that a
    remainder that is numerically zero relative to its input is correctly
    reported as a breakdown even though it is "full rank" relative to its
    own round-off.  Returns ``(Q, R, rank)`` where ``Q`` has ``rank``
    orthonormal columns followed by zero columns, and ``R`` is p x p with
    its trailing rows zeroed, so that ``Q @ R ~= x`` still holds.
    """
    x = as_block(x)
    n, p = x.shape
    led = ledger.current()
    led.flop(Kernel.BLAS3, 2.0 * n * p * p)
    led.reduction(nbytes=p * p * x.itemsize)
    g = conj_gram(x, x)
    w, v = np.linalg.eigh(g)
    led.flop(Kernel.EIG, 9.0 * p**3)
    w = np.maximum(w.real, 0.0)
    sig = np.sqrt(w)[::-1]           # descending singular values of x
    v = v[:, ::-1]
    smax = sig[0] if sig.size else 0.0
    ref = max(smax, scale if scale is not None else 0.0, np.finfo(float).tiny)
    rank = int(np.count_nonzero(sig > tol * ref))
    if rank == 0:
        return np.zeros_like(x), np.zeros((p, p), dtype=x.dtype), 0
    # x = (x v) v^H ; orthonormalize the leading rank columns of x v
    xv = x @ v
    led.flop(Kernel.BLAS3, 2.0 * n * p * p)
    q = np.zeros_like(x)
    q[:, :rank] = xv[:, :rank] / sig[:rank]
    r = np.zeros((p, p), dtype=x.dtype)
    r[:rank, :] = (sig[:rank, None]) * v[:, :rank].conj().T
    return q, r, rank


def tsqr(x: np.ndarray, *, nblocks: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Tall-skinny QR with a binary reduction tree (one global reduction).

    The row blocks emulate the per-rank partitions; the tree is actually
    executed so the factorization is unconditionally stable (unlike CholQR).
    """
    x = as_block(x)
    n, p = x.shape
    nblocks = max(1, min(nblocks, n // max(p, 1) or 1))
    bounds = np.linspace(0, n, nblocks + 1).astype(int)
    qs: list[np.ndarray] = []
    rs: list[np.ndarray] = []
    led = ledger.current()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        q, r = np.linalg.qr(x[lo:hi])
        led.flop(Kernel.QR, 4.0 * (hi - lo) * p**2)
        qs.append(q)
        rs.append(r)
    # reduction tree over the local R factors
    tree: list[list[np.ndarray]] = [[q] for q in qs]
    while len(rs) > 1:
        new_rs, new_tree = [], []
        for i in range(0, len(rs) - 1, 2):
            stacked = np.vstack([rs[i], rs[i + 1]])
            q, r = np.linalg.qr(stacked)
            led.flop(Kernel.QR, 4.0 * stacked.shape[0] * p**2)
            new_rs.append(r)
            new_tree.append(tree[i] + tree[i + 1] + [q])
        if len(rs) % 2:
            new_rs.append(rs[-1])
            new_tree.append(tree[-1])
        rs, tree = new_rs, new_tree
    led.reduction(nbytes=p * p * x.itemsize)
    r = rs[0]
    # reconstruct Q by back-propagating: Q = blkdiag(local Qs) @ (tree Qs)
    q = _tsqr_assemble_q(qs, bounds, r, x)
    return q, r


def _tsqr_assemble_q(qs: list[np.ndarray], bounds: np.ndarray, r: np.ndarray,
                     x: np.ndarray) -> np.ndarray:
    """Recover the explicit thin Q: solve x = Q r (r is small, triangular)."""
    # The clean explicit reconstruction: Q = x @ inv(r).  r may be singular if
    # x is rank deficient; fall back to lstsq in that case.
    try:
        q = sla.solve_triangular(r, x.T, lower=False, trans="T").T \
            if not np.iscomplexobj(x) else \
            sla.solve_triangular(r.conj().T, x.conj().T, lower=True).conj().T
    except (sla.LinAlgError, ValueError):
        q = np.linalg.lstsq(r.conj().T, x.conj().T, rcond=None)[0].conj().T
    ledger.current().flop(Kernel.BLAS3, 1.0 * x.shape[0] * x.shape[1] ** 2)
    return q


def householder_qr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unconditionally stable thin QR (Householder).

    Communication-wise this stands in for TSQR (one reduction on a tree of
    Householder factorizations, cf. CA-GMRES); numerically it is the safe
    choice when the block may be severely ill-conditioned — e.g. the
    re-orthonormalization of ``A U_k`` at an operator change (paper line 4),
    where the recycled space can be arbitrarily close to rank deficient.
    """
    x = as_block(x)
    led = ledger.current()
    led.flop(Kernel.QR, 4.0 * x.shape[0] * x.shape[1] ** 2)
    led.reduction(nbytes=x.shape[1] ** 2 * x.itemsize)
    return np.linalg.qr(x)


# ---------------------------------------------------------------------------
# Sketching (SRHT): seeded sign flip + orthonormal DCT + row sampling.
# The transform is applied to locally-owned rows; only the s x p sketched
# result needs assembling, which is the single small reduction the callers
# charge.  With s = n the operator is an exact isometry (no distortion), so
# small test problems lose nothing; with s < n it is an eps-embedding of any
# fixed s/4-dimensional subspace with high probability.
# ---------------------------------------------------------------------------

_SKETCH_SEED = 20260705
_SKETCH_CACHE: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}


def _srht_operator(n: int, s: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    key = (n, s, seed)
    if key not in _SKETCH_CACHE:
        if len(_SKETCH_CACHE) > 8:
            _SKETCH_CACHE.clear()
        rng = np.random.default_rng([_SKETCH_SEED, n, s, seed])
        signs = rng.choice(np.array([-1.0, 1.0]), size=n)
        rows = np.sort(rng.choice(n, size=s, replace=False)) if s < n \
            else np.arange(n)
        _SKETCH_CACHE[key] = (signs, rows)
    return _SKETCH_CACHE[key]


def sketch_size(n: int, max_cols: int) -> int:
    """Default sketch dimension for a basis of at most ``max_cols`` columns."""
    return int(min(n, max(32, 4 * max_cols + 16)))


def apply_sketch(w: np.ndarray, s: int, *, seed: int = 0) -> np.ndarray:
    """``S @ w`` for the seeded SRHT ``S = sqrt(n/s) P H D`` (s x p result).

    Local work only (flops are charged here); the caller charges the one
    global reduction that assembles the s x p sketched block.
    """
    from scipy.fft import dct

    w = as_block(w)
    n, p = w.shape
    ledger.current().flop(
        Kernel.BLAS3, 2.0 * n * np.log2(max(n, 2)) * max(p, 1))
    signs, rows = _srht_operator(n, s, seed)
    y = dct(signs[:, None] * w, axis=0, norm="ortho", type=2)
    return np.ascontiguousarray(y[rows]) * np.sqrt(n / s)


def sketched_qr(x: np.ndarray, *, tol: float = 1e-12,
                scale: float | None = None, s: int | None = None,
                seed: int = 0) -> tuple[np.ndarray, np.ndarray, int]:
    """Sketched QR: sketch locally, QR the small sketch, whiten ``x``.

    ``Q = x R^{-1}`` with ``R`` from the thin QR of ``S x`` — one small
    reduction total.  ``Q`` is *sketch*-orthonormal: ``||I - Q^H Q|| <=
    eps_s / (1 - eps_s)`` where ``eps_s`` is the embedding distortion
    (0 when ``s = n``).  Rank is judged in sketch space; on deficiency the
    kernel falls back to exact rank-revealing CholQR (extra reduction,
    charged honestly) so the trailing-zero-column contract holds.
    """
    x = as_block(x)
    n, p = x.shape
    if s is None:
        s = sketch_size(n, p)
    sx = apply_sketch(x, s, seed=seed)
    led = ledger.current()
    led.reduction(nbytes=s * p * x.itemsize)
    qs, rs = np.linalg.qr(sx)
    led.flop(Kernel.QR, 4.0 * s * p**2)
    d = np.abs(np.diag(rs))
    smax = float(d.max(initial=0.0))
    ref = max(smax, scale if scale is not None else 0.0, np.finfo(float).tiny)
    rank = int(np.count_nonzero(d > tol * ref))
    if rank < p:
        return cholqr_rr(x, tol=tol, scale=scale)
    q = _right_solve(x, rs)
    led.flop(Kernel.BLAS3, 1.0 * n * p**2)
    return q, rs, p


def classical_gram_schmidt_qr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-by-column CGS QR of a block: p reductions (paper section III-D)."""
    x = as_block(x)
    n, p = x.shape
    q = np.array(x, dtype=x.dtype, copy=True)
    r = np.zeros((p, p), dtype=x.dtype)
    led = ledger.current()
    for j in range(p):
        if j > 0:
            # one *batched* projection against all previous columns: 1 reduction
            coeffs = _gram(q[:, :j], q[:, j:j + 1])
            q[:, j:j + 1] -= q[:, :j] @ coeffs
            led.flop(Kernel.BLAS2, 2.0 * n * j)
            r[:j, j] = coeffs[:, 0]
        nrm = np.linalg.norm(q[:, j])
        led.reduction()
        if nrm > 0:
            q[:, j] /= nrm
        r[j, j] = nrm
    return q, r


def modified_gram_schmidt_qr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """MGS QR: p(p+1)/2 sequential reductions, but maximal robustness."""
    x = as_block(x)
    n, p = x.shape
    q = np.array(x, dtype=x.dtype, copy=True)
    r = np.zeros((p, p), dtype=x.dtype)
    led = ledger.current()
    for j in range(p):
        for i in range(j):
            c = np.vdot(q[:, i], q[:, j])
            led.reduction()
            led.flop(Kernel.BLAS1, 4.0 * n)
            q[:, j] -= c * q[:, i]
            r[i, j] = c
        nrm = np.linalg.norm(q[:, j])
        led.reduction()
        if nrm > 0:
            q[:, j] /= nrm
        r[j, j] = nrm
    return q, r


def qr_factorization(x: np.ndarray, scheme: str = "cholqr", *,
                     tol: float = 1e-12, scale: float | None = None
                     ) -> tuple[np.ndarray, np.ndarray, int]:
    """The block QR the solvers call: ``"cholqr"`` or ``"cholqr_rr"``.

    Returns ``(Q, R, rank)``.  ``"cholqr"`` reports full rank, falling back
    to the shifted variant, then to rank-revealing, when the plain Gram
    Cholesky breaks down; ``"cholqr_rr"`` is :func:`cholqr_rr`.  ``scale``
    is forwarded to the rank-revealing kernel as the absolute reference
    magnitude.
    """
    x = as_block(x)
    if scheme == "cholqr_rr":
        return cholqr_rr(x, tol=tol, scale=scale)
    if scheme != "cholqr":
        raise ValueError(f"unknown QR scheme {scheme!r}; "
                         "expected 'cholqr' or 'cholqr_rr'")
    try:
        q, r = cholqr(x)
    except np.linalg.LinAlgError:
        try:
            q, r = shifted_cholqr(x)
        except np.linalg.LinAlgError:
            return cholqr_rr(x, tol=tol, scale=scale)
    return q, r, x.shape[1]


def _stacked_gram(stacked: np.ndarray, p: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``[basis | w]^H w`` as ONE stacked GEMM / ONE fused reduction.

    ``stacked`` is the ``[basis | w]`` slab view whose trailing ``p``
    columns are the candidate.  Returns ``(coeffs, wgram)``: the projection
    coefficients ``basis^H w`` *and* the small Gram ``w^H w``, whose
    payloads travel together in a single reduction — the remainder Gram
    comes for free with the reorthogonalization coefficients, so the
    intra-block normalizer needs no further communication.
    """
    n, cols = stacked.shape
    k = cols - p
    led = ledger.current()
    led.flop(Kernel.BLAS3, 2.0 * n * cols * p)
    led.reduction(nbytes=cols * p * stacked.itemsize)
    g = conj_gram(stacked, stacked[:, k:])
    return g[:k], g[k:]


def project_out_fused(stacked: np.ndarray, p: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """CGS2-1r projection: two passes, two fused reductions, free Gram.

    Works in place on the slab view ``stacked = [basis | w]``: its trailing
    ``p`` columns hold ``w`` on entry and the twice-projected remainder on
    return — no ``n x cols`` temporary is formed at any basis depth.  Pass 1
    stacks the projection coefficients with ``w^H w`` (which yields the
    pre-projection scale for breakdown detection); pass 2 — the delayed
    reorthogonalization — stacks the correction coefficients with
    ``w1^H w1``, from which the remainder Gram ``w2^H w2`` follows by the
    Pythagorean downdate ``wgram = w1^H w1 - c2^H c2`` without touching the
    network again.  Returns ``(w2, coeffs, wgram, scale)``, ``w2`` being the
    trailing-columns view.

    Compared to two CGS passes followed by a separate QR Gram (3
    reductions, 5 full-length GEMM sweeps) this is 2 reductions and 4
    sweeps — the hoisted double-Gram of the refine path.
    """
    k = stacked.shape[1] - p
    basis, w = stacked[:, :k], stacked[:, k:]
    if k == 0:
        g = _gram(w, w)
        scale = float(np.sqrt(max(np.max(np.diag(g).real, initial=0.0), 0.0)))
        return w, np.zeros((0, p), dtype=w.dtype), g, scale
    led = ledger.current()
    c1, wg0 = _stacked_gram(stacked, p)
    np.subtract(w, slab_matmul(basis, c1), out=w)
    led.flop(Kernel.BLAS3, 2.0 * basis.shape[0] * k * p)
    c2, wg1 = _stacked_gram(stacked, p)
    np.subtract(w, slab_matmul(basis, c2), out=w)
    led.flop(Kernel.BLAS3, 2.0 * basis.shape[0] * k * p)
    wgram = wg1 - c2.conj().T @ c2
    wgram = 0.5 * (wgram + wgram.conj().T)
    # guard the downdate: after a first projection pass the second-pass
    # correction is tiny, so diag(wgram) ~ diag(wg1); severe cancellation
    # means w was (numerically) inside the basis — recompute honestly.
    d, d1 = np.diag(wgram).real, np.diag(wg1).real
    if np.any(d < 0.25 * d1) or np.any(d < 0.0):
        wgram = _gram(w, w)
    scale = float(np.sqrt(max(np.max(np.diag(wg0).real, initial=0.0), 0.0)))
    return w, c1 + c2, wgram, scale


def project_out(basis: np.ndarray, w: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonalize the block ``w`` against the orthonormal ``basis``.

    Returns ``(w_perp, coeffs)`` with ``w_perp = w - basis @ coeffs``.
    This is the ``(I - C_k C_k^H)`` application of the paper (line 26):
    one classical Gram-Schmidt pass, one reduction.
    """
    w = as_block(w)
    if basis.size == 0:
        return w.copy(), np.zeros((0, w.shape[1]), dtype=w.dtype)
    coeffs = _gram(basis, w)
    w2 = w - slab_matmul(basis, coeffs)
    ledger.current().flop(Kernel.BLAS3, 2.0 * basis.shape[0] * basis.shape[1] * w.shape[1])
    return w2, coeffs


def arnoldi_orthogonalize(basis_blocks: np.ndarray, w: np.ndarray, *,
                          scheme: str = "cgs", tol: float = 1e-12,
                          ck: np.ndarray | None = None,
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One (block) Arnoldi orthogonalization step, standalone.

    Orthogonalizes the candidate block ``w`` (n x p) against the stacked
    orthonormal basis ``basis_blocks`` (n x jp) — after the optional fixed
    orthonormal block ``ck`` (GCRO-DR's ``C_k``) — and normalizes the
    remainder.  This is :func:`make_arnoldi_engine`'s ``begin`` on
    ``basis_blocks`` followed by one ``step``: the first step
    ``block_arnoldi_cycle`` takes from the same block, bit for bit.

    Returns ``(q, h, s, rank)`` where ``h`` holds the projection
    coefficients (``[C_k | basis]^H``-shaped: ``(k + jp) x p``), ``s``
    (p x p) the normalization factor (the new diagonal Hessenberg block
    ``h_{j+1,j}``), and ``rank`` the numerical rank of the remainder
    (``< p`` signals a block breakdown).  Rank is judged against the
    magnitude of ``w`` before the basis projection.  The low-synchronization
    schemes report a candidate lying inside the basis as rank 0; the
    project-then-CholQR step of ``cgs`` does not (its plain CholQR factors
    a rounding-level remainder as full rank).
    """
    p = w.shape[1]
    k = ck.shape[1] if ck is not None else 0
    engine = make_arnoldi_engine(scheme, tol=tol)
    v = engine.begin(basis_blocks.astype(w.dtype, copy=False), ck)
    q, h, s, rank, e_col = engine.step(np.asfortranarray(
        np.concatenate(([ck] if k else []) + [v, w], axis=1)), p, k=k)
    return q, h if e_col is None else np.concatenate([e_col, h]), s, rank


# ---------------------------------------------------------------------------
# Block Arnoldi engines: one per scheme, one instance per Arnoldi cycle.
#
# ``step`` orthogonalizes the candidate block against the whole basis *and*
# the optional recycled space C_k and normalizes it, returning
# (q, h, s, rank, e_col).  Every engine folds C_k into one stacked projector
# ``[C_k | V]``: the cgs engine projects once and runs CholQR, the
# low-synchronization engines fuse their normalizer into <= 2 reductions.
# ---------------------------------------------------------------------------


def _chol_normalize(w2: np.ndarray, gram: np.ndarray, *, shift: bool
                    ) -> tuple[np.ndarray, np.ndarray]:
    """q, r from a precomputed (downdated) remainder Gram — no reduction."""
    p = gram.shape[0]
    q, r = _chol_from_gram(w2, gram, shift=shift)
    led = ledger.current()
    led.flop(Kernel.FACTORIZATION, p**3 / 3.0)
    led.flop(Kernel.BLAS3, 1.0 * w2.shape[0] * p**2)
    return q, r


class _EngineBase:
    """Shared plumbing.  ``step(stacked, p, k=...)`` takes the slab view
    ``[C_k | V_0..V_j | W]`` (``BasisArena.stacked()``): ``k`` recycled
    columns lead, the ``p`` candidate columns trail and are scratch (a step
    may project them in place); the normalized block returns as a fresh
    array for the caller to commit.
    """

    def __init__(self, *, tol: float):
        self.tol = tol

    def begin(self, v1: np.ndarray, ck: np.ndarray | None = None
              ) -> np.ndarray:
        """Start a cycle from the first basis block; returns the block the
        cycle commits as ``V_0``.

        The stacked projector treats ``[C_k | V]`` as one orthonormal basis,
        so ``v1`` must be ``C_k``-orthogonal when the engine starts.  The
        caller's residual only satisfies ``C^H r = 0`` up to the previous
        cycle's least-squares roundoff, and that cross term compounds across
        cycles and same-system solves; one fused projection per cycle caps
        the seed at rounding level.  The removed component is O(drift), so
        no renormalization is needed (and ``v1 @ s1 = r`` is preserved to
        the same order).
        """
        k = ck.shape[1] if ck is not None else 0
        if not k:
            return v1
        n, p = v1.shape
        e0 = conj_gram(np.asarray(ck), v1)
        v1 = v1 - slab_matmul(ck, e0)
        led = ledger.current()
        led.flop(Kernel.BLAS3, 4.0 * n * k * p)
        led.reduction(nbytes=k * p * v1.itemsize)
        return v1


class _CholqrEngine(_EngineBase):
    """Project-then-CholQR: the step of ``cgs``.

    One :func:`_stacked_gram` ``[C_k | V | W]^H W`` (one GEMM, one
    reduction: ``E_k``'s column, the Hessenberg column and ``W^H W``,
    whose diagonal is the breakdown scale, the candidate's pre-projection
    norm), one update over ``[C_k | V]``, then :func:`qr_factorization`'s
    CholQR with its shifted and rank-revealing fallbacks: 2 reductions per
    step, recycled or not.  ``begin`` leaves ``v1`` as it is.
    """

    def begin(self, v1, ck=None):
        return v1

    def step(self, stacked, p, *, k=0):
        cols = stacked.shape[1] - p
        proj, w = stacked[:, :cols], stacked[:, cols:]
        c1, wg0 = _stacked_gram(stacked, p)
        np.subtract(w, slab_matmul(proj, c1), out=w)
        ledger.current().flop(Kernel.BLAS3, 2.0 * proj.shape[0] * cols * p)
        scale = float(np.sqrt(np.max(np.diag(wg0).real, initial=0.0)))
        q, s, rank = qr_factorization(w, "cholqr", tol=self.tol, scale=scale)
        return q, c1[k:], s, rank, (c1[:k] if k else None)


class _Cgs21rEngine(_EngineBase):
    """CGS2-1r: two stacked-GEMM passes, Gram-downdated normalizer.

    Reduction 1 carries [C_k | V]^H w stacked with w^H w; reduction 2
    carries the delayed reorthogonalization coefficients stacked with
    w1^H w1, from which the remainder Gram follows by downdate — so the
    Cholesky normalizer is communication-free.  <= 2 reductions per step
    at every basis depth (an extra honest reduction only on the rare
    cancellation / breakdown fallback).
    """

    def step(self, stacked, p, *, k=0):
        w2, coeffs, wgram, scale = project_out_fused(stacked, p)
        e_col, h = (coeffs[:k] if k else None), coeffs[k:]
        d = np.diag(wgram).real
        floor = max(self.tol * scale, np.finfo(float).tiny) ** 2
        try:
            if np.any(d <= floor):
                raise np.linalg.LinAlgError
            q, r = _chol_normalize(w2, wgram, shift=False)
            rank = p
        except np.linalg.LinAlgError:
            q, r, rank = cholqr_rr(w2, tol=self.tol, scale=scale)
        return q, h, r, rank, e_col


class _Cholqr2Engine(_EngineBase):
    """Single-pass stacked projection + CholQR2 intra-block normalizer.

    Reduction 1 carries [C_k | V]^H w stacked with w^H w; the first
    Cholesky pass runs on the downdated remainder Gram (shifted, so it
    cannot break down), and reduction 2 is the explicit second Cholesky
    pass restoring intra-block orthonormality to machine precision.
    Inter-block orthogonality is single-pass CGS quality — the verifier
    scales its drift tolerance accordingly (see the registry).
    """

    def step(self, stacked, p, *, k=0):
        cols = stacked.shape[1] - p
        proj, w = stacked[:, :cols], stacked[:, cols:]
        if cols == 0:
            q, r, rank = cholqr_rr(w, tol=self.tol)
            return q, np.zeros((0, p), dtype=w.dtype), r, rank, None
        c1, wg0 = _stacked_gram(stacked, p)
        led = ledger.current()
        np.subtract(w, slab_matmul(proj, c1), out=w)
        led.flop(Kernel.BLAS3, 2.0 * proj.shape[0] * cols * p)
        e_col, h = (c1[:k] if k else None), c1[k:]
        g1 = wg0 - c1.conj().T @ c1
        g1 = 0.5 * (g1 + g1.conj().T)
        d, d0 = np.diag(g1).real, np.diag(wg0).real
        scale = float(np.sqrt(max(np.max(d0, initial=0.0), 0.0)))
        floor = max(self.tol * scale, np.finfo(float).tiny) ** 2
        # downdate accuracy guard: if the remainder kept less than ~1e-10
        # of the candidate's mass the subtraction has cancelled away all
        # significant digits — or the block broke down; both take the
        # honest rank-revealing fallback.
        try:
            if np.any(d <= floor) or np.any(d < 1e-10 * np.maximum(d0, floor)):
                raise np.linalg.LinAlgError
            q1, r1 = _chol_normalize(w, g1, shift=True)
            q, r2 = cholqr(q1)                     # reduction 2: the "2"
            q, r, rank = q, r2 @ r1, p
        except np.linalg.LinAlgError:
            q, r, rank = cholqr_rr(w, tol=self.tol, scale=scale)
        return q, h, r, rank, e_col


_ENGINES = {"cgs": _CholqrEngine, "cgs2_1r": _Cgs21rEngine,
            "cholqr2": _Cholqr2Engine}


def make_arnoldi_engine(scheme: str, *, tol: float = 1e-12) -> _EngineBase:
    """The block Arnoldi engine of any :data:`ORTHO_SCHEME_NAMES` entry.

    ``tol`` is the relative rank tolerance of the breakdown test.  ``cgs``
    is the project-then-CholQR engine, each low-synchronization scheme has
    its own; every one projects against ``[C_k | V]`` in one stacked pass
    and pays 2 reductions per step outside its breakdown fallbacks.
    """
    if scheme not in _ENGINES:
        raise ValueError(f"unknown orthogonalization scheme {scheme!r}; "
                         f"expected one of {ORTHO_SCHEME_NAMES}")
    return _ENGINES[scheme](tol=tol)


# ---------------------------------------------------------------------------
# Pseudo-block per-step cores: the pure numerics of every scheme, with no
# ledger access — PseudoBlockOrthogonalizer.step charges beside each call.
#
# Column l's basis is the ``i x n`` matrix ``basis[:, :, l]``; the cores
# contract it with batched ``np.matmul`` on the ``(p, i, n)`` view — one
# GEMV per column — and work on the ``(p, n)`` transpose of the candidate.
# (``tests/fixtures/reference_pb_projector.py`` is the einsum oracle.)
# ---------------------------------------------------------------------------


def pseudo_block_tensor(cols: int, n: int, p: int, dtype) -> np.ndarray:
    """Zeroed pseudo-block basis tensor, indexed ``(cols, n, p)`` but stored
    ``(cols, p, n)``: ``t[j]``, ``t[j, :, l]`` and ``t[:i, :, l]`` index as
    the logical shape says, while column ``l``'s basis has unit stride along
    ``n`` — what the cores' GEMVs need to reach BLAS (``np.matmul`` silently
    falls back to a scalar loop otherwise)."""
    return np.zeros((cols, p, n), dtype=dtype).transpose(0, 2, 1)


def _pb_dots(basis: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """``basis_l^H w_l`` per column, ``(p, i)``; ``wt`` is ``(p, n)``.
    Conjugates the skinny operand and the small result, never the basis."""
    return np.matmul(basis.transpose(2, 0, 1),
                     wt.conj()[:, :, None])[:, :, 0].conj()


def _pb_update(basis: np.ndarray, wt: np.ndarray, dt: np.ndarray
               ) -> np.ndarray:
    """``w_l - basis_l d_l`` per column, ``(p, n)``; ``dt`` is ``(p, i)``."""
    return wt - np.matmul(dt[:, None, :], basis.transpose(2, 0, 1))[:, 0, :]


def _pb_sq(xt: np.ndarray) -> np.ndarray:
    """Squared 2-norm of each row of ``xt``."""
    return np.einsum("pn,pn->p", xt.conj(), xt).real


def _pb_step_cgs(basis: np.ndarray, w: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    wt = np.ascontiguousarray(w.T)
    dots = _pb_dots(basis, wt)
    w2 = _pb_update(basis, wt, dots)
    return w2.T, dots.T, column_norms(w2.T)


def _pb_step_cgs2_1r(basis: np.ndarray, w: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Two fused passes + Pythagorean norm downdate; returns the count of
    columns whose norm had to be honestly recomputed (cancellation guard)
    so the caller can charge the extra reduction."""
    wt = np.ascontiguousarray(w.T)
    d1 = _pb_dots(basis, wt)
    w1 = _pb_update(basis, wt, d1)
    d2 = _pb_dots(basis, w1)
    w1sq = _pb_sq(w1)
    w2 = _pb_update(basis, w1, d2).T
    nrm2 = w1sq - _pb_sq(d2)
    nrm = np.sqrt(np.maximum(nrm2, 0.0))
    bad = (nrm2 < 0.25 * w1sq) & (w1sq > 0)
    nbad = int(np.count_nonzero(bad))
    if nbad:
        nrm = np.where(bad, column_norms(w2), nrm)
    return w2, (d1 + d2).T, nrm, nbad


class PseudoBlockOrthogonalizer:
    """Fused per-column Arnoldi orthogonalization for the pseudo-block
    solvers (gmres / pgcrodr).

    The basis is a ``(j+1, n, p)`` tensor whose ``[:, :, l]`` slice is
    column ``l``'s Krylov basis; all ``p`` recurrences advance together, so
    every scheme charges its reductions once per step for the whole bundle
    (payload bytes scale with ``p``; message counts do not, paper §V-B2).
    The orthogonalizer keeps no state between steps.

    Per step: ``cgs`` 2 reductions (dots + norms, the legacy sequence),
    ``cgs2_1r`` 2 (both passes fused with the column norms, final norm by
    Pythagorean downdate), ``cholqr2`` 2 (for width-1 recurrences the
    intra-block normalizer degenerates to an exact renormalization, i.e.
    single-pass CGS + exact norms).
    """

    def __init__(self, scheme: str, *, n: int, p: int, dtype):
        if scheme not in ORTHO_SCHEME_NAMES:
            raise ValueError(f"unknown orthogonalization scheme {scheme!r}; "
                             f"expected one of {ORTHO_SCHEME_NAMES}")
        self.scheme = scheme
        self.n, self.p = n, p
        self.dtype = np.dtype(dtype)

    def step(self, basis: np.ndarray, w: np.ndarray, j: int
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Orthogonalize ``w`` (n x p) against ``basis`` ((j+1, n, p)).

        Returns ``(w2, dots, nrm)``: the remainder, the ``(j+1) x p``
        projection coefficients and the per-column normalization factors.
        The caller normalizes / freezes columns.
        """
        led = ledger.current()
        n, p, itemsize = self.n, self.p, self.dtype.itemsize
        if self.scheme == "cgs2_1r":
            # two fused passes: dots stacked with the column masses, the
            # final norm by Pythagorean downdate; the cancellation guard's
            # honest recompute (rare: near-breakdown only) costs one extra
            # reduction carrying a scalar per affected column.
            w2, dots, nrm, nbad = _pb_step_cgs2_1r(basis, w)
            led.reduction(nbytes=((j + 1) * p + p) * itemsize, count=2)
            led.flop(Kernel.BLAS3,
                     (4.0 * (j + 1) * n * p + 2.0 * n * p) * 2)
            if nbad:
                led.reduction(nbytes=nbad * 8)
        else:
            w2, dots, nrm = _pb_step_cgs(basis, w)
            led.reduction(nbytes=(j + 1) * p * itemsize)
            led.flop(Kernel.BLAS3, 4.0 * (j + 1) * n * p)
            led.reduction(nbytes=p * 8)
        return w2, dots, nrm


def make_pseudo_block_orthogonalizer(scheme: str, *, n: int, p: int, dtype
                                     ) -> PseudoBlockOrthogonalizer:
    """The one constructor the pseudo-block solvers call (a module global of
    each caller, so a tracer can rebind it and time the returned ``step``)."""
    return PseudoBlockOrthogonalizer(scheme, n=n, p=p, dtype=dtype)
