"""Dense/tall-skinny linear algebra kernels."""

from .blockqr import BlockHessenbergQR
from .orthogonalization import (LOW_SYNC_SCHEMES, ORTHO_SCHEME_NAMES, SCHEMES,
                                OrthoScheme, PseudoBlockOrthogonalizer,
                                apply_sketch, arnoldi_orthogonalize, cholqr,
                                cholqr2, cholqr_rr, classical_gram_schmidt_qr,
                                householder_qr, make_arnoldi_engine,
                                modified_gram_schmidt_qr, project_out,
                                project_out_fused, qr_factorization,
                                shifted_cholqr, sketch_size, sketched_qr, tsqr)

__all__ = [
    "BlockHessenbergQR",
    "cholqr",
    "shifted_cholqr",
    "cholqr2",
    "cholqr_rr",
    "tsqr",
    "householder_qr",
    "classical_gram_schmidt_qr",
    "modified_gram_schmidt_qr",
    "sketched_qr",
    "apply_sketch",
    "sketch_size",
    "qr_factorization",
    "project_out",
    "project_out_fused",
    "arnoldi_orthogonalize",
    "make_arnoldi_engine",
    "PseudoBlockOrthogonalizer",
    "OrthoScheme",
    "SCHEMES",
    "ORTHO_SCHEME_NAMES",
    "LOW_SYNC_SCHEMES",
]
