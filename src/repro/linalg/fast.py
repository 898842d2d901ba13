"""Symmetry-aware, workspace-reusing BLAS kernels for the fast update path.

The reference kernels in :mod:`repro.linalg.kernels` compute every step
of the measurement update as an out-of-place product on generic dense
matrices.  The covariance math has more structure than that:

* ``C`` is symmetric, so ``C·Hᵗ`` only needs one triangle of ``C``
  (:func:`symm`, BLAS ``dsymm``) — or, when ``H`` touches few state
  columns, a gather of those columns followed by a thin GEMM
  (:func:`gather_cht`);
* the gain solve ``K = C⁻Hᵗ S⁻¹`` factors through ``W = C⁻Hᵗ·L⁻ᵗ``
  (one in-place triangular solve, :func:`trsm_right`, half the FLOPs of
  the reference pair of solves) because ``K·ν = W·(L⁻¹ν)`` and
  ``K·(C⁻Hᵗ)ᵗ = W·Wᵗ``;
* the covariance downdate ``C⁺ = C⁻ − W·Wᵗ`` is a rank-m *symmetric*
  update (:func:`syrk_downdate`, BLAS ``dsyrk``): only one triangle is
  computed — halving the dominant ``2·n²·m`` FLOPs of the reference
  ``outer_update``.

**One valid triangle.**  Inside a chain of batch updates only the
triangle ``dsyrk`` maintains is valid: the lower triangle of the
Fortran-contiguous operand, which for a C-ordered covariance ``c``
handed over as ``c.T`` is the upper triangle of ``c`` (``c[i, j]`` with
``j ≥ i``).  :func:`symm` and :func:`gather_cht` read only that triangle,
so nothing between two downdates needs the other one, and the posterior
is completed once, by :func:`mirror_lower`, when it leaves the chain.
The mirror only copies values, so the completed matrix is exactly
symmetric and no re-symmetrization pass is needed.

All kernels emit :class:`~repro.linalg.counters.KernelEvent` records with
*corrected* FLOP/byte accounting: FLOPs count what the symmetric
algorithm actually executes (e.g. ``n²·m`` for the downdate) and bytes
count one triangle where only one triangle is touched.  Buffers come
from the per-thread :class:`~repro.linalg.workspace.Workspace` arena;
see that module's docstring for the aliasing rules.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas as _blas

from repro.errors import DimensionError
from repro.faults.injector import current_injector
from repro.linalg.counters import OpCategory, emit, timed

__all__ = [
    "add_diagonal_inplace",
    "gather_cht",
    "mirror_lower",
    "spmm_support",
    "symm",
    "syrk_downdate",
    "trsm_right",
]



def _as_fortran_symmetric(a: np.ndarray) -> np.ndarray:
    """A Fortran-contiguous alias of a symmetric matrix, without copying.

    A C-contiguous symmetric matrix equals its transpose, and the
    transpose *view* is Fortran-contiguous — so BLAS can consume it
    directly instead of scipy's wrapper silently copying the full n².
    """
    if a.flags.f_contiguous:
        return a
    if a.flags.c_contiguous:
        return a.T
    return np.asfortranarray(a)


def symm(
    c: np.ndarray,
    b: np.ndarray,
    out: np.ndarray | None = None,
    category: OpCategory = OpCategory.MATMAT,
) -> np.ndarray:
    """``C @ B`` with ``C`` symmetric, via BLAS ``dsymm``.

    ``C`` is (n×n) symmetric and only the triangle :func:`syrk_downdate`
    maintains is read: the upper triangle of a C-ordered ``C``, the lower
    triangle of a Fortran-ordered one.  ``B`` is (n×m).  ``out``, if
    given, must be an (n×m) Fortran-contiguous buffer that aliases
    neither operand; the product is written into it in place.  FLOPs are the full ``2·n²·m`` (``dsymm`` performs them), but
    the byte count credits the symmetric read: one triangle of ``C``.
    """
    c = np.asarray(c, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionError("symm expects a square symmetric left operand")
    if b.ndim != 2 or b.shape[0] != c.shape[0]:
        raise DimensionError(f"symm dimension mismatch: {c.shape} @ {b.shape}")
    n, m = b.shape
    t0 = timed()
    # The lower triangle of the Fortran alias is the maintained one
    # (for a C-ordered ``c`` the alias is ``c.T``).
    cf = _as_fortran_symmetric(c)
    bf = b if b.flags.f_contiguous else np.asfortranarray(b)
    if out is None:
        res = _blas.dsymm(1.0, cf, bf, side=0, lower=1)
    else:
        if out.shape != (n, m) or not out.flags.f_contiguous:
            raise DimensionError("symm out buffer must be Fortran-ordered (n, m)")
        res = _blas.dsymm(1.0, cf, bf, beta=0.0, c=out, side=0, lower=1, overwrite_c=1)
    seconds = timed() - t0
    flops = 2.0 * n * n * m
    nbytes = 8.0 * (n * (n + 1) / 2.0 + 2.0 * n * m)
    emit(category, flops, nbytes, (n, m), seconds, parallel_rows=n, op="symm")
    return res


def gather_cht(
    c: np.ndarray,
    h_support: np.ndarray,
    support: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``C·Hᵗ`` exploiting the Jacobian's column support; a ``d-s`` event.

    ``H`` (m×n) has non-zeros only in the ``s = len(support)`` state
    columns listed in ``support``; ``h_support`` is its (m×s) dense
    restriction.  Then ``C·Hᵗ = (H_s · C[support, :])ᵗ`` — a thin
    (m×s)·(s×n) GEMM instead of an O(n²·m) product.  ``C`` must be
    C-ordered and only its upper triangle is read: row ``i`` of the
    gather takes ``C[i, j]`` for ``j ≥ i`` and ``C[j, i]`` below that,
    an O(s·n) assembly.  ``out``, if given, is a C-contiguous (m×n)
    buffer; the Fortran-contiguous transpose view of the result
    (shape (n, m)) is returned either way.
    """
    c = np.asarray(c, dtype=np.float64)
    h_support = np.asarray(h_support, dtype=np.float64)
    n = c.shape[0]
    m, s = h_support.shape
    if c.ndim != 2 or c.shape[1] != n or not c.flags.c_contiguous:
        raise DimensionError("gather_cht expects a square C-ordered covariance")
    if support.shape != (s,):
        raise DimensionError(
            f"support size {support.shape} does not match h_support {h_support.shape}"
        )
    t0 = timed()
    # (s, n) row gather, valid from the diagonal rightwards; the entries
    # left of it come from the matching upper-triangle column.  One short
    # strided copy per support row beats a fancy-indexed column gather.
    cs = c[support, :]
    for k, i in enumerate(support.tolist()):
        cs[k, :i] = c[:i, i]
    if out is None:
        cht_t = np.dot(h_support, cs)
    else:
        if out.shape != (m, n) or not out.flags.c_contiguous:
            raise DimensionError("gather_cht out buffer must be C-ordered (m, n)")
        cht_t = np.dot(h_support, cs, out=out)
    seconds = timed() - t0
    flops = 2.0 * n * s * m
    nbytes = 8.0 * (2.0 * n * s + s * m + n * m)
    emit(
        OpCategory.DENSE_SPARSE, flops, nbytes, (n, s, m), seconds,
        parallel_rows=n, op="gather_cht",
    )
    return cht_t.T


def spmm_support(
    h_support: np.ndarray, cht: np.ndarray, support: np.ndarray
) -> np.ndarray:
    """``H·(C⁻Hᵗ)`` through the support restriction; a ``d-s`` event.

    ``H`` reads only the ``s`` supported rows of ``cht`` (n×m), so the
    innovation covariance is the thin product ``H_s · cht[support]`` —
    (m×s)·(s×m), O(m²·s) instead of O(m²·n).
    """
    h_support = np.asarray(h_support, dtype=np.float64)
    m, s = h_support.shape
    if cht.ndim != 2 or cht.shape[1] != m or support.shape != (s,):
        raise DimensionError(
            f"spmm_support shape mismatch: H_s{h_support.shape}, cht{cht.shape}"
        )
    t0 = timed()
    out = np.dot(h_support, cht[support, :])
    seconds = timed() - t0
    flops = 2.0 * m * s * m
    nbytes = 8.0 * (m * s + 2.0 * s * m + m * m)
    emit(
        OpCategory.DENSE_SPARSE, flops, nbytes, (m, s), seconds,
        parallel_rows=m, op="spmm_support",
    )
    return out


def trsm_right(
    lower: np.ndarray, b: np.ndarray, transpose: bool = True
) -> np.ndarray:
    """In-place right triangular solve against a lower Cholesky factor.

    With ``transpose=True`` solves ``X·Lᵗ = B`` (the whitening step
    ``W = C⁻Hᵗ·L⁻ᵗ``), else ``X·L = B``.  ``B`` is (n×m) and is
    overwritten when Fortran-contiguous (workspace buffers are); the
    result is returned either way.  One ``sys`` event of ``n·m²`` FLOPs —
    half the reference path, which runs two solves.
    """
    lower = np.asarray(lower, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if lower.ndim != 2 or lower.shape[0] != lower.shape[1]:
        raise DimensionError("trsm_right expects a square triangular matrix")
    m = lower.shape[0]
    if b.ndim != 2 or b.shape[1] != m:
        raise DimensionError(f"trsm_right rhs has {b.shape} columns, expected {m}")
    n = b.shape[0]
    t0 = timed()
    out = _blas.dtrsm(
        1.0, lower, b, side=1, lower=1, trans_a=1 if transpose else 0,
        overwrite_b=1 if b.flags.f_contiguous else 0,
    )
    seconds = timed() - t0
    flops = float(n) * m * m
    nbytes = 8.0 * (m * (m + 1) / 2.0 + 2.0 * n * m)
    emit(
        OpCategory.SYSTEM, flops, nbytes, (m, n), seconds,
        parallel_rows=n, op="trsm",
    )
    return out


def mirror_lower(a: np.ndarray) -> np.ndarray:
    """Copy the strict lower triangle of ``a`` onto its upper (in place).

    The completion step of a batch chain: ``mirror_lower(c.T)`` makes a
    C-ordered covariance whose upper triangle :func:`syrk_downdate`
    maintained exactly symmetric.  Each step copies one partial
    row/column; the destination slice is the contiguous one for the
    array's memory order, so the loop is n−1 contiguous writes fed by
    strided reads.  One ``m-m`` event (``op="mirror"``, 0 FLOPs: it
    only moves values).  Returns ``a``.
    """
    n = a.shape[0]
    t0 = timed()
    if a.flags.f_contiguous:
        for j in range(1, n):
            a[:j, j] = a[j, :j]
    else:
        for i in range(n - 1):
            a[i, i + 1 :] = a[i + 1 :, i]
    seconds = timed() - t0
    emit(
        OpCategory.MATMAT, 0.0, 8.0 * n * (n - 1), (n,), seconds,
        parallel_rows=n, op="mirror",
    )
    return a


def syrk_downdate(c_out: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rank-m symmetric downdate ``C ← C − W·Wᵗ`` in place; an ``m-m`` event.

    ``c_out`` is an (n×n) Fortran-contiguous matrix updated in place:
    BLAS ``dsyrk`` computes only the lower triangle (``n²·m`` FLOPs —
    half the reference ``outer_update``) and reads only that triangle
    of the input.  The strict upper triangle is left as it was; a
    C-ordered covariance passed as ``c.T`` therefore has a valid upper
    triangle afterwards, and :func:`mirror_lower` completes it once the
    batch chain is done.  The FLOP count keeps its ``n²`` completion
    term, so per-cycle totals do not depend on where the mirror runs.
    """
    c_out = np.asarray(c_out)
    w = np.asarray(w, dtype=np.float64)
    n = c_out.shape[0]
    if c_out.ndim != 2 or c_out.shape != (n, n):
        raise DimensionError("syrk_downdate expects a square target matrix")
    if not c_out.flags.f_contiguous or c_out.dtype != np.float64:
        raise DimensionError("syrk_downdate target must be Fortran-ordered float64")
    if w.ndim != 2 or w.shape[0] != n:
        raise DimensionError(f"syrk_downdate shape mismatch: C{c_out.shape}, W{w.shape}")
    m = w.shape[1]
    t0 = timed()
    res = _blas.dsyrk(-1.0, w, beta=1.0, c=c_out, trans=0, lower=1, overwrite_c=1)
    if res is not c_out and not np.shares_memory(res, c_out):
        # BLAS had to copy (non-contiguous W path); fold the result back.
        c_out[:, :] = res
    seconds = timed() - t0
    flops = float(n) * n * m + float(n) * n
    nbytes = 8.0 * (n * (n + 1) + n * m)
    emit(
        OpCategory.MATMAT, flops, nbytes, (n, m), seconds,
        parallel_rows=n, op="syrk_downdate",
    )
    injector = current_injector()
    if injector is not None:
        poisoned = injector.maybe_poison(c_out, "syrk_downdate")
        if poisoned is not c_out:
            c_out[:, :] = poisoned
    return c_out


def add_diagonal_inplace(a: np.ndarray, d: np.ndarray | float) -> np.ndarray:
    """``a += diag(d)`` in place; a ``vec`` event of O(m) work.

    Unlike the reference :func:`~repro.linalg.kernels.add_diagonal`, no
    full-matrix copy is made, so the byte count is the 2·m diagonal
    elements actually touched.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("add_diagonal_inplace expects a square matrix")
    m = a.shape[0]
    t0 = timed()
    idx = np.arange(m)
    a[idx, idx] += d
    seconds = timed() - t0
    emit(
        OpCategory.VECTOR, float(m), 8.0 * 2 * m, (m,), seconds,
        parallel_rows=m, op="add_diagonal_inplace",
    )
    return a
