"""Complex dense linear algebra primitives.

Everything operates on plain ``numpy`` complex arrays.  Block operators on a
tensor product of two factors are carried by :class:`BipartiteOperator`, which
fixes the index convention used throughout the package: the composite row
index is ``(i, k) -> i * n + k`` with ``i`` in the first (m-dimensional)
factor and ``k`` in the second (n-dimensional) one.  Equivalently, a block
operator is a grid of m x m blocks of size n x n, and ``numpy.kron`` realizes
the tensor product in exactly this layout.

Ranks of Hermitian matrices come from their spectrum, since the singular
values of a Hermitian matrix are its absolute eigenvalues.
:func:`_check_hermitian` passes an exactly Hermitian stack, as every
constructor builds, on as it is after one comparison, and symmetrizes only a
near-Hermitian one.  :func:`_spectra` gives the spectra of stacks of
matrices, and its docstring is the one description of how.  Every rank and
PSD flag applies the one threshold rule of :func:`_rank_psd`: ``classify``'s,
those of the face family's Gram check in ``states``, and those of
:func:`_kernel`, the one subspace routine, which gives the kernels of a
stack of Hermitian matrices from one ``eigh``.  Where a rank reads 0 the
caller reads the spectrum again from a sixteenth of the matrix, so that a
spectrum past the float range is not read as the zero matrix's.  The ``_``
names here are shared within the package only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidParamError, NotHermitianError

# Tolerances.  Ranks use a relative singular-value threshold; PSD checks use
# an absolute floor on the smallest eigenvalue so that boundary families
# (which are PSD by construction but accumulate rounding) pass.
RANK_RTOL = 1e-9
PSD_ATOL = 1e-10
HERM_RTOL = 1e-10

# Stacks of at least this many matrices take their spectra block by block.  A
# _classify_stack call of k edge (face) states took, split over unsplit, 1.7
# (1.9) times as long at k = 1, 1.00-1.05 (1.03-1.09) at 8, 0.88-0.91 (0.92-1.01)
# at 10, 0.79 (0.85) at 16 and 0.52 (0.63) at 64: CPU time, 15-31 runs, 2 CPUs.
SPLIT_MIN = 10

# A 3 x 3 block of the split path takes eigvalsh when 1 - r**2 is at most
# this, r = cos(3 phi) of its cubic (see _cubic).  A closed-form root errs by
# about eps / sqrt(1 - r**2) of the block's scale, so about 2e-12 at the
# floor: 500 times under RANK_RTOL and 50 times under PSD_ATOL.  The double
# roots at 0 of corner_state's all-ones block and of edge_state(b, +-pi/3)
# sit at r = 1 and need it.
CUBIC_FLOOR = 1e-8

_TINY = np.finfo(float).tiny
# Flat indices of a 3 x 3 matrix: its diagonal d_i, then g_i = h[i+1, i+2]
# (mod 3).  _cubic takes rows _ROLLED of them, d_0 d_1 d_2 d_0 d_1 g_0 g_1 g_2
# g_0 g_1, so that rows [1:4] and [2:5] of d and g are the entries i+1, i+2.
_ENTRIES = np.array([0, 4, 8, 5, 6, 1])
_ROLLED = np.array([0, 1, 2, 0, 1, 3, 4, 5, 3, 4])
# Constants as 0-d arrays, which numpy takes without a conversion per call
_TWO, _THREE, _FOUR, _TWO_THIRDS = (np.array(c) for c in (2.0, 3.0, 4.0, 2 / 3))


@dataclass(frozen=True)
class BipartiteOperator:
    """A square matrix on an (m x n)-dimensional tensor-product space.

    ``mat[(i, k), (j, l)]`` with composite indices ``i*n + k`` and ``j*n + l``
    is the ``(k, l)`` entry of the n x n block ``B_ij``.
    """

    m: int
    n: int
    mat: np.ndarray

    def __post_init__(self):
        d = self.m * self.n
        if type(self.mat) is not np.ndarray or self.mat.dtype != complex:
            object.__setattr__(self, "mat", np.asarray(self.mat, dtype=complex))
        if self.m <= 0 or self.n <= 0:
            raise DimensionMismatchError("local dimensions must be positive")
        if self.mat.shape != (d, d):
            raise DimensionMismatchError(
                f"matrix shape {self.mat.shape} does not match local dims ({self.m}, {self.n})"
            )
        if not np.logical_and.reduce(np.isfinite(self.mat), None):
            raise InvalidParamError("matrix entries must be finite")


def _partial_transpose(mats: np.ndarray, m: int, n: int) -> np.ndarray:
    """Transpose the first tensor factor of each matrix in a stack over leading axes."""
    lead = mats.shape[:-2]
    t = mats.reshape(*lead, m, n, m, n).swapaxes(-4, -2)
    return t.reshape(*lead, m * n, m * n)


def _with_partial_transposes(h: np.ndarray, m: int, n: int) -> np.ndarray:
    """The (k, mn, mn) stack ``h`` followed by the partial transposes of its
    matrices, as one (2k, mn, mn) stack written in one copy."""
    t = h.reshape(len(h), m, n, m, n)
    return np.concatenate((t, t.swapaxes(1, 3))).reshape(-1, m * n, m * n)


def _squared_norm(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix, one sum over the real view."""
    r = np.ascontiguousarray(x).view(np.float64)
    return np.einsum("...ij,...ij->...", r, r)


def _check_hermitian(m: np.ndarray) -> np.ndarray:
    """Validate near-Hermiticity and return a Hermitian matrix to use for ``m``.

    ``m`` is one complex square matrix or a stack of them over leading axes,
    as :class:`BipartiteOperator` and the family builders give.  A stack
    equal to its adjoint entry for entry, as the constructors build, comes
    back as it is, after one comparison: no arithmetic, so nothing can
    overflow.  Any other stack passes when each matrix has
    ``||m - m^H||_F <= HERM_RTOL * max(||m||_F, 1)`` and comes back
    symmetrized, ``(m + m^H) / 2``; it raises for its first matrix that
    fails, named by its flat index over the leading axes when the stack
    holds more than one matrix.  Callers must not write into the result.
    """
    mh = m.conj().swapaxes(-2, -1)
    if np.logical_and.reduce(m == mh, None):
        return m
    scale2, asym2 = np.maximum(_squared_norm(m), 1.0), _squared_norm(m - mh)
    # a sum of squares past the float limit would pass any asymmetry
    fails = (asym2 > HERM_RTOL**2 * scale2) | np.isinf(scale2)
    if not fails.any():
        return (m + mh) / 2
    if np.isinf(scale2).any():
        # weigh each matrix divided by c, the larger of 1 and its largest
        # entry modulus, and halve each term before the sum, which overflows
        c = np.maximum(np.abs(m).max(axis=(-2, -1), keepdims=True), 1.0)
        scale2, asym2 = np.maximum(_squared_norm(m / c), 1.0), _squared_norm(m / c - mh / c)
        fails = asym2 > HERM_RTOL**2 * scale2
        if not fails.any():
            return m / 2 + mh / 2
    i = np.argmax(fails)
    where = f" (matrix {i} of the stack)" if fails.size > 1 else ""
    rel = np.sqrt(asym2.flat[i] / scale2.flat[i])
    raise NotHermitianError(f"not Hermitian{where}: relative asymmetry {rel:.3e} exceeds {HERM_RTOL:.1e}")


def _rank_psd(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks and PSD flags from eigenvalues in ascending order (last axis), as from ``eigvalsh``.

    The one rank-threshold rule of the package: the rank counts the absolute
    eigenvalues (the singular values of a Hermitian matrix) above
    :data:`RANK_RTOL` times the largest, ``||m||_2``, which is that of the
    first or the last; the zero matrix has rank 0.  PSD means a smallest
    eigenvalue, the first, ``>= -PSD_ATOL * max(1, ||m||_2)``.

    A finite matrix whose spectrum overflows reads rank 0 too, as its largest
    eigenvalue is inf.  So where a rank reads 0, callers take the spectrum
    again from the matrix times 1/16: an exact scaling, under which neither
    rank nor PSD flag changes while the largest eigenvalue stays >= 1.  An
    eigenvalue of a matrix of d rows is at most d times its largest entry
    modulus, so for d <= 16 the sixteenth's spectrum is within the range.
    """
    mag = np.abs(vals)
    top = np.maximum(mag[..., 0], mag[..., -1])
    return np.add.reduce(mag > RANK_RTOL * top[..., None], -1), vals[..., 0] >= -PSD_ATOL * np.maximum(top, 1.0)


@functools.lru_cache(maxsize=256)
def _blocks(pattern: bytes, d: int) -> tuple:
    """The connected blocks of a symmetric d x d nonzero pattern as ``(s, idx)``
    pairs by ascending size ``s``, each row of ``idx`` one block's ascending
    indices; cached, as the chunks of one sweep share a pattern."""
    reach = np.frombuffer(pattern, bool).reshape(d, d) | np.eye(d, dtype=bool)
    for _ in range(d.bit_length()):  # paths of up to 2**t steps after t squarings
        reach = reach @ reach
    blocks = sorted({tuple(np.flatnonzero(row)) for row in reach})
    return tuple((s, np.array([b for b in blocks if len(b) == s])) for s in sorted({len(b) for b in blocks}))


def _pair_spectra(h: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The eigenvalues of the 2 x 2 blocks ``[[a, c*], [c, d]]`` on the index
    pairs ``idx`` of each matrix of ``h``, in closed form: ``m - r`` and
    ``m + r``, ``m = (a + d)/2`` and ``r = hypot((a - d)/2, |c|)``.

    Each block is first scaled by the power of two that puts its largest
    entry part in [0.5, 1), an exact scaling, so that a subnormal diagonal is
    not halved to 0 and no sum near the float limit overflows.
    """
    i, j = idx.T
    a, d, c = h[:, i, i].real, h[:, j, j].real, h[:, j, i]
    e = np.frexp(np.maximum(np.maximum(abs(a), abs(d)), np.maximum(abs(c.real), abs(c.imag))))[1]
    a, d, re, im = (np.ldexp(x, -e) for x in (a, d, c.real, c.imag))
    m, r = (a + d) / 2, np.hypot((a - d) / 2, np.hypot(re, im))
    with np.errstate(over="ignore"):  # to inf, as from eigvalsh; see _rank_psd
        return np.ldexp(np.concatenate([m - r, m + r], axis=-1), np.concatenate([e, e], axis=-1))


def _cubic(d: np.ndarray, g: np.ndarray) -> tuple:
    """Kopp's trigonometric solution (Int. J. Mod. Phys. C 19, 523 (2008),
    arXiv:physics/0610206) of the characteristic cubic of 3 x 3 Hermitian
    blocks with real diagonals ``d`` and ``g_i = h[i+1, i+2]`` (mod 3), both
    rolled by :data:`_ROLLED` to shape (5, ...), and scaled so that no power
    of them under- or overflows: ``q``, ``2p`` and ``r``, the eigenvalues
    being ``q + 2p cos(arccos(r)/3 + 2 pi j/3)`` (j = 1 the smallest), then
    ``d - q`` (rolled), ``|g_i|^2`` and ``g_{i+1} g_{i+2}`` for the search's
    adjugates.  A non-finite entry gives a NaN ``r``.  The sums and product
    over the rows are the ufunc reductions of ``sum`` and ``prod``, bit for
    bit, without their Python wrappers."""
    g2 = np.abs(g[:3]) ** 2
    gg = g[1:4] * g[2:5]
    q = np.add.reduce(d[:3], 0) / _THREE
    d0 = d - q
    two_p = np.sqrt((np.add.reduce(d0[:3] * d0[:3], 0) + _TWO * np.add.reduce(g2, 0)) * _TWO_THIRDS)
    det = np.multiply.reduce(d0[:3], 0) + _TWO * (g[0] * gg[0]).real - np.add.reduce(d0[:3] * g2, 0)
    r = np.minimum(np.maximum(_FOUR * det / np.maximum(two_p**3, _TINY), -1.0), 1.0)
    return q, two_p, r, d0, g2, gg


def _spectra(stack: np.ndarray, dims: tuple[int, int] | None = None) -> np.ndarray:
    """Ascending spectra of the matrices of a (k, d, d) Hermitian stack, in
    order, then, given their local dimensions ``dims = (m, n)``, those of
    their partial transposes.

    Under :data:`SPLIT_MIN` matrices, one ``eigvalsh`` of the stack, or of
    the one copy of it and its partial transposes that
    :func:`_with_partial_transposes` writes.  Else the stack, and then that
    of its partial transposes, splits by the connected blocks of its joint
    nonzero pattern: a 1 x 1 block gives its real diagonal entry, a 2 x 2
    block its two eigenvalues in closed form (:func:`_pair_spectra`), a 3 x 3
    block, scaled as a pair is, its three from :func:`_cubic`, and each
    larger size, and the 3 x 3 blocks near a double root
    (:data:`CUBIC_FLOOR`), one ``eigvalsh`` of its gathered blocks.
    """
    if len(stack) < SPLIT_MIN:
        return np.linalg.eigvalsh(stack if dims is None else _with_partial_transposes(stack, *dims))
    spectra = []
    for h in (stack,) if dims is None else (stack, _partial_transpose(stack, *dims)):
        k, n, parts = len(h), h.shape[-1], []
        for s, idx in _blocks(h.any(axis=0).tobytes(), n):
            if s == 1:
                parts.append(h[:, idx[:, 0], idx[:, 0]].real)
            elif s == 2:
                parts.append(_pair_spectra(h, idx))
            elif s > 3:
                parts.append(np.linalg.eigvalsh(h[:, idx[:, :, None], idx[:, None, :]]).reshape(k, -1))
            else:
                # the six entries, shape (6, blocks, k), each block scaled as a pair is
                e = h.reshape(k, -1).T[(idx[:, _ENTRIES // 3] * n + idx[:, _ENTRIES % 3]).T]
                ex = np.frexp(np.maximum(abs(e.real), abs(e.imag)).max(axis=0))[1]
                e = np.ldexp(e.view(float), np.repeat(-ex, 2, axis=-1)).view(complex).take(_ROLLED, axis=0)
                q, two_p, r = _cubic(e[:5].real, e[5:])[:3]
                t = np.arccos(r) / 3 + (2 * np.pi / 3) * np.arange(3)[:, None, None]
                with np.errstate(over="ignore"):  # to inf, as from eigvalsh; see _rank_psd
                    vals = np.ldexp(q + two_p * np.cos(t), ex)
                near = ~(1 - r * r > CUBIC_FLOOR)  # a NaN r too
                if near.any():
                    b, i = np.nonzero(near)
                    vals[:, b, i] = np.linalg.eigvalsh(h[i[:, None, None], idx[b, :, None], idx[b, None, :]]).T
                parts.append(vals.reshape(-1, k).T)
        spectra.append(np.sort(np.concatenate(parts, axis=-1), axis=-1))
    return np.concatenate(spectra)


def _kernel(h: np.ndarray) -> list[np.ndarray]:
    """Kernel bases of a stack of Hermitian matrices from one ``eigh`` of the
    stack, and one more of those whose rank reads 0 (see :func:`_rank_psd`).

    Matrix ``i`` of the stack gives the columns of its eigenvectors of the
    ``d - r`` eigenvalues smallest in absolute value, ``r`` being its rank
    under the threshold rule of :func:`_rank_psd`.  ``eigh`` solves each
    matrix of a stack on its own, so each basis has the bits of the matrix
    solved alone.
    """
    vals, vecs = np.linalg.eigh(h)
    rank = _rank_psd(vals)[0]
    zero = np.flatnonzero(rank == 0)  # zero, or a spectrum past the float range
    if zero.size:
        vals[zero], vecs[zero] = np.linalg.eigh(h[zero] / 16)
        rank[zero] = _rank_psd(vals[zero])[0]
    order = np.argsort(np.abs(vals), axis=-1, kind="stable")
    d = h.shape[-1]
    return [v[:, o[: d - r]] for v, o, r in zip(vecs, order, rank.tolist())]
