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
near-Hermitian one.  :func:`is_psd` makes one Hermiticity check and one
``eigvalsh`` per matrix; ``classify`` makes one check per stack of states,
and :func:`_spectra` gives the spectra of the states and their partial
transposes block by block from :data:`SPLIT_MIN` states on, and from one
``eigvalsh`` call below.  Both read the ranks and PSD flags with
:func:`_rank_psd`, which, like :func:`_check_hermitian`, takes a single
matrix or a stack over leading axes, and reads the ends of the ascending
spectra.  :func:`_kernel`, the one subspace routine, gives the kernel of a
Hermitian matrix from one ``eigh``.  Every rank applies the one threshold
rule of :func:`_rank_psd`.
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


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


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
            object.__setattr__(self, "mat", _as_complex(self.mat))
        if self.m <= 0 or self.n <= 0:
            raise DimensionMismatchError("local dimensions must be positive")
        if self.mat.shape != (d, d):
            raise DimensionMismatchError(
                f"matrix shape {self.mat.shape} does not match local dims ({self.m}, {self.n})"
            )
        if not np.isfinite(self.mat).all():
            raise InvalidParamError("matrix entries must be finite")

    @property
    def dim(self) -> int:
        return self.m * self.n


def _partial_transpose(mats: np.ndarray, m: int, n: int) -> np.ndarray:
    """Transpose the first tensor factor of each matrix in a stack over leading axes."""
    lead = mats.shape[:-2]
    t = mats.reshape(*lead, m, n, m, n).swapaxes(-4, -2)
    return t.reshape(*lead, m * n, m * n)


def partial_transpose(s: BipartiteOperator) -> BipartiteOperator:
    """Transpose the first tensor factor only.

    The output entry at ``((i, k), (j, l))`` is the input entry at
    ``((j, k), (i, l))``; applied twice it is the identity, exactly.
    """
    return BipartiteOperator(s.m, s.n, _partial_transpose(s.mat, s.m, s.n))


def _squared_norm(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix, one sum over the real view."""
    r = np.ascontiguousarray(x).view(np.float64)
    return np.einsum("...ij,...ij->...", r, r)


def _check_hermitian(m: np.ndarray) -> np.ndarray:
    """Validate near-Hermiticity and return a Hermitian matrix to use for ``m``.

    ``m`` is one matrix or a stack over leading axes.  A stack equal to its
    adjoint entry for entry, as the constructors build, comes back as it is,
    after one comparison: no arithmetic, so nothing can overflow.  Any other
    stack passes when each matrix has ``||m - m^H||_F <= HERM_RTOL * max(||m||_F, 1)``
    and comes back symmetrized, ``(m + m^H) / 2``; it raises for its first
    matrix that fails, named by its flat index over the leading axes when the
    stack holds more than one matrix.  Callers must not write into the result.
    """
    m = _as_complex(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise DimensionMismatchError("expected a square matrix")
    mh = m.conj().swapaxes(-2, -1)
    if (m == mh).all():
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
    """
    mag = np.abs(vals)
    top = np.maximum(mag[..., :1], mag[..., -1:])
    return (mag > RANK_RTOL * top).sum(axis=-1), vals[..., 0] >= -PSD_ATOL * np.maximum(top[..., 0], 1.0)


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


def _spectra(*stacks: np.ndarray) -> np.ndarray:
    """Ascending spectra of the matrices of (k, d, d) Hermitian stacks, in order.

    Under :data:`SPLIT_MIN` matrices, one ``eigvalsh`` of their concatenation.
    Else each stack splits by the connected blocks of its joint nonzero
    pattern: a 1 x 1 block gives its real diagonal entry, and each larger size
    one ``eigvalsh`` of its gathered blocks (one block is the matrix itself).
    """
    if len(stacks[0]) < SPLIT_MIN:
        return np.linalg.eigvalsh(np.concatenate(stacks))
    spectra = []
    for h in stacks:
        parts = [
            h[:, idx[:, 0], idx[:, 0]].real if s == 1
            else np.linalg.eigvalsh(h[:, idx[:, :, None], idx[:, None, :]]).reshape(len(h), -1)
            for s, idx in _blocks((h != 0).any(axis=0).tobytes(), h.shape[-1])
        ]
        spectra.append(np.sort(np.concatenate(parts, axis=-1), axis=-1))
    return np.concatenate(spectra)


def _kernel(h: np.ndarray) -> np.ndarray:
    """Kernel basis of a Hermitian matrix from one ``eigh``.

    The columns are the eigenvectors of the ``d - r`` eigenvalues smallest in
    absolute value, ``r`` being the rank under the threshold rule of :func:`_rank_psd`.
    """
    vals, vecs = np.linalg.eigh(h)
    order = np.argsort(np.abs(vals), kind="stable")
    return vecs[:, order[: h.shape[0] - _rank_psd(vals)[0]]]


def is_psd(m: np.ndarray) -> bool:
    """True iff the matrix has min eigenvalue >= -PSD_ATOL * max(1, ||m||_2).

    One Hermiticity check, whose exactly Hermitian input is used as it is and
    near-Hermitian input symmetrized, and one ``eigvalsh``.  Raises
    :class:`DimensionMismatchError` for an empty matrix and
    :class:`InvalidParamError` for a non-finite entry.
    """
    m = _as_complex(m)
    if not m.size:
        raise DimensionMismatchError("expected a nonempty square matrix")
    if not np.isfinite(m).all():
        raise InvalidParamError("matrix entries must be finite")
    return bool(_rank_psd(np.linalg.eigvalsh(_check_hermitian(m)))[1])

