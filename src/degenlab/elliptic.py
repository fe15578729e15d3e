"""Uniformly elliptic operators and the Pucci extremal envelope.

For ellipticity constants 0 < lam <= Lam, the admissible coefficient class is

    A(lam, Lam) = { A symmetric : lam |xi|^2 <= xi' A xi <= Lam |xi|^2 },

and the Pucci extremal operators are the envelope of all linear traces:

    P_minus(M) = inf_{A in A} tr(A M) = lam * sum(e_i^+) + Lam * sum(e_i^-)
    P_plus(M)  = sup_{A in A} tr(A M) = Lam * sum(e_i^+) + lam * sum(e_i^-)

where e_i are the eigenvalues of M and e^+ = max(e, 0), e^- = min(e, 0).
The closed form follows by diagonalizing M and optimizing each eigenvalue's
coefficient independently; the infimum is attained at
A* = lam * proj_{e>0} + Lam * proj_{e<=0}.

An operator F is uniformly (lam, Lam)-elliptic iff

    P_minus(M - N) <= F(M) - F(N) <= P_plus(M - N)   for all symmetric M, N,

which is the property the test suite samples.  All operators here are
normalized with F(0) = 0 so the sign conventions of the transmission problem
are unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

ELLIPTICITY_TOL = 1e-9
OPERATOR_KINDS = ("trace", "pucci-minus", "pucci-plus", "bellman-min-of-traces")


@dataclass(frozen=True)
class SymMatrix:
    """Symmetric d x d matrix, d in {1, 2, 3}, stored as the upper triangle.

    ``upper`` lists entries row by row: (m11,), (m11, m12, m22), or
    (m11, m12, m13, m22, m23, m33).
    """

    d: int
    upper: tuple

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise DomainError("SymMatrix: dimension d must be 1, 2 or 3")
        need = self.d * (self.d + 1) // 2
        vals = tuple(float(v) for v in self.upper)
        if len(vals) != need:
            raise DomainError(
                f"SymMatrix: expected {need} upper-triangle entries, got {len(vals)}"
            )
        if not all(np.isfinite(vals)):
            raise DomainError("SymMatrix: entries must be finite")
        object.__setattr__(self, "upper", vals)

    @classmethod
    def from_array(cls, arr) -> "SymMatrix":
        a = np.asarray(arr, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError("SymMatrix.from_array: need a square 2-d array")
        d = a.shape[0]
        if not np.allclose(a, a.T, atol=1e-12 * max(1.0, float(np.abs(a).max()))):
            raise DomainError("SymMatrix.from_array: array is not symmetric")
        iu = np.triu_indices(d)
        return cls(d=d, upper=tuple(a[iu]))

    @property
    def matrix(self) -> np.ndarray:
        a = np.zeros((self.d, self.d))
        iu = np.triu_indices(self.d)
        a[iu] = self.upper
        a.T[iu] = self.upper
        return a

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues (closed form for d <= 2, LAPACK in 3-d)."""
        return _eigs(self)


@dataclass(frozen=True)
class EllipticityPair:
    """Ellipticity constants 0 < lam <= Lam."""

    lam: float
    Lam: float

    def __post_init__(self):
        if not (0.0 < self.lam <= self.Lam and np.isfinite(self.Lam)):
            raise DomainError("EllipticityPair: need 0 < lam <= Lam < inf")


def _eigs(M) -> np.ndarray:
    """Eigenvalues along the last axis: closed forms for d <= 2, else LAPACK.

    In 2-d they are mean -+ hypot(half-difference, off-diagonal), ascending.
    """
    a = M.matrix if isinstance(M, SymMatrix) else np.asarray(M, dtype=float)
    if a.ndim == 0:
        return a.reshape(1)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError("expected a SymMatrix or a (batched) square array")
    if a.shape[-1] == 1:
        return a[..., 0]
    if a.shape[-1] == 2:
        mean = 0.5 * (a[..., 0, 0] + a[..., 1, 1])
        rad = np.hypot(0.5 * (a[..., 0, 0] - a[..., 1, 1]), a[..., 0, 1])
        return np.stack((mean - rad, mean + rad), axis=-1)
    return np.linalg.eigvalsh(a)


def _pucci(M, up: float, down: float):
    """up * sum(e^+) + down * sum(e^-) over the eigenvalues e of M."""
    e = _eigs(M)
    val = up * np.sum(np.maximum(e, 0.0), axis=-1) + down * np.sum(np.minimum(e, 0.0), axis=-1)
    return float(val) if np.ndim(val) == 0 else val


def pucci_minus(M, pair: EllipticityPair):
    """P_minus(M) = lam * sum(e^+) + Lam * sum(e^-).  Batched arrays allowed."""
    return _pucci(M, pair.lam, pair.Lam)


def pucci_plus(M, pair: EllipticityPair):
    """P_plus(M) = Lam * sum(e^+) + lam * sum(e^-) = -P_minus(-M)."""
    return _pucci(M, pair.Lam, pair.lam)


@dataclass(frozen=True)
class EllipticOperator:
    """A concrete F(M): trace, a Pucci extremal, or a min of traces.

    ``coefficients`` is only used by the bellman kind: a tuple of symmetric
    coefficient matrices A_i, each with spectrum inside [lam, Lam], and
    F(M) = min_i tr(A_i M).  All kinds satisfy F(0) = 0 and are uniformly
    (lam, Lam)-elliptic.
    """

    kind: str
    pair: EllipticityPair
    coefficients: tuple = ()

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise DomainError(
                f"EllipticOperator: kind must be one of {OPERATOR_KINDS}"
            )
        if self.kind == "trace":
            if not (self.pair.lam <= 1.0 <= self.pair.Lam):
                raise DomainError(
                    "trace operator needs lam <= 1 <= Lam to be admissible"
                )
        if self.kind == "bellman-min-of-traces":
            if len(self.coefficients) == 0:
                raise DomainError("bellman operator needs at least one coefficient")
            mats = []
            for A in self.coefficients:
                sym = A if isinstance(A, SymMatrix) else SymMatrix.from_array(A)
                e = sym.eigenvalues()
                if e[0] < self.pair.lam - ELLIPTICITY_TOL or e[-1] > self.pair.Lam + ELLIPTICITY_TOL:
                    raise DomainError(
                        "bellman coefficient spectrum escapes [lam, Lam]: "
                        f"eigenvalues {e.tolist()}"
                    )
                mats.append(sym)
            object.__setattr__(self, "coefficients", tuple(mats))
        elif self.coefficients:
            raise DomainError(f"{self.kind} operator takes no coefficients")

    def apply(self, M):
        """F(M) for one matrix (a float) or a batch of shape (..., d, d)."""
        mat = M.matrix if isinstance(M, SymMatrix) else np.asarray(M, dtype=float)
        if self.kind == "trace":
            val = sum((mat[..., i, i] for i in range(1, mat.shape[-1])), mat[..., 0, 0])
        elif self.kind == "pucci-minus":
            val = pucci_minus(mat, self.pair)
        elif self.kind == "pucci-plus":
            val = pucci_plus(mat, self.pair)
        else:
            val = np.minimum.reduce([_trace_product(A, mat) for A in self.coefficients])
        return float(val) if np.ndim(val) == 0 else val

    def __call__(self, M):
        return self.apply(M)


def _trace_product(A: SymMatrix, mat):
    """tr(A M) summed over the upper triangle: A00 M00 + 2 A01 M01 + A11 M11 ..."""
    if mat.shape[-1] != A.d:
        raise DomainError(
            f"bellman coefficients are {A.d}x{A.d}, F got {mat.shape[-1]}-d input"
        )
    terms = [
        a * mat[..., i, j] if i == j else 2 * a * mat[..., i, j]
        for i, j, a in zip(*np.triu_indices(A.d), A.upper)
    ]
    return sum(terms[1:], terms[0])
