"""Gauss quadrature from truncated spectral matrices (float mode).

The k-point rule for a Hankel family takes its nodes from the eigenvalues
of the k x k truncation of the tridiagonal spectral matrix J. With all
H_j > 0 the truncation symmetrizes by the diagonal similarity
diag(H_j^{-1/2}), the symmetric eigenproblem is solved, and each weight is
H_0 times the squared first component of the normalized eigenvector. As an
independent route each weight must equal its Christoffel number
h0 / (H_0 K_{k-1}(x_l, x_l)), the CD kernel summed over the orthonormal
three-term recurrence at the node; the two are cross-checked on every
call. Sign-indefinite H falls back to companion-matrix roots of P_k plus
the Vandermonde moment system sum_l w_l x_l^j = m_j (j < k) on the Gram
matrix's moments, and only genuinely complex nodes are surfaced as NonPositive.
"""

from dataclasses import dataclass

from .biorth import BiorthFamilies, spectral_matrix
from .errors import InsufficientTruncation, NonPositive, NotHankel, OpgbError
from .numlin import hankel_moments
from .poly import exact_div

# Largest allowed gap between an eigenvector weight and its Christoffel number, per unit of h0.
WEIGHT_CROSS_TOL = 1e-10


@dataclass(frozen=True)
class QuadratureRule:
    nodes: tuple
    weights: tuple
    order: int
    method: str


def gauss_rule(f: BiorthFamilies, k: int, h0: float | None = None) -> QuadratureRule:
    """k-point Gauss rule; h0 rescales weights to a physical zeroth moment."""
    import numpy as np
    if not f.hankel:
        raise NotHankel("Gauss rules need a Hankel family")
    if k < 1:
        raise ValueError("k must be at least 1")
    if f.size - 1 < k:
        raise InsufficientTruncation(f"k = {k} needs a family of size >= {k + 1}")
    h0 = float(f.h[0]) if h0 is None else float(h0)
    hs = [float(v) for v in f.h[:k]]
    if all(v > 0 for v in hs):
        jm = spectral_matrix(f, 1).j.leading(k)
        diag = np.array([float(jm.rows[i][i]) for i in range(k)])
        sub = np.array([float(jm.rows[i + 1][i]) for i in range(k - 1)])
        off = np.sqrt(sub)
        t = np.diag(diag)
        for i, v in enumerate(off):
            t[i, i + 1] = t[i + 1, i] = v
        eigvals, eigvecs = np.linalg.eigh(t)
        nodes = eigvals
        weights = h0 * eigvecs[0, :] ** 2
        # Christoffel numbers from the orthonormal recurrence at the nodes:
        # q_j = sqrt(H_0 / H_j) P_j(x) gives H_0 K_{k-1}(x, x) = sum_j q_j^2.
        q_prev, q, kernel = np.zeros(k), np.ones(k), np.ones(k)
        for j in range(k - 1):
            below = off[j - 1] * q_prev if j else 0.0
            q_prev, q = q, ((nodes - diag[j]) * q - below) / off[j]
            kernel += q * q
        gaps = np.abs(weights - h0 / kernel)
        tol = WEIGHT_CROSS_TOL * max(1.0, abs(h0))
        l = int(np.argmax(gaps))
        if gaps[l] > tol:
            raise OpgbError(f"Gauss weight {l} is {gaps[l]:.3e} from its Christoffel number "
                            f"(tolerance {tol:.3e})")
        method = "eigh"
    else:
        coeffs = np.array([float(c) for c in f.poly1(k)])
        roots = np.polynomial.polynomial.polyroots(coeffs)
        if np.max(np.abs(roots.imag)) > 1e-9:
            raise NonPositive("P_k has non-real roots; no real quadrature rule exists")
        nodes = np.sort(roots.real)
        ms = [float(exact_div(m, f.h[0])) * h0 for m in hankel_moments(f.gram)[:k]]
        weights = _moment_system_weights(nodes, ms)
        method = "companion"
    return QuadratureRule(
        nodes=tuple(float(v) for v in nodes),
        weights=tuple(float(v) for v in weights),
        order=k,
        method=method,
    )


def _moment_system_weights(nodes, ms):
    import numpy as np
    v = np.vander(np.asarray(nodes, dtype=float), len(nodes), increasing=True).T
    try:
        return np.linalg.solve(v, ms)
    except np.linalg.LinAlgError as exc:
        raise NonPositive(f"degenerate node set: {exc}") from exc


def exactness_check(rule: QuadratureRule, moments) -> float:
    """max_j |sum_l w_l x_l^j - m_j| over j <= min(2k-1, supplied)."""
    import numpy as np
    nodes = np.asarray(rule.nodes)
    weights = np.asarray(rule.weights)
    top = min(2 * rule.order - 1, len(moments) - 1)
    worst = 0.0
    for j in range(top + 1):
        err = abs(float(np.dot(weights, nodes**j)) - float(moments[j]))
        worst = max(worst, err)
    return worst
