"""Gauss quadrature from truncated spectral matrices (float mode).

The k-point rule for a Hankel family has the zeros of P_k as nodes, which
are the eigenvalues of the k x k truncation J_k of the tridiagonal spectral
matrix J, and the Christoffel numbers 1 / K_{k-1}(x_l, x_l) as weights.
Both hold for any quasi-definite functional, whatever the signs of H_j
(Gautschi 2004, sec. 3.1; Golub & Welsch 1969). One route serves every
sign pattern: the diagonal similarity D^{-1} J_k D with D = diag(|H_j/H_0|^{1/2})
balances J_k into T, with a_j on the diagonal, |b_j|^{1/2} above it and
sign(b_j) |b_j|^{1/2} below it, and the orthonormal three-term recurrence
q_j = |H_0/H_j|^{1/2} P_j evaluates H_0 K_{k-1}(x, x) = sum_j sign(H_j/H_0) q_j^2
at the nodes. When every H_j > 0, T is symmetric: the symmetric eigenproblem
gives the nodes, H_0 times the squared first eigenvector components give the
weights, and the Christoffel numbers cross-check them on every call.
Otherwise the nodes are the general eigenvalues of T, the Christoffel numbers
are the weights, and non-real or coinciding nodes surface as NonPositive.
"""

from dataclasses import dataclass

from .biorth import BiorthFamilies, spectral_matrix
from .errors import InsufficientTruncation, NonPositive, NotHankel, WeightCrossCheck

# Largest allowed gap between an eigenvector weight and its Christoffel number, per unit of h0.
WEIGHT_CROSS_TOL = 1e-10


@dataclass(frozen=True)
class QuadratureRule:
    nodes: tuple
    weights: tuple
    order: int
    method: str


def gauss_rule(f: BiorthFamilies, k: int) -> QuadratureRule:
    """k-point Gauss rule; its weights sum to H_0."""
    import numpy as np
    if not f.hankel:
        raise NotHankel("Gauss rules need a Hankel family")
    if k < 1:
        raise ValueError("k must be at least 1")
    if f.size - 1 < k:
        raise InsufficientTruncation(f"k = {k} needs a family of size >= {k + 1}")
    h0 = float(f.h[0])
    definite = all(v > 0 for v in f.h[:k])
    jm = spectral_matrix(f, 1).j.leading(k)
    diag = np.array([float(jm.rows[i][i]) for i in range(k)])
    # sub[j] = b_{j+1} = H_{j+1} / H_j, never zero below the family's last row.
    sub = np.array([float(jm.rows[i + 1][i]) for i in range(k - 1)])
    off, sign = np.sqrt(np.abs(sub)), np.sign(sub)
    # eps[j] = sign(H_j / H_0).
    eps = np.cumprod(np.concatenate(([1.0], sign)))
    t = np.diag(diag)
    for i, v in enumerate(off):
        t[i, i + 1], t[i + 1, i] = v, sign[i] * v
    if definite:
        nodes, eigvecs = np.linalg.eigh(t)
    else:
        roots = np.linalg.eigvals(t)
        if np.max(np.abs(roots.imag)) > 1e-9:
            raise NonPositive("P_k has non-real roots; no real quadrature rule exists")
        nodes = np.sort(roots.real)
    # Christoffel numbers from the orthonormal recurrence at the nodes.
    q_prev, q, kernel = np.zeros(k), np.ones(k), np.ones(k)
    for j in range(k - 1):
        below = sign[j - 1] * off[j - 1] * q_prev if j else 0.0
        q_prev, q = q, ((nodes - diag[j]) * q - below) / off[j]
        kernel += eps[j + 1] * q * q
    if np.any(np.diff(nodes) == 0) or np.any(kernel == 0):
        raise NonPositive(f"degenerate node set: P_{k} has a multiple root")
    christoffel = h0 / kernel
    if definite:
        weights = h0 * eigvecs[0, :] ** 2
        gaps = np.abs(weights - christoffel)
        tol = WEIGHT_CROSS_TOL * max(1.0, abs(h0))
        l = int(np.argmax(gaps))
        if gaps[l] > tol:
            raise WeightCrossCheck(f"Gauss weight {l} is {gaps[l]:.3e} from its Christoffel "
                                   f"number (tolerance {tol:.3e})")
    else:
        weights = christoffel
    # "companion" names the general eigensolver; perfbench's tracer counts rules by that name.
    return QuadratureRule(
        nodes=tuple(float(v) for v in nodes),
        weights=tuple(float(v) for v in weights),
        order=k,
        method="eigh" if definite else "companion",
    )


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
