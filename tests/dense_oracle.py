"""Independent dense-matrix route for the recoverability condition.

Everything here is rebuilt from first principles with plain numpy so it
shares no kernels with the sparse engine: operators become explicit
N x N matrices, patterns become Kronecker products, states become dense
vectors, and the check forms the code-space projector P and tests
P A^dag B P = lambda P entrywise.  Only viable for small widths.
"""

import numpy as np


def op_matrix(op, n: int) -> np.ndarray:
    """Dense matrix of one single-register operator."""
    if op.kind == "identity":
        return np.eye(n, dtype=complex)
    if op.kind == "weyl":
        out = np.zeros((n, n), dtype=complex)
        for j in range(n):
            out[(j + op.a) % n, j] = np.exp(2j * np.pi * op.b * j / n)
        return out
    if op.kind == "spin_flip":
        out = np.zeros((n, n), dtype=complex)
        for j in range(n):
            out[op.table[j] % n, j] = 1.0
        return out
    if op.kind == "phase_shift":
        return np.diag(np.asarray(op.phases, dtype=complex))
    return np.asarray(op.matrix, dtype=complex)


def pattern_matrix(pattern, n: int) -> np.ndarray:
    """Kronecker product over registers, position 1 leftmost."""
    placed = dict(pattern.ops)
    out = np.ones((1, 1), dtype=complex)
    for pos in range(1, pattern.width + 1):
        factor = op_matrix(placed[pos], n) if pos in placed \
            else np.eye(n, dtype=complex)
        out = np.kron(out, factor)
    return out


def state_vector(state) -> np.ndarray:
    n, width = state.n_levels, state.width
    vec = np.zeros(n ** width, dtype=complex)
    for digits, amp in state.to_complex_terms().items():
        idx = 0
        for d in digits:
            idx = idx * n + d
        vec[idx] = amp
    return vec


def dense_kl_check(code, family, tol: float = 1e-9):
    """Projector-based check; returns (verdict, lambda matrix, max deviation)."""
    n = code.n_levels
    kets = [state_vector(code.encoded_kets[w])
            for w in code.logical_windows()]
    v = np.column_stack(kets)
    dim = v.shape[1]
    proj = v @ v.conj().T
    patterns = list(family)
    mats = [pattern_matrix(p, n) for p in patterns]
    size = len(patterns)
    lam = np.zeros((size, size), dtype=complex)
    max_dev = 0.0
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            middle = proj @ (a.conj().T @ b) @ proj
            value = np.trace(middle) / dim
            lam[i, j] = value
            dev = float(np.abs(middle - value * proj).max())
            max_dev = max(max_dev, dev)
    verdict = "pass" if max_dev <= tol else "fail"
    return verdict, lam, max_dev


def dense_kl_deviation(code, family):
    """(deviation, lambda) matrices over family pairs, in the verifier's terms.

    deviation[a, b] is the largest |<i|A^dag B|j> - delta_ij <0|A^dag B|0>|
    over logical pairs, and lambda[a, b] = <0|A^dag B|0>.  Cheaper than the
    projector route, since it never forms N^width x N^width products.
    """
    n = code.n_levels
    v = np.column_stack([state_vector(code.encoded_kets[w])
                         for w in code.logical_windows()])
    applied = [pattern_matrix(p, n) @ v for p in family]
    eye = np.eye(v.shape[1])
    size = len(applied)
    deviation = np.zeros((size, size))
    lam = np.zeros((size, size), dtype=complex)
    for i, a in enumerate(applied):
        for j, b in enumerate(applied):
            block = a.conj().T @ b
            lam[i, j] = block[0, 0]
            deviation[i, j] = np.abs(block - block[0, 0] * eye).max()
    return deviation, lam
