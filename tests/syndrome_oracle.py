"""Pair-by-pair route for the syndrome KL engine.

The engine below reads every failing pair's overlaps off the kets on
every logical ket, one ``_transfer`` over all failing pairs, and builds
lambda from two sources: same-label pairs as conj(psi_a) psi_b |v_0|^2,
psi relative to the first member of the label, and failing pairs from
their reference overlaps.  Its deviations are complex differences of
overlaps, so float noise may split a tie that the package's engine,
which reads one magnitude per logical class, keeps exact.  It shares the
stabilizer read, the syndrome table, ``_transfer`` and the scan with the
package; only the way overlaps and lambda are assembled is its own.  It
drops in for ``verifier._syndrome_engine``.
"""

import numpy as np
from scipy.sparse import csr_matrix

from quditqec.verifier import (LAMBDA_SUMMARY_MAX, _blocks_after_reference,
                               _identity_deviation, _lambda_summary,
                               _pairs_within, _rank_strings, _reduce, _Scan,
                               _string_keys, _touches, _transfer)


def syndrome_engine(code, tab, table, tol: float, fail_fast: bool):
    """Weyl families on stabilizer codes, pair by pair.

    A pair with different syndromes has A^dag B off the normalizer, so
    every overlap is an exact zero; a pair with one full label (one coset
    of S) has A^dag B in S, so it passes with
    lambda_ab = conj(psi_a) psi_b |v_0|^2, psi relative to the first
    pattern of the label class.  Only pairs with one
    syndrome and two full labels reach the scan, block (i, j >= i) by
    block, and of these only the entries that can be nonzero: a pair maps
    v_j onto one ket, ``targets[j]``, and on the diagonal the reference
    overlap counts too.  ``fail_fast`` stops after the first block holding
    a deviation above ``tol``.  Returns (scan, failed, lam, lambda summary
    or None).
    """
    n, kets, rows = code.n_levels, tab.kets, table.rows
    size = len(rows)
    label, _ = _rank_strings(_string_keys(
        _reduce(rows, tab.stabilizer, tab.pivots, n), n))
    _, first = np.unique(label, return_index=True)
    _, (psi,) = _transfer(tab, n, rows[first[label]], rows, [0])
    pairs_a, pairs_b = _pairs_within(label)
    values = psi[pairs_a].conj() * psi[pairs_b] * kets.norms[0]
    a, b = _pairs_within(table.classes)
    failing = label[a] != label[b]
    a, b = a[failing], b[failing]
    # (target ket, mu) of every failing pair, one column per source ket j
    targets, mus = _transfer(tab, n, rows[a], rows[b], range(len(kets.amps)))
    reference = np.where(targets[0] == 0, mus[0] * kets.norms[0], 0)
    kept = reference != 0
    lam = csr_matrix((np.concatenate([values, reference[kept]]),
                      (np.concatenate([pairs_a, a[kept]]),
                       np.concatenate([pairs_b, b[kept]]))),
                     shape=(size, size))
    lam.sort_indices()
    scan = _Scan(_touches(code, table.patterns), tol, lam)
    if a.size:
        for i, j in _blocks_after_reference(len(kets.amps)):
            own = targets[j] == i
            live = np.flatnonzero(own | kept if i == j else own)
            observed = np.where(own[live], mus[j][live] * kets.norms[i], 0)
            deviation = observed - reference[live] if i == j else observed
            scan.add(i, j, a[live], b[live], deviation, observed)
            if fail_fast and scan.max_dev > tol:
                break
        return scan, scan.max_dev > tol, lam, None
    # lambda is a direct sum of rank-1 blocks, one per label class
    eigenvalues = np.zeros(size)
    eigenvalues[:len(first)] = np.bincount(label) * kets.norms[0]
    summary = _lambda_summary(eigenvalues, _identity_deviation(
        values, pairs_a, pairs_b), size, tol)
    if size <= LAMBDA_SUMMARY_MAX:
        # hand lambda_matrix the dense matrix it returns, in the size range
        # where the sparse Gram densifies lambda for its summary anyway
        lam = lam.toarray()
    return scan, False, lam, summary
