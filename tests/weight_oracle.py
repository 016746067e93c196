"""Full-space weight enumeration: an oracle for lrcodes.verify's weight engine.

`oracle_weight_enumeration` encodes every nonzero message of GF(q)^k,
in the order of its base-q index, and makes no use of scaling. It
returns (d, witness): the least weight of a codeword, and the first
codeword of that weight, which the engine's one-message-per-line scan
must find as well.
"""

import numpy as np

from lrcodes.gf import field_kernel


def oracle_weight_enumeration(m, chunk=1 << 16):
    kern = field_kernel(m.field)
    q, k, n = m.field.q, m.rows, m.cols
    total = q ** k
    best_w, best_cw = n + 1, None
    rows = kern.array(m.row_data())
    for lo in range(1, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        acc = kern.zeros((idx.size, n))
        for i in range(k):
            digit = kern.array(idx // q ** (k - 1 - i) % q)
            kern.fma(acc, digit[:, None], rows[i])
        weights = (acc != 0).sum(axis=1)
        pos = int(weights.argmin())
        if weights[pos] < best_w:
            best_w, best_cw = int(weights[pos]), acc[pos].copy()
    return best_w, tuple(int(x) for x in best_cw)
