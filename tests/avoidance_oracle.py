"""Per-core reduced-basis avoidance: a scalar oracle for the batched engine.

For every core S0 paired with the coordinate it row-reduces span(S0) and
accepts a candidate only if reducing it against each of those bases
leaves a nonzero residual, using scalar field arithmetic alone. It draws
candidates through the library's own `_avoidance_search`, so the two see
the same random draws and scan order, and any disagreement lies in the
avoidance test itself.

Drop-in replacement for `lrcodes.construct.pick_extension_vector`.
"""

import importlib

from lrcodes.cores import lambda_cores
from lrcodes.errors import PreconditionViolated
from lrcodes.linalg import reduce_vector, reduced_basis

construct_mod = importlib.import_module("lrcodes.construct")


def _combine(field, coeffs, rows, k):
    acc = [0] * k
    for c, row in zip(coeffs, rows):
        for i in range(k):
            acc[i] = field.add(acc[i], field.mul(c, row[i]))
    return tuple(acc)


def oracle_pick(state, lam, group):
    field = state.field
    k = state.params.k
    g = state.structure.groups[group - 1]
    if lam not in g or lam in state.columns:
        raise PreconditionViolated(
            f"coordinate {lam} is not an unassigned member of group {group}")
    basis_rows = [row for _, row in reduced_basis(
        field, [state.columns[x] for x in g if x in state.columns])]
    cores = list(lambda_cores(state.core_query(), lam))
    core_bases = [reduced_basis(field, [state.columns[x] for x in S0])
                  for S0 in cores]
    for cb, S0 in zip(core_bases, cores):
        assert len(cb) == k - 1, f"core {S0} spans rank {len(cb)}"

    def accept(coeffs):
        cand = _combine(field, coeffs, basis_rows, k)
        return all(any(reduce_vector(field, cb, cand)) for cb in core_bases)

    def contained():
        return any(
            all(not any(reduce_vector(field, cb, row)) for row in basis_rows)
            for cb in core_bases)

    coeffs, _, _ = construct_mod._avoidance_search(
        state, lam, len(basis_rows), accept, contained, len(cores))
    return _combine(field, coeffs, basis_rows, k)
