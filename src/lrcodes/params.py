"""Code-parameter arithmetic and the existence classifier.

For a linear code of length n and dimension k whose every symbol has
(r, delta) locality, the minimum distance obeys

    d <= n - k + 1 - (ceil(k/r) - 1)(delta - 1).

A code meeting this with equality is called optimal here. classify()
decides, from (n, k, r, delta) alone, whether an optimal code exists
over some sufficiently large field, does not exist over any field, or
falls in a parameter range where neither is settled.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import index
from typing import Optional

from .errors import BoundNonPositive

__all__ = [
    "CodeParams",
    "Classification",
    "distance_bound",
    "necessary_check",
    "classify",
    "field_bound",
    "EXISTS_MDS",
    "EXISTS",
    "NOT_EXISTS",
    "UNKNOWN",
    "METHOD_A1_UNIFORM",
    "METHOD_A1_REMAINDER",
    "METHOD_A2_HUB",
    "METHOD_A2_PAIRED",
    "TAG_LOW_BOUND",
    "TAG_OPT_EXT_1",
    "TAG_OPT_EXT_2",
    "TAG_OPT_EXT_3",
    "TAG_OPT_EXT_4",
    "TAG_NON_EXST",
    "TAG_NON_EXST_1",
    "TAG_COND_8",
    "TAG_COND_9",
]

EXISTS_MDS = "ExistsMDS"
EXISTS = "Exists"
NOT_EXISTS = "NotExists"
UNKNOWN = "Unknown"

METHOD_A1_UNIFORM = "Algorithm1-uniform"
METHOD_A1_REMAINDER = "Algorithm1-remainder"
METHOD_A2_HUB = "Algorithm2-hub"
METHOD_A2_PAIRED = "Algorithm2-paired"

# Opaque result tags naming the rule that settled each verdict.
TAG_LOW_BOUND = "lemma-low-bound"
TAG_OPT_EXT_1 = "thm-opt-ext-1"
TAG_OPT_EXT_2 = "thm-opt-ext-2"
TAG_OPT_EXT_3 = "thm-opt-ext-3"
TAG_OPT_EXT_4 = "thm-opt-ext-4"
TAG_NON_EXST = "thm-non-exst"
TAG_NON_EXST_1 = "thm-non-exst-1"
TAG_COND_8 = "condition-8"
TAG_COND_9 = "condition-9"


# CodeParams and Classification are built once per classified tuple: their
# own __init__ writes the fields into __dict__, as the generated one's
# object.__setattr__ per frozen field costs more than classify itself.
@dataclass(frozen=True, init=False)
class CodeParams:
    """Length n, dimension k, locality r, tolerance delta >= 2."""

    n: int
    k: int
    r: int
    delta: int

    def __init__(self, n: int, k: int, r: int, delta: int) -> None:
        n, k, r, delta = index(n), index(k), index(r), index(delta)
        if not (1 <= r <= k <= n):
            raise ValueError(f"need 1 <= r <= k <= n, got n={n} k={k} r={r}")
        if delta < 2:
            raise ValueError(f"delta must be >= 2, got {delta}")
        d = self.__dict__
        d["n"], d["k"], d["r"], d["delta"] = n, k, r, delta

    @property
    def group_size(self) -> int:
        return self.r + self.delta - 1

    @property
    def mu(self) -> int:
        """ceil(k/r), the minimum number of repair groups a basis touches."""
        return -(-self.k // self.r)


@dataclass(frozen=True, init=False)
class Classification:
    """Outcome of classify(); verdict is one of the four module constants.

    method is set only for Exists verdicts; tag names the deciding rule
    (None for ExistsMDS). bound_d is the raw bound value and may be
    non-positive for vacuous parameters.
    """

    verdict: str
    method: Optional[str]
    tag: Optional[str]
    bound_d: int
    params: CodeParams

    def __init__(self, verdict: str, method: Optional[str], tag: Optional[str],
                 bound_d: int, params: CodeParams) -> None:
        d = self.__dict__
        d["verdict"], d["method"], d["tag"] = verdict, method, tag
        d["bound_d"], d["params"] = bound_d, params

    @property
    def field_bound(self) -> int:
        """C(n, k-1), computed when read: near k = n/2 it has about
        0.3 n digits and takes seconds for n in the millions."""
        return field_bound(self.params)


def distance_bound(p: CodeParams) -> int:
    d = p.n - p.k + 1 - (p.mu - 1) * (p.delta - 1)
    if d < 1:
        raise BoundNonPositive(
            f"distance bound {d} < 1 for n={p.n} k={p.k} r={p.r} delta={p.delta}")
    return d


def necessary_check(p: CodeParams) -> bool:
    """Group-count feasibility: n/(r+delta-1) >= k/r, in integers."""
    return p.n * p.r >= p.k * p.group_size


def field_bound(p: CodeParams) -> int:
    """Field size above which the randomized construction always succeeds."""
    return comb(p.n, p.k - 1)


def classify(p: CodeParams) -> Classification:
    """Complete existence decision for optimal (r,delta) all-symbol codes.

    Pure function of the parameters; each branch returns immediately. The
    feasibility check runs before the r=k short-circuit: an MDS code of
    length below k+delta-1 cannot give every symbol (k,delta) locality,
    so those tuples are NotExists rather than ExistsMDS.
    """
    n, k, r, delta = p.n, p.k, p.r, p.delta
    size = r + delta - 1
    bound = n - k + 1 - (-(-k // r) - 1) * (delta - 1)
    if n * r < k * size:  # necessary_check
        return Classification(NOT_EXISTS, None, TAG_LOW_BOUND, bound, p)
    if r == k:
        return Classification(EXISTS_MDS, None, None, bound, p)
    w, m = divmod(n, size)
    if m == 0:
        return Classification(EXISTS, METHOD_A1_UNIFORM, TAG_OPT_EXT_1, bound, p)
    u, v = divmod(k, r)
    if v == 0:
        return Classification(NOT_EXISTS, None, TAG_NON_EXST, bound, p)
    if m >= v + delta - 1:
        return Classification(EXISTS, METHOD_A1_REMAINDER, TAG_OPT_EXT_2, bound, p)
    if u >= 2 * (r - v) + 1:
        return Classification(NOT_EXISTS, None, TAG_NON_EXST_1, bound, p)
    # Here w >= u: w <= u-1 would give n < u(r+delta-1) < k(r+delta-1)/r
    # as v > 0, and necessary_check would have returned.
    ell = size - m
    if w >= ell and min(r - v, w) >= u:
        return Classification(EXISTS, METHOD_A2_HUB, TAG_OPT_EXT_3, bound, p)
    if w + 1 >= 2 * ell and min(2 * (r - v), w) >= u:
        return Classification(EXISTS, METHOD_A2_PAIRED, TAG_OPT_EXT_4, bound, p)
    return Classification(UNKNOWN, None, TAG_COND_8 if w < ell else TAG_COND_9,
                          bound, p)
