"""The classifier written as its decision tree over the decomposition
the paper states it in: n = w(r+delta-1) + m and k = ur + v, with
0 <= m < r+delta-1 and 0 <= v < r, computed here, not by lrcodes.params.

`oracle_classify` returns (verdict, method, tag, bound_d, params), the
fields of a Classification, so a test can compare the two directly.
"""

from lrcodes.params import (
    EXISTS,
    EXISTS_MDS,
    METHOD_A1_REMAINDER,
    METHOD_A1_UNIFORM,
    METHOD_A2_HUB,
    METHOD_A2_PAIRED,
    NOT_EXISTS,
    TAG_COND_8,
    TAG_COND_9,
    TAG_LOW_BOUND,
    TAG_NON_EXST,
    TAG_NON_EXST_1,
    TAG_OPT_EXT_1,
    TAG_OPT_EXT_2,
    TAG_OPT_EXT_3,
    TAG_OPT_EXT_4,
    UNKNOWN,
    necessary_check,
)


def oracle_classify(p):
    w, m = divmod(p.n, p.group_size)
    u, v = divmod(p.k, p.r)
    bound = p.n - p.k + 1 - (p.mu - 1) * (p.delta - 1)

    def done(verdict, method=None, tag=None):
        return verdict, method, tag, bound, p

    if not necessary_check(p):
        return done(NOT_EXISTS, tag=TAG_LOW_BOUND)
    if p.r == p.k:
        return done(EXISTS_MDS)
    if m == 0:
        return done(EXISTS, METHOD_A1_UNIFORM, TAG_OPT_EXT_1)
    if v == 0:
        return done(NOT_EXISTS, tag=TAG_NON_EXST)
    if m >= v + p.delta - 1:
        return done(EXISTS, METHOD_A1_REMAINDER, TAG_OPT_EXT_2)
    if u >= 2 * (p.r - v) + 1:
        return done(NOT_EXISTS, tag=TAG_NON_EXST_1)
    ell = p.group_size - m
    if w >= ell and min(p.r - v, w) >= u:
        return done(EXISTS, METHOD_A2_HUB, TAG_OPT_EXT_3)
    if w + 1 >= 2 * ell and min(2 * (p.r - v), w) >= u:
        return done(EXISTS, METHOD_A2_PAIRED, TAG_OPT_EXT_4)
    return done(UNKNOWN, tag=TAG_COND_8 if w < ell else TAG_COND_9)
