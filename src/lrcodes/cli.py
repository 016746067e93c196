"""Command-line front end.

Subcommands: classify, table, construct, verify, demo. Exit codes are
scriptable: 0 success / code exists, 1 usage or runtime failure,
2 parameters proven impossible, 3 existence unknown. verify exits 1
when a check fails and 0 when every check that ran passed, though a
check out of budget did not run.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from math import lgamma, log
from typing import TYPE_CHECKING, Optional, Sequence

from .covers import Frame
from .errors import (
    BudgetExceeded,
    LrcError,
    NotConstructible,
    UnknownCase,
)
from .params import (
    EXISTS,
    EXISTS_MDS,
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
    Classification,
    CodeParams,
    classify,
)

# construct, verify, demo and --field import the numpy-backed modules
# when they run, so classify and table never load numpy
if TYPE_CHECKING:
    from .gf import FieldSpec

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_EXISTS = 2
EXIT_UNKNOWN = 3

# A field bound with more digits prints as C(n,k-1): below Python's
# default int-to-str limit of 4300 digits, and far more than a reader uses.
_BOUND_DIGITS = 4000

_TAG_CELL = {
    TAG_OPT_EXT_1: "E_M",
    TAG_OPT_EXT_2: "E16",
    TAG_OPT_EXT_3: "E26",
    TAG_OPT_EXT_4: "E27",
    TAG_NON_EXST: "N10",
    TAG_NON_EXST_1: "N11",
    TAG_LOW_BOUND: "NX",
    TAG_COND_8: "~",
    TAG_COND_9: "~",
}

# Published reference grid for n=60, delta=5 (rows r=2..11, columns
# k=11..20), used only to footnote cells where this classifier's verdict
# differs from the historical table.
_REFERENCE_N = 60
_REFERENCE_DELTA = 5
_REFERENCE_KS = range(11, 21)
_REFERENCE_GRID = {
    2: ("E_M", "E_M", "E_M", "E_M", "E_M", "E_M", "E_M", "E_M", "E_M", "E_M"),
    3: ("N11", "N10", "E27", "E27", "N10", "N11", "N11", "N10", "N11", "N11"),
    4: ("E27", "N10", "E27", "E27", "N11", "N10", "E27", "E27", "N11", "N10"),
    5: ("E16", "E27", "E27", "E27", "N10", "E27", "E27", "E27", "N12", "N10"),
    6: ("E_M", "E_M", "E_M", "E_M", "E_M", "E_M", "E_M", "E_M", "E_M", "E_M"),
    7: ("E26", "E26", "E26", "N10", "E26", "E26", "E26", "E26", "E26", "~"),
    8: ("E_M", "E_M", "E_M", "E_M", "E_M", "E_M", "E_M", "E_M", "E_M", "E_M"),
    9: ("E16", "E16", "E16", "E26", "E26", "E26", "E26", "N10", "E16", "E16"),
    10: ("~", "~", "~", "~", "~", "~", "~", "~", "~", "N10"),
    11: ("E_M", "E_M", "E_M", "E_M", "E_M", "E_M", "E_M", "E_M", "E_M", "E_M"),
}


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    rng = range(int(lo), int(hi if sep else lo) + 1)
    if len(rng) == 0:
        raise ValueError(f"empty range {text!r}")
    return rng


def _parse_field(text: str) -> FieldSpec:
    from .gf import field_make
    parts = [int(p) for p in text.split(",")]
    if not 1 <= len(parts) <= 3:
        raise ValueError(f"expected P[,E[,POLY]], got {text!r}")
    return field_make(*parts)


def _group_text(g: Sequence[int]) -> str:
    return "{" + ",".join(str(x) for x in g) + "}"


def _build_parser() -> _Parser:
    parser = _Parser(prog="lrc", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_cls = sub.add_parser("classify", help="decide existence for (n,k,r,delta)")
    for name in ("n", "k", "r", "delta"):
        p_cls.add_argument(name, type=int)
    p_cls.set_defaults(func=cmd_classify)

    p_tab = sub.add_parser("table", help="existence-tag grid over r and k ranges")
    p_tab.add_argument("--n", type=int, required=True)
    p_tab.add_argument("--delta", type=int, required=True)
    p_tab.add_argument("--r", type=_parse_range, required=True,
                       metavar="A..B")
    p_tab.add_argument("--k", type=_parse_range, required=True,
                       metavar="C..D")
    p_tab.set_defaults(func=cmd_table)

    p_con = sub.add_parser("construct", help="build an optimal code if one is known")
    for name in ("n", "k", "r", "delta"):
        p_con.add_argument(name, type=int)
    p_con.add_argument("--field", metavar="P[,E[,POLY]]", default=None)
    p_con.add_argument("--seed", type=int, default=0)
    p_con.add_argument("--out", metavar="FILE", default=None)
    p_con.add_argument("--stats", action="store_true", help="print the steps as JSON")
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="re-check a stored code file")
    p_ver.add_argument("file")
    p_ver.add_argument("--budget", type=int, default=None)  # verify.DEFAULT_BUDGET
    p_ver.set_defaults(func=cmd_verify)

    p_dem = sub.add_parser("demo", help="narrated [12,5] storage-code walkthrough")
    p_dem.set_defaults(func=cmd_demo)

    return parser


def _field_bound_text(c: Classification) -> str:
    """C(n, k-1) in digits, or as the binomial itself when its log-gamma
    estimate passes _BOUND_DIGITS digits, before it is ever computed."""
    n, k = c.params.n, c.params.k
    if (lgamma(n + 1) - lgamma(k) - lgamma(n - k + 2)) / log(10) > _BOUND_DIGITS:
        return f"C({n},{k - 1})"
    return str(c.field_bound)


def _classification_line(c: Classification) -> tuple[str, int]:
    if c.verdict == EXISTS_MDS:
        return f"EXISTS (MDS), d*={c.bound_d}", EXIT_OK
    if c.verdict == EXISTS:
        return (f"EXISTS via {c.method}, d*={c.bound_d}, "
                f"q≥{_field_bound_text(c)}", EXIT_OK)
    if c.verdict == NOT_EXISTS:
        return f"NOT-EXISTS ({c.tag})", EXIT_NOT_EXISTS
    return f"UNKNOWN ({c.tag})", EXIT_UNKNOWN


def cmd_classify(args: argparse.Namespace) -> int:
    params = CodeParams(args.n, args.k, args.r, args.delta)
    line, code = _classification_line(classify(params))
    print(line)
    return code


def _cell_tag(n: int, k: int, r: int, delta: int) -> str:
    try:
        params = CodeParams(n, k, r, delta)
        c = classify(params)
    except (ValueError, LrcError):
        return "-"
    if c.verdict == EXISTS_MDS:
        return "E_M" if n % (r + delta - 1) == 0 else "MDS"
    return _TAG_CELL[c.tag]


def cmd_table(args: argparse.Namespace) -> int:
    n, delta = args.n, args.delta
    ks = list(args.k)
    rs = list(args.r)
    width = max(5, max(len(str(k)) for k in ks) + 2)
    print(f"n={n}, delta={delta}")
    print("r\\k".rjust(width) + "".join(str(k).rjust(width) for k in ks))
    diffs = []
    for r in rs:
        cells = []
        for k in ks:
            tag = _cell_tag(n, k, r, delta)
            cells.append(tag)
            if (n == _REFERENCE_N and delta == _REFERENCE_DELTA
                    and r in _REFERENCE_GRID and k in _REFERENCE_KS):
                published = _REFERENCE_GRID[r][k - _REFERENCE_KS.start]
                if tag != published:
                    diffs.append((r, k, tag, published))
        print(str(r).rjust(width) + "".join(c.rjust(width) for c in cells))
    overlap = (n == _REFERENCE_N and delta == _REFERENCE_DELTA
               and any(r in _REFERENCE_GRID for r in rs)
               and any(k in _REFERENCE_KS for k in ks))
    if diffs:
        print(f"note: {len(diffs)} cell(s) differ from the published "
              "reference grid:")
        for r, k, tag, published in diffs:
            print(f"  (r={r}, k={k}): classifier {tag}, published {published}")
    elif overlap:
        print("note: classifier matches the published reference grid on "
              "all shown cells")
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    from .codefile import save_code
    from .construct import construct
    params = CodeParams(args.n, args.k, args.r, args.delta)
    field = _parse_field(args.field) if args.field else None
    try:
        code = construct(params, field=field, seed=args.seed)
    except NotConstructible as exc:
        print(f"NOT-EXISTS ({exc.tag}): {exc}", file=sys.stderr)
        return EXIT_NOT_EXISTS
    except UnknownCase as exc:
        print(f"UNKNOWN ({exc.tag}): {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    print(f"constructed [n={params.n}, k={params.k}] code over "
          f"{code.field!r}, claimed d = {code.claimed_d}")
    kind = ("frame" if isinstance(code.structure, Frame)
            else "partition" if sum(map(len, code.structure.groups)) == params.n
            else "overlapping cover")
    print(f"structure: {kind} with {code.structure.t} groups")
    for i, g in enumerate(code.structure.groups, start=1):
        print(f"  group {i}: {_group_text(g)}")
    if args.out:
        save_code(code, args.out, seed=args.seed)
        print(f"wrote {args.out}")
    if args.stats:
        print(json.dumps({"steps": [asdict(s) for s in code.steps]}))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .codefile import load_code
    from .verify import (DEFAULT_BUDGET, DISTANCE_ROUTE, PENCIL_ROUTE, RANK_METHOD,
                         certify_optimal, check_locality, check_structure_theorem,
                         min_distance)
    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    cf = load_code(args.file)
    code = cf.code
    params = code.params
    print(f"code: [n={params.n}, k={params.k}] over "
          f"{code.field!r}, r={params.r}, delta={params.delta}, "
          f"claimed d = {code.claimed_d}")
    failed = False

    loc = check_locality(code)
    print(f"locality: {'OK' if loc.overall else 'FAIL'}, {loc.scanned} scanned")
    for e in loc.per_group:
        line = f"  group {e.index} {_group_text(e.group)}: rank {e.rank}"
        if not e.ok:
            line += (f"  FAIL (witness {e.witness})" if e.witness
                     else "  FAIL (rank exceeds r)")
        print(line)
    if not loc.covered:
        print("  FAIL: groups do not cover every coordinate")
    failed |= not loc.overall

    try:
        dist = min_distance(code, budget=budget)
        labelled = f", {dist.labelled} labelled" if dist.method == RANK_METHOD else ""
        print(f"distance: d = {dist.d} via {dist.method}, "
              f"{dist.scanned} scanned{labelled}")
        if dist.d != code.claimed_d:
            print(f"  FAIL: claimed d = {code.claimed_d}")
            failed = True
    except BudgetExceeded as exc:
        print(f"distance: out of budget ({exc})")

    try:
        ok, report = certify_optimal(code, budget=budget)
        verdict = "OPTIMAL" if ok else "NOT OPTIMAL"
        line = (f"optimality: {verdict} (bound d* = {report.bound_d}, "
                f"{report.subsets_total} subsets of size {report.subset_size})")
        if report.route == DISTANCE_ROUTE:  # read off the distance above
            line += f" via {report.route}, d = {report.known_d}"
        elif report.route:  # None when locality failed before any scan
            line += f" via {report.route}, {report.scanned} scanned"
            if report.route == PENCIL_ROUTE:
                line += f", {report.labelled} labelled"
        print(line)
        if not ok and report.witness:
            print(f"  deficient columns: {report.witness}")
        failed |= not ok
    except BudgetExceeded as exc:
        print(f"optimality: out of budget ({exc})")

    if params.r < params.k and params.k % params.r == 0:
        ok, sreport = check_structure_theorem(code)
        print(f"structure theorem: {'OK' if ok else 'FAIL'}")
        for msg in sreport.messages:
            print(f"  {msg}")
        failed |= not ok
    else:
        print("structure theorem: not applicable (requires r | k and r < k)")

    return EXIT_USAGE if failed else EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    from .construct import construct
    from .linalg import rank
    from .verify import check_locality
    params = CodeParams(12, 5, 2, 3)
    code = construct(params, seed=0)
    field = code.field
    m = code.generator
    print(f"A file split into {params.k} packets, stored as "
          f"{params.n} coded symbols over {field!r}.")
    print("repair groups: " + " ".join(
        _group_text(g) for g in code.structure.groups))
    print(f"optimal minimum distance from the bound: d = {code.claimed_d}")
    print("any symbol survives delta-1 = 2 erasures in its group and is "
          "rebuilt from r = 2 group mates:")
    g1 = code.structure.groups[0]
    survivors = (g1[1], g1[2])
    assert rank(m, survivors) == rank(m, (g1[0],) + survivors)
    print(f"  symbol {g1[0]} of group {_group_text(g1)} is a combination "
          f"of symbols {{{survivors[0]},{survivors[1]}}}")
    loc = check_locality(code)
    assert loc.overall
    print("  (checked: every symbol, from every large-enough subset of "
          "its group)")
    pattern = (1, 3, 7, 8, 10)
    assert rank(m, pattern) == params.k
    print(f"whole-file recovery from the {params.k} symbols "
          f"{_group_text(pattern)}: rank {rank(m, pattern)} = k")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (LrcError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
