#!/usr/bin/env python3
"""Write the benchmark's fixtures and golden outputs from the current src/.

    python3 perfbench/make_golden.py            # golden.json only
    python3 perfbench/make_golden.py --fixtures # also rewrite fixtures/

The pins record today's behaviour: generator SHA-256 per (params, field,
construction seed) at seeds 0 and 1 for every code the benchmark builds,
the verdicts of the stored fixtures, the classify sweep tallies and the
CLI table grid. Regenerate them only on a commit whose outputs are known
to be right, since the benchmark counts any difference as a failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run as bench

PINNED_SEEDS = (0, 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fixtures", action="store_true",
                    help="rebuild the stored code files as well")
    args = ap.parse_args()
    lib = bench.Lib()
    P, G, C, F, V = lib.params, lib.gf, lib.construct, lib.codefile, lib.verify

    if args.fixtures:
        bench.FIXTURES.mkdir(exist_ok=True)
        for name in bench.VerifyExhaustive.FILES + bench.VerifyExhaustive.TINY:
            t = tuple(int(x) for x in name.rsplit(".", 1)[0].split("-")[1:])
            F.save_code(C.construct(P.CodeParams(*t), seed=0),
                        bench.FIXTURES / name, seed=0)

    codes = {}
    builds = [(P.CodeParams(*t), None) for t in
              bench.ConstructLarge.CODES + bench.ConstructLarge.TINY]
    for p in bench.small_exists_tuples(lib, bench.SmallMany.N_MAX):
        builds.append((p, None))
        builds.append((p, G.field_at_least(max(P.field_bound(p), p.n), "binary")))
    for seed in PINNED_SEEDS:
        for p, field in builds:
            code = C.construct(p, field=field, seed=seed)
            codes[bench.code_key(p, code.field, seed)] = bench.generator_sha256(code)

    fixtures = {}
    for name in bench.VerifyExhaustive.FILES + bench.VerifyExhaustive.TINY:
        code = F.load_code(bench.FIXTURES / name).code
        ok, report = V.certify_optimal(code)
        if not ok:
            raise SystemExit(f"{name} is not certified optimal")
        fixtures[name] = {
            "params": [code.params.n, code.params.k, code.params.r, code.params.delta],
            "generator_sha256": bench.generator_sha256(code),
            "d": V.min_distance(code).d,
            "certificate_subsets": report.subsets_total,
        }

    sweeps = {}
    for n_max in (bench.SmallMany.SWEEP_N, bench.SmallMany.TINY_SWEEP_N):
        tuples = bench.classify_sweep_tuples(n_max)
        tally, digest = bench.SmallMany.sweep(P, tuples)
        sweeps[f"n<={n_max}"] = {"tuples": len(tuples), "tally": tally, "digest": digest}

    proc = subprocess.run([sys.executable, "-m", "lrcodes.cli", *bench.TABLE_ARGV],
                          cwd=bench.ROOT, env=bench.child_env(), capture_output=True,
                          text=True, check=True)
    rows = [line.split() for line in proc.stdout.splitlines()[2:12]]

    golden = {
        "hash_rule": "sha256 of compact JSON [p, e, poly, generator rows]",
        "codes": codes,
        "fixtures": fixtures,
        "classify_sweeps": sweeps,
        "cli_table": {"argv": bench.TABLE_ARGV, "rows": rows},
    }
    bench.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"wrote {bench.GOLDEN}: {len(codes)} code hashes, {len(fixtures)} fixtures")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
