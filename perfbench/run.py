#!/usr/bin/env python3
"""lrcodes benchmark: construct-large, verify-exhaustive and small-many.

Run from the root of a checkout:

    python3 perfbench/run.py --workload construct-large --seed 0 --seconds 30 --trace 0

The library is imported from ``src/`` of that checkout; nothing is
installed. With ``--trace 0`` the last line of standard output is one
JSON object carrying the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it carries the per-layer metrics of a traced pass. Every
output is checked, against pinned golden hashes where the construction
seed is pinned and by independent verification otherwise; a failed
check is counted in ``failed``, it does not stop the run.

``--self-check`` runs every workload on tiny inputs, traced and not,
and confirms that every metric is emitted and that tampered fixtures,
hashes and tallies are counted as failures. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from math import comb
from pathlib import Path

# numpy reads these when it is imported; one thread keeps each run to
# the single worker the workloads are defined for
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden.json"

now = time.perf_counter

SETUP_REPEATS = 9
CLI_TIMEOUT_S = 120
DEFAULT_BUDGET = 10 ** 7

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "construct.steps": "count",
    "construct.step.busy_s": "s",
    "construct.step.max_s": "s",
    "construct.subsets_seen": "count",
    "construct.cores_passed": "count",
    "construct.core_pass_ratio": "ratio",
    "construct.mds_generator.busy_s": "s",
    "cores.lambda_cores.calls": "count",
    "cores.lambda_cores.yielded": "count",
    "cores.lambda_cores.busy_s": "s",
    "cores.omega0.busy_s": "s",
    "linalg.rank.calls": "count",
    "linalg.rank.busy_s": "s",
    "linalg.extend_basis.calls": "count",
    "linalg.reduce_vector.calls": "count",
    "gf.mul.calls": "count",
    "gf.add.calls": "count",
    "gf.sub.calls": "count",
    "gf.inv.calls": "count",
    "verify.check_locality.busy_s": "s",
    "verify.min_distance.busy_s": "s",
    "verify.min_distance.weight_calls": "count",
    "verify.min_distance.rank_calls": "count",
    "verify.certify_optimal.busy_s": "s",
    "verify.certify_optimal.subsets_worst": "count",
    "verify.check_structure_theorem.busy_s": "s",
    "verify.budget_exceeded": "count",
    "params.classify.calls": "count",
    "params.classify.busy_s": "s",
    "codefile.load_code.busy_s": "s",
    "codefile.save_code.busy_s": "s",
    "cli.classify.p50_ms": "ms",
    "cli.table.p50_ms": "ms",
    "cli.construct.p50_ms": "ms",
    "cli.verify.p50_ms": "ms",
    "trace.overhead_s": "s",
}

TABLE_ARGV = ["table", "--n", "60", "--delta", "5", "--r", "2..11", "--k", "11..20"]


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


# -- library access -----------------------------------------------------

class Lib:
    """The library's modules, imported from this checkout's src/ only.

    Calls go through these module objects at call time, so the traced
    run's wrappers (installed on the same modules) see them.
    """

    def __init__(self) -> None:
        if not (SRC / "lrcodes" / "__init__.py").is_file():
            raise BenchError(f"no lrcodes package under {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for var in THREAD_VARS:
            os.environ[var] = "1"
        pkg = importlib.import_module("lrcodes")
        where = Path(pkg.__file__).resolve().parent
        if where != (SRC / "lrcodes").resolve():
            raise BenchError(f"lrcodes imported from {where}, not from {SRC}")
        mod = importlib.import_module
        self.gf = mod("lrcodes.gf")
        self.linalg = mod("lrcodes.linalg")
        self.params = mod("lrcodes.params")
        self.cores = mod("lrcodes.cores")
        self.construct = mod("lrcodes.construct")
        self.verify = mod("lrcodes.verify")
        self.codefile = mod("lrcodes.codefile")
        self.errors = mod("lrcodes.errors")


def generator_sha256(code) -> str:
    """SHA-256 of the field identity and the generator rows, as compact JSON."""
    f, m = code.field, code.generator
    doc = [f.p, f.e, f.poly, [list(m.row(i)) for i in range(1, m.rows + 1)]]
    return hashlib.sha256(
        json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


def code_key(p, field, seed: int) -> str:
    return (f"{p.n}-{p.k}-{p.r}-{p.delta}/GF({field.p}^{field.e},{field.poly})"
            f"/seed{seed}")


def classify_sweep_tuples(n_max: int) -> list[tuple[int, int, int, int]]:
    """Every (n,k,r,delta) with 1<=r<=k<=n<=n_max, delta>=2 and a
    distance bound n-k+1-(ceil(k/r)-1)(delta-1) of at least 1."""
    out = []
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                mu1 = -(-k // r) - 1
                for delta in range(2, n - k + 3):
                    if n - k + 1 - mu1 * (delta - 1) < 1:
                        break
                    out.append((n, k, r, delta))
    return out


def small_exists_tuples(lib: Lib, n_max: int = 12, combos_max: int = 10 ** 4):
    """Exists tuples with n <= n_max and C(n, k-1) <= combos_max."""
    P = lib.params
    out = []
    for n in range(2, n_max + 1):
        for k in range(1, n + 1):
            for r in range(1, k + 1):
                for delta in range(2, n + 2):
                    try:
                        p = P.CodeParams(n, k, r, delta)
                    except ValueError:
                        continue
                    if (P.classify(p).verdict == P.EXISTS
                            and comb(n, k - 1) <= combos_max):
                        out.append(p)
    return out


# -- run context --------------------------------------------------------

class Run:
    """State of one benchmark run: inputs' seed, checks, and the tracer."""

    def __init__(self, lib: Lib, workload: str, seed: int, tiny: bool,
                 golden: dict, fixtures: Path) -> None:
        self.lib = lib
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.golden = golden
        self.fixtures = fixtures
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.tracer = None
        self.budget_exceeded = 0
        WORK.mkdir(parents=True, exist_ok=True)

    def record(self, ok: bool, what: str, why: str = "") -> None:
        """Count one operation; a failed one is noted for stderr."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(f"{what}: {why}" if why else what)

    def pinned(self, code, p, seed: int):
        """The pinned generator hash for (params, field, seed), or None."""
        return self.golden["codes"].get(code_key(p, code.field, seed))

    @contextmanager
    def untraced(self):
        """Suspend the tracer around the benchmark's own checks."""
        tracer = self.tracer
        was = tracer is not None and tracer.on
        if tracer is not None:
            tracer.on = False
        try:
            yield
        finally:
            if tracer is not None:
                tracer.on = was


@dataclass(slots=True)
class Sample:
    """Timings of one item: the library calls only, never the checks."""

    wall_s: float
    construct_s: float = 0.0
    verify_s: float = 0.0
    is_code: bool = True
    classify_calls: int = 0


def full_verify(run: Run, code, cross_check: bool):
    """check_locality, min_distance (both engines when q^k fits the
    budget and cross_check is set), certify_optimal and, where r | k and
    r < k, check_structure_theorem. Returns (seconds, outcome dict)."""
    V = run.lib.verify
    p = code.params
    out = {}
    t0 = now()
    out["locality"] = V.check_locality(code).overall
    out["d"] = V.min_distance(code).d
    if cross_check and code.field.q ** p.k <= DEFAULT_BUDGET:
        try:
            out["d_rank"] = V.min_distance(code, budget=code.field.q ** p.k - 1).d
        except run.lib.errors.BudgetExceeded:
            run.budget_exceeded += 1
    ok, report = V.certify_optimal(code)
    out["optimal"] = ok
    out["subsets_total"] = report.subsets_total
    if p.r < p.k and p.k % p.r == 0:
        out["structure"] = V.check_structure_theorem(code)[0]
    return now() - t0, out


def verdict_problems(code, out: dict, expect_d: int) -> list[str]:
    bad = []
    if not out["locality"]:
        bad.append("locality check failed")
    if out["d"] != expect_d or code.claimed_d != expect_d:
        bad.append(f"d={out['d']} claimed={code.claimed_d} expected={expect_d}")
    if "d_rank" in out and out["d_rank"] != out["d"]:
        bad.append(f"distance engines disagree: {out['d']} vs {out['d_rank']}")
    if not out["optimal"]:
        bad.append("certify_optimal said NOT optimal")
    if out.get("structure") is False:
        bad.append("structure theorem check failed")
    return bad


# -- workloads ----------------------------------------------------------

class ConstructLarge:
    """construct() at default fields for three codes on the vectorized
    prime-field avoidance path; outputs checked by pinned hash (or a
    sample of full-rank k-cores) plus check_locality."""

    CODES = [(26, 7, 3, 3), (23, 8, 3, 3), (20, 8, 4, 2)]
    TINY = [(12, 5, 2, 3), (11, 5, 2, 2)]
    CORE_SAMPLE = 1000

    def prepare(self, run: Run) -> dict:
        P = run.lib.params
        return {"items": [P.CodeParams(*t) for t in (self.TINY if run.tiny else self.CODES)]}

    def run_item(self, run: Run, inputs: dict, p) -> Sample | None:
        C, V = run.lib.construct, run.lib.verify
        what = f"construct {p.n},{p.k},{p.r},{p.delta} seed {run.seed}"
        try:
            t0 = now()
            code = C.construct(p, seed=run.seed)
            t1 = now()
            loc = V.check_locality(code)
            t2 = now()
        except Exception as exc:  # counted, the run goes on
            run.record(False, what, f"{type(exc).__name__}: {exc}")
            return None
        with run.untraced():
            why = self.problems(run, p, code, loc)
        run.record(not why, what, why)
        return Sample(t2 - t0, construct_s=t1 - t0, verify_s=t2 - t1)

    def problems(self, run: Run, p, code, loc) -> str:
        if not loc.overall:
            return "locality check failed"
        want = run.pinned(code, p, run.seed)
        if want is not None:
            got = generator_sha256(code)
            return "" if got == want else f"generator hash {got[:12]} != pinned {want[:12]}"
        return self.fallback(run, p, code)

    def fallback(self, run: Run, p, code) -> str:
        """Unpinned seed: shape, field size, claimed d, and a seeded sample
        of k-cores that must all have full rank."""
        P, K, L = run.lib.params, run.lib.cores, run.lib.linalg
        m = code.generator
        if (m.rows, m.cols) != (p.k, p.n):
            return f"generator is {m.rows}x{m.cols}"
        if code.field.q < max(P.field_bound(p), p.n):
            return f"field GF({code.field.q}) below the bound"
        if code.claimed_d != P.distance_bound(p):
            return f"claimed d {code.claimed_d} != bound"
        q = K.CoreQuery(structure=code.structure, r=p.r, k=p.k, delta=p.delta)
        rng = random.Random(f"cores/{p.n}/{p.k}/{p.r}/{p.delta}/{run.seed}")
        found = 0
        for _ in range(self.CORE_SAMPLE * 200):
            S = tuple(sorted(rng.sample(range(1, p.n + 1), p.k)))
            if not K.is_core(S, q):
                continue
            if L.rank(m, S) != p.k:
                return f"core {S} is rank-deficient"
            found += 1
            if found == self.CORE_SAMPLE:
                return ""
        return f"only {found} cores sampled"

    def cli_calls(self, run: Run, inputs: dict) -> list:
        return classify_and_table_calls(run, inputs["items"])


class VerifyExhaustive:
    """check_locality, min_distance, certify_optimal and (r | k)
    check_structure_theorem on three stored code files; no construction."""

    FILES = ["verify-20-8-4-2.json", "verify-18-8-3-2.json", "verify-18-7-4-2.json"]
    TINY = ["tiny-12-5-2-3.json"]

    def prepare(self, run: Run):
        F = run.lib.codefile
        names = list(self.TINY if run.tiny else self.FILES)
        random.Random(run.seed).shuffle(names)
        loaded = []
        for name in names:
            pin = run.golden["fixtures"].get(name)
            try:
                code = F.load_code(run.fixtures / name).code
            except Exception as exc:  # a broken file is counted, not fatal
                run.record(False, f"load {name}", f"{type(exc).__name__}: {exc}")
                continue
            with run.untraced():
                got = generator_sha256(code)
            ok = pin is not None and got == pin["generator_sha256"]
            run.record(ok, f"load {name}", "" if ok else f"generator hash {got[:12]} not pinned")
            loaded.append((name, code, pin))
        return {"items": loaded}

    def run_item(self, run: Run, inputs: dict, item) -> Sample | None:
        name, code, pin = item
        try:
            secs, out = full_verify(run, code, cross_check=False)
        except Exception as exc:
            run.record(False, f"verify {name}", f"{type(exc).__name__}: {exc}")
            return None
        bad = verdict_problems(code, out, pin["d"] if pin else -1)
        if pin and out["subsets_total"] != pin["certificate_subsets"]:
            bad.append(f"certificate covers {out['subsets_total']} subsets")
        run.record(not bad, f"verify {name}", "; ".join(bad))
        return Sample(secs, verify_s=secs)

    def cli_calls(self, run: Run, inputs: dict) -> list:
        return classify_and_table_calls(run, [code.params for _, code, _ in inputs["items"]])


class SmallMany:
    """Every small Exists tuple built over its default prime field and
    over the binary field, stored, reloaded and fully verified; then a
    classify sweep over every valid tuple with n <= 60."""

    N_MAX, SWEEP_N = 12, 60
    TINY_CODES, TINY_SWEEP_N = 6, 12

    def prepare(self, run: Run):
        P, G = run.lib.params, run.lib.gf
        tuples = small_exists_tuples(run.lib, self.N_MAX)
        if run.tiny:
            tuples = tuples[:self.TINY_CODES]
        items: list = []
        for p in tuples:
            items.append((p, None))
            items.append((p, G.field_at_least(max(P.field_bound(p), p.n), "binary")))
        sweep_n = self.TINY_SWEEP_N if run.tiny else self.SWEEP_N
        items.append(("sweep", f"n<={sweep_n}", classify_sweep_tuples(sweep_n)))
        return {"items": items, "built": {}}

    def run_item(self, run: Run, inputs: dict, item) -> Sample | None:
        if item[0] == "sweep":
            return self.run_sweep(run, item[1], item[2])
        C, F, P = run.lib.construct, run.lib.codefile, run.lib.params
        p, field = item
        path = WORK / "small-many.json"
        what = (f"code {p.n},{p.k},{p.r},{p.delta} over "
                f"{'default prime' if field is None else field} seed {run.seed}")
        try:
            t0 = now()
            code = C.construct(p, field=field, seed=run.seed)
            t1 = now()
            F.save_code(code, path, seed=run.seed)
            stored = F.load_code(path).code
            secs, out = full_verify(run, stored, cross_check=True)
            t2 = now()
        except Exception as exc:
            run.record(False, what, f"{type(exc).__name__}: {exc}")
            return None
        with run.untraced():
            bad = verdict_problems(stored, out, P.distance_bound(p))
            got = generator_sha256(code)
            if generator_sha256(stored) != got:
                bad.append("stored file differs from the built code")
            want = run.pinned(code, p, run.seed)
            if want is not None and got != want:
                bad.append(f"generator hash {got[:12]} != pinned {want[:12]}")
            if field is None:
                inputs["built"][(p.n, p.k, p.r, p.delta)] = got
        run.record(not bad, what, "; ".join(bad))
        return Sample(t2 - t0, construct_s=t1 - t0, verify_s=secs)

    def run_sweep(self, run: Run, key: str, tuples) -> Sample | None:
        try:
            t0 = now()
            tally, digest = self.sweep(run.lib.params, tuples)
            secs = now() - t0
        except Exception as exc:
            run.record(False, f"classify sweep {key}", f"{type(exc).__name__}: {exc}")
            return None
        pin = run.golden["classify_sweeps"].get(key)
        ok = pin is not None and pin["tally"] == tally and pin["digest"] == digest
        run.record(ok, f"classify sweep {key}",
                   "" if ok else f"tally {tally} digest {digest[:12]}")
        return Sample(secs, is_code=False, classify_calls=len(tuples))

    @staticmethod
    def sweep(P, tuples) -> tuple[dict[str, int], str]:
        """Verdict tally and ordered (verdict, method, tag) digest."""
        tally: dict[str, int] = {}
        h = hashlib.sha256()
        for t in tuples:
            c = P.classify(P.CodeParams(*t))
            tally[c.verdict] = tally.get(c.verdict, 0) + 1
            h.update(f"{c.verdict}|{c.method}|{c.tag}\n".encode())
        return tally, h.hexdigest()

    def cli_calls(self, run: Run, inputs) -> list:
        P = run.lib.params
        params = sorted({item[0] for item in inputs["items"] if item[0] != "sweep"},
                        key=lambda p: (p.n, p.k, p.r, p.delta))
        picks = random.Random(run.seed).sample(params, min(3, len(params)))
        calls = []
        built = inputs["built"]
        for i, p in enumerate(picks):
            t = (p.n, p.k, p.r, p.delta)
            out = WORK / f"cli-{i}.json"
            nums = [str(x) for x in t]
            calls.append(("construct", ["construct", *nums, "--seed", str(run.seed),
                                        "--out", str(out)],
                          lambda r, t=t, out=out: self.stored_matches(run, r, out, t, built)))
            calls.append(("verify", ["verify", str(out)],
                          lambda r: r.returncode == 0 and "optimality: OPTIMAL" in r.stdout))
            calls.append(classify_call(P, p))
        calls.append(table_call(run))
        return calls

    @staticmethod
    def stored_matches(run: Run, result, out: Path, t, built: dict) -> bool:
        """The CLI's file holds the generator this process builds for t."""
        if result.returncode != 0:
            return False
        if t not in built:  # the pass has not reached t yet
            built[t] = generator_sha256(run.lib.construct.construct(
                run.lib.params.CodeParams(*t), seed=run.seed))
        return generator_sha256(run.lib.codefile.load_code(out).code) == built[t]


def classify_call(P, p):
    c = P.classify(p)
    want = f"EXISTS via {c.method}" if c.verdict == P.EXISTS else None
    return ("classify", ["classify", str(p.n), str(p.k), str(p.r), str(p.delta)],
            lambda r: r.returncode == 0 and want is not None and r.stdout.startswith(want))


def table_call(run: Run):
    rows = run.golden["cli_table"]["rows"]

    def check(r) -> bool:
        lines = r.stdout.splitlines()
        got = [line.split() for line in lines[2:2 + len(rows)]]
        return r.returncode == 0 and got == rows
    return ("table", list(TABLE_ARGV), check)


def classify_and_table_calls(run: Run, params) -> list:
    P = run.lib.params
    calls = [classify_call(P, p) for p in params]
    calls.append(table_call(run))
    return calls * 2


WORKLOADS = {
    "construct-large": ConstructLarge,
    "verify-exhaustive": VerifyExhaustive,
    "small-many": SmallMany,
}


# -- harness ------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def fresh_import_s() -> float:
    """Wall time of a new interpreter that imports lrcodes and exits."""
    t0 = now()
    proc = subprocess.run([sys.executable, "-c", "import lrcodes"], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    secs = now() - t0
    if proc.returncode != 0:
        raise BenchError(f"import lrcodes failed: {proc.stderr.strip()[-400:]}")
    return secs


def cli_call(run: Run, call, times: dict[str, list[float]]) -> None:
    """Run one (subcommand, argv, check) CLI call; time it and check it."""
    sub, argv, check = call
    t0 = now()
    try:
        proc = subprocess.run([sys.executable, "-m", "lrcodes.cli", *argv],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        run.record(False, f"cli {' '.join(argv)}", "timed out")
        return
    t1 = now()
    times.setdefault(sub, []).append((t1 - t0) * 1e3)
    if run.tracer is not None:
        run.tracer.record(f"cli.{sub}", t0, t1, 0)
    why = f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    with run.untraced():
        try:
            ok = check(proc) and "Traceback" not in proc.stderr
        except Exception as exc:  # e.g. an unreadable output file
            ok, why = False, f"{type(exc).__name__}: {exc}"
    run.record(ok, f"cli {' '.join(argv)}", "" if ok else why)


def setup_once(run: Run, wl, count_checks: bool) -> tuple[dict, float]:
    """Fresh-process import plus the workload's own preparation."""
    imp = fresh_import_s()
    before = (run.attempted, run.failed, list(run.notes))
    t0 = now()
    inputs = wl.prepare(run)
    secs = imp + now() - t0
    if not count_checks:
        run.attempted, run.failed, run.notes = before
    return inputs, secs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def one_pass(run: Run, wl, inputs: dict) -> list[Sample | None]:
    return [wl.run_item(run, inputs, item) for item in inputs["items"]]


def spread_out(*groups: list) -> list[tuple[float, object]]:
    """Merge job groups, each spaced evenly over [0, 1), by due fraction."""
    jobs = [((j + 0.5) / len(g), job) for g in groups for j, job in enumerate(g)]
    return sorted(jobs, key=lambda x: x[0])


def measure(run: Run, wl, inputs: dict, seconds: float,
            side_jobs: list[tuple[float, object]]) -> list[list[Sample]]:
    """One full pass, then more rounds over the items, each item run again
    only while its last time still fits within `seconds` of the start.

    Side jobs (CLI calls, repeated set-ups) run between items when their
    due fraction of `seconds` has passed, so their samples see the same
    stretch of machine time as the items do rather than one corner of it.
    """
    start = now()
    pending = list(side_jobs)

    def side() -> None:
        while pending and pending[0][0] * seconds <= now() - start:
            pending.pop(0)[1]()

    samples: list[list[Sample]] = []
    for item in inputs["items"]:
        s = wl.run_item(run, inputs, item)
        samples.append([s] if s is not None else [])
        side()
    grew = True
    while grew:
        grew = False
        for item, got in zip(inputs["items"], samples):
            if not got or now() - start + got[-1].wall_s > seconds:
                continue
            s = wl.run_item(run, inputs, item)
            if s is not None:
                got.append(s)
                grew = True
            side()
    for _, job in pending:
        job()
    return samples


def item_median(samples: list[list[Sample]], attr: str) -> list[float]:
    return [statistics.median(getattr(s, attr) for s in got) for got in samples if got]


def untraced_run(run: Run, wl, seconds: float) -> tuple[dict, dict]:
    inputs, first = setup_once(run, wl, count_checks=True)
    setups = [first]
    cli: dict[str, list[float]] = {}
    setup_jobs = [lambda: setups.append(setup_once(run, wl, count_checks=False)[1])
                  for _ in range(SETUP_REPEATS - 1)]
    cli_jobs = [lambda c=c: cli_call(run, c, cli) for c in wl.cli_calls(run, inputs)]
    samples = measure(run, wl, inputs, seconds, spread_out(setup_jobs, cli_jobs))
    nan = float("nan")
    cli_all = [ms for v in cli.values() for ms in v]
    codes = [statistics.median(s.wall_s for s in got) * 1e3
             for got in samples if got and got[0].is_code]
    metrics = {
        "wall_s": sum(item_median(samples, "wall_s")),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "item_runs": sum(len(got) for got in samples),
        "construct_s": sum(item_median(samples, "construct_s")),
        "verify_s": sum(item_median(samples, "verify_s")),
        "code_samples": len(codes),
        "code_p50_ms": statistics.median(codes) if codes else nan,
        "code_p90_ms": (statistics.quantiles(codes, n=10, method="inclusive")[-1]
                        if len(codes) > 1 else nan),
        "cli_calls": len(cli_all),
        "cli_p50_ms": statistics.median(cli_all) if cli_all else nan,
    }
    for got in samples:
        if got and got[0].classify_calls:
            info["classify_per_s"] = got[0].classify_calls / statistics.median(
                s.wall_s for s in got)
    return metrics, info


def pass_wall(samples: list[Sample | None]) -> float:
    return sum(s.wall_s for s in samples if s is not None)


def layer_value(tracer, name: str) -> float:
    """A recorded count (`extra`), or `<span>.calls` / `<span>.busy_s`;
    0 for a layer the run never entered."""
    if name in tracer.extra:
        return tracer.extra[name]
    span, _, kind = name.rpartition(".")
    if kind == "calls":
        return tracer.calls[span]
    if kind == "busy_s":
        return tracer.busy[span]
    return 0.0


def traced_run(run: Run, wl) -> tuple[dict, dict]:
    from tracer import Tracer

    inputs, _ = setup_once(run, wl, count_checks=True)
    plain_wall = pass_wall(one_pass(run, wl, inputs))
    tracer = Tracer()
    tracer.install()
    run.tracer = tracer
    try:
        tracer.on = True
        inputs = wl.prepare(run)
        run.budget_exceeded = 0
        traced_wall = pass_wall(one_pass(run, wl, inputs)) - tracer.excluded_s
        with run.untraced():
            cli_calls = wl.cli_calls(run, inputs)
        cli: dict[str, list[float]] = {}
        for call in cli_calls:
            cli_call(run, call, cli)
    finally:
        tracer.uninstall()
        run.tracer = None
    seen = tracer.extra["construct.subsets_seen"]
    m = {name: layer_value(tracer, name) for name in PER_LAYER_UNITS}
    m["construct.steps"] = tracer.calls["construct.step"]
    m["construct.step.max_s"] = tracer.max_s["construct.step"]
    m["construct.core_pass_ratio"] = tracer.extra["construct.cores_passed"] / seen if seen else 0.0
    m["verify.budget_exceeded"] = run.budget_exceeded
    m["trace.overhead_s"] = traced_wall - plain_wall
    for sub in ("classify", "table", "construct", "verify"):
        m[f"cli.{sub}.p50_ms"] = statistics.median(cli[sub]) if sub in cli else 0.0
    span_file = WORK / f"spans-{run.workload}-seed{run.seed}.json"
    tracer.write(span_file, {"workload": run.workload, "seed": run.seed,
                             "untraced_wall_s": plain_wall,
                             "traced_wall_s": traced_wall})
    return m, {"span_file": str(span_file.relative_to(ROOT)),
               "spans": len(tracer.spans)}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, golden: dict | None = None,
                 fixtures: Path = FIXTURES, lib: Lib | None = None) -> dict:
    """One benchmark run; returns the result object printed last."""
    lib = lib or Lib()
    if golden is None:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    run = Run(lib, name, seed, tiny, golden, fixtures)
    wl = WORKLOADS[name]()
    if trace:
        values, info = traced_run(run, wl)
        units = PER_LAYER_UNITS
    else:
        values, info = untraced_run(run, wl, seconds)
        units = END_TO_END_UNITS
    info["failed_frac"] = run.failed / run.attempted if run.attempted else 1.0
    return {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
        "_info": info,
        "_notes": run.notes,
    }


def report(result: dict) -> None:
    """Human-readable lines first, then the result object as the last line."""
    for k, v in result["metrics"].items():
        shown = f"{v['value']:.0f}" if v["unit"] == "count" else f"{v['value']:.6g}"
        print(f"{k:40s} {shown} {v['unit']}")
    for k, v in result.pop("_info").items():
        print(f"{k:40s} {v:.6g}" if isinstance(v, float) else f"{k:40s} {v}")
    for note in result.pop("_notes"):
        print(f"FAILED {note}", file=sys.stderr)
    print(json.dumps(result))


# -- self-check ---------------------------------------------------------

def self_check() -> int:
    """Tiny inputs: every metric emitted, tampering counted not raised."""
    lib = Lib()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            res = run_workload(name, 0, 0, trace, tiny=True, golden=golden, lib=lib)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(set(got) ^ set(want[trace]))}")
            if not res["correct"]:
                problems.append(f"{name} trace={int(trace)}: {res['_notes']}")
            if not trace and any(not v["value"] > 0 for v in res["metrics"].values()):
                problems.append(f"{name}: an end-to-end metric is not positive")
            print(f"self-check {name} trace={int(trace)}: attempted {res['attempted']} "
                  f"failed {res['failed']}")

    tampered = json.loads(json.dumps(golden))
    P = lib.params
    p = P.CodeParams(*ConstructLarge.TINY[0])
    prime = lib.gf.field_at_least(max(P.field_bound(p), p.n), "prime")
    key = code_key(p, prime, 0)
    tampered["codes"][key] = "0" * 64
    first = next(iter(tampered["classify_sweeps"]))
    tampered["classify_sweeps"][first]["digest"] = "0" * 64
    bad_dir = WORK / "tampered"
    bad_dir.mkdir(parents=True, exist_ok=True)
    name = VerifyExhaustive.TINY[0]
    doc = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
    data = doc["code"]["generator"]["data"]
    data[0][0] = (data[0][0] + 1) % doc["code"]["field"]["p"]
    (bad_dir / name).write_text(json.dumps(doc), encoding="utf-8")
    for wl, fixtures in (("construct-large", FIXTURES), ("small-many", FIXTURES),
                         ("verify-exhaustive", bad_dir)):
        try:
            res = run_workload(wl, 0, 0, False, tiny=True, golden=tampered,
                               fixtures=fixtures, lib=lib)
        except Exception as exc:
            problems.append(f"{wl} tampered: raised {type(exc).__name__}: {exc}")
            continue
        if res["failed"] < 1 or res["correct"]:
            problems.append(f"{wl} tampered: failure not counted")
        print(f"self-check {wl} tampered: attempted {res['attempted']} failed {res['failed']}")
    shutil.rmtree(bad_dir, ignore_errors=True)
    for p in problems:
        print(f"SELF-CHECK FAILED {p}", file=sys.stderr)
    print("self-check ok" if not problems else "self-check failed")
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload on tiny inputs and check the harness")
    args = ap.parse_args(argv)
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            ap.error("--workload is required")
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    report(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
