"""Outside-in tracing of lrcodes layers for the benchmark's traced run.

The tracer replaces public functions of the library with thin wrappers,
each installed under the name its caller looks it up by (for example
``lrcodes.construct.pick_extension_vector``, which ``_run_extension``
reads from its own module globals). Nothing under ``src/`` changes.

Three wrapper kinds keep the cost proportional to what is recorded:

* ``span``: a span (id, name, start, end, parent id) is kept in memory,
  and the call count and busy time are summed;
* ``timed``: call count and busy time only, for functions called
  hundreds of thousands of times (``classify``);
* ``counted``: call count only, for field and elimination primitives
  called millions of times.

Busy times are inclusive: a ``check_locality`` run inside
``certify_optimal`` is counted under both names.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from math import comb
from pathlib import Path

now = time.perf_counter


class Tracer:
    """Span store plus per-name counters for one traced pass."""

    def __init__(self) -> None:
        self.on = False
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.stack: list[int] = [0]
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.max_s: dict[str, float] = defaultdict(float)
        # time spent on the tracer's own bookkeeping calls (core counting),
        # subtracted from the traced pass so it does not read as overhead
        self.excluded_s = 0.0
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def record(self, name: str, start: float, end: float, parent: int) -> None:
        self.spans.append((self._open(), name, start, end, parent))

    def span(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            sid = self._open()
            parent = self.stack[-1]
            self.stack.append(sid)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                self.stack.pop()
                self.spans.append((sid, name, t0, t1, parent))
                self.calls[name] += 1
                self.busy[name] += t1 - t0
                if t1 - t0 > self.max_s[name]:
                    self.max_s[name] = t1 - t0
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                self.calls[name] += 1
                self.busy[name] += now() - t0
        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            if self.on:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def generator(self, name: str, fn):
        """Wrap a generator function: busy time is the time spent inside
        next(); the span covers creation to exhaustion."""
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            parent = self.stack[-1]
            start = now()
            self.calls[name] += 1
            inner = fn(*args, **kwargs)

            def drive():
                while True:
                    t0 = now()
                    try:
                        item = next(inner)
                    except StopIteration:
                        t1 = now()
                        self.busy[name] += t1 - t0
                        self.record(name, start, t1, parent)
                        return
                    self.busy[name] += now() - t0
                    self.extra[name + ".yielded"] += 1
                    yield item
            return drive()
        return wrapper

    # -- installation ----------------------------------------------------

    def patch(self, owner: object, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.on = False

    def install(self) -> None:
        """Wrap every traced public function where its callers find it."""
        gf = importlib.import_module("lrcodes.gf")
        linalg = importlib.import_module("lrcodes.linalg")
        params = importlib.import_module("lrcodes.params")
        cores = importlib.import_module("lrcodes.cores")
        construct = importlib.import_module("lrcodes.construct")
        verify = importlib.import_module("lrcodes.verify")
        codefile = importlib.import_module("lrcodes.codefile")

        for op in ("mul", "add", "sub", "inv"):
            self.patch(gf.FieldSpec, op,
                       self.counted(f"gf.{op}", getattr(gf.FieldSpec, op)))

        rank = self.span("linalg.rank", linalg.rank)
        extend = self.counted("linalg.extend_basis", linalg.extend_basis)
        reduce_ = self.counted("linalg.reduce_vector", linalg.reduce_vector)
        for mod in (linalg, verify):
            self.patch(mod, "rank", rank)
            self.patch(mod, "extend_basis", extend)
        for mod in (linalg, construct):
            self.patch(mod, "reduce_vector", reduce_)

        classify = self.timed("params.classify", params.classify)
        for mod in (params, construct):
            self.patch(mod, "classify", classify)

        lam_cores = cores.lambda_cores
        self.patch(construct, "lambda_cores",
                   self.generator("cores.lambda_cores", lam_cores))
        self.patch(construct, "omega0", self.span("cores.omega0", construct.omega0))
        self.patch(construct, "mds_generator",
                   self.span("construct.mds_generator", construct.mds_generator))

        def after_step(args, _result):
            # counted outside the step's span with the unwrapped
            # enumerator, so cores.lambda_cores.* see only library calls
            state, lam = args[0], args[1]
            t0 = now()
            ground = sum(1 for x in state.omega if x != lam)
            self.extra["construct.subsets_seen"] += comb(ground, state.params.k - 1)
            self.extra["construct.cores_passed"] += sum(
                1 for _ in lam_cores(state.core_query(), lam))
            self.excluded_s += now() - t0

        self.patch(construct, "pick_extension_vector",
                   self.span("construct.step", construct.pick_extension_vector,
                             after=after_step))
        self.patch(construct, "construct",
                   self.span("construct.construct", construct.construct))

        for name in ("check_locality", "check_structure_theorem"):
            self.patch(verify, name, self.span(f"verify.{name}", getattr(verify, name)))

        def after_certify(_args, result):
            self.extra["verify.certify_optimal.subsets_worst"] += result[1].subsets_total

        self.patch(verify, "certify_optimal",
                   self.span("verify.certify_optimal", verify.certify_optimal,
                             after=after_certify))

        def after_distance(_args, report):
            key = "weight_calls" if report.method == verify.WEIGHT_METHOD else "rank_calls"
            self.extra[f"verify.min_distance.{key}"] += 1

        self.patch(verify, "min_distance",
                   self.span("verify.min_distance", verify.min_distance,
                             after=after_distance))
        for name in ("load_code", "save_code"):
            self.patch(codefile, name, self.span(f"codefile.{name}", getattr(codefile, name)))

    # -- output ----------------------------------------------------------

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(meta)
        doc["span_fields"] = ["id", "name", "start_s", "end_s", "parent_id"]
        doc["spans"] = [list(s) for s in self.spans]
        doc["calls"] = dict(self.calls)
        doc["busy_s"] = dict(self.busy)
        doc["extra"] = dict(self.extra)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
