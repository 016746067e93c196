"""JSON persistence for constructed codes: the one reader and writer of
the `lrc-code-v1` format.

One top-level object per file, UTF-8, integers in decimal. Everything
round-trips exactly except the timestamp, which records write time.
The reader refuses a file whose parts disagree: its field must be one
`field_make` accepts, its generator the shape it declares, the whole a
valid `LrcCode`, its trace the generator's columns, and a frame valid.
It refuses stored integers that are not canonical too, a modulus for a
prime field or a generator entry outside [0, q), as saving the loaded
code would rewrite them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from operator import index
from pathlib import Path
from typing import Optional, Union

from .construct import LrcCode
from .covers import CoverSet, Frame
from .covers import validate as validate_structure
from .errors import CodeFileError, DimensionMismatch, LrcError, StructureMismatch
from .gf import FieldSpec, field_make
from .linalg import Matrix
from .params import CodeParams

__all__ = ["CodeFile", "FORMAT_TAG", "save_code", "load_code"]

FORMAT_TAG = "lrc-code-v1"


def _field_json(f: FieldSpec) -> dict:
    return {"p": f.p, "e": f.e, "poly": f.poly}


def _encode(code: LrcCode) -> dict:
    """The stored `code` object. A CoverSet writes empty hub lists."""
    p, m, s = code.params, code.generator, code.structure
    return {
        "field": _field_json(code.field),
        "params": {"n": p.n, "k": p.k, "r": p.r, "delta": p.delta},
        "claimed_d": code.claimed_d,
        "generator": {"field": _field_json(m.field), "rows": m.rows,
                      "cols": m.cols, "data": [list(r) for r in m.row_data()]},
        "structure": {"n": s.n, "groups": [list(g) for g in s.groups],
                      "hub_blocks": [list(b) for b in getattr(s, "hub_blocks", ())],
                      "tail_block": list(getattr(s, "tail_block", ())),
                      "hubs": list(getattr(s, "hubs", ()))},
        "trace": [[lam, list(col)] for lam, col in code.trace],
    }


def _decode_field(data: dict) -> FieldSpec:
    return field_make(index(data["p"]), index(data["e"]), index(data["poly"]) or None)


def _decode(data: dict) -> LrcCode:
    """Rebuild a stored `code` object, checking its parts agree."""
    pp = data["params"]
    field = _decode_field(data["field"])
    gen = data["generator"]
    generator = Matrix(_decode_field(gen["field"]), gen["data"])
    if generator.rows != gen["rows"] or generator.cols != gen["cols"]:
        raise DimensionMismatch("declared shape does not match data")
    if [list(row) for row in generator.row_data()] != gen["data"]:
        raise CodeFileError(
            f"generator entries must be integers in [0, {generator.field.q})")
    st = data["structure"]
    # a frame with no hub blocks still has its tail block
    if st.get("hub_blocks") or st.get("hubs") or st.get("tail_block"):
        structure = Frame(st["n"], st["groups"], st["hub_blocks"],
                          st["tail_block"], st["hubs"])
    else:
        structure = CoverSet(st["n"], st["groups"])
    code = LrcCode(
        field=field, generator=generator, structure=structure,
        params=CodeParams(*(pp[key] for key in ("n", "k", "r", "delta"))),
        claimed_d=index(data["claimed_d"]),
        trace=tuple((index(lam), tuple(map(index, col)))
                    for lam, col in data["trace"]),
    )
    code.validate()
    lams = [lam for lam, _ in code.trace]
    if len(set(lams)) < len(lams):
        raise CodeFileError(f"trace assigns a coordinate twice: {lams}")
    for lam, col in code.trace:  # column() rejects lam outside [1, n]
        if col != generator.column(lam):
            raise CodeFileError(f"trace column {lam} is not the generator's")
    if isinstance(structure, Frame):
        # cores read a frame's hub layout; a CoverSet may overlap (the
        # windows of an r = k code), so it keeps the range checks only
        ok, bad = validate_structure(structure, code.params.r, code.params.delta)
        if not ok:
            raise StructureMismatch("invalid frame: " + "; ".join(bad))
    return code


@dataclass
class CodeFile:
    """A stored code plus provenance metadata."""

    code: LrcCode
    seed: Optional[int]
    tool_version: str
    created_at: str

    def to_json(self) -> dict:
        return {
            "format": FORMAT_TAG,
            "tool_version": self.tool_version,
            "seed": self.seed,
            "created_at": self.created_at,
            "code": _encode(self.code),
        }

    @classmethod
    def from_json(cls, data: dict) -> "CodeFile":
        """Parse a stored object; any defect raises CodeFileError."""
        if not isinstance(data, dict):
            raise CodeFileError(f"expected a JSON object, got {type(data).__name__}")
        if data.get("format") != FORMAT_TAG:
            raise CodeFileError(
                f"unsupported file format {data.get('format')!r}, "
                f"expected {FORMAT_TAG!r}")
        try:
            code = _decode(data["code"])
        except KeyError as exc:
            raise CodeFileError(f"malformed code file: missing key {exc}") from exc
        except (LrcError, ArithmeticError, AttributeError, IndexError, TypeError,
                ValueError) as exc:
            raise CodeFileError(f"malformed code file: {exc}") from exc
        seed = data.get("seed")
        if seed is not None and type(seed) is not int:
            raise CodeFileError(f"seed must be an integer or null, got {seed!r}")
        strings = {key: data.get(key, "") for key in ("tool_version", "created_at")}
        for key, value in strings.items():
            if not isinstance(value, str):
                raise CodeFileError(f"{key} must be a string, got {value!r}")
        return cls(code=code, seed=seed, **strings)


def save_code(code: LrcCode, path: Union[str, Path],
              seed: Optional[int] = None) -> CodeFile:
    from . import __version__

    cf = CodeFile(code=code, seed=seed, tool_version=__version__,
                  created_at=datetime.now(timezone.utc).isoformat())
    Path(path).write_text(json.dumps(cf.to_json(), indent=2) + "\n",
                          encoding="utf-8")
    return cf


def load_code(path: Union[str, Path]) -> CodeFile:
    """Read a stored code; CodeFileError if the file is not a valid one."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise CodeFileError(f"{path}: not valid JSON ({exc})") from exc
    return CodeFile.from_json(data)
