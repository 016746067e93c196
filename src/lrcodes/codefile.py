"""JSON persistence for constructed codes.

One top-level object per file, UTF-8, integers in decimal. Everything
round-trips exactly except the timestamp, which records write time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Union

from .construct import LrcCode
from .errors import CodeFileError, LrcError

__all__ = ["CodeFile", "FORMAT_TAG", "save_code", "load_code"]

FORMAT_TAG = "lrc-code-v1"


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
            "code": self.code.to_json(),
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
            code = LrcCode.from_json(data["code"])
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
