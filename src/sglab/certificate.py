"""Machine-readable result certificates.

A certificate bundles the verdicts (each an ``SgcVerdict``), reports
and payloads of one command run.  Serialization is canonical (sorted
keys, 2-space indent, ASCII escapes, shortest round-trip float repr, NaN
as ``null``), so re-running with the same input digest and seed
reproduces the bytes except for the ``timing`` block.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

__all__ = ["Certificate", "TOOL_VERSION"]

TOOL_VERSION = "0.1.0"

_SPECIAL_FLOATS = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _dump(obj, pad: str, out: list[str]) -> None:
    """Append the canonical JSON text of ``obj`` to ``out``.

    The text is that of ``json.dumps(obj, sort_keys=True, indent=2)`` with
    ``pad`` as the indentation of the line ``obj`` starts on, dict keys
    through ``str``, tuples as lists, numpy scalars and arrays as their
    Python values and every NaN as ``null``.  Other types raise
    ``TypeError``, as in ``json``.
    """
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        text = float.__repr__(obj)
        out.append(_SPECIAL_FLOATS.get(text, text))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        items = {str(k): v for k, v in obj.items()}
        sep = "{\n" + inner
        for key in sorted(items):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _dump(items[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        if set(map(type, obj)) == {float}:
            text = (",\n" + inner).join(map(float.__repr__, obj))
            if "n" not in text:  # no nan or inf among the items
                out.append("[\n" + inner + text + "\n" + pad + "]")
                return
        sep = "[\n" + inner
        for item in obj:
            out.append(sep)
            _dump(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    elif isinstance(obj, np.ndarray):
        _dump(obj.tolist(), pad, out)
    elif isinstance(obj, (np.floating, np.integer, np.bool_)):
        _dump(obj.item(), pad, out)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@dataclass
class Certificate:
    command: str
    input_digest: str
    seed: int
    verdicts: list = field(default_factory=list)
    stability: dict | None = None
    paths: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    started: float = field(default_factory=time.time)

    @property
    def has_fail(self) -> bool:
        return any(v.failed for v in self.verdicts)

    def to_json(self, with_timing: bool = True) -> str:
        body = {
            "tool_version": TOOL_VERSION,
            "schema_version": 1,
            "command": self.command,
            "input_digest": self.input_digest,
            "seed": self.seed,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "stability": self.stability,
            "paths": self.paths,
            "notes": self.notes,
            "extras": self.extras,
        }
        if with_timing:
            body["timing"] = {"wall_seconds": time.time() - self.started}
        out: list[str] = []
        _dump(body, "", out)
        return "".join(out)
