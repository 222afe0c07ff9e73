"""The one JSON decoder behind every file, log and frame the package reads.

``json.loads`` raises ``RecursionError`` on input nested deeper than the
interpreter's recursion limit (``"[" * 200_000``), which no reader's
``except ValueError`` catches.  :func:`loads` makes that a
``ValueError`` too, so each reader's named outcome for malformed JSON
also covers too-deep JSON.
"""

from __future__ import annotations

import json

__all__ = ["loads"]


def loads(text):
    """``json.loads(text)``; too-deep nesting raises ``ValueError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nests too deeply to decode") from None
