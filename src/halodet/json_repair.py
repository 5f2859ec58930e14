"""Lenient JSON reader for model output.

Model replies are supposed to be JSON but routinely arrive wrapped in
markdown fences, with trailing commas, single quotes, or the odd unquoted
string inside a flat list. :func:`loads_lenient` tries a strict parse first
and then applies repairs in a fixed order, reporting whether any repair was
needed so callers can flag the result.
"""

from __future__ import annotations

import ast
import json
import re
from typing import Any

_FENCE_RE = re.compile(r"^```[a-zA-Z0-9_-]*\s*\n(.*?)\n?\s*```\s*$", re.DOTALL)
_TRAILING_COMMA_RE = re.compile(r",\s*([}\]])")
# A [...] body with no quotes, commas, or nesting: treat as one bare string.
_BARE_ARRAY_ITEM_RE = re.compile(r"\[\s*([^\[\]{}\"',]+?)\s*\]")
_JSON_LITERALS = {"true", "false", "null"}


def _strip_fences(text: str) -> str:
    match = _FENCE_RE.match(text.strip())
    if match:
        return match.group(1).strip()
    return text.strip()


def _quote_bare_array_items(text: str) -> str:
    def replace(match: re.Match[str]) -> str:
        body = match.group(1).strip()
        if not body or body in _JSON_LITERALS:
            return match.group(0)
        try:
            float(body)
            return match.group(0)
        except ValueError:
            pass
        return "[" + json.dumps(body, ensure_ascii=False) + "]"

    return _BARE_ARRAY_ITEM_RE.sub(replace, text)


def _extract_block(text: str) -> str | None:
    """First balanced {...} or [...] span, whichever starts earlier."""
    starts = [i for i in (text.find("{"), text.find("[")) if i != -1]
    if not starts:
        return None
    start = min(starts)
    opener = text[start]
    closer = "}" if opener == "{" else "]"
    depth = 0
    in_string = False
    escaped = False
    for pos in range(start, len(text)):
        char = text[pos]
        if in_string:
            if escaped:
                escaped = False
            elif char == "\\":
                escaped = True
            elif char == '"':
                in_string = False
            continue
        if char == '"':
            in_string = True
        elif char in "{[":
            depth += 1
        elif char in "}]":
            depth -= 1
            if depth == 0 and char == closer:
                return text[start:pos + 1]
    return None


def _try_parse(text: str) -> Any:
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError):  # RecursionError: nested too deeply
        pass
    try:
        # Tolerates single quotes and Python-style literals; safe for
        # literals only.
        return ast.literal_eval(text)
    except (ValueError, SyntaxError, MemoryError, RecursionError):
        return _UNPARSED


_UNPARSED = object()


def loads_lenient(text: str) -> tuple[Any, bool]:
    """Parse model output as JSON, repairing common damage.

    Returns ``(value, repaired)`` where ``repaired`` is True iff anything
    beyond a strict ``json.loads`` was needed. Raises ValueError when no
    repair stage yields a parse.
    """
    try:
        return json.loads(text), False
    except (json.JSONDecodeError, RecursionError):
        pass

    candidates = []
    stripped = _strip_fences(text)
    candidates.append(stripped)
    without_commas = _TRAILING_COMMA_RE.sub(r"\1", stripped)
    candidates.append(without_commas)
    candidates.append(_quote_bare_array_items(without_commas))
    block = _extract_block(stripped)
    if block is not None:
        block = _TRAILING_COMMA_RE.sub(r"\1", block)
        candidates.append(block)
        candidates.append(_quote_bare_array_items(block))

    for candidate in candidates:
        value = _try_parse(candidate)
        if value is not _UNPARSED:
            return value, True

    raise ValueError("model output is not JSON, even after repair")
