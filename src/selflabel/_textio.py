"""The one reader of the package's line-oriented text files, and the one
formatter of its JSON files."""

from __future__ import annotations

import json
from typing import Iterator

from .errors import DataError


def read_rows(path, what: str, types: tuple, sep: str | None = None) -> Iterator[list]:
    """Yield the fields of each nonblank line of ``path``, one line at a time.

    A line is split on ``sep`` (whitespace when None) into one nonempty
    field per entry of ``types``, and each field is converted by its type
    (``str`` fields pass through). A file that cannot be read or decoded,
    another field count, an empty field or a field its type rejects with
    ValueError raises DataError naming ``what``.
    """
    width = len(types)
    convert = [(i, t) for i, t in enumerate(types) if t is not str]
    try:
        with open(path) as fh:
            for line in fh:
                line = line.rstrip("\n")
                if not line:
                    continue
                row = line.split(sep)
                try:
                    if len(row) != width or "" in row:
                        raise ValueError(f"{len(row)} fields, or an empty one")
                    for i, t in convert:
                        row[i] = t(row[i])
                except ValueError:
                    raise DataError(f"malformed {what} row in {path}: {line!r}") from None
                yield row
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc


def json_text(data: dict) -> str:
    """``data`` as indented JSON with sorted keys and a final newline; NaN
    or an infinity raises ValueError, as JSON has neither."""
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"
