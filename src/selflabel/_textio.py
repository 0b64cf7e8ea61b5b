"""The package's file formats at the byte level. Every file it writes
passes through :func:`write_file`. Line files are UTF-8, read and written
in blocks of rows. EMB1 embeddings and ENC1 checkpoints share one binary
container (a 4-byte magic, u32-LE header fields, a float32-LE payload whose
length the header gives); each format defines only its header fields."""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError

_BLOCK_BYTES = 1 << 16  # text read at a time, in whole lines
_BLOCK_ROWS = 2048  # rows formatted at a time


def _columns(lines: list[str], types: tuple, sep: str | None) -> list[list] | None:
    """The columns of ``lines``; None when a line is blank or not one row."""
    text = "".join(lines)
    if "\0" in text:
        return None
    if text and text[-1] != "\n":
        text += "\n"
    # a "\0" field closes each line, so the fields fall len(types) + 1 to a
    # line, in step, only if every line holds one row
    width, gap = len(types) + 1, sep or " "
    fields = text.replace("\n", f"{gap}\0{gap}")[:-1].split(sep)
    if ((sep is not None and "" in fields) or len(fields) != width * len(lines)
            or fields[width - 1::width] != ["\0"] * len(lines)):
        return None
    try:
        return [fields[i::width] if kind is str else list(map(kind, fields[i::width]))
                for i, kind in enumerate(types)]
    except ValueError:
        return None


def read_blocks(path, what: str, types: tuple, sep: str | None = None) -> Iterator[list[list]]:
    """Yield the rows of ``path``, about 64 KiB of whole lines at a time, as
    one list per entry of ``types``. Blank lines are skipped; every other
    line splits on ``sep`` (whitespace when None) into one nonempty field per
    type, which converts it (``str`` passes it through). An unreadable file,
    or a line with another field count, an empty field, a NUL or a field its
    type rejects with ValueError, is a DataError naming ``what``; a block is
    walked line by line only to name its first bad line."""
    try:
        with open(path, encoding="utf-8") as fh:
            while lines := fh.readlines(_BLOCK_BYTES):
                block = _columns(lines, types, sep)
                if block is None:  # blank lines fail too: drop them, then look again
                    lines = [line for line in lines if line != "\n"]
                    if not lines:
                        continue
                    block = _columns(lines, types, sep)
                if block is None:
                    bad = next(line for line in lines if _columns([line], types, sep) is None)
                    bad = bad.rstrip("\n")
                    raise DataError(f"malformed {what} row in {path}: {bad!r}")
                yield block
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc


def read_columns(path, what: str, types: tuple, sep: str | None = None) -> list[list]:
    """Every row of ``path`` as one list per entry of ``types``."""
    columns = [[] for _ in types]
    for block in read_blocks(path, what, types, sep):
        for column, part in zip(columns, block):
            column += part
    return columns


def make_dir(path) -> Path:
    """Make the directory ``path`` and its missing parents. A path that is a
    file, or lies under one, is a ConfigError naming it; any other failure
    stays an OSError."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"cannot make directory {path}: {exc.strerror}") from None
    return path


def write_file(path, blocks: Iterable[str | bytes]) -> None:
    """Write ``blocks``, text as UTF-8, to ``path``: the package's one file writer."""
    with open(path, "wb") as fh:
        for block in blocks:
            fh.write(block.encode() if isinstance(block, str) else block)


def write_rows(path, fmt: str, columns: Sequence[Sequence], header: str | None = None) -> None:
    """Write ``header`` (when given), then a line ``fmt % row`` per row of
    the equal-length ``columns``."""

    def blocks():
        if header is not None:
            yield header + "\n"
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            part = [column[start:start + _BLOCK_ROWS] for column in columns]
            flat = [None] * (len(columns) * len(part[0]))
            for i, column in enumerate(part):
                flat[i::len(columns)] = column
            yield (fmt + "\n") * len(part[0]) % tuple(flat)

    write_file(path, blocks())


def json_text(data: dict) -> str:
    """``data`` as indented JSON with sorted keys and a final newline; NaN
    or an infinity raises ValueError, as JSON has neither."""
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, data: dict) -> None:
    write_file(path, [json_text(data)])


def write_container(path, magic: bytes, header: Sequence[int], payload) -> None:
    data = np.ascontiguousarray(payload, dtype="<f4").tobytes()
    write_file(path, [magic, struct.pack(f"<{len(header)}I", *header), data])


def read_container(path, what: str, magic: bytes, fields: int, floats: Callable) -> tuple:
    """The header fields and the read-only float32 payload of a container
    whose payload holds ``floats(header)`` floats; an unreadable or
    malformed file is a DataError."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    start = 4 + 4 * fields
    if len(blob) < start or blob[:4] != magic:
        raise DataError(f"malformed header in {path}")
    header = struct.unpack(f"<{fields}I", blob[4:start])
    end = start + 4 * floats(header)
    if len(blob) != end:
        flaw = "truncated payload" if len(blob) < end else "trailing bytes after payload"
        raise DataError(f"{flaw} in {path}")
    return header, np.frombuffer(blob, dtype="<f4", offset=start)
