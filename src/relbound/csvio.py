"""The framing shared by every CSV input: header, blank lines, field counts."""

from __future__ import annotations

import csv
from typing import Iterator, Sequence

from .errors import ParseError


def csv_records(path: str, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """``(line number, fields)`` for each non-blank record of the CSV file at
    ``path``, whose first line must be ``header``. A wrong header or field
    count raises ``ParseError`` at ``path:line``; fields are not stripped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [h.strip() for h in first] != list(header):
            raise ParseError(f"{path}:1: expected header '{','.join(header)}'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            yield lineno, row
