"""Result sinks: JSONL and CSV writers.

Both sinks are context managers with a uniform ``write(result)`` method.
The JSONL sink emits one canonical (sorted-key, compact) JSON object per
line — deliberately deterministic, so a fully-cached rerun of the same
job matrix produces a byte-identical file.
"""

from __future__ import annotations

import csv
from typing import Optional

from .jobs import JobResult


class JsonlSink:
    """One canonical JSON object per line."""

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path, "w")
        self.count = 0

    def write(self, result: JobResult) -> None:
        self._handle.write(result.to_json() + "\n")
        self.count += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CsvSink:
    """Flat rows via the stdlib ``csv`` module (proper quoting/escaping).

    Columns come from the first written result; later rows with missing
    columns get empty cells and unexpected extras are ignored.  With
    ``include_profile=True`` every row carries the per-pass profile
    columns (empty for results without a profile), so the header is
    stable regardless of which row arrives first.
    """

    def __init__(self, path: str, include_profile: bool = False):
        self.path = path
        self.include_profile = include_profile
        self._handle = open(path, "w", newline="")
        self._writer: Optional[csv.DictWriter] = None
        self.count = 0

    def write(self, result: JobResult) -> None:
        row = result.row(include_profile=self.include_profile)
        if self._writer is None:
            self._writer = csv.DictWriter(
                self._handle,
                fieldnames=list(row.keys()),
                restval="",
                extrasaction="ignore",
            )
            self._writer.writeheader()
        self._writer.writerow(row)
        self.count += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "CsvSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
