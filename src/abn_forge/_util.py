"""Small shared helpers."""

from __future__ import annotations

import csv
import io
import numbers
import os
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence


def as_int(value, name: str) -> int:
    """``value`` as an int; a float such as JSON's 1.0 or 1.9, a bool or a string raises ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_float(value, name: str) -> float:
    """``value`` as a float; a bool such as JSON's true, a string such as "5" or another non-number raises ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file and rename, never leaving partial files.

    The file gets the mode a plain ``open`` gives a new file: ``0o666`` less the umask.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f"{target.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def csv_text(
    header: Sequence[str], rows: Iterable[Sequence], comments: Iterable[tuple[str, object]] = ()
) -> str:
    """A CSV table as text: a ``# key: value`` line per comment, the header, then ``rows``.

    Every table the package writes comes from here: comma-separated fields,
    ``\\n`` line ends, floats by ``repr`` (so ``-inf`` and ``nan`` are spelled
    out and every value reads back exactly), anything else by ``str``.
    """
    buf = io.StringIO()
    for key, value in comments:
        buf.write(f"# {key}: {value}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


def csv_records(text: str, header: Sequence[str], types: Mapping[str, Callable[[str], object]]) -> tuple[list, list]:
    """The comments and the rows under ``header`` of a table :func:`csv_text` wrote.

    The comments are the ``# key: value`` lines above the header, as ``(line number, key, value)``
    with the value stripped; the rows are ``(line number, record)`` pairs.  A record lists the
    fields in header order, each converted by its column's callable in ``types`` or left a
    string.  Blank lines are skipped.  Another header, a row of another width or a field that
    does not convert raises ``ValueError`` naming the line.
    """
    lines = io.StringIO(text)
    comments, header_line = [], 0
    for header_line, line in enumerate(lines, start=1):
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(":")
            comments.append((header_line, key, value.strip()))
        elif line.strip():
            break  # the first line neither blank nor a comment
    else:  # no header: the error names the line after the last one read
        header_line, line = header_line + 1, ""
    first = next(csv.reader([line]))
    if first != list(header):
        got = ",".join(first) if first else "none"
        raise ValueError(f"line {header_line}: expected header {','.join(header)}, got {got}")
    converters = [types.get(name, str) for name in header]
    reader = csv.reader(lines)  # the lines below the header
    records = []
    for raw in reader:
        if not raw:
            continue
        number = header_line + reader.line_num
        try:
            if len(raw) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(raw)}")
            records.append((number, [convert(v) for convert, v in zip(converters, raw)]))
        except (ValueError, OverflowError) as exc:  # OverflowError: a number too large for its column
            raise ValueError(f"line {number}: {exc}") from exc
    return comments, records
