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


def csv_records(text: str, header: Sequence[str], types: Mapping[str, Callable[[str], object]]) -> list[dict]:
    """The rows under ``header`` of a table :func:`csv_text` wrote, one dict per row.

    A field named in ``types`` is converted by its callable; the others stay
    strings.  Blank lines are skipped.  Another header, a row of another width
    or a field that does not convert raises ``ValueError`` naming the line.
    """
    reader = csv.reader(io.StringIO(text))
    first = next(reader, None)
    if first != list(header):
        got = ",".join(first) if first else "none"
        raise ValueError(f"line 1: expected header {','.join(header)}, got {got}")
    rows = []
    for raw in reader:
        if not raw:
            continue
        try:
            if len(raw) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(raw)}")
            rows.append({name: types.get(name, str)(value) for name, value in zip(header, raw)})
        except ValueError as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from exc
    return rows
