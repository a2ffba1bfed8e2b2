"""CSV output helpers: round-trip-exact floats and a provenance comment."""

from __future__ import annotations

import csv
import io
import subprocess
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__version__ = "0.1.0"

__all__ = ["fmt_value", "write_csv", "write_float_groups", "version_string", "__version__"]

# Rows rendered by one ``%`` call in `write_float_groups`.  256 to 4096 rows
# format equally fast; 1024 keeps a block's floats and text near 100 kB
# (4096-row blocks raised the peak memory of a simulate+compare sweep by 3%).
_FLOAT_BLOCK = 1024


def fmt_value(x) -> str:
    """Format one cell: integers verbatim, floats with 17 significant digits
    (enough to round-trip a double exactly)."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


@lru_cache(maxsize=1)
def version_string() -> str:
    """Package version, extended git-describe style when run from a checkout
    (with a ``-dirty`` suffix when the checkout has uncommitted changes)."""
    base = f"tricklesim-{__version__}"
    try:
        out = subprocess.run(
            ["git", "-C", str(Path(__file__).resolve().parent),
             "describe", "--always", "--tags", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        desc = out.stdout.strip()
        if out.returncode == 0 and desc:
            return f"{base}+g{desc}"
    except (OSError, subprocess.SubprocessError):
        pass
    return base


@contextmanager
def _table(path, header: Sequence[str], comment: str):
    """`path` opened for writing, its ``#`` comment line (the generating
    spec and version) and header already written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        f.write(f"# {comment}\n")
        csv.writer(f).writerow(header)
        yield f


def write_csv(
    path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    comment: str,
) -> None:
    """Write rows, each cell formatted by `fmt_value`, under the comment and
    header lines."""
    with _table(path, header, comment) as f:
        csv.writer(f).writerows([fmt_value(x) for x in row] for row in rows)


def write_float_groups(
    path,
    header: Sequence[str],
    groups: Iterable[tuple[Sequence, np.ndarray]],
    comment: str,
) -> None:
    """Write one row per float in each (cells, values) group: the cells,
    then the float.  The bytes are those `write_csv` writes for the same
    rows, but each group's cells are formatted once and `_FLOAT_BLOCK` rows
    at a time are rendered by one ``%`` over a repeated row template
    (``%.17g`` is `fmt_value`'s conversion, ``\\r\\n`` csv's line end)."""
    with _table(path, header, comment) as f:
        for cells, values in groups:
            head = io.StringIO()  # the cells' csv text, up to a last "0\r\n"
            csv.writer(head).writerow([*map(fmt_value, cells), "0"])
            row = head.getvalue()[:-3].replace("%", "%%") + "%.17g\r\n"
            for start in range(0, len(values), _FLOAT_BLOCK):
                block = values[start:start + _FLOAT_BLOCK].tolist()
                f.write((row * len(block)) % tuple(block))
