"""CSV output helpers: round-trip-exact floats and a provenance comment."""

from __future__ import annotations

import csv
import subprocess
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__version__ = "0.1.0"

__all__ = ["fmt_value", "write_csv", "version_string", "__version__"]


def fmt_value(x) -> str:
    """Format one cell: integers verbatim, floats with 17 significant digits
    (enough to round-trip a double exactly)."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
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


def write_csv(
    path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    comment: str | None = None,
) -> None:
    """Write rows to `path` with a header line and an optional leading
    ``#`` comment (used to record the generating spec and version)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        if comment is not None:
            f.write(f"# {comment}\n")
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([fmt_value(x) for x in row] for row in rows)
