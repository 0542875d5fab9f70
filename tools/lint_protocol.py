#!/usr/bin/env python3
"""Protocol-discipline lint — thin CLI shim over the static verifier.

Historically this file implemented its statement-shape rules itself.
They are now ported onto the CFG-based engine in
:mod:`repro.analysis.static` (see ``locks.py`` there), which runs them
*path-sensitively*: the ``try_acquire`` fast path, the ``locked``-flag
servers and intentional lock hand-offs (``acquire_page_write`` returning
the locked entry) are understood from control flow instead of needing
``# lint: keeps-lock`` annotations.  The rules, unchanged in intent:

1. ``_serve_inv``/``_serve_update``/``_serve_hint`` never acquire an
   entry lock (lock-free invalidation path);
2. an acquired entry lock is released on every path out of the function
   (was: "wrapped in try/finally");
3. no ``return`` inside the ``finally`` of an effect generator;
4. ``acquire_page_write`` sections release on every path;
5. a span opened in an effect generator is closed on every path.

The full verifier (wait-for deadlock-freedom, message exhaustiveness,
determinism lint) is ``python -m repro.analysis.static``; this shim
keeps the old entry point and output format for existing tooling.

Usage::

    python tools/lint_protocol.py [paths...]
    # default: src/repro/svm src/repro/net src/repro/machine src/repro/obs

Exit status 1 if any finding is reported.
"""

from __future__ import annotations

import sys
from pathlib import Path

try:
    from repro.analysis.static.engine import discipline_lint
    from repro.analysis.static.locks import (
        LOCK_FREE_SERVERS,
        SUPPRESS_COMMENT,
    )
except ImportError:  # direct execution without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.analysis.static.engine import discipline_lint
    from repro.analysis.static.locks import (
        LOCK_FREE_SERVERS,
        SUPPRESS_COMMENT,
    )

__all__ = [
    "DEFAULT_PATHS",
    "LOCK_FREE_SERVERS",
    "SUPPRESS_COMMENT",
    "lint_file",
    "lint_paths",
    "main",
]

DEFAULT_PATHS = [
    "src/repro/svm",
    "src/repro/net",
    "src/repro/machine",
    "src/repro/obs",
]


def lint_file(path: str | Path) -> list[str]:
    """Lint one file; returns ``path:line: message`` strings."""
    return discipline_lint([str(path)])


def lint_paths(paths: list[str]) -> list[str]:
    """Lint files and directories (directories recursively)."""
    return discipline_lint([str(p) for p in paths])


def main(argv: list[str] | None = None) -> int:
    paths = list(argv) if argv else DEFAULT_PATHS
    findings = lint_paths(paths)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} protocol-lint finding(s)")
        return 1
    print(f"protocol lint clean ({', '.join(paths)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
