"""Host fingerprint: what a measurement was taken on, and of which code.

Two runs are comparable only when their :data:`COMPARABLE_KEYS` match:
the same CPU count and model, Python, NumPy and platform.  The commit
and source digest say which code was measured; they differ between the
two sides of every comparison and are not part of the key.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

COMPARABLE_KEYS = ("nproc", "cpu_model", "python", "numpy", "platform")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def commit(root: Path) -> str:
    """HEAD's commit id when ``root`` is a git checkout, else ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        packed = (git / "packed-refs").read_text(encoding="utf-8")
        for line in packed.split("\n"):
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    """SHA-256 over the program's Python sources under ``src/``."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint(root: Path) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit(root),
        "source": source_digest(root),
    }


def comparable(a: dict, b: dict) -> bool:
    return all(a.get(k) == b.get(k) for k in COMPARABLE_KEYS)
