"""Statistics, self-time arithmetic, process accounting and the machine
fingerprint.  Nothing here imports the program under test."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
from pathlib import Path

#: The tail metric keeps this many samples beyond it.
TAIL_BEYOND = 10


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, n)`` at the highest percentile with at least
    :data:`TAIL_BEYOND` samples beyond it: by nearest rank, the
    ``TAIL_BEYOND + 1``-th largest sample.  With no more samples than
    that, the maximum, as percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("tail() needs at least one sample")
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, n


#: Ops per tail window, so each window's tail sits near p91.
TAIL_WINDOW = 110


def windowed_tail(values) -> tuple[float, float, int, int]:
    """``(value, percentile, window, windows)``: :func:`tail` of each run
    of consecutive ops split into windows of at least :data:`TAIL_WINDOW`,
    median over the windows.  A steal or GC burst on this shared machine
    moves one window, not the run's figure.  With fewer ops than two
    windows, the whole run is one window."""
    values = list(values)
    windows = max(1, len(values) // TAIL_WINDOW)
    size = len(values) / windows
    tails = [tail(values[round(i * size):round((i + 1) * size)])
             for i in range(windows)]
    return (statistics.median(t[0] for t in tails),
            statistics.median(t[1] for t in tails),
            min(t[2] for t in tails), windows)


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def covered(interval, children) -> float:
    """Length of the part of *interval* that the *children* intervals cover
    (overlaps counted once, parts outside *interval* ignored)."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """Self time of every span: its duration minus the part of it its
    child spans cover, minus ``agg`` (time of unstored child frames).

    *spans* maps span id to a dict with ``parent``, ``start``, ``end``
    and ``agg``; a parent id that is not in *spans* makes a root.
    """
    children: dict = {}
    for sid, span in spans.items():
        children.setdefault(span["parent"], []).append(
            (span["start"], span["end"]))
    return {
        sid: (span["end"] - span["start"]
              - covered((span["start"], span["end"]),
                        children.get(sid, ()))
              - span["agg"])
        for sid, span in spans.items()}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def descendants(pid: int) -> list[int]:
    """Live descendant pids of *pid* (children first)."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        parents.setdefault(ppid, []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        kids = parents.get(frontier.pop(0), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def own_cpu_s() -> float:
    t = os.times()
    return t.user + t.system


def own_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# fingerprint
# ---------------------------------------------------------------------------

def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest(src: Path) -> str:
    """SHA-256 over every ``.py`` file under *src* (path and content), so a
    checkout without git history still names the code it measured."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(root: Path, seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(root / "src"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
