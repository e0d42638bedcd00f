"""The run record: what ran, where, and how loaded the box was."""

from __future__ import annotations

import os
import platform
import subprocess
import sys

import numpy as np

THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def load_average() -> float:
    """The 1-minute load average (0.0 where the platform has none)."""
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0


def _git_rev(root: str) -> str:
    # a checkout that is not a repository must not pick up one above it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def filesystem(path: str) -> str:
    """Type of the filesystem holding *path* (``unknown`` off Linux)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                _, mount, fstype = line.split()[:3]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def run_record(root: str, workdir: str, args) -> dict:
    """Everything needed to judge whether two runs are comparable."""
    return {
        "git_rev": _git_rev(root),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "load_1m_start": load_average(),
        "workdir": workdir,
        "workdir_filesystem": filesystem(workdir),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        # recorded, never set: the benchmark measures the program as shipped
        "thread_variables": {k: os.environ.get(k) for k in THREAD_VARIABLES},
    }
