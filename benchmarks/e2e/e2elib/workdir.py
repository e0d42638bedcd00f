"""A memory-backed work directory inside the checkout.

Every archive of a run is thousands of small files.  On this box's
virtio ext4 disk creating the 33k fragment files of one ``solo_local``
set-up took 6 to 17 s (about 2 s on tmpfs) and 80 timestep appends took
13.4 to 16.7 s in five consecutive runs (10.2 to 11.1 s on tmpfs): the
device, not the program, would be measured.  So the default work
directory gets a tmpfs mounted over it in a mount namespace private to
this process: the files stay under the checkout's path, no other
process sees the mount, and the kernel drops it when the process exits.
Where that is not permitted the plain directory is used, and the run
record shows which.
"""

from __future__ import annotations

import ctypes
import os
import sys

CLONE_NEWNS = 0x00020000
MS_REC = 0x4000
MS_PRIVATE = 0x40000


def mount_private_tmpfs(path: str) -> bool:
    """Mount a tmpfs on *path* for this process only; False if not allowed.

    Call before any thread that touches *path* exists: threads started
    afterwards inherit the namespace, threads already running do not.
    """
    if not sys.platform.startswith("linux"):
        return False
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        unshare, mount = libc.unshare, libc.mount
    except (OSError, AttributeError):
        return False
    unshare.argtypes, unshare.restype = [ctypes.c_int], ctypes.c_int
    mount.argtypes = [ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p,
                      ctypes.c_ulong, ctypes.c_char_p]
    mount.restype = ctypes.c_int
    if unshare(CLONE_NEWNS) != 0:
        return False
    # keep the new mount from propagating back to the parent namespace
    if mount(b"none", b"/", None, MS_REC | MS_PRIVATE, None) != 0:
        return False
    return mount(b"tmpfs", os.fsencode(path), b"tmpfs", 0, None) == 0
