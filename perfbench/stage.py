"""Run one schedkit CLI stage as ``python -m schedkit.cli ARGS`` does, then
record the process's own peak RSS.

Usage (from the stage's working directory, with ``schedkit`` importable):

    python stage.py RSS_FILE -- ARGS...

``ru_maxrss`` from ``wait4`` cannot be used for this.  At exec, Linux folds
the spawning process's high-water RSS into the new process's figure, so a
benchmark process that has grown would hide a smaller stage.  ``VmHWM``
belongs to the address space the exec created, so it counts the stage only.
"""

import os
import runpy
import sys


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> None:
    rss_file, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: stage.py RSS_FILE -- CLI_ARGS...")
    sys.argv = ["schedkit.cli", *args]
    sys.path[0] = os.getcwd()  # as under -m
    try:
        runpy.run_module("schedkit.cli", run_name="__main__", alter_sys=True)
    finally:
        with open(rss_file, "w", encoding="ascii") as fh:
            fh.write(f"{peak_rss_kb()}\n")


if __name__ == "__main__":
    main()
