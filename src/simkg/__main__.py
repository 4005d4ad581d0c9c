"""The process entry: ``python -m simkg`` and the ``simkg`` console script."""

import gc
import sys

from .cli import main


def run() -> int:
    """Run one command as the whole process and return its exit code.

    Once the command is done, the heap is frozen.  The interpreter's
    finalization then skips its full collections over the modules and the
    objects the command leaves behind, which would free nothing that the
    exit does not free anyway; it still flushes the standard streams, runs
    atexit handlers and tears the modules down.  ``main`` itself never
    freezes, so an in-process caller's heap stays collectable.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
