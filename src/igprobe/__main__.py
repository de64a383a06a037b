"""``python -m igprobe`` and the installed ``igprobe`` command.

OpenBLAS sizes its thread pool once, when numpy loads it.  A recipe's
products are too small to split (a 3072-wide row at a time) and its
workers already take every core, so ``main`` loads numpy with one BLAS
thread unless the caller chose a count.  ``import igprobe`` loads no
numpy, so this runs first.
"""

import os
import sys

# The variables by which a caller sets OpenBLAS's thread count.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def main(argv=None) -> int:
    default = not any(name in os.environ for name in BLAS_THREAD_VARIABLES)
    if default:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        from . import cli  # imports numpy, which reads the variable now and only now
    finally:
        if default:  # so a --provider child gets the caller's environment
            del os.environ["OPENBLAS_NUM_THREADS"]
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
