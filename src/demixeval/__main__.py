"""Process entry point of `python -m demixeval` and the `demixeval` script."""

import os
import sys


def main() -> None:
    # Before numpy loads: its OpenBLAS would otherwise start a spinning worker
    # per extra core. The CLI makes no BLAS call, so one thread costs nothing,
    # and an inherited value could only add start-up time.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import run

    # a process runs one command, so it loads only that command's layers
    sys.exit(run(sys.argv[1:], all_commands=False))


if __name__ == "__main__":
    main()
