"""Entry point of the ``aukit`` program: picks BLAS threads before numpy loads.

Every subcommand runs with one BLAS thread unless the user set one.  The
bytes of a large GEMM depend on how many threads BLAS splits it over: at
160 px, stage-1 outputs and gradients differed between one and two
OpenBLAS threads, so a checkpoint would depend on the machine.  aukit runs
its own two threads instead (the caller and ``tensor._POOL``'s worker:
split convolutions, serving passes), whose bytes do not depend on the
threads, and BLAS threads on top of them only compete for the same cores.

OpenBLAS, OpenMP and MKL read their variables once, when numpy loads, so
the default is set here, ahead of any numpy import, and only for the
program: importing ``aukit.cli`` as a library changes no variable.
"""

from __future__ import annotations

import os
import sys
from typing import Optional, Sequence

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def default_blas_threads() -> None:
    """One BLAS thread for the program, in every variable the user left unset."""
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")


def main(argv: Optional[Sequence[str]] = None) -> int:
    default_blas_threads()
    from .cli import main as cli_main

    return cli_main(sys.argv[1:] if argv is None else list(argv))
