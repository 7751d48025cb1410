"""Entry point of the ``aukit`` program: picks BLAS threads before numpy loads.

The serving subcommands run two stage-1 passes at once
(``model.attention_predict``), and BLAS threads of their own on top make
them slower on two cores: a toy 32-frame video took 45 ms with OpenBLAS's
default threads against 31 ms with one, and 16 paper-size frames 3.6 s
against 2.4-2.8 s.  Training runs its stage-1 parts one at a time and is
faster with BLAS's default threads at paper size (an 8-frame attention part
at 176 px took 4.5 s against 5.3 s with one), so it keeps them.

OpenBLAS, OpenMP and MKL read their variables once, when numpy loads, so
the default is set here, ahead of any numpy import, and only for the
program: importing ``aukit.cli`` as a library changes no variable.
"""

from __future__ import annotations

import os
import sys
from typing import Optional, Sequence

#: Subcommands whose stage-1 passes run on two threads.
SERVING = frozenset({"eval", "infer", "export-attention"})

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def default_blas_threads(argv: Sequence[str]) -> None:
    """One BLAS thread for a serving subcommand, where the user set none."""
    if argv and argv[0] in SERVING:  # the parser takes no option before it
        for var in BLAS_VARS:
            os.environ.setdefault(var, "1")


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    default_blas_threads(argv)
    from .cli import main as cli_main

    return cli_main(argv)
