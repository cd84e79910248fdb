"""holoflow: numerics for semigroups of holomorphic self-maps of the disc."""

import os

# OpenBLAS's own threads spin between calls on the cores that holoflow's
# thread pool (expr._POOL) needs, and buy little here: one thread unless the
# user set a count.  Without effect if numpy is already imported; holoflow
# makes no BLAS call itself, and scipy's in the RK45 flows gave the same
# report bytes at 1 and 2 threads on a 2-core AVX-512 Xeon.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
