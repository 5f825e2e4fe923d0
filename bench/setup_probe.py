"""Set-up cost of a workload, measured in a fresh process.

Usage: python3 bench/setup_probe.py SRC_DIR CONFIG...

Imports ``cannings.cli``, then loads every config and builds its model
parameters and jump sampler through the public API.  Prints the elapsed
seconds, measured from before the import.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import cannings.cli  # noqa: F401  (the import is what is timed)
    from cannings.config import Config
    from cannings.limit_sde import jump_sampler

    for path in sys.argv[2:]:
        cfg = Config.from_file(path)
        if cfg.kind == "discrete":
            cfg.discrete_params()
        else:
            jump_sampler(cfg.limit_params())
    print(repr(time.perf_counter() - t0))
