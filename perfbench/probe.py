"""Set-up probe: bring the c engine to ready in a fresh process, then exit.

``run.py`` times this whole process to get ``setup_s``: interpreter
start, imports, loading the cffi extension from the build cache, the
first cache-walk kernel install, and the first filter batch install.
The first probe of a checkout also compiles the extension; ``run.py``
runs that one untimed.  Prints the effective engine.
"""

from repro.cpu.system import build_system
from repro.engine import effective_engine
from repro.experiments.common import scaled_mix_workloads, scaled_system_config
from repro.filters.auto_cuckoo import AutoCuckooFilter

if __name__ == "__main__":
    engine = effective_engine()
    build_system(scaled_system_config(False), scaled_mix_workloads("mix1", False))
    AutoCuckooFilter.from_fpp(1024, 1e-3).engine_batch()
    print(engine)
