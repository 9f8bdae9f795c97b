"""Set-up probe: imports paramarket, parses the configs and draws one pass.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <start>

``start`` is the monotonic clock reading the caller took just before it
started this process. Prints the set-up time rescaled to the reference host,
from the host speed this process samples while it sets up, and the wall time.
"""

import sys
import time

import hostspeed

with hostspeed.Sampler() as sampler:
    import workloads

    workloads.draw_pass(sys.argv[1], int(sys.argv[2]))
    ready = time.perf_counter()
start = float(sys.argv[3])
print(repr(sampler.rescaled(start, ready)), repr(ready - start))
