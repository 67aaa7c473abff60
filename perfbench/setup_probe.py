"""Time one benchmark set-up in a fresh process and print the seconds.

Set-up is: import qnewton, build the workload's specs and objectives
(including ``build_spec``'s probe objective), and run one warm-up
operation.  Usage: setup_probe.py WORKLOAD SEED OUT_DIR
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports qnewton and numpy: timed)

name, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
workload = workloads.build(name, seed, out_dir)
workloads.execute(workload.ops[0])
print(time.perf_counter() - t0)
