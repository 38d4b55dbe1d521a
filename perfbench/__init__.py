"""Repository benchmark: three workloads timed from outside the program.

Run every workload with ``python3 perfbench/run.py --workload all``; see
``perfbench/run.py`` for the command line and ``perfbench/notes.json``
for the environment, seed policy and loop type the numbers assume.
"""
