"""End-to-end benchmark of the DLS-BL-NCP reproduction, split by layer.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from outside the program, through ``repro.api.execute``
and ``FleetDispatcher.submit`` only, checks every answer, and prints the
metrics named in ``BENCHMARK.json`` as the last line of its output.
``perfbench/design.json`` records why each workload exists and which layers
it loads.
"""
