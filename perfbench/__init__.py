"""Seeded end-to-end benchmark of the TopL-ICDE / DTopL-ICDE service.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  See ``run.py``.
"""
