"""The repository benchmark: end-to-end and per-layer numbers for the codec.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``
for the workloads, the metrics and what each layer metric predicts.
"""
