"""The repository's benchmark: workloads, layer tracing and the runner
(``python3 perfbench/run.py --help``)."""
