#!/bin/sh
# Tier-1 tests, then the benchmark's self-test (every workload, a few
# ops, both modes).  Run from anywhere; exits non-zero if either fails.
cd "$(dirname "$0")/.." || exit 1
status=0
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m pytest -q --continue-on-collection-errors || status=1
python3 perfbench/run.py --self-test || status=1
exit $status
