"""The traced run's exact counts repeat across two runs with the same seed.

Run from the repository root (takes a few minutes):

    python3 -m pytest perfbench/tests -q
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
LEDGER = (
    "tensor.tape_nodes",
    "tensor.conv2d.calls",
    "tensor.conv2d.flop",
    "tensor.matmul.calls",
    "tensor.matmul.flop",
    "pipeline.read_ppm_bytes",
    "pipeline.write_ppm_bytes",
    "checkpoint.bytes",
)
WORKLOADS = ("train-ihvit", "eval-ihvit", "prep-mixedres")


@functools.cache
def traced(workload: str, run: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def counts(result: dict) -> dict:
    return {k: result["metrics"][k]["value"] for k in LEDGER}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = traced(workload, 0), traced(workload, 1)
    assert first["correct"] and second["correct"]
    assert counts(first) == counts(second)


def test_counts_match_the_model():
    train = counts(traced("train-ihvit", 0))
    assert train["tensor.tape_nodes"] == 490  # one fused ih-vit step at B=8
    assert train["tensor.conv2d.calls"] == 19  # ResNet stem + 16 block convs, two ViT embeds
    eval_ = counts(traced("eval-ihvit", 0))
    assert eval_["tensor.tape_nodes"] == 0
    assert eval_["tensor.conv2d.flop"] == 2 * train["tensor.conv2d.flop"]  # batch 16 vs 8
    assert eval_["checkpoint.bytes"] > 0
    prep = counts(traced("prep-mixedres", 0))
    assert prep["tensor.conv2d.calls"] == 0
    assert prep["pipeline.write_ppm_bytes"] > 0 and prep["pipeline.read_ppm_bytes"] > 0
