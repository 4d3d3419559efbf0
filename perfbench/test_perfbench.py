"""The benchmark's own tests: metric catalog, BENCHMARK.json, smokes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench.catalog import END_TO_END, NAME_PATTERN, PER_LAYER
from perfbench.harness import block_tail, run, tail_percentile
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
UNIT_PATTERN = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
DETERMINISTIC_E2E = ("psnr_y_db", "rate_kbps", "positions_per_mb")
DETERMINISTIC_LAYER = (
    "me.estimate_calls_per_frame", "me.sad_evaluations_per_frame", "me.acbm_critical_frac",
    "me.acbm_fs_useful_frac", "engine.ref_plane_builds_per_frame", "encode.dct_calls_per_frame",
    "encode.bits.headers", "encode.bits.mode", "encode.bits.mv", "encode.bits.coefficients",
    "decode.ref_plane_builds_per_frame", "parallel.jobs",
)


def test_every_metric_has_a_valid_name_unit_and_direction():
    names = [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for metric in END_TO_END + PER_LAYER:
        assert NAME_PATTERN.fullmatch(metric.name), metric.name
        assert UNIT_PATTERN.fullmatch(metric.unit), metric.unit
        assert metric.better in ("higher", "lower")
    for metric in END_TO_END:
        assert 0 < metric.bound <= 0.25
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END)


def test_benchmark_json_lists_the_catalog_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


def test_tail_percentile_needs_ten_samples_beyond_and_honours_the_cap():
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(150) == 90.0
    assert tail_percentile(5000, cap=90.0) == 90.0
    assert tail_percentile(12) == 50.0


def test_block_tail_groups_whole_passes_and_shrugs_off_one_noisy_pass():
    passes = [[float(i) for i in range(20)] for _ in range(6)]
    value, blocks = block_tail(passes, 75.0)  # 40 samples per block: 3 blocks of 2 passes
    assert blocks == 3
    assert value == pytest.approx(14.25)
    passes[2] = [10 * x for x in passes[2]]
    assert block_tail(passes, 75.0) == (value, 3)
    assert block_tail(passes[:3], 75.0)[1] == 1  # a short tail block folds into the last


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_smoke_runs_clean(name, traced):
    lines, result = run(name, seed=0, seconds=0.2, traced=traced, tiny=True)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] > 0
    catalog = PER_LAYER if traced else END_TO_END
    assert list(result["metrics"]) == [m.name for m in catalog]
    for metric in catalog:
        value = result["metrics"][metric.name]
        assert value["unit"] == metric.unit
        assert math.isfinite(value["value"])
    if not traced:
        for metric in END_TO_END:
            assert result["metrics"][metric.name]["value"] > 0, metric.name


def test_run_measures_for_the_requested_seconds():
    start = time.perf_counter()
    run("acbm-qcif", seed=0, seconds=2.0, traced=False, tiny=True)
    assert time.perf_counter() - start >= 2.0


def test_deterministic_metrics_repeat_per_seed_and_a_second_seed_runs_clean():
    name = "acbm-qcif"
    first = run(name, seed=3, seconds=0.1, traced=False, tiny=True)[1]
    again = run(name, seed=3, seconds=0.1, traced=False, tiny=True)[1]
    other = run(name, seed=4, seconds=0.1, traced=False, tiny=True)[1]
    for key in DETERMINISTIC_E2E:
        assert first["metrics"][key] == again["metrics"][key]
    assert other["correct"] and other["failed"] == 0
    assert other["metrics"]["psnr_y_db"] != first["metrics"]["psnr_y_db"]
    traced = [run(name, seed=3, seconds=0.1, traced=True, tiny=True)[1] for _ in range(2)]
    for key in DETERMINISTIC_LAYER:
        assert traced[0]["metrics"][key] == traced[1]["metrics"][key], key


def test_run_refuses_without_the_codec_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "acbm-qcif", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
