"""Self-tests of the benchmark: its references, its checker and its output.

    python -m pytest perfbench

These live outside the package's tests/ so the tier-1 suite stays fast.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
import run
import spans

run.use_sources()

from dycknum import bfile, core, oracle, sequence  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_reference_successor_and_scans_match_the_oracle():
    d = 0
    for _ in range(3000):
        nxt = oracle.brute_successor(d)
        assert checks.successor(d) == nxt
        assert checks.first_violation(d) is None
        d = nxt
    for n in range(1 << 12):
        assert checks.first_violation(n) == core.violating_suffix(n)


@pytest.mark.parametrize("width", inputs.BIGINT_WIDTHS[:2] + (600,))
def test_inputs_are_what_they_claim(width):
    rng = random.Random(width)
    for _ in range(40):
        m = inputs.member(rng, width)
        assert checks.first_violation(m.value) is None
        assert len(m.word) == width and inputs.word_to_int(m.word) == m.value
        for kind in ("early", "late"):
            bad = inputs.non_member(rng, width, kind)
            assert checks.first_violation(bad.value) == bad.suffix
            near_low_end = len(bad.suffix) <= width // 8 + 1
            assert near_low_end == (kind == "early")
            with pytest.raises(core.NotDyckWordError):
                core.from_dyck_word(bad.word)


def test_same_seed_same_inputs():
    def draw(seed):
        rng = random.Random(seed)
        pool = inputs.lookup_pool(rng)
        return pool, inputs.lookup_cycle(rng, pool), inputs.cli_cycle(rng), inputs.bigint_cycle(rng)

    assert draw(5) == draw(5)
    assert draw(5) != draw(6)


def test_lookup_ordinals_cover_the_range_log_uniformly():
    rng = random.Random(1)
    ordinals = inputs.lookup_cycle(rng, inputs.lookup_pool(rng))
    assert len(ordinals) == inputs.LOOKUP_STRATA
    assert inputs.LOOKUP_LOW <= min(ordinals) and max(ordinals) <= inputs.LOOKUP_HIGH
    assert sum(i < 10**4 for i in ordinals) == pytest.approx(inputs.LOOKUP_STRATA / 2.5, abs=1)


def test_reservoir_keeps_a_fixed_number_of_samples():
    reservoir = spans.Reservoir(4)
    for x in range(100):
        slot = reservoir.slot()
        if slot is not None:
            reservoir.values[slot] = x
    assert reservoir.seen == 100
    assert len(reservoir.kept()) == 4 and len(set(reservoir.kept())) == 4


def _phase(name, tmp_path, seconds=0.3):
    return run.Phase(name, seed=3, seconds=seconds, trace=False, workdir=tmp_path, setup=[(1.0, 1.0)])


def _wrong_range_terms(original):
    def range_terms(k, **kwargs):
        terms = original(k, **kwargs)
        return terms[:-1] if k == 7 else terms

    return range_terms


def _wrong_emit(original):
    def emit_bfile(terms, offset=1):
        text = original(terms, offset)
        return text.replace(" 31\n", " 33\n")

    return emit_bfile


def _wrong_successor(original):
    def successor(d):
        s = original(d)
        return s + 2 if d.bit_length() > 40 else s

    return successor


def _accepts_everything(original):
    return lambda n: True


@pytest.mark.parametrize(
    "name, module, function, corrupt",
    [
        ("sweep", sequence, "range_terms", _wrong_range_terms),
        ("sweep", bfile, "emit_bfile", _wrong_emit),
        ("bigint", core, "successor", _wrong_successor),
        ("bigint", core, "is_dyck_number", _accepts_everything),
    ],
)
def test_injected_wrong_answer_is_counted(name, module, function, corrupt, tmp_path, monkeypatch):
    monkeypatch.setattr(module, function, corrupt(getattr(module, function)))
    phase = _phase(name, tmp_path)
    assert phase.rec.ops > 0
    assert 0 < phase.failed <= phase.rec.ops


@pytest.mark.parametrize("name", ["sweep", "bigint"])
def test_unpatched_run_has_no_failures(name, tmp_path):
    phase = _phase(name, tmp_path)
    assert phase.rec.ops > 0 and phase.failures == [] and phase.failed == 0


def _result(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_prints_every_metric_with_its_unit(workload, trace):
    lines, result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    report = "\n".join(lines[:-1])
    for m in SPEC["end_to_end"]:
        assert f"{m['name']}" in report and m["unit"] in report
    assert "failed_ratio" in report
    stamp = json.loads(lines[0].removeprefix("perfbench "))
    for key in ("git_sha", "python", "nproc", "seed", "samples", "tail_percentile"):
        assert key in stamp


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
