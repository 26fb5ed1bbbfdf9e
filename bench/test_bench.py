"""Tests of the benchmark itself: the seeded generator, the output check,
the tracer's self-time arithmetic and its one-wrapper-per-callable rule."""

import json
from pathlib import Path

import pytest
import yaml

import check
import run
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_valid(name):
    from uiobeam.config import config_from_mapping

    text, digest = workloads.generate(name, 7)
    assert workloads.generate(name, 7) == (text, digest)
    assert workloads.generate(name, 8)[0] != text
    parsed = yaml.safe_load(text)
    assert parsed == workloads.WORKLOADS[name].build(7)
    exp = check.expectations(config_from_mapping(parsed))
    assert exp["n"] == len(parsed["scenario"]["radii"])
    assert exp["n_mu"] == len(parsed["observer"]["mu_max"])


def test_d_classes_are_balanced_and_seeded():
    a = workloads.WORKLOADS["design-n256-mixed"].build(1)["measurement"]["d_diag"]
    b = workloads.WORKLOADS["design-n256-mixed"].build(2)["measurement"]["d_diag"]
    assert a != b
    assert sorted(a) == sorted(b)
    assert {a.count(d) for d in workloads.D_CLASSES} == {128}


def _write_outputs(out, gap=1.5, certified=True, cell="0.5"):
    out.mkdir(parents=True, exist_ok=True)
    (out / "se_compare.csv").write_text(
        "k,t,in_window,se_uio,se_echo_baseline\n"
        f"0,0,1,{cell},0.25\n1,0.15,0,0.75,0.75\n"
    )
    (out / "compare_summary.json").write_text(json.dumps({"window_se_gap": gap}))
    (out / "design_records.json").write_text(json.dumps(
        [{"mu_max": 1.0, "certified": certified, "L_diag": [0.3, 0.3]}]
    ))
    (out / "manifest.json").write_text(json.dumps({"wall_clock_s": 0.1}))


EXP = {"n": 1, "horizon": 2, "n_mu": 1, "snapshots": 2, "pattern_points": 3,
       "sweep_bracket": (0.15, 2.0)}


def test_check_passes_good_outputs(tmp_path):
    _write_outputs(tmp_path)
    assert check.check_outputs("compare-baseline", tmp_path, EXP) == []
    assert check.check_outputs("design", tmp_path, EXP) == []
    assert "manifest.json" not in check.hash_outputs(tmp_path)


def test_check_rejects_one_byte_csv_change(tmp_path):
    _write_outputs(tmp_path / "a")
    _write_outputs(tmp_path / "b", cell="0.6")
    ha, hb = check.hash_outputs(tmp_path / "a"), check.hash_outputs(tmp_path / "b")
    assert ha != hb
    assert [k for k in ha if ha[k] != hb[k]] == ["se_compare.csv"]


def test_check_rejects_bad_outputs(tmp_path):
    _write_outputs(tmp_path / "cert", certified=False)
    assert any("not certified" in p for p in check.check_outputs("design", tmp_path / "cert", EXP))
    _write_outputs(tmp_path / "nan", cell="nan")
    assert check.check_outputs("compare-baseline", tmp_path / "nan", EXP)
    _write_outputs(tmp_path / "gap", gap=-0.1)
    assert check.check_outputs("compare-baseline", tmp_path / "gap", EXP)


def test_runner_counts_a_changed_repeat_as_failed(tmp_path, monkeypatch):
    import worker

    calls = []

    def fake_main(argv):
        out = Path(argv[argv.index("--out") + 1])
        _write_outputs(out, cell="0.5" if not calls else "0.6")
        calls.append(argv)
        return 0

    monkeypatch.setattr(worker.cli, "main", fake_main)
    runner = worker.Runner("cfg.yaml", tmp_path, EXP)
    runner.call("compare-baseline")
    assert runner.failed == 0
    runner.call("compare-baseline")
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "se_compare.csv" in runner.problems[0]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_self_time_is_span_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(dt):
        clock.now += dt

    leaf_w = tracer.wrap(leaf, "t.leaf")

    def mid():
        clock.now += 1.0
        leaf_w(2.0)
        clock.now += 0.5

    mid_w = tracer.wrap(mid, "t.mid")

    def top():
        clock.now += 0.25
        mid_w()
        leaf_w(4.0)

    tracer.wrap(top, "t.top")()
    stats = tracer.snapshot()
    assert stats["t.leaf"]["calls"] == 2 and stats["t.leaf"]["s"] == 6.0
    assert stats["t.mid"]["s"] == 3.5 and stats["t.mid"]["self_s"] == 1.5
    assert stats["t.top"]["s"] == 7.75 and stats["t.top"]["self_s"] == 0.25


def test_no_callable_is_wrapped_twice():
    import importlib

    import uiobeam

    # `uiobeam.design` is the re-exported function, not the module
    cli, design, simulate = (
        importlib.import_module(f"uiobeam.{m}") for m in ("cli", "design", "simulate")
    )

    original = design.design
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
        wrapped = {id(w) for _, w in tracer._wrappers.values()}
        assert len(wrapped) == len(tracer._wrappers)
        # one wrapper object under every name the original is bound to
        assert simulate.solve_design is design.design is uiobeam.design
        assert design.design is not original
        assert cli.parse_config is uiobeam.config.parse_config
        assert not hasattr(original, "__wrapped__")
        prob = simulate.design_problem(cli.parse_config(None), 1.0)
        simulate.solve_design(prob)
        stats = tracer.snapshot()
        assert stats["design.design"]["calls"] == 1
        assert stats["config.parse_config"]["calls"] == 1
        assert stats["linalg.check_definiteness"]["calls"] == 2
    finally:
        tracer.uninstall()
    assert design.design is original is simulate.solve_design


def test_reference_mismatch_is_reported():
    ref = json.loads(run.REFERENCE.read_text())["ref-long"]
    hashes = json.loads(json.dumps(ref["output_hashes"]))
    seed = workloads.DEFAULT_SEED
    assert run.check_reference("ref-long", seed, ref["config_sha256"], hashes) == []
    hashes["compare-baseline"]["se_compare.csv"] = "0" * 64
    assert len(run.check_reference("ref-long", seed, ref["config_sha256"], hashes)) == 1
    assert run.check_reference("ref-long", seed + 1, "other", hashes) == []


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
