"""Tests of the benchmark harness itself: tracing arithmetic, wrapper
install/restore, seeded inputs, oracles and the failure exit path.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import padd
import padd.cli
import padd.equilibrium
import padd.gridopt
import padd.response
import tracing
import workloads

BENCH = Path(__file__).resolve().parent.parent


def span(name, start, end, parent, work=0):
    return [name, start, end, parent, "op", work]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("equilibrium.solve", 0.0, 10.0, -1),
        span("funcs.values", 1.0, 4.0, 0, work=5),  # Sum.values
        span("funcs.values", 2.0, 3.0, 1, work=5),  # its child's values
        span("gridopt.golden_max", 5.0, 7.0, 0),
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_same_layer_nesting_counts_one_call_and_sums_self_time():
    spans = [
        span("equilibrium.solve", 0.0, 10.0, -1),
        span("funcs.values", 1.0, 4.0, 0, work=5),
        span("funcs.values", 2.0, 3.0, 1, work=5),
        span("funcs.values", 3.0, 3.5, 1, work=5),
        span("funcs.grid", 4.0, 4.5, 0, work=7),
        span("raygeom.ray_payment_batch", 5.0, 9.0, 0, work=2),
        span("funcs.values", 6.0, 8.0, 5, work=11),
    ]
    m = tracing.layer_metrics(spans)
    assert m["funcs.values.calls"] == 2
    assert m["funcs.values.rows"] == 16
    assert m["funcs.values.self_s"] == pytest.approx(3.0 + 2.0)  # 1.5 + 1 + 0.5, then 2
    assert m["equilibrium.solve.calls"] == 1
    assert m["equilibrium.solve.self_s"] == pytest.approx(10.0 - 3.0 - 0.5 - 4.0)
    assert m["equilibrium.solve.grid_rows"] == 7
    assert m["raygeom.ray_payment_batch.rows"] == 2
    assert m["raygeom.alpha_evals"] == 11
    assert set(m) == set(tracing.LAYER_METRICS)


def test_real_sum_values_nests_child_spans():
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        c = padd.Sum([padd.PowerSum((1.0,), (2.0,)), padd.PowerSum((1.0,), (0.5,))])
        got = c.values(np.linspace(0.0, 1.0, 9)[:, None])
    finally:
        tracing.restore(patches)
    spans = tracer.take()
    assert [s[tracing.NAME] for s in spans] == ["funcs.values"] * 3
    assert [s[tracing.PARENT] for s in spans] == [-1, 0, 0]
    m = tracing.layer_metrics(spans)
    assert (m["funcs.values.calls"], m["funcs.values.rows"]) == (1, 9)
    assert m["funcs.values.self_s"] == pytest.approx(spans[0][tracing.END] - spans[0][tracing.START])
    assert np.array_equal(got, c.values(np.linspace(0.0, 1.0, 9)[:, None]))


def test_install_patches_every_namespace_and_restore_undoes_it():
    golden = padd.gridopt.golden_max
    bbr = padd.response.buyer_best_response
    auto = padd.solve_auto
    values = padd.PowerSum.__dict__["values"]
    patches = tracing.install(tracing.Tracer())
    try:
        for holder in (padd.gridopt, padd.equilibrium, padd.response, padd.concavepricing):
            assert holder.golden_max is not golden
            assert holder.golden_max.__padd_bench_original__ is golden
        assert padd.equilibrium.buyer_best_response.__padd_bench_original__ is bbr
        assert padd.response.buyer_best_response.__padd_bench_original__ is bbr
        assert padd.cli._SOLVERS["auto"].__padd_bench_original__ is auto
        assert padd.solve_auto.__padd_bench_original__ is auto
        assert padd.PowerSum.__dict__["values"].__padd_bench_original__ is values
    finally:
        tracing.restore(patches)
    for holder in (padd.gridopt, padd.equilibrium, padd.response, padd.concavepricing):
        assert holder.golden_max is golden
    assert padd.equilibrium.buyer_best_response is bbr
    assert padd.cli._SOLVERS["auto"] is auto
    assert padd.solve_auto is auto
    assert padd.PowerSum.__dict__["values"] is values


def test_tracing_changes_no_output():
    wl = workloads.build("closed_form", 0)
    ops = [op for op in wl.ops if op.name.endswith("two_goods_sqrt_value_square_cost")]

    def outputs(trace):
        tracer = tracing.Tracer() if trace else None
        patches = tracing.install(tracer) if trace else []
        try:
            state = {}
            for op in ops:
                state[op.name] = op.run(state)
        finally:
            tracing.restore(patches)
        return {name: workloads.digest(out) for name, out in state.items()}, tracer

    plain, _ = outputs(False)
    traced, tracer = outputs(True)
    assert traced == plain
    assert tracer.spans


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert json.dumps(a.inputs, sort_keys=True) == json.dumps(b.inputs, sort_keys=True)
    assert [op.name for op in a.ops] == [op.name for op in b.ops]


def test_different_seed_gives_different_graphs_points_and_bundles():
    a, b = workloads.build("graph_hardness", 7), workloads.build("graph_hardness", 8)
    for key in a.inputs["graphs"]:
        assert a.inputs["graphs"][key] != b.inputs["graphs"][key]
    for key in a.inputs["points"]:
        assert a.inputs["points"][key] != b.inputs["points"][key]
    assert workloads.build("general_ray", 7).inputs != workloads.build("general_ray", 8).inputs
    assert workloads.build("closed_form", 7).inputs != workloads.build("closed_form", 8).inputs


def test_oracles_match_known_values():
    square = padd.PowerSum((1.0,), (2.0,))
    assert workloads.chord_slope_oracle(square, [3.0]) == pytest.approx(18.0, rel=1e-5)  # x c'(x)
    root = padd.PowerSum((1.0,), (0.5,))
    assert workloads.chord_slope_oracle(root, [4.0]) == pytest.approx(2.0)  # c(x), at a = 0
    for g, size in ((padd.graphs.cycle_graph(5), 2), (padd.graphs.clique_graph(6), 1),
                    (padd.graphs.path_graph(4), 2), (padd.graphs.empty_graph(5), 5),
                    (padd.graphs.star_graph(6), 5)):
        assert workloads.mis_oracle(g.adjacency) == size


def test_a_wrong_reference_value_fails_the_run():
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import workloads, worker\n"
        "workloads.CLI_DEMOS['convex_demo'] = ((5.0,), 32.0, 96.0, 16.0)\n"
        "sys.exit(worker.main(['--workload', 'closed_form', '--seed', '0']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(BENCH.parent / "src"), str(BENCH)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] >= 1
    assert {f["op"] for f in result["failures"]} >= {"cli_solve:convex_demo"}


def test_run_refuses_a_directory_without_padd_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "graph_hardness", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
