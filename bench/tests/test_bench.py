"""Self-tests of the benchmark.  They drive steinlab, so they take a couple
of minutes:

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import pools  # noqa: E402
import run  # noqa: E402

SEED = 3

# Table of layers: each metric must record work on the workload meant to
# load it.  rings.monoid_closure is absent: no CLI path calls it (the
# closures in functorcat run their own search).
LOADED = {
    "functor-galois": ["fields.galois.calls", "matrices.add_vector.calls",
                       "matrices.mul.calls", "matrices.solve_right.calls",
                       "matrices.rref.calls", "rings.mat_mul.calls",
                       "functorcat.iext_value.calls",
                       "functorcat.iext_value.ambient",
                       "functorcat.act.calls", "functorcat.cross_effect.calls",
                       "functorcat.unipotence_ideal.calls"],
    "rational": ["fields.rational.calls", "matrices.apply.calls",
                 "matrices.kron.calls", "matrices.rref.cells",
                 "symgrp.specht_module.calls", "schurfun.schur_value.calls",
                 "schurfun.elementary_value.calls",
                 "emlpoly.deviation_vanishes.calls", "emlpoly.evals"],
    "modular": ["fields.prime.calls", "matrices.add_vector.calls",
                "matrices.add_vector.grew_ratio",
                "matrices.span_from_spins.calls",
                "modtools.find_proper_submodule.calls",
                "modtools.hom_space.calls", "modtools.are_isomorphic.calls",
                "modtools.is_simple.calls",
                "modtools.restrict_to_submodule.calls",
                "symgrp.simple_module.calls", "schurfun.socle_simple.calls",
                "steinberg.build.calls", "steinberg.classify.calls",
                "emlpoly.factor_multiplicative.calls",
                "cli.parse_s", "cli.render_s"],
    "batch-modular": ["cli.batch.speedup"],
}


def is_count(name):
    return name.endswith((".calls", ".cells", ".ambient")) or \
        name == "emlpoly.evals"


@pytest.fixture(scope="module")
def traced_runs():
    cli = run.load_steinlab()
    check = run.Checker(BENCH / "expected.json")
    done = {}

    def get(workload, repeat=0):
        if (workload, repeat) not in done:
            done[workload, repeat] = run.traced(cli, check, workload, SEED)
        return done[workload, repeat]
    return get


def spec():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_names_match_benchmark_json():
    assert [m["name"] for m in spec()["end_to_end"]] == \
        list(run.END_TO_END_UNITS)
    assert [w["name"] for w in spec()["workloads"]] == list(pools.WORKLOADS)


@pytest.mark.parametrize("workload", list(LOADED))
def test_each_layer_is_loaded_by_its_workload(traced_runs, workload):
    res = traced_runs(workload)
    assert res["failed"] == 0
    assert list(res["metrics"]) == [m["name"] for m in spec()["per_layer"]]
    assert [unit for _, unit in res["metrics"].values()] == \
        [m["unit"] for m in spec()["per_layer"]]
    idle = [name for name in LOADED[workload]
            if not res["metrics"][name][0] > 0]
    assert idle == []


@pytest.mark.parametrize("workload", ["functor-galois", "rational",
                                      "modular"])
def test_stdout_identical_with_tracing_on_and_off(traced_runs, workload):
    assert traced_runs(workload)["identical"]


@pytest.mark.parametrize("workload", ["functor-galois", "rational",
                                      "modular"])
def test_counts_repeat_exactly_under_one_seed(traced_runs, workload):
    first, second = traced_runs(workload), traced_runs(workload, repeat=1)
    counts = [name for name in first["metrics"] if is_count(name)]
    assert len(counts) > 30
    assert {n: first["metrics"][n] for n in counts} == \
        {n: second["metrics"][n] for n in counts}


def test_pinned_outputs_pass_their_oracles():
    check = run.Checker(BENCH / "expected.json")
    for pool in pools.POOLS.values():
        for job in pool:
            exp = check.jobs[job]
            assert pools.oracle_ok(job, exp["code"],
                                   exp["stdout"].rstrip("\n")), job


def test_oracles_catch_wrong_outputs():
    assert not pools.oracle_ok("schur eval --lam 2,1 --n 3 --coeff Q", 0,
                               '{"dimension": 7}')
    assert not pools.oracle_ok(
        "functor dimtable --ring F_2 --coeff F_3 --functor gr1 --rank 2",
        0, '{"dims": [0, 1, 4], "fit": null, "fit_ok": false}')
    assert not pools.oracle_ok("emlpoly degree --window 20 --poly 0,1,1",
                               0, '{"degree": 3}')
    assert not pools.oracle_ok("steinberg classify --n 2 --q 4", 0,
                               "lambda\tdigits\tdim\tsimple\tclass\n"
                               "\t0,0;0,0\t1\tyes\t0")


def test_draw_is_the_whole_pool_in_a_seeded_order():
    a = run.draw("modular", 5, 0)
    assert a == run.draw("modular", 5, 0)
    assert a == run.draw("batch-modular", 5, 0)
    assert a != run.draw("modular", 6, 0)
    assert sorted(job for job, _ in a) == sorted(pools.MODULAR)


def test_tail_is_p90_with_ten_samples_beyond_it():
    assert run.p90(list(range(100))) == 89
    assert run.p90(list(range(101))) == 90
    assert run.p90([3.0]) == 3.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "modular",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
