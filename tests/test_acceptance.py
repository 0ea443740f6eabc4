"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are pinned here, not deferred.
"""

from __future__ import annotations

import json
import math
import random
import time

import pytest

import oracle_stats
from conftest import FIXTURES, corpus_paths
from test_dockerfile import random_ast
from test_recon import run_script, stub_installers, write_script

from hpcflow import cli
from hpcflow.dockerfile import parse_dockerfile, render_dockerfile
from hpcflow.launch import (
    JobRequest,
    plan_launch,
    render_install_script,
    render_job_script,
    render_udocker_setup,
)
from hpcflow.lint import lint
from hpcflow.perf import BenchRun, ModelSpec, ScalingInputs, parse_bench_log, predict, summarize
from hpcflow.profiles import find_privileged_tokens, parse_cluster_profile, parse_env_spec
from hpcflow.recon import generate_entrypoint, reconcile
from hpcflow.runner import env_dump_command, mock_run_ranks

LINT_CORPUS = FIXTURES / "lint_corpus"
LABELS = json.loads((LINT_CORPUS / "labels.json").read_text())


def _passed(criterion: int, name: str) -> None:
    print(f"ACCEPTANCE {criterion} ({name}): PASS")


def test_criterion_1_lint_fixtures():
    """>=10 labeled Dockerfiles, 100% agreement, TF1 semantics, < 1 s."""
    assert len(LABELS) >= 10
    started = time.perf_counter()
    for name, expected in LABELS.items():
        ast = parse_dockerfile((LINT_CORPUS / name).read_text(), source_name=name)
        got = [[f.rule_id, f.line] for f in lint(ast).findings]
        assert got == expected, f"{name}: {got} != {expected}"
    elapsed = time.perf_counter() - started
    # the two TF1 semantics cases, stated explicitly
    later = lint(parse_dockerfile((LINT_CORPUS / "01_download_later_delete.dockerfile").read_text()))
    assert [f.rule_id for f in later.findings] == ["TF1"]
    same = lint(parse_dockerfile((LINT_CORPUS / "02_same_layer_delete.dockerfile").read_text()))
    assert same.findings == ()
    assert elapsed < 1.0, f"lint corpus took {elapsed:.3f}s"
    _passed(1, "lint fixtures")


def test_criterion_2_round_trip():
    """parse-render-parse fixed point: full corpus + 200 randomized ASTs."""
    mismatches = 0
    for path in corpus_paths():
        first = parse_dockerfile(path.read_text(), source_name=path.name)
        if parse_dockerfile(render_dockerfile(first)) != first:
            mismatches += 1
    rng = random.Random(20260810)
    for _ in range(200):
        first = parse_dockerfile(render_dockerfile(random_ast(rng)))
        if parse_dockerfile(render_dockerfile(first)) != first:
            mismatches += 1
    assert mismatches == 0
    _passed(2, "round-trip")


def test_criterion_3_entrypoint_behaviour(tmp_path):
    """Install-once semantics, usage errors, shell fallback, failure paths."""
    log = tmp_path / "installs.log"
    state = tmp_path / "state"
    script = write_script(tmp_path, stub_installers(log))

    first = run_script(script, state, "4.0.1", "0.21.3", "/bin/echo", "ran")
    assert first.returncode == 0 and first.stdout.strip() == "ran"
    assert log.read_text() == "ompi-4.0.1\nhvd-0.21.3\n"
    marker = state / "installed-4.0.1-0.21.3"
    assert marker.exists()

    stamp = log.stat().st_mtime_ns
    second = run_script(script, state, "4.0.1", "0.21.3", "/bin/true")
    assert second.returncode == 0
    assert log.stat().st_mtime_ns == stamp  # stub sentinels untouched

    assert run_script(script, state).returncode == 2
    assert "usage:" in run_script(script, state).stderr
    assert run_script(script, state, "4.0.1").returncode == 2

    shell = run_script(script, state, "4.0.1", "0.21.3", stdin="echo INSIDE; exit 9\n")
    assert shell.returncode == 9 and "INSIDE" in shell.stdout

    (tmp_path / "fail").mkdir()
    failing = write_script(tmp_path / "fail", stub_installers(tmp_path / "f.log", fail_openmpi=True))
    result = run_script(failing, tmp_path / "fail-state", "4.0.1", "0.21.3", "/bin/true")
    assert result.returncode == 42
    assert not (tmp_path / "fail-state" / "installed-4.0.1-0.21.3").exists()
    _passed(3, "entrypoint behaviour")


def _request(nodes: int, gpus: int, name: str = "tfbench") -> JobRequest:
    return JobRequest(
        nodes=nodes,
        gpus_per_node=gpus,
        container_name=name,
        image_ref="nvidia/cuda:10.1-cudnn7-devel-ubuntu18.04",
        workdir_mount=("$PWD", "/workdir"),
        user_command=("python", "/workspace/train.py"),
        job_name=name,
        walltime="02:00:00",
    )


def test_criterion_4_launch_math():
    """total_ranks products up to 8x8; -np 4 and -np 6 cases; stable goldens."""
    from hpcflow.profiles import ClusterProfile, SemVer

    spec = parse_env_spec((FIXTURES / "specs/entrypoint.spec").read_text())
    big = ClusterProfile(
        name="big",
        scheduler="slurm",
        gpus_per_node=8,
        gpu_nodes=8,
        openmpi_version=SemVer(4, 0, 1),
        container_runtime_path="/usr/local/bin/udocker",
    )
    recon_big = reconcile(spec, big)
    for nodes in range(1, 9):
        for gpus in range(1, 9):
            assert plan_launch(big, recon_big, _request(nodes, gpus)).total_ranks == nodes * gpus

    csic = parse_cluster_profile((FIXTURES / "profiles/csic.profile").read_text())
    recon_csic = reconcile(spec, csic)
    two_by_two = plan_launch(csic, recon_csic, _request(2, 2))
    assert " ".join(two_by_two.mpirun_args).startswith("-np 4 ")
    three_by_two = plan_launch(csic, recon_csic, _request(3, 2))
    assert " ".join(three_by_two.mpirun_args).startswith("-np 6 ")

    golden_csic = (FIXTURES / "golden/csic_2x2_job.sh").read_text()
    for _ in range(3):
        script = render_job_script(two_by_two, csic, _request(2, 2))
        assert script.text == golden_csic

    forhlr2 = parse_cluster_profile((FIXTURES / "profiles/forhlr2.profile").read_text())
    recon_fh = reconcile(spec, forhlr2)
    req_fh = _request(2, 4, name="downscaling")
    golden_fh = (FIXTURES / "golden/forhlr2_2x4_job.sh").read_text()
    for _ in range(3):
        plan = plan_launch(forhlr2, recon_fh, req_fh)
        assert render_job_script(plan, forhlr2, req_fh).text == golden_fh
    _passed(4, "launch math")


def _grid_plan(nodes: int, gpus: int):
    from hpcflow.launch import LaunchPlan

    return LaunchPlan(
        total_ranks=nodes * gpus,
        slots_per_node=gpus,
        mpirun_args=(),
        env_exports={},
        udocker_run_args=(),
        scheduler_directives=(),
    )


def test_criterion_5_mock_rank_grid():
    """2x2 exact rank/local/node values; random grids cover the full grid."""
    results = mock_run_ranks(_grid_plan(2, 2), env_dump_command())
    assert [r.env["RANK"] for r in results] == ["0", "1", "2", "3"]
    assert [r.env["LOCAL_RANK"] for r in results] == ["0", "1", "0", "1"]
    assert [r.env["NODE_INDEX"] for r in results] == ["0", "0", "1", "1"]

    rng = random.Random(42)
    for _ in range(5):
        nodes, gpus = rng.randint(1, 3), rng.randint(1, 3)
        grid = {
            (r.env["NODE_INDEX"], r.env["LOCAL_RANK"])
            for r in mock_run_ranks(_grid_plan(nodes, gpus), env_dump_command())
        }
        assert grid == {(str(n), str(g)) for n in range(nodes) for g in range(gpus)}
    _passed(5, "mock rank grid")


def test_criterion_6_scaling_model():
    """speedup(1)=1 and bounds; ideal line; strict param-count ordering."""
    models = {
        "inceptionv3": (23_851_784, 256),
        "resnet50": (25_636_712, 256),
        "resnet101": (44_707_176, 128),
    }

    def inputs(params: int, batch: int, comp: float, **kw) -> ScalingInputs:
        values = dict(
            link_bandwidth=1.25e9,
            link_latency=5e-6,
            gpus_per_node=2,
            intra_node_bandwidth=2.5e10,
        )
        values.update(kw)
        return ScalingInputs(
            model=ModelSpec("m", params, batch),
            single_gpu_images_per_sec=batch / comp,
            **values,
        )

    base = inputs(*models["resnet50"], comp=0.67)
    assert predict(base, 1).speedup == 1.0  # exact

    ideal = inputs(
        *models["resnet50"],
        comp=0.67,
        link_bandwidth=math.inf,
        intra_node_bandwidth=math.inf,
        link_latency=0.0,
    )
    for p in range(1, 9):
        assert predict(ideal, p).speedup == float(p)  # exact ideal line

    rng = random.Random(1234)
    checked = 0
    while checked < 300:
        params = rng.randint(1_000_000, 50_000_000)
        batch = rng.randint(32, 512)
        comp = rng.uniform(0.01, 1.0)
        link = rng.uniform(1e9, 1e11)
        lat = rng.uniform(0, 1e-4)
        payload = params * 4
        if comp < payload / link + 2 * lat:
            continue  # outside the compute-dominated regime the bound models
        scaled = inputs(
            params,
            batch,
            comp,
            link_bandwidth=link,
            link_latency=lat,
            gpus_per_node=rng.randint(1, 8),
            intra_node_bandwidth=link * rng.uniform(1.0, 20.0),
        )
        for p in range(1, 13):
            speedup = predict(scaled, p).speedup
            assert 1.0 <= speedup <= p
        checked += 1

    at_six = {
        name: predict(inputs(params, batch, comp=0.1), 6).speedup
        for name, (params, batch) in models.items()
    }
    assert at_six["inceptionv3"] > at_six["resnet50"] > at_six["resnet101"]  # strict
    _passed(6, "scaling model")


def test_criterion_7_statistics_oracle():
    """1000 random sets agree with brute force to 1e-9 relative; worked example."""
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(2, 30)
        scale = 10 ** rng.randint(0, 4)
        samples = [rng.uniform(0.5, 1.5) * scale for _ in range(n)]
        summary = summarize(BenchRun(1, tuple(samples)))
        mean = oracle_stats.brute_mean(samples)
        ci = oracle_stats.brute_ci95_half_width(samples)
        assert summary.mean == pytest.approx(mean, rel=1e-9)
        assert summary.ci95_half_width == pytest.approx(ci, rel=1e-9)

    worked = summarize(
        BenchRun(1, (100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0))
    )
    assert worked.mean == 100.0
    assert worked.ci95_half_width == pytest.approx(1.262, abs=1e-3)

    # the 10 warm-up + 10 measured protocol against the fixture logs
    for gpus, expected_mean in ((1, 100.0), (2, 190.0), (3, 270.0)):
        text = (FIXTURES / "logs" / f"bench_{gpus}gpu.log").read_text()
        run = parse_bench_log(text, warmup_count=10, gpus=gpus)
        assert run.warmup_count == 10
        assert len(run.samples) == 10
        assert summarize(run).mean == expected_mean
    _passed(7, "statistics oracle")


def test_criterion_8_no_privileged_commands():
    """Token scan over every generated script family finds nothing."""
    spec = parse_env_spec((FIXTURES / "specs/entrypoint.spec").read_text())
    csic = parse_cluster_profile((FIXTURES / "profiles/csic.profile").read_text())
    recon_plan = reconcile(spec, csic)
    req = _request(2, 2)
    plan = plan_launch(csic, recon_plan, req)
    generated = [
        render_job_script(plan, csic, req).text,
        render_install_script(),
        render_install_script(prefix="/scratch/me/rt"),
        generate_entrypoint(),
        "\n".join(" ".join(c) for c in render_udocker_setup(recon_plan, "tfbench")),
    ]
    for text in generated:
        assert find_privileged_tokens(text) == []
    _passed(8, "no privileged commands")


def test_criterion_9_end_to_end(tmp_path, capsys):
    """profile validate -> image gen -> lint -> job gen -> dry-run -> mock-run."""
    profile = str(FIXTURES / "profiles/csic.profile")
    spec = str(FIXTURES / "specs/entrypoint.spec")
    dockerfile_path = tmp_path / "Dockerfile"
    job_path = tmp_path / "job.sh"

    stages = [
        ["profile", "validate", profile],
        ["image", "gen", "--spec", spec, "--out", str(dockerfile_path)],
        ["image", "lint", str(dockerfile_path)],
        [
            "job", "gen",
            "--profile", profile,
            "--spec", spec,
            "--nodes", "2",
            "--gpus-per-node", "2",
            "--out", str(job_path),
            "--", "python", "/workspace/train.py",
        ],
        ["run", "dry", "--profile", profile, "--spec", spec],
        ["run", "mock", "--nodes", "2", "--gpus-per-node", "2"],
    ]
    started = time.perf_counter()
    for argv in stages:
        code = cli.main(argv)
        assert code == 0, f"stage {argv[:2]} exited {code}"
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    assert elapsed < 5.0, f"pipeline took {elapsed:.2f}s"
    _passed(9, "end to end")
