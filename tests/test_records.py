"""What callers see of the record classes: fields, equality, hashing, repr."""

from __future__ import annotations

import copy
import pickle

import pytest

from hpcflow.dockerfile import DockerfileAst, Instruction, exec_tokens
from hpcflow.launch import JobRequest, JobScript, LaunchPlan
from hpcflow.lint import RULES, SmellFinding, SmellReport
from hpcflow.perf import BenchRun, BenchSummary, ModelSpec, ScalingEstimate, ScalingInputs
from hpcflow.profiles import ClusterProfile, EnvironmentSpec, ImageRef, SemVer
from hpcflow.recon import DEFAULT_INSTALLERS, InstallerConfig, ReconcilePlan
from hpcflow.runner import RankResult

MODEL = dict(name="resnet50", param_count=25_636_712, batch_per_gpu=256, bytes_per_param=4)
SCALING = dict(
    model=ModelSpec(**MODEL),
    single_gpu_images_per_sec=380.0,
    link_bandwidth=1.25e9,
    link_latency=5e-6,
    gpus_per_node=2,
    intra_node_bandwidth=1e10,
)

# every record class with one value per field, in declaration order
RECORDS = [
    (Instruction, dict(kind="RUN", args="echo hi", line_span=(3, 4))),
    (DockerfileAst, dict(instructions=(Instruction("FROM", "ubuntu"),), source_name="Dockerfile")),
    (SemVer, dict(major=4, minor=0, patch=1, patch_specified=True)),
    (ImageRef, dict(repo="nvidia/cuda", tag="10.1", digest=None)),
    (
        ClusterProfile,
        dict(
            name="csic",
            scheduler="slurm",
            gpus_per_node=2,
            gpu_nodes=20,
            openmpi_version=SemVer(4, 0, 1),
            container_runtime_path="$HOME/udocker/udocker",
            module_loads=("openmpi/4.0.1",),
            interconnect="infiniband",
            partition="gpu",
            account=None,
            default_mounts=(("/scratch", "/scratch"),),
            extra=(("site", "x"),),
        ),
    ),
    (
        EnvironmentSpec,
        dict(
            base_image="nvidia/cuda:latest",
            strategy="entrypoint",
            horovod_version="0.19.0",
            openmpi_version=SemVer(4, 0, 1),
            system_packages=("git",),
            code_copies=(("src", "/workspace"),),
            entrypoint_path="/opt/entrypoint.sh",
            registry="docker.io",
        ),
    ),
    (
        JobRequest,
        dict(
            nodes=2,
            gpus_per_node=2,
            container_name="tfbench",
            image_ref="nvidia/cuda:latest",
            workdir_mount=("$PWD", "/workdir"),
            user_command=("python", "train.py"),
            job_name="job",
            walltime="01:00:00",
            extra_env={"FOO": "bar"},
        ),
    ),
    (
        LaunchPlan,
        dict(
            total_ranks=4,
            slots_per_node=2,
            mpirun_args=("-np", "4"),
            env_exports={"PATH": None},
            udocker_run_args=("tfbench",),
            scheduler_directives=(("nodes", "2"),),
        ),
    ),
    (JobScript, dict(text="#!/bin/sh\n")),
    (
        SmellFinding,
        dict(rule_id="P1", line=1, message="m", suggestion="s"),
    ),
    (SmellReport, dict(findings=())),
    (ModelSpec, MODEL),
    (ScalingInputs, SCALING),
    (
        ScalingEstimate,
        dict(
            predicted_images_per_sec=700.0,
            speedup=1.8,
            comm_seconds_per_step=0.1,
            comp_seconds_per_step=0.6,
        ),
    ),
    (BenchRun, dict(gpus=2, samples=(1.0, 2.0), warmup_count=1)),
    (BenchSummary, dict(mean=1.5, ci95_half_width=0.5, n=2)),
    (InstallerConfig, dict(openmpi_install="a", horovod_install="b")),
    (
        ReconcilePlan,
        dict(image_ref="x:ompi4.0", runtime_args=(), match_note="n"),
    ),
    (RankResult, dict(rank=0, exit_code=0, stdout="RANK=0\n", error=None)),
]
# records with a dict field cannot be hashed
UNHASHABLE = {JobRequest, LaunchPlan}
# every field has a default
ALL_DEFAULTED = {InstallerConfig}
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, values", RECORDS, ids=IDS)
class TestEveryRecord:
    def test_repr_lists_fields_in_order(self, cls, values):
        fields = ", ".join(f"{k}={v!r}" for k, v in values.items())
        assert repr(cls(**values)) == f"{cls.__name__}({fields})"

    def test_positional_and_keyword_construction_agree(self, cls, values):
        record = cls(*values.values())
        assert record == cls(**values)
        for name, value in values.items():
            assert getattr(record, name) == value

    def test_equality_and_hash(self, cls, values):
        a, b = cls(**values), cls(**values)
        assert a == b and not a != b
        assert a != tuple(values.values())
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert {a: 1}[b] == 1

    def test_copy_and_pickle_keep_every_field(self, cls, values):
        record = cls(**values)
        for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
            assert type(twin) is cls
            assert {name: getattr(twin, name) for name in values} == values

    def test_fields_are_frozen(self, cls, values):
        record = cls(**values)
        for name, value in values.items():
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1
        assert record == cls(**values)

    def test_wrong_arguments_are_type_errors(self, cls, values):
        first = next(iter(values))
        missing = {k: v for k, v in values.items() if k != first}
        if cls in ALL_DEFAULTED:
            assert getattr(cls(**missing), first) == getattr(cls(), first)
        else:
            with pytest.raises(TypeError):
                cls(**missing)
        with pytest.raises(TypeError):
            cls(**values, not_a_field=1)
        with pytest.raises(TypeError):
            cls(*values.values(), 1)
        with pytest.raises(TypeError):
            cls(values[first], **values)


class TestUncomparedFields:
    @pytest.mark.parametrize(
        "a, b",
        [
            (Instruction("RUN", "x", line_span=(1, 1)), Instruction("RUN", "x", line_span=(5, 9))),
            (DockerfileAst((), source_name="a"), DockerfileAst((), source_name=None)),
            (SemVer(4, 0, 0, patch_specified=False), SemVer(4, 0, 0)),
        ],
        ids=["line_span", "source_name", "patch_specified"],
    )
    def test_ignored_by_equality_and_hash(self, a, b):
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_compared_fields_still_count(self):
        assert Instruction("RUN", "x") != Instruction("RUN", "y")
        assert DockerfileAst(()) != DockerfileAst((Instruction("FROM", "a"),))
        assert SemVer(4, 0, 1) != SemVer(4, 0, 2)


class TestDerivedFacts:
    """A fact that one field holds is read from it, not held in a second field."""

    def test_exec_form_is_read_from_args(self):
        assert exec_tokens(Instruction("CMD", '["a", "b"]')) == ["a", "b"]
        assert exec_tokens(Instruction("CMD", "[a")) is None
        assert exec_tokens(Instruction("LABEL", '["a"]')) is None

    def test_severity_is_the_rules(self):
        assert [SmellFinding(r, 1, "m", "s").severity for r in RULES] == list(RULES.values())

    def test_env_is_read_from_stdout(self):
        stdout = "A=1\nnot a pair\nB=x=y\r\nA=2\n"
        assert RankResult(0, 0, stdout).env == {"A": "2", "B": "x=y"}
        assert RankResult(0, 127, error="spawn failed").env == {}


class TestDefaults:
    def test_declared_defaults(self):
        instr = Instruction("RUN", "x")
        assert instr.line_span == (0, 0)
        assert DockerfileAst(()).source_name is None
        assert SemVer(1, 2) == SemVer(1, 2, 0)
        assert ImageRef("ubuntu") == ImageRef("ubuntu", None, None)
        assert RankResult(0, 0).stdout == ""
        assert InstallerConfig() == DEFAULT_INSTALLERS

    def test_semver_repr(self):
        assert repr(SemVer(1, 2)) == "SemVer(major=1, minor=2, patch=0, patch_specified=True)"

    def test_job_requests_do_not_share_extra_env(self):
        base = {k: v for k, v in dict(RECORDS)[JobRequest].items() if k != "extra_env"}
        a, b = JobRequest(**base), JobRequest(**base)
        assert a.extra_env == {} and b.extra_env == {}
        a.extra_env["FOO"] = "bar"
        assert b.extra_env == {}
        assert JobRequest(**base).extra_env == {}


class TestValidation:
    # tests/test_perf.py covers every other ModelSpec and ScalingInputs check
    def test_scaling_inputs_rejects_zero_gpus_per_node(self):
        with pytest.raises(ValueError, match="gpus_per_node"):
            ScalingInputs(**{**SCALING, "gpus_per_node": 0})


class TestReplace:
    def test_copy_with_changes(self):
        ref = ImageRef("nvidia/cuda", "10.1")
        assert ref.replace(tag="latest") == ImageRef("nvidia/cuda", "latest")
        assert ref == ImageRef("nvidia/cuda", "10.1")
        with pytest.raises(TypeError):
            ref.replace(not_a_field=1)

    def test_revalidates(self):
        with pytest.raises(ValueError):
            ModelSpec(**MODEL).replace(param_count=0)
