"""The three workloads: their ops, how each op is run, and how it is checked.

An op of a CLI workload is one ``hpcflow <noun> <verb>`` invocation.  It
runs either as a child process (the untraced, end-to-end measurement) or
in-process through ``hpcflow.cli.main`` (the traced replay); both go
through the same check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import select
import shlex
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
# the console script's body, so the op starts the way an installed ``hpcflow`` does
CLI_PREFIX = [sys.executable, "-c", "import sys; from hpcflow.cli import entry; sys.exit(entry())"]
OP_DEADLINE_S = 60.0

# The grid shapes of each rank count, for ``run mock``.
MOCK_SHAPES = {1: [(1, 1)], 2: [(1, 2), (2, 1)], 4: [(2, 2), (1, 4)], 8: [(2, 4)]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


Check = Callable[[int, str, str], list[str]]


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Check
    meta: dict = field(default_factory=dict)


@dataclass
class OpResult:
    kind: str
    ms: float
    ok: bool
    problems: list[str]
    rss_kb: int = 0
    stdout: str = ""


# ------------------------------------------------------------ running ops

def _reap_group(pgid: int) -> None:
    """Kill a timed-out op's process group and wait until it is gone."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def spawn_op(op: Op, env: dict[str, str], scratch: Path, prefix: list[str] = CLI_PREFIX) -> OpResult:
    """Run ``prefix + op.argv`` as a child; time it from spawn to exit and check it."""
    out_path, err_path = scratch / "op.stdout", scratch / "op.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(
                prefix + op.argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=env, cwd=ROOT, start_new_session=True,
            )
        except OSError as exc:
            return OpResult(op.kind, (time.perf_counter() - start) * 1e3, False,
                            [f"spawn error: {exc}"])
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not select.select([pidfd], [], [], OP_DEADLINE_S)[0]
            if timed_out:
                _reap_group(proc.pid)
            _, status, usage = os.wait4(proc.pid, 0)
            ms = (time.perf_counter() - start) * 1e3
        finally:
            os.close(pidfd)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    if timed_out:
        problems = [f"timeout after {OP_DEADLINE_S:.0f} s"]
    else:
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        problems = op.check(code, stdout, stderr)
    return OpResult(op.kind, ms, not problems, problems, usage.ru_maxrss, stdout)


def call_op(op: Op, main, tracer=None, op_id: int | None = None) -> OpResult:
    """Run one op in this process through ``hpcflow.cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.op = op_id
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(op.argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed op, reported with its reason
            code = None
            crash = repr(exc)
    ms = (time.perf_counter() - start) * 1e3
    if tracer is not None:
        tracer.op = None
    if code is None:
        return OpResult(op.kind, ms, False, [f"raised {crash}"], stdout=out.getvalue())
    problems = op.check(code, out.getvalue(), err.getvalue())
    return OpResult(op.kind, ms, not problems, problems, stdout=out.getvalue())


# ------------------------------------------------------------ checks

def _expect(code: int, want_code: int, stderr: str, problems: list[str]) -> list[str]:
    if code != want_code:
        problems.insert(0, f"exit {code}, expected {want_code}")
    if stderr.strip():
        problems.append(f"stderr: {stderr.strip()[:200]}")
    return problems


def _diff(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {str(got)[:160]!r}, expected {str(want)[:160]!r}"]


def _split_lines(text: str) -> list[list[str]] | None:
    try:
        return [shlex.split(line) for line in text.splitlines()]
    except ValueError:
        return None


def check_validate(cluster: inputs.Cluster) -> Check:
    want = cluster.validate_stdout()
    return lambda code, out, err: _expect(code, 0, err, _diff("stdout", out, want))


def check_image_gen(spec: inputs.Spec, dockerfile: Path) -> Check:
    outputs = [dockerfile]
    if spec.strategy == "entrypoint":
        outputs.append(dockerfile.parent / Path(spec.entrypoint_path).name)
    want_out = "".join(f"wrote {p}\n" for p in outputs)

    def check(code, out, err):
        problems = _diff("stdout", out, want_out)
        try:
            lines = dockerfile.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            return _expect(code, 0, err, problems + [f"Dockerfile unreadable: {exc}"])
        problems += _diff("FROM line", lines[:1], [f"FROM {spec.normalized_base}"])
        required = [f"COPY {src} {dst}" for src, dst in spec.copies]
        if spec.strategy == "tags":
            required.append("ARG openmpi_version")
        if spec.strategy == "entrypoint":
            path = spec.entrypoint_path
            required += [
                f"COPY {Path(path).name} {path}",
                f"RUN chmod +x {path}",
                f"ENTRYPOINT {json.dumps([path])}",
                f"CMD {json.dumps([spec.openmpi, spec.horovod])}",
            ]
            script = outputs[1].read_text(encoding="utf-8") if outputs[1].exists() else ""
            if not script.startswith("#!/bin/sh\n"):
                problems.append("entrypoint script missing or without #!/bin/sh")
        problems += [f"missing Dockerfile line {line!r}" for line in required if line not in lines]
        run_words = {w for line in lines if line.startswith("RUN ") for w in line.split()}
        problems += [f"package {p} not installed" for p in spec.packages if p not in run_words]
        return _expect(code, 0, err, problems)

    return check


def job_problems(job: inputs.Job, script: str, setup: list[list[str]] | None) -> list[str]:
    """Compare a batch script and its setup commands with the closed form."""
    problems = []
    if job.golden is not None:
        problems += _diff("job script vs golden", script, job.golden)
    lines = script.split("\n")
    problems += _diff("job script lines", lines[:-2], job.job_lines())
    problems += _diff("launcher", _split_lines(lines[-2]) if len(lines) > 1 else None,
                      [job.launcher_tokens()])
    problems += _diff("job script end", lines[-1:], [""])
    problems += _diff("setup commands", setup, job.setup_commands())
    return problems


def check_job_gen(job: inputs.Job, job_sh: Path) -> Check:
    setup_sh = job_sh.parent / f"{job_sh.stem}_setup.sh"
    want_out = f"wrote {job_sh}\nwrote {setup_sh}\n"

    def check(code, out, err):
        problems = _diff("stdout", out, want_out)
        try:
            text = job_sh.read_text(encoding="utf-8")
            setup = setup_sh.read_text(encoding="utf-8")
        except OSError as exc:
            return _expect(code, 0, err, problems + [f"output unreadable: {exc}"])
        return _expect(code, 0, err, problems + job_problems(job, text, _split_lines(setup)))

    return check


def check_run_dry(job: inputs.Job) -> Check:
    want = job.setup_commands()
    return lambda code, out, err: _expect(code, 0, err, _diff("transcript", _split_lines(out), want))


def mock_table(nodes: int, gpus: int) -> str:
    rows = "".join(f"{r} {r // gpus} {r % gpus} 0\n" for r in range(nodes * gpus))
    return "rank node local exit\n" + rows


def rank_failures(stdout: str) -> int:
    """Ranks whose exit column in a ``run mock`` table is not 0."""
    failed = 0
    for line in stdout.splitlines()[1:]:
        fields = line.split()
        if len(fields) == 4 and fields[3] != "0":
            failed += 1
    return failed


def check_mock(nodes: int, gpus: int) -> Check:
    want = mock_table(nodes, gpus)
    return lambda code, out, err: _expect(code, 0, err, _diff("rank table", out, want))


def _csv_rows(out: str, header: str) -> tuple[list[list[float]] | None, list[str]]:
    lines = out.splitlines()
    if not lines or lines[0] != header:
        return None, [f"header {lines[:1]!r}, expected {header!r}"]
    try:
        return [[float(x) for x in line.split(",")] for line in lines[1:]], []
    except ValueError:
        return None, ["non-numeric CSV field"]


def _compare_rows(got: list[list[float]], want: list[tuple], rel: float) -> list[str]:
    if len(got) != len(want):
        return [f"{len(got)} rows, expected {len(want)}"]
    problems = []
    for g, w in zip(got, want):
        if len(g) != len(w) or not all(inputs.close(a, b, rel) for a, b in zip(g, w)):
            problems.append(f"row {g} differs from expected {list(w)}")
    return problems


def check_predict(model: inputs.Scaling) -> Check:
    want = [(p, *model.row(p)) for p in range(1, model.p_max + 1)]
    header = "gpus,images_per_sec,speedup,comm_seconds,comp_seconds"

    def check(code, out, err):
        rows, problems = _csv_rows(out, header)
        if rows is not None:
            problems = _compare_rows(rows, want, 1e-5)  # printed with 6 significant digits
        return _expect(code, 0, err, problems)

    return check


def check_bench(logs: list[inputs.BenchLog]) -> Check:
    want = inputs.expected_report(logs)

    def check(code, out, err):
        rows, problems = _csv_rows(out, "gpus,mean,ci95,speedup")
        if rows is not None:
            problems = _compare_rows(rows, want, 1e-5)
        return _expect(code, 0, err, problems)

    return check


def parse_machine_report(out: str) -> list[tuple[str, str, int]] | None:
    findings = []
    for line in out.splitlines():
        parts = line.split(":", 3)
        if len(parts) != 4 or not parts[2].isdigit() or not parts[3]:
            return None
        findings.append((parts[0], parts[1], int(parts[2])))
    return findings


def check_lint(case: inputs.DockerfileCase) -> Check:
    want = case.expected_findings()
    return lambda code, out, err: _expect(
        code, case.expected_exit(), err, _diff("findings", parse_machine_report(out), want))


# ------------------------------------------------------------ job_lifecycle

@dataclass
class JobInputs:
    job: inputs.Job
    grid: tuple[int, int]
    model: inputs.Scaling
    logs: list[inputs.BenchLog]


# The work of each job slot: (ranks of the mock grid, GPU counts in the bench
# report, samples per log, p_max of the prediction).  Fixed per slot, so the
# jobs of every seed do the same work; the seed picks only the values.
JOB_SLOTS = ((1, 3, 10, 4), (2, 4, 32, 8), (4, 5, 100, 16), (8, 6, 316, 6),
             (2, 3, 1000, 12), (4, 6, 1000, 16))


def plan_jobs(seed: int) -> list[JobInputs]:
    """Two fixture jobs plus four generated ones that cycle the strategies."""
    rng = random.Random(f"job_lifecycle:{seed}")
    jobs = inputs.fixture_jobs(FIXTURES) + inputs.generated_jobs(rng, len(JOB_SLOTS) - 2)
    rng.shuffle(jobs)
    planned = []
    for job, (ranks, counts, samples, p_max) in zip(jobs, JOB_SLOTS):
        grid = rng.choice(MOCK_SHAPES[ranks])
        warmup = rng.randrange(0, 6)
        logs = [inputs.bench_log(rng, gpus, samples + warmup, warmup)
                for gpus in (1, 2, 4, 8, 16, 32)[:counts]]
        planned.append(JobInputs(job, grid, inputs.scaling(rng, p_max), logs))
    return planned


def job_ops(planned: JobInputs, jobdir: Path) -> list[Op]:
    """Write one job's inputs; return the user's CLI sequence for it.

    Validate the profile, generate the image and the batch script,
    preview the setup, mock the rank grid, predict the scaling and report
    the benchmark logs: seven ops, one per step.
    """
    job = planned.job
    (jobdir / "out").mkdir(parents=True, exist_ok=True)
    (jobdir / "logs").mkdir(exist_ok=True)
    profile, spec = jobdir / "cluster.profile", jobdir / "env.spec"
    profile.write_text(job.profile_text or job.cluster.render(), encoding="utf-8")
    spec.write_text(job.spec_text or job.spec.render(), encoding="utf-8")
    dockerfile, job_sh = jobdir / "out" / "Dockerfile", jobdir / "out" / "job.sh"
    tags = ["--tags", ",".join(job.tags)] if job.tags else []
    env = [x for k, v in job.env for x in ("--env", f"{k}={v}")]
    ops = [
        Op("profile validate", ["profile", "validate", str(profile)], check_validate(job.cluster)),
        Op("image gen", ["image", "gen", "--spec", str(spec), "--out", str(dockerfile)],
           check_image_gen(job.spec, dockerfile)),
        Op("job gen", [
            "job", "gen", "--profile", str(profile), "--spec", str(spec),
            "--nodes", str(job.nodes), "--gpus-per-node", str(job.gpus_per_node),
            "--out", str(job_sh), "--job-name", job.job_name, "--walltime", job.walltime,
            "--container-name", job.container, *tags, *env, "--", *job.user_command,
        ], check_job_gen(job, job_sh)),
        Op("run dry", ["run", "dry", "--profile", str(profile), "--spec", str(spec),
                       "--container-name", job.container, *tags], check_run_dry(job)),
    ]
    nodes, gpus = planned.grid
    ops.append(Op("run mock", ["run", "mock", "--nodes", str(nodes), "--gpus-per-node", str(gpus)],
                  check_mock(nodes, gpus), {"ranks": nodes * gpus}))
    ops.append(Op("perf predict", planned.model.argv(), check_predict(planned.model)))
    log_args = []
    for log in planned.logs:
        path = jobdir / "logs" / f"g{log.gpus}.log"
        path.write_text(log.text(), encoding="utf-8")
        log_args.append(f"{log.gpus}:{path}")
    ops.append(Op("bench report", ["bench", "report", "--warmup", str(planned.logs[0].warmup),
                                   *log_args], check_bench(planned.logs)))
    return ops


def job_lifecycle_rounds(seed: int, work: Path) -> list[list[Op]]:
    return [job_ops(p, work / f"job{i}") for i, p in enumerate(plan_jobs(seed))]


# ------------------------------------------------------------ lint_ladder

# One round of the ladder: corpus-sized files, where start-up is the cost,
# are two thirds of it, so the median op is one of them; one file on each
# rung above, and three on the top command rung, so that the slowest ops,
# with at least ten beyond the tail percentile, are top-rung lints.  The
# round starts with a corpus file, the one the set-up runs once.
CORPUS_FILES_PER_ROUND = 20
INSTRUCTION_RUNGS = (125, 500, 2000, 8000)
COMMAND_RUNGS = (25, 100, 400, 1600)
TOP_RUNG_FILES = 3
LINT_ROUNDS = 3


def lint_cases(seed: int, smoke: bool = False) -> list[list[inputs.DockerfileCase]]:
    rng = random.Random(f"lint_ladder:{seed}")
    cap = 500 if smoke else None
    rounds = []
    for r in range(LINT_ROUNDS):
        cases = [
            inputs.instruction_dockerfile(rng, f"r{r}_corpus{i}", 6 + i % 8)
            for i in range(CORPUS_FILES_PER_ROUND)
        ]
        cases += [inputs.instruction_dockerfile(rng, f"r{r}_instr{n}", n)
                  for n in INSTRUCTION_RUNGS if cap is None or n <= cap]
        cases += [inputs.run_dockerfile(rng, f"r{r}_run{n}_{i}", n)
                  for n in COMMAND_RUNGS if cap is None or n <= cap // 4
                  for i in range(TOP_RUNG_FILES if n == COMMAND_RUNGS[-1] else 1)]
        rounds.append(cases)
    return rounds


def lint_rounds(seed: int, work: Path, smoke: bool = False) -> list[list[Op]]:
    work.mkdir(parents=True, exist_ok=True)
    rounds = []
    for cases in lint_cases(seed, smoke):
        ops = []
        for case in cases:
            path = work / f"{case.name}.dockerfile"
            path.write_text(case.text, encoding="utf-8")
            meta = {"ladder": case.ladder, "instructions": case.instructions,
                    "run_commands": case.run_commands}
            ops.append(Op("image lint", ["image", "lint", "--machine", str(path)],
                          check_lint(case), meta))
        rounds.append(ops)
    return rounds


# ------------------------------------------------------------ library_batch

SAMPLE_LADDER = (10, 32, 100, 316, 1000)


def library_plan(seed: int) -> tuple[list[dict], list[dict]]:
    """Call chains for the warm worker, and what each must return.

    A round holds corpus-sized lint chains, one job chain per job of the
    lifecycle workload, bench-log chains on every rung of the sample
    ladder, and two scaling tables for p = 1..64.
    """
    rng = random.Random(f"library_batch:{seed}")
    ops, expected = [], []
    for i in range(12):  # sizes 6..13 in a fixed mix, so the seed changes content, not cost
        case = inputs.instruction_dockerfile(rng, f"lib{i}", 6 + i % 8)
        ops.append({"kind": "lint", "text": case.text})
        expected.append({"kind": "lint", "findings": case.expected_findings()})
    for planned in plan_jobs(seed):
        job = planned.job
        ops.append({
            "kind": "job",
            "profile": job.profile_text or job.cluster.render(),
            "spec": job.spec_text or job.spec.render(),
            "tags": list(job.tags) if job.tags else None,
            "request": {
                "nodes": job.nodes, "gpus_per_node": job.gpus_per_node,
                "container_name": job.container, "job_name": job.job_name,
                "walltime": job.walltime, "extra_env": dict(job.env),
                "user_command": list(job.user_command),
            },
        })
        expected.append({"kind": "job", "job": job})
    for samples in SAMPLE_LADDER:
        warmup = rng.randrange(0, 6)
        log = inputs.bench_log(rng, rng.choice((1, 2, 4, 8)), samples + warmup, warmup)
        ops.append({"kind": "bench", "text": log.text(), "warmup": warmup, "gpus": log.gpus})
        expected.append({"kind": "bench", "summary": inputs.expected_summary(log)})
    for _ in range(2):
        model = inputs.scaling(rng, 64)
        ops.append({"kind": "predict", "model": {
            "params": model.params, "batch": model.batch, "ips": model.ips,
            "bytes_per_param": model.bytes_per_param, "ideal": model.ideal,
            "link_bandwidth": model.link_bandwidth, "link_latency": model.link_latency,
            "gpus_per_node": model.gpus_per_node,
            "intra_bandwidth": model.intra_bandwidth, "p_max": model.p_max,
        }})
        expected.append({"kind": "predict", "rows": [model.row(p) for p in range(1, 65)]})
    order = list(range(len(ops)))
    rng.shuffle(order)
    return [ops[i] for i in order], [expected[i] for i in order]


def check_library_output(expected: dict, output) -> list[str]:
    """Compare one chain's output (as the worker sent it) with expectations."""
    kind = expected["kind"]
    if isinstance(output, dict) and "error" in output:
        return [f"{kind} chain raised {output['error']}"]
    if kind == "lint":
        return _diff("findings", parse_machine_report(output), expected["findings"])
    if kind == "job":
        job = expected["job"]
        problems = job_problems(job, output["script"], output["setup"])
        problems += _diff("FROM line", output["dockerfile"].split("\n", 1)[0],
                          f"FROM {job.spec.normalized_base}")
        problems += _diff("entrypoint script", output["entrypoint"],
                          job.spec.strategy == "entrypoint")
        return problems
    if kind == "bench":
        mean, ci, n = expected["summary"]
        got_mean, got_ci, got_n = output
        if got_n != n or not inputs.close(got_mean, mean, 1e-9) or not inputs.close(got_ci, ci, 1e-9):
            return [f"summary {output} differs from expected {[mean, ci, n]}"]
        return []
    return _compare_rows(output, expected["rows"], 1e-9)
