"""Command-line entry point.

Subcommands follow a ``hpcflow <noun> <verb>`` grammar covering the whole
workflow: validate a cluster profile, generate and lint the image inputs,
plan a batch job, preview or mock-execute the command sequences, and
predict or summarize scaling.

Exit codes: 0 success, 1 operational error, 2 usage error, 3 lint errors
present (lint subcommand only).
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

# Each command imports the layers it runs, so a cold start loads only those.
from hpcflow.errors import HpcflowError, ImageRef

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_LINT = 3


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{text!r} must be >= {minimum}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _env_pair(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"{text!r} is not KEY=VALUE")
    key, _, value = text.partition("=")
    return key, value


def _mount_pair(text: str) -> tuple[str, str]:
    src, sep, dst = text.partition(":")
    if not sep or not src or not dst:
        raise argparse.ArgumentTypeError(f"{text!r} is not host:container")
    return src, dst


def _gpus_log_pair(text: str) -> tuple[int, str]:
    gpus, sep, path = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"{text!r} is not GPUS:PATH")
    try:
        count = int(gpus)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{gpus!r} is not an integer GPU count") from None
    if count < 1:
        raise argparse.ArgumentTypeError("GPU count must be >= 1")
    return count, path


def _tag_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _default_container_name(image_ref: str) -> str:
    name = re.sub(r"[^A-Za-z0-9_.-]", "-", ImageRef.parse(image_ref).name)
    return name.lstrip("._-") or "container"


def _read_text(path: str) -> str:
    try:
        # a leading byte-order mark is dropped, as BuildKit does
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise HpcflowError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load_profile(path: str):
    from hpcflow.profiles import parse_cluster_profile

    return parse_cluster_profile(_read_text(path))


def cmd_profile_validate(args: argparse.Namespace) -> int:
    from hpcflow.profiles import validate_profile

    profile = _load_profile(args.path)
    issues = validate_profile(profile)
    for issue in issues:
        print(f"{issue.severity}: {issue.message}")
    if not issues and not args.machine:
        print(f"profile {profile.name}: OK")
    return EXIT_ERROR if any(i.severity == "error" for i in issues) else EXIT_OK


def cmd_image_gen(args: argparse.Namespace) -> int:
    from hpcflow import dockerfile, recon
    from hpcflow.profiles import parse_env_spec

    spec = parse_env_spec(_read_text(args.spec))
    ast = dockerfile.generate_dockerfile(spec)
    out = Path(args.out)
    texts = {out: dockerfile.render_dockerfile(ast)}
    if spec.strategy == "entrypoint":
        assert spec.entrypoint_path is not None
        script_path = out.parent / Path(spec.entrypoint_path).name
        if script_path == out:
            raise HpcflowError(
                f"--out {out} is also the path of the entrypoint script; choose another name"
            )
        texts[script_path] = recon.generate_entrypoint()
    for path, text in texts.items():
        path.write_text(text, encoding="utf-8")
    for path in texts:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_image_lint(args: argparse.Namespace) -> int:
    from hpcflow import dockerfile, lint

    ast = dockerfile.parse_dockerfile(_read_text(args.path), source_name=args.path)
    report = lint.lint(ast)
    if args.machine:
        sys.stdout.write(lint.machine_report(report))
    else:
        for finding in report.findings:
            print(
                f"{args.path}:{finding.line}: {finding.rule_id} "
                f"[{finding.severity}] {finding.message}"
            )
            print(f"    fix: {finding.suggestion}")
        counts = report.counts
        print(
            f"{counts['error']} error(s), {counts['warning']} warning(s), "
            f"{counts['info']} info"
        )
    return EXIT_LINT if report.counts["error"] else EXIT_OK


def _reconcile_from_args(args: argparse.Namespace):
    from hpcflow import recon
    from hpcflow.profiles import parse_env_spec, validate_profile

    profile = _load_profile(args.profile)
    errors = [i.message for i in validate_profile(profile) if i.severity == "error"]
    if errors:  # one ``error:`` line each; ``main`` prints the last
        for message in errors[:-1]:
            print(f"error: {message}", file=sys.stderr)
        raise HpcflowError(errors[-1])
    spec = parse_env_spec(_read_text(args.spec))
    tags = _tag_list(args.tags) if args.tags else None
    return profile, recon.reconcile(spec, profile, available_tags=tags)


def cmd_job_gen(args: argparse.Namespace) -> int:
    from hpcflow import launch, runner

    profile, plan = _reconcile_from_args(args)
    container_name = args.container_name or _default_container_name(plan.image_ref)
    request = launch.JobRequest(
        nodes=args.nodes,
        gpus_per_node=args.gpus_per_node,
        container_name=container_name,
        image_ref=plan.image_ref,
        workdir_mount=args.workdir,
        user_command=tuple(args.user_command),
        job_name=args.job_name,
        walltime=args.walltime,
        extra_env=dict(args.env or []),
    )
    launch_plan = launch.plan_launch(profile, plan, request)
    script = launch.render_job_script(launch_plan, profile, request)
    out = Path(args.out)
    out.write_text(script.text, encoding="utf-8")
    setup_path = out.parent / f"{out.stem}_setup.sh"
    setup_lines = runner.dry_run(launch.render_udocker_setup(plan, container_name))
    setup_path.write_text("\n".join(setup_lines) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    print(f"wrote {setup_path}")
    return EXIT_OK


def cmd_run_dry(args: argparse.Namespace) -> int:
    from hpcflow import launch, runner

    _, plan = _reconcile_from_args(args)
    container_name = args.container_name or _default_container_name(plan.image_ref)
    for line in runner.dry_run(launch.render_udocker_setup(plan, container_name)):
        print(line)
    return EXIT_OK


def cmd_run_mock(args: argparse.Namespace) -> int:
    from hpcflow import launch, runner

    plan = launch.grid_plan(args.nodes, args.gpus_per_node, dict(args.env or []))
    command = list(args.user_command) or runner.env_dump_command()
    results = runner.mock_run_ranks(plan, command)
    print("rank node local exit")
    for result in results:
        node = result.env.get("NODE_INDEX", "?")
        local = result.env.get("LOCAL_RANK", "?")
        print(f"{result.rank} {node} {local} {result.exit_code}")
    for result in results:
        if result.exit_code != 0:
            reason = result.error or f"exit {result.exit_code}"
            print(f"error: rank {result.rank}: {reason}", file=sys.stderr)
    return EXIT_OK if runner.all_ranks_succeeded(results) else EXIT_ERROR


def cmd_perf_predict(args: argparse.Namespace) -> int:
    from hpcflow import perf

    if args.ideal:
        link_bandwidth = intra_bandwidth = math.inf
        link_latency = 0.0
    else:
        link_bandwidth = args.link_bandwidth
        intra_bandwidth = args.intra_bandwidth
        if intra_bandwidth is None:
            intra_bandwidth = link_bandwidth
        link_latency = args.link_latency
    try:
        model = perf.ModelSpec(
            name="model",
            param_count=args.params,
            batch_per_gpu=args.batch_per_gpu,
            bytes_per_param=args.bytes_per_param,
        )
        inputs = perf.ScalingInputs(
            model=model,
            single_gpu_images_per_sec=args.single_gpu_ips,
            link_bandwidth=link_bandwidth,
            link_latency=link_latency,
            gpus_per_node=args.gpus_per_node,
            intra_node_bandwidth=intra_bandwidth,
        )
        estimates = [perf.predict(inputs, p) for p in range(1, args.p_max + 1)]
    except ValueError as exc:
        raise HpcflowError(str(exc)) from None
    print("gpus,images_per_sec,speedup,comm_seconds,comp_seconds")
    for p, est in enumerate(estimates, start=1):
        print(
            f"{p},{est.predicted_images_per_sec:.6g},{est.speedup:.6g},"
            f"{est.comm_seconds_per_step:.6g},{est.comp_seconds_per_step:.6g}"
        )
    return EXIT_OK


def cmd_bench_report(args: argparse.Namespace) -> int:
    from hpcflow import perf

    runs = []
    for gpus, path in args.runs:
        runs.append(perf.parse_bench_log(_read_text(path), args.warmup, gpus=gpus))
    try:
        speedups = perf.speedup_table(runs)
        summaries = [perf.summarize(run) for run in sorted(runs, key=lambda r: r.gpus)]
    except ValueError as exc:
        raise HpcflowError(str(exc)) from None
    print("gpus,mean,ci95,speedup")
    for summary, (gpus, speedup) in zip(summaries, speedups):
        ci95 = "" if summary.ci_undefined else f"{summary.ci95_half_width:.6g}"
        print(f"{gpus},{summary.mean:.6g},{ci95},{speedup:.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpcflow",
        description=(
            "Generate, validate, and plan the artifacts of a container-based "
            "distributed-training workflow for HPC clusters."
        ),
    )
    nouns = parser.add_subparsers(dest="noun", required=True)

    profile = nouns.add_parser("profile", help="cluster profile operations")
    profile_verbs = profile.add_subparsers(dest="verb", required=True)
    validate = profile_verbs.add_parser("validate", help="parse and validate a profile")
    validate.add_argument("path")
    validate.add_argument("--machine", action="store_true", help="issue lines only")
    validate.set_defaults(func=cmd_profile_validate)

    image = nouns.add_parser("image", help="image input generation and linting")
    image_verbs = image.add_subparsers(dest="verb", required=True)
    gen = image_verbs.add_parser("gen", help="generate Dockerfile (and entrypoint script)")
    gen.add_argument("--spec", required=True, help="environment spec file")
    gen.add_argument("--out", required=True, help="output Dockerfile path")
    gen.set_defaults(func=cmd_image_gen)
    lint_cmd = image_verbs.add_parser("lint", help="report Dockerfile smells")
    lint_cmd.add_argument("path")
    lint_cmd.add_argument(
        "--machine", action="store_true", help="rule_id:severity:line:message lines"
    )
    lint_cmd.set_defaults(func=cmd_image_lint)

    job = nouns.add_parser("job", help="batch job planning")
    job_verbs = job.add_subparsers(dest="verb", required=True)
    job_gen = job_verbs.add_parser("gen", help="render batch script + setup commands")
    job_gen.add_argument("--profile", required=True)
    job_gen.add_argument("--spec", required=True)
    job_gen.add_argument("--nodes", type=_positive_int, required=True)
    job_gen.add_argument("--gpus-per-node", type=_positive_int, required=True)
    job_gen.add_argument("--out", required=True, help="output job script path")
    job_gen.add_argument("--workdir", type=_mount_pair, default=("$PWD", "/workdir"))
    job_gen.add_argument("--job-name", default="hpcflow-job")
    job_gen.add_argument("--walltime", default="01:00:00")
    job_gen.add_argument("--container-name", default=None)
    job_gen.add_argument("--tags", default=None, help="available image tags (tags strategy)")
    job_gen.add_argument("--env", action="append", type=_env_pair, metavar="KEY=VALUE")
    job_gen.set_defaults(func=cmd_job_gen)

    run = nouns.add_parser("run", help="preview or mock-execute commands")
    run_verbs = run.add_subparsers(dest="verb", required=True)
    dry = run_verbs.add_parser("dry", help="print the container setup transcript")
    dry.add_argument("--profile", required=True)
    dry.add_argument("--spec", required=True)
    dry.add_argument("--container-name", default=None)
    dry.add_argument("--tags", default=None)
    dry.set_defaults(func=cmd_run_dry)
    mock = run_verbs.add_parser("mock", help="run the rank grid with local processes")
    mock.add_argument("--nodes", type=_positive_int, required=True)
    mock.add_argument("--gpus-per-node", type=_positive_int, required=True)
    mock.add_argument("--env", action="append", type=_env_pair, metavar="KEY=VALUE")
    mock.set_defaults(func=cmd_run_mock)

    perf_cmd = nouns.add_parser("perf", help="scaling prediction")
    perf_verbs = perf_cmd.add_subparsers(dest="verb", required=True)
    predict = perf_verbs.add_parser("predict", help="CSV speedup table for 1..P workers")
    predict.add_argument("--params", type=_positive_int, required=True)
    predict.add_argument("--batch-per-gpu", type=_positive_int, required=True)
    predict.add_argument("--single-gpu-ips", type=float, required=True)
    predict.add_argument("--bytes-per-param", type=_positive_int, default=4)
    predict.add_argument("--link-bandwidth", type=float, default=1.25e9)
    predict.add_argument("--link-latency", type=float, default=5e-6)
    predict.add_argument("--gpus-per-node", type=_positive_int, default=2)
    predict.add_argument("--intra-bandwidth", type=float, default=None)
    predict.add_argument("--p-max", type=_positive_int, default=6)
    predict.add_argument(
        "--ideal", action="store_true", help="zero communication cost (ideal speedup)"
    )
    predict.set_defaults(func=cmd_perf_predict)

    bench = nouns.add_parser("bench", help="benchmark statistics")
    bench_verbs = bench.add_subparsers(dest="verb", required=True)
    report = bench_verbs.add_parser("report", help="summarize runs as CSV")
    report.add_argument("runs", nargs="+", type=_gpus_log_pair, metavar="GPUS:LOGPATH")
    report.add_argument("--warmup", type=_int_at_least(0), default=0)
    report.set_defaults(func=cmd_bench_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if "--" in argv:
        split = argv.index("--")
        argv, user_command = argv[:split], argv[split + 1 :]
    else:
        user_command = []
    parser = build_parser()
    args = parser.parse_args(argv)
    if user_command and args.func not in (cmd_job_gen, cmd_run_mock):
        parser.error(f"'{args.noun} {args.verb}' takes no command after '--'")
    args.user_command = user_command
    try:
        return args.func(args)
    except (HpcflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
