"""Command-line entry point.

Subcommands follow a ``hpcflow <noun> <verb>`` grammar covering the whole
workflow: validate a cluster profile, generate and lint the image inputs,
plan a batch job, preview or mock-execute the command sequences, and
predict or summarize scaling.

Exit codes: 0 success, 1 operational error, 2 usage error, 3 lint errors
present (lint subcommand only).
"""

from __future__ import annotations

import gc
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

# Each command imports the layers it runs, so a cold start loads only those.
from hpcflow.errors import HpcflowError, one_line, read_float, read_int

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_LINT = 3


def _type_error(message: str) -> Exception:
    """The error an argument type raises, which argparse reports as a usage error."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _argument(read, *bounds: int):
    """``read`` as an argument type: the ``ValueError`` it raises is a usage error."""

    def parse(text: str):
        try:
            return read(text, *bounds)
        except ValueError as exc:
            raise _type_error(str(exc)) from None

    return parse


_positive_int = _argument(read_int, 1)
_number = _argument(read_float)


def _env_pair(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise _type_error(f"{text!r} is not KEY=VALUE")
    key, _, value = text.partition("=")
    return key, value


def _mount_pair(text: str) -> tuple[str, str]:
    src, sep, dst = text.partition(":")
    if not sep or not src or not dst:
        raise _type_error(f"{text!r} is not host:container")
    return src, dst


def _gpus_log_pair(text: str) -> tuple[int, str]:
    gpus, sep, path = text.partition(":")
    if not sep:
        raise _type_error(f"{text!r} is not GPUS:PATH")
    try:
        return read_int(gpus, 1), path
    except ValueError as exc:
        raise _type_error(f"GPU count {exc}") from None


def _tag_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _read_text(path: str) -> str:
    try:
        # line ends as written; a leading byte-order mark is dropped, as BuildKit does
        return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
    raise HpcflowError(f"{one_line(path)}: {reason}")


def _write_files(texts: dict[Path, str]) -> None:
    """Write every file, or none: a failed write puts back the bytes of each
    file this call overwrote and removes each file it created."""
    undo: list[tuple[Path, bytes | None]] = []  # bytes to write back, or None to remove
    try:
        for path, text in texts.items():
            try:
                old = path.read_bytes()
            except OSError:  # none there, or unreadable: removed again once written
                old = None
            if old is not None:  # put back even if this write fails part way
                undo.append((path, old))
            # argv that is not UTF-8 arrives as surrogates; its bytes pass through as they are
            path.write_text(text, encoding="utf-8", errors="surrogateescape")
            if old is None:
                undo.append((path, None))
    except OSError:
        for path, old in undo:
            if old is None:
                path.unlink(missing_ok=True)
            else:  # in place, so its mode bits and a symlink stay as they were
                path.write_bytes(old)
        raise
    for path in texts:
        print(f"wrote {one_line(str(path))}")


def _load_profile(path: str):
    from hpcflow.profiles import parse_cluster_profile

    return parse_cluster_profile(_read_text(path))


def cmd_profile_validate(args: SimpleNamespace) -> int:
    from hpcflow.profiles import validate_profile

    profile = _load_profile(args.path)
    warnings = validate_profile(profile)
    for warning in warnings:
        print(f"warning: {warning}")
    if not warnings and not args.machine:
        print(f"profile {profile.name}: OK")
    return EXIT_OK


def cmd_image_gen(args: SimpleNamespace) -> int:
    from hpcflow import dockerfile, recon
    from hpcflow.profiles import parse_env_spec

    spec = parse_env_spec(_read_text(args.spec))
    ast = dockerfile.generate_dockerfile(spec)
    out = Path(args.out)
    texts = {out: dockerfile.render_dockerfile(ast)}
    if spec.strategy == "entrypoint":
        script_path = out.parent / Path(spec.entrypoint_path).name
        if script_path == out:
            reason = "is also the path of the entrypoint script; choose another name"
            raise HpcflowError(f"--out {one_line(str(out))} {reason}")
        texts[script_path] = recon.generate_entrypoint()
    _write_files(texts)
    return EXIT_OK


def cmd_image_lint(args: SimpleNamespace) -> int:
    from hpcflow import dockerfile, lint

    ast = dockerfile.parse_dockerfile(_read_text(args.path), source_name=args.path)
    report = lint.lint(ast)
    if args.machine:
        sys.stdout.write(lint.machine_report(report))
    else:
        path = one_line(args.path)  # a line break in the path would split a finding
        for finding in report.findings:
            print(
                f"{path}:{finding.line}: {finding.rule_id} "
                f"[{finding.severity}] {finding.message}"
            )
            print(f"    fix: {finding.suggestion}")
        severities = [finding.severity for finding in report.findings]
        print(
            f"{severities.count('error')} error(s), {severities.count('warning')} warning(s), "
            f"{severities.count('info')} info"
        )
    return EXIT_LINT if any(f.severity == "error" for f in report.findings) else EXIT_OK


def _reconcile_from_args(args: SimpleNamespace):
    """The profile, the plan that reconciles the spec with it, and the container
    name, ``--container-name`` or the image's default.  The profile's readers
    refuse a fault with its line, as for ``profile validate``; the warnings of
    ``validate_profile`` are not printed."""
    from hpcflow import launch, recon
    from hpcflow.profiles import parse_env_spec

    profile = _load_profile(args.profile)
    spec = parse_env_spec(_read_text(args.spec))
    tags = _tag_list(args.tags) if args.tags else None
    plan = recon.reconcile(spec, profile, available_tags=tags)
    return profile, plan, args.container_name or launch.default_container_name(plan.image_ref)


def cmd_job_gen(args: SimpleNamespace) -> int:
    from hpcflow import launch, runner

    profile, plan, container_name = _reconcile_from_args(args)
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
    setup_lines = runner.dry_run(launch.render_udocker_setup(plan, container_name))
    setup_text = "\n".join(setup_lines) + "\n"
    _write_files({out: script.text, out.parent / f"{out.stem}_setup.sh": setup_text})
    return EXIT_OK


def cmd_run_dry(args: SimpleNamespace) -> int:
    from hpcflow import launch, runner

    _, plan, container_name = _reconcile_from_args(args)
    for line in runner.dry_run(launch.render_udocker_setup(plan, container_name)):
        print(line)
    return EXIT_OK


def cmd_run_mock(args: SimpleNamespace) -> int:
    from hpcflow import launch, runner

    plan = launch.grid_plan(args.nodes, args.gpus_per_node, dict(args.env or []))
    command = list(args.user_command) or runner.env_dump_command()
    results = runner.mock_run_ranks(plan, command)
    print("rank node local exit")
    for result in results:
        env = result.env  # read from the rank's own output
        node = one_line(env.get("NODE_INDEX", "?"))
        local = one_line(env.get("LOCAL_RANK", "?"))
        print(f"{result.rank} {node} {local} {result.exit_code}")
    failed = [result for result in results if result.exit_code != 0]
    for result in failed:
        reason = result.error or f"exit {result.exit_code}"
        print(f"error: rank {result.rank}: {reason}", file=sys.stderr)
    return EXIT_ERROR if failed else EXIT_OK


def cmd_perf_predict(args: SimpleNamespace) -> int:
    from hpcflow import perf

    if args.p_max > perf.MAX_PREDICTED_WORKERS:
        raise HpcflowError(
            f"--p-max {args.p_max} is above {perf.MAX_PREDICTED_WORKERS}, the most workers predicted"
        )
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


def cmd_bench_report(args: SimpleNamespace) -> int:
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
        ci95 = "" if summary.n == 1 else f"{summary.ci95_half_width:.6g}"
        print(f"{gpus},{summary.mean:.6g},{ci95},{speedup:.6g}")
    return EXIT_OK


def _arg(name: str, **options) -> tuple[str, dict]:
    """One argument: the name and keywords of its ``add_argument`` call."""
    return name, options


_RECONCILE_ARGS = (_arg("--profile", required=True), _arg("--spec", required=True))
_GRID_ARGS = (
    _arg("--nodes", type=_positive_int, required=True),
    _arg("--gpus-per-node", type=_positive_int, required=True),
)
_ENV_ARG = _arg("--env", action="append", type=_env_pair, metavar="KEY=VALUE")

# Every noun, in help order: its help and its verbs; each verb's help,
# handler and arguments.  ``build_parser`` builds argparse from it, and
# ``_read_args`` reads well-formed argv against it without argparse.
_COMMANDS = {
    "profile": ("cluster profile operations", {
        "validate": ("parse and validate a profile", cmd_profile_validate, (
            _arg("path"),
            _arg("--machine", action="store_true", help="issue lines only"),
        )),
    }),
    "image": ("image input generation and linting", {
        "gen": ("generate Dockerfile (and entrypoint script)", cmd_image_gen, (
            _arg("--spec", required=True, help="environment spec file"),
            _arg("--out", required=True, help="output Dockerfile path"),
        )),
        "lint": ("report Dockerfile smells", cmd_image_lint, (
            _arg("path"),
            _arg("--machine", action="store_true", help="rule_id:severity:line:message lines"),
        )),
    }),
    "job": ("batch job planning", {
        "gen": ("render batch script + setup commands", cmd_job_gen, (
            *_RECONCILE_ARGS,
            *_GRID_ARGS,
            _arg("--out", required=True, help="output job script path"),
            _arg("--workdir", type=_mount_pair, default=("$PWD", "/workdir")),
            _arg("--job-name", default="hpcflow-job"),
            _arg("--walltime", default="01:00:00"),
            _arg("--container-name", default=None),
            _arg("--tags", default=None, help="available image tags (tags strategy)"),
            _ENV_ARG,
        )),
    }),
    "run": ("preview or mock-execute commands", {
        "dry": ("print the container setup transcript", cmd_run_dry, (
            *_RECONCILE_ARGS,
            _arg("--container-name", default=None),
            _arg("--tags", default=None),
        )),
        "mock": ("run the rank grid with local processes", cmd_run_mock, (*_GRID_ARGS, _ENV_ARG)),
    }),
    "perf": ("scaling prediction", {
        "predict": ("CSV speedup table for 1..P workers", cmd_perf_predict, (
            _arg("--params", type=_positive_int, required=True),
            _arg("--batch-per-gpu", type=_positive_int, required=True),
            _arg("--single-gpu-ips", type=_number, required=True),
            _arg("--bytes-per-param", type=_positive_int, default=4),
            _arg("--link-bandwidth", type=_number, default=1.25e9),
            _arg("--link-latency", type=_number, default=5e-6),
            _arg("--gpus-per-node", type=_positive_int, default=2),
            _arg("--intra-bandwidth", type=_number, default=None),
            _arg("--p-max", type=_positive_int, default=6),
            _arg("--ideal", action="store_true", help="zero communication cost (ideal speedup)"),
        )),
    }),
    "bench": ("benchmark statistics", {
        "report": ("summarize runs as CSV", cmd_bench_report, (
            _arg("runs", nargs="+", type=_gpus_log_pair, metavar="GPUS:LOGPATH"),
            _arg("--warmup", type=_argument(read_int, 0), default=0),
        )),
    }),
}
# the verbs that take the user's command after ``--``
_TAKES_COMMAND = (cmd_job_gen, cmd_run_mock)


def build_parser():
    """The argparse parser of ``_COMMANDS``: every help screen and usage error."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="hpcflow",
        description=(
            "Generate, validate, and plan the artifacts of a container-based "
            "distributed-training workflow for HPC clusters."
        ),
    )
    nouns = parser.add_subparsers(dest="noun", required=True)
    for noun, (noun_help, verbs) in _COMMANDS.items():
        verb_parsers = nouns.add_parser(noun, help=noun_help).add_subparsers(
            dest="verb", required=True
        )
        for verb, (verb_help, func, arguments) in verbs.items():
            verb_parser = verb_parsers.add_parser(verb, help=verb_help)
            for name, options in arguments:
                verb_parser.add_argument(name, **options)
            verb_parser.set_defaults(func=func)
    return parser


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """``argv`` read as argparse reads it, or None where argparse might read it
    otherwise: anything but exact options, values without a leading ``-``
    that their types take, and one run of positionals.  Then argparse reads
    it, and reports any usage error."""
    try:
        noun, verb, *words = argv
        _, func, arguments = _COMMANDS[noun][1][verb]
    except (ValueError, KeyError):
        return None
    values, options, required, positional = {}, {}, set(), None
    for name, opts in arguments:
        dest = name.lstrip("-").replace("-", "_")
        if not name.startswith("-"):
            positional = dest, opts  # a verb has one positional at most
            continue
        options[name] = dest, opts
        values[dest] = opts.get("default", False if opts.get("action") == "store_true" else None)
        if opts.get("required"):
            required.add(dest)
    places = []  # where each positional word is in ``words``
    numbered = enumerate(words)
    for at, word in numbered:
        if word in options:
            dest, opts = options[word]
            required.discard(dest)
            if opts.get("action") == "store_true":
                values[dest] = True
                continue
            at, word = next(numbered, (at, "-"))
            if word.startswith("-"):
                return None
        elif word.startswith("-") or positional is None:
            return None
        else:
            dest, opts = positional
            if places and (places[-1] != at - 1 or "nargs" not in opts):
                return None  # a second positional, or one after an option
            places.append(at)
        try:
            value = opts.get("type", str)(word)
        except Exception:  # argparse calls the type again, and reports or raises its error
            return None
        if opts.get("action") == "append" or "nargs" in opts:
            value = [*(values.get(dest) or []), value]
        values[dest] = value
    if required or positional and not places:
        return None
    return SimpleNamespace(noun=noun, verb=verb, func=func, **values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argv that is not UTF-8 arrives as surrogates; printed, they are its bytes again
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(errors="surrogateescape")
    if "--" in argv:
        split = argv.index("--")
        argv, user_command = argv[:split], argv[split + 1 :]
    else:
        user_command = []
    args = _read_args(argv)
    if args is None:  # argparse reads what the table reader leaves, and reports each usage error
        args = build_parser().parse_args(argv, SimpleNamespace())
    if user_command and args.func not in _TAKES_COMMAND:
        build_parser().error(f"'{args.noun} {args.verb}' takes no command after '--'")
    args.user_command = user_command
    try:
        return args.func(args)
    except (HpcflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    """The console script: ``main`` with no collector and no interpreter teardown.

    A run is short and leaves few reference cycles, so no collection runs.
    When ``main`` returns, each file it wrote is closed and each rank it
    spawned is reaped, so once stdout and stderr are flushed the process
    ends at once.  A failed flush, as on a closed pipe, is reported like any
    other ``OSError``.  A ``SystemExit`` from argparse, or an uncaught
    exception, takes the normal exit path.
    """
    gc.disable()
    code = main()
    try:
        if sys.stdout is not None:  # None when the process started without one
            sys.stdout.flush()
    except OSError as exc:
        if code != EXIT_ERROR:  # else main has reported an error already
            print(f"error: {exc}", file=sys.stderr)
            code = EXIT_ERROR
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
