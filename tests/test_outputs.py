"""Every CLI output pinned: the exit code and the sha256 of stdout, of stderr
and of each written file, for a fixed list of in-process ``cli.main`` runs.

Each run starts in an empty temporary directory that holds only its input
files; the directory's path is replaced by ``<tmp>`` before hashing, in
arguments and outputs alike.  The runs cover every verb but ``run mock`` (which spawns
processes) on the fixtures, seeded generated Dockerfiles, each fixture
profile and spec with one injected defect, and ``job gen`` with one wrong
flag, so that error lines are pinned, or with argv that is not UTF-8.  Every
help screen is pinned at two terminal widths, and so are usage errors and
argv that argparse reads in its own way; each run sets ``COLUMNS``, which
argparse wraps its text to.  Text is hashed as the bytes it stands for: a
lone surrogate as the byte it decodes.

A change that alters an output on purpose rewrites the manifest with

    python tests/test_outputs.py --regen

which lists the added, removed and changed entries; name each, with its
reason, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

if __name__ == "__main__":  # as a script, the tests directory is already on the path
    sys.path.insert(0, str(Path(__file__).parents[1] / "src"))

from conftest import FIXTURES, corpus_paths
from hpcflow import cli
from test_lint import _large_dockerfile

MANIFEST = FIXTURES / "outputs.json"
TMP = "<tmp>"

PROFILES = sorted((FIXTURES / "profiles").glob("*.profile"))
SPECS = sorted((FIXTURES / "specs").glob("*.spec"))
LOGS = sorted((FIXTURES / "logs").glob("*.log"))
TAGS = ["--tags", "ompi3.1,ompi4.0-b,ompi4.0-a"]
# one parser for every run: building it is most of a run's time, and
# parsing arguments leaves it as it was
_PARSER = functools.cache(cli.build_parser)

# values put in place of one key's value: wrong kinds, every strategy,
# a digest pin, a privileged command and a control character
BAD_VALUES = (
    "", "0", "pbs", "tags", "ngc", "entrypoint", "4.0", "a b", "/a:",
    "img@sha256:0", "sudo", "x\x0by", " ,x",
)


# extra ``job gen`` arguments: one wrong flag each (a repeated flag overrides
# the one before it), then argv bytes that are not UTF-8, which the
# interpreter decodes to lone surrogates
JOB_EXTRAS = (
    ("--walltime", "1:00"),
    ("--container-name", "a b"),
    ("--container-name", "su"),
    ("--env", "a-b=1"),
    ("--job-name", "a\nsudo id"),
    ("--nodes", "99"),
    ("--gpus-per-node", "9"),
    ("--env", "A=\udcff"),
    ("--job-name", "j\udcff"),
    ("--", "python", "\udcff"),
)

# the help screens, by argv: the root, each noun and each verb
HELP = (
    [], ["profile"], ["profile", "validate"], ["image"], ["image", "gen"], ["image", "lint"],
    ["job"], ["job", "gen"], ["run"], ["run", "dry"], ["run", "mock"],
    ["perf"], ["perf", "predict"], ["bench"], ["bench", "report"],
)


def _defects(text: str, whole: bool) -> dict[str, str]:
    """``text`` with one defect each, by a label naming it.

    Each key line is dropped and has its value replaced: by every one of
    ``BAD_VALUES`` when ``whole``, else by two of them, seeded by the line.
    """
    lines = text.split("\n")
    first_key = next(line for line in lines if "=" in line)
    texts = {
        "duplicate first key": text + first_key + "\n",
        "unknown key": text + "site = x\n",
        "pinned openmpi": text + "openmpi_version = 4.0.1\n",
        "no section": "\n".join(line for line in lines if not line.startswith("[")),
    }
    for i, line in enumerate(lines, start=1):
        if "=" not in line:
            continue
        key = line.partition("=")[0].strip()
        texts[f"line {i} dropped"] = "\n".join(lines[: i - 1] + lines[i:])
        values = BAD_VALUES if whole else random.Random(f"{key}:{i}").sample(BAD_VALUES, 2)
        for value in values:
            texts[f"{key} = {value!r}"] = "\n".join(
                [*lines[: i - 1], f"{key} = {value}", *lines[i:]]
            )
    return texts


def _with_value(text: str, key: str, value: str) -> str:
    """``text`` with the value of ``key`` replaced by ``value``, or with the
    line ``key = value`` added where ``text`` has no such key."""
    text, count = re.subn(f"(?m)^{key} = .*$", f"{key} = {value}", text)
    return text if count else f"{text}{key} = {value}\n"


def _runs() -> dict[str, tuple[list[str], dict[str, str], int]]:
    """Run id -> (argv, input files by name, ``COLUMNS``); ``<tmp>`` in argv is
    the run's directory."""
    runs: dict[str, tuple[list[str], dict[str, str], int]] = {}
    texts = {path.name: path.read_text() for path in PROFILES + SPECS + LOGS}

    def add(run_id: str, argv: list[str], *names: str, columns: int = 80, **inputs: str) -> None:
        assert run_id not in runs, run_id
        runs[run_id] = (argv, {**{name: texts[name] for name in names}, **inputs}, columns)

    for profile in PROFILES:
        for flags in ([], ["--machine"]):
            argv = ["profile", "validate", f"{TMP}/{profile.name}", *flags]
            add(" ".join(argv[:2] + [profile.name, *flags]), argv, profile.name)
    for spec in SPECS:
        add(f"image gen {spec.name}", _image_gen(spec.name), spec.name)

    dockerfiles = {path.name: path.read_text() for path in corpus_paths()}
    for seed in range(4):
        dockerfiles[f"large_{seed}.dockerfile"] = _large_dockerfile(seed, 400)
    for name, text in dockerfiles.items():
        for flags in ([], ["--machine"]):
            argv = ["image", "lint", f"{TMP}/{name}", *flags]
            add(" ".join(argv[:2] + [name, *flags]), argv, **{name: text})

    for profile in PROFILES:
        for spec in SPECS:
            pair = [profile.name, spec.name]
            tags = TAGS if spec.stem == "tags" else []
            add(f"job gen 1x1 {' '.join(pair)}", _job_gen(*pair, "1", *tags), *pair)
            add(
                f"job gen 2x2 {' '.join(pair)}",
                _job_gen(*pair, "2", *tags, "--env", "A=b c", "--", "python", "train.py"),
                *pair,
            )
            add(f"run dry {' '.join(pair)}", _run_dry(*pair, *tags), *pair)
    # tags that are not ompiM.m as str() writes the version: a padded part, a
    # patch, and more digits than int() reads; the first run also picks ompi4.0-a
    pair = ["csic.profile", "tags.spec"]
    for label, tags in (
        ("ompi04.0,ompi4.0-a", "ompi04.0,ompi4.0-a"),
        ("ompi4.0.1", "ompi4.0.1"),
        ("ompi4.0 and 5000 more digits", "ompi4.0" + "0" * 5000),
    ):
        add(f"run dry {' '.join(pair)}, --tags {label}", _run_dry(*pair, "--tags", tags), *pair)
    for flag, *values in JOB_EXTRAS:
        pair = ["csic.profile", "entrypoint.spec"]
        run_id = f"job gen {' '.join(pair)}, {flag} {' '.join(map(repr, values))}"
        add(run_id, _job_gen(*pair, "1", flag, *values), *pair)
    # a privileged command named by a profile value that reaches the job
    # script, or by the image
    pair = ["csic.profile", "entrypoint.spec"]
    for key, value in (
        ("container_runtime_path", "/usr/bin/sudo"), ("module_loads", "sudo"),
        ("partition", "gpu;sudo"), ("account", "a;sudo"), ("default_mounts", "/a:/b;sudo"),
    ):
        name = f"csic.profile, {key} = {value!r}"
        profile = {"csic.profile": _with_value(texts["csic.profile"], key, value)}
        add(f"profile validate {name}", ["profile", "validate", f"{TMP}/csic.profile"], **profile)
        add(f"job gen {name}", _job_gen(*pair, "1"), "entrypoint.spec", **profile)
    # two faulty values, which each verb refuses with the same error lines
    text = _with_value(texts["csic.profile"], "container_runtime_path", "/usr/bin/sudo")
    profile = {"csic.profile": _with_value(text, "module_loads", "sudo, a b")}
    name = "csic.profile, container_runtime_path = '/usr/bin/sudo', module_loads = 'sudo, a b'"
    add(f"profile validate {name}", ["profile", "validate", f"{TMP}/csic.profile"], **profile)
    add(f"job gen {name}", _job_gen(*pair, "1"), "entrypoint.spec", **profile)
    add(f"run dry {name}", _run_dry(*pair), "entrypoint.spec", **profile)
    spec = {"entrypoint.spec": _with_value(texts["entrypoint.spec"], "base_image", "sudo:1")}
    add("job gen entrypoint.spec, base_image = 'sudo:1'", _job_gen(*pair, "1"), "csic.profile",
        **spec)
    # the spec without its openmpi_version, refused here as by ``image gen``
    # (a spec defect below)
    spec = {"entrypoint.spec": _defects(texts["entrypoint.spec"], whole=False)["line 5 dropped"]}
    add(f"job gen {' '.join(pair)}, line 5 dropped", _job_gen(*pair, "1"), "csic.profile", **spec)
    add(f"run dry {' '.join(pair)}, line 5 dropped", _run_dry(*pair), "csic.profile", **spec)

    logs = [f"{n}:{TMP}/{log.name}" for n, log in enumerate(LOGS, start=1)]
    for warmup in ("0", "10"):
        add(f"bench report --warmup {warmup}", ["bench", "report", "--warmup", warmup, *logs],
            *(log.name for log in LOGS))
    predict = ["perf", "predict", "--params", "25636712", "--batch-per-gpu", "64",
               "--single-gpu-ips", "380"]
    for flags in ([], ["--ideal"], ["--intra-bandwidth", "1e10"], ["--link-latency", "0"]):
        add(" ".join(predict[:2] + flags), predict + flags)

    for profile in PROFILES:
        for defect, text in _defects(texts[profile.name], whole=False).items():
            name = f"{profile.name}, {defect}"
            argv = ["profile", "validate", f"{TMP}/{profile.name}"]
            add(f"profile validate {name}", argv, **{profile.name: text})
            add(f"run dry {name}", _run_dry(profile.name, "entrypoint.spec"),
                "entrypoint.spec", **{profile.name: text})
    for spec in SPECS:
        for defect, text in _defects(texts[spec.name], whole=True).items():
            add(f"image gen {spec.name}, {defect}", _image_gen(spec.name), **{spec.name: text})

    for words in HELP:
        for columns in (50, 120):
            add(f"help {' '.join(['hpcflow', *words])}, COLUMNS={columns}", [*words, "-h"],
                columns=columns)
    pair = ["csic.profile", "entrypoint.spec"]
    lint = "12_multiple_smells.dockerfile"
    # read in argparse's own way: an abbreviated option, ``--opt=value``, a
    # repeated option (the last wins), a value with a leading ``-``
    add("usage image lint --mach", ["image", "lint", f"{TMP}/{lint}", "--mach"],
        **{lint: dockerfiles[lint]})
    add("usage job gen --nodes=2", _job_gen(*pair, "1", "--nodes=2"), *pair)
    add("usage job gen --nodes 1 --nodes 2", _job_gen(*pair, "1", "--nodes", "2"), *pair)
    add("usage perf predict --link-latency -1", [*predict, "--link-latency", "-1"])
    add("usage bench report --warmup -1", ["bench", "report", "--warmup", "-1", *logs],
        *(log.name for log in LOGS))
    # rejected: positionals split by an option, help after arguments, no
    # noun, no verb, an unknown verb, an extra positional, a missing or
    # mistyped option, and a command after ``--`` where none is taken
    add("usage bench report, --warmup between runs",
        ["bench", "report", logs[0], "--warmup", "2", *logs[1:]], *(log.name for log in LOGS))
    add("usage profile validate -h after the path",
        ["profile", "validate", f"{TMP}/csic.profile", "-h"], "csic.profile")
    add("usage no noun", [])
    add("usage profile, no verb", ["profile"])
    add("usage profile check", ["profile", "check"])
    add("usage profile validate, two paths",
        ["profile", "validate", f"{TMP}/csic.profile", f"{TMP}/csic.profile"], "csic.profile")
    add("usage image gen, no --out", ["image", "gen", "--spec", f"{TMP}/entrypoint.spec"],
        "entrypoint.spec")
    add("usage job gen --nodes 0", _job_gen(*pair, "0"), *pair)
    add("usage run dry -- x", _run_dry(*pair, "--", "x"), *pair)
    return runs


def _image_gen(spec: str) -> list[str]:
    return ["image", "gen", "--spec", f"{TMP}/{spec}", "--out", f"{TMP}/Dockerfile"]


def _job_gen(profile: str, spec: str, size: str, *flags: str) -> list[str]:
    return ["job", "gen", "--profile", f"{TMP}/{profile}", "--spec", f"{TMP}/{spec}",
            "--nodes", size, "--gpus-per-node", size, "--out", f"{TMP}/job.sh", *flags]


def _run_dry(profile: str, spec: str, *flags: str) -> list[str]:
    return ["run", "dry", "--profile", f"{TMP}/{profile}", "--spec", f"{TMP}/{spec}", *flags]


def _outcome(argv: list[str], inputs: dict[str, str], columns: int, tmp: Path) -> dict:
    """Run ``main`` on ``argv`` in the empty directory ``tmp`` holding ``inputs``,
    with ``COLUMNS`` set; hash what it left, and empty the directory again."""
    for name, text in inputs.items():
        (tmp / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.object(cli, "build_parser", _PARSER),
        mock.patch.dict(os.environ, COLUMNS=str(columns)),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        try:
            code = cli.main([arg.replace(TMP, str(tmp)) for arg in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    files = {}
    for path in sorted(tmp.iterdir()):
        if path.name not in inputs:
            files[path.name] = path.read_text(encoding="utf-8", errors="surrogateescape")
        path.unlink()

    def digest(text: str) -> str:
        return hashlib.sha256(
            text.replace(str(tmp), TMP).encode(errors="surrogateescape")
        ).hexdigest()

    return {
        "exit": code,
        "stdout": digest(out.getvalue()),
        "stderr": digest(err.getvalue()),
        "files": {name: digest(text) for name, text in files.items()},
    }


def outcomes() -> dict[str, dict]:
    """Each run's exit code and hashes, by run id."""
    # one directory for every run: making and removing one per run costs more
    # than the runs
    with tempfile.TemporaryDirectory() as tmp:
        return {run_id: _outcome(*run, Path(tmp)) for run_id, run in _runs().items()}


def _diff(manifest: dict, expected: dict) -> dict[str, list[str]]:
    """Run ids only in ``manifest``, only in ``expected``, and in both with other entries."""
    return {
        "added": sorted(manifest.keys() - expected.keys()),
        "removed": sorted(expected.keys() - manifest.keys()),
        "changed": sorted(k for k in manifest.keys() & expected.keys() if manifest[k] != expected[k]),
    }


def test_verbs_refuse_a_spec_alike():
    """``image gen``, ``job gen`` and ``run dry`` refuse the spec without its
    openmpi_version with one error line, and write nothing."""
    runs = _runs()
    verbs = ("image gen", "job gen csic.profile", "run dry csic.profile")
    with tempfile.TemporaryDirectory() as tmp:
        seen = [_outcome(*runs[f"{v} entrypoint.spec, line 5 dropped"], Path(tmp)) for v in verbs]
    assert seen[0]["exit"] == 1 and seen[0]["files"] == {}
    assert seen == [seen[0]] * 3


def test_every_output_is_pinned():
    expected = json.loads(MANIFEST.read_text())
    assert _diff(outcomes(), expected) == {"added": [], "removed": [], "changed": []}


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_outputs.py --regen")
    expected = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    manifest = outcomes()
    diff = _diff(manifest, expected)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}: {len(manifest)} runs, "
          + ", ".join(f"{len(ids)} {kind}" for kind, ids in diff.items()))
    for kind, ids in diff.items():
        for run_id in ids:
            print(f"  {kind}: {run_id}")
