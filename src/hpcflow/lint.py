"""Dockerfile smell detection.

Five rules, centred on temporary-file smells that bloat images because
layers are append-only: a file deleted in a later layer still occupies
space in the layer that created it.

Detection is token-pattern based (shell words), not full shell parsing:
each RUN is tokenized once and split into commands at the shell operators
``&& || ; |``, whether they stand alone or are glued to a word, and each
rule misses what its patterns cannot see.  Words are read as
``shlex.split`` reads them, with each run of unquoted ``; & |`` a word of
its own (text without quotes or backslashes is split by a regex, the rest
by ``shlex``); text with an unbalanced quote or a trailing backslash goes
to the regex too, its quotes and backslashes read as word characters.

- TF1 knows creations by ``wget`` (plain or ``-O``), ``curl -o/-O`` and
  ``tar x ... -C dir``, and a removal must name the created path textually.
  These words count only as the command word (first, after ``NAME=value``
  words and an optional ``env``): creations behind variables, subshells or
  wrappers such as ``sudo`` or ``xargs``, renames and glob deletions go
  undetected.
- TF2 misses extractions that rename or move the archive first, or that
  address it through variables.
- TF3 misses package managers invoked through wrapper scripts or variable
  expansion.
- P1 passes any tag but ``latest``, though a tag can be moved to another
  image.
- E1 sees only the stage's own instructions, not an ENTRYPOINT inherited
  from the base image.
"""

from __future__ import annotations

import posixpath
import re
from collections.abc import Iterator
from dataclasses import dataclass

from hpcflow.dockerfile import DockerfileAst, Instruction, exec_tokens
from hpcflow.profiles import ImageRef

RULES: dict[str, tuple[str, str]] = {
    "TF1": ("error", "file downloaded/extracted in one layer and deleted in a later one"),
    "TF2": ("warning", "local archive copied then extracted in a separate layer"),
    "TF3": ("warning", "package-manager cache left behind in the layer"),
    "P1": ("warning", "base image tag not pinned"),
    "E1": ("info", "ENTRYPOINT without default CMD arguments"),
}

_ARCHIVE_SUFFIXES = (".tar", ".tar.gz", ".tgz", ".zip")
_SHELL_OPERATORS = frozenset({"&&", "||", ";", "|"})
# the command words whose arguments are paths
_PATH_WORDS = frozenset({"wget", "curl", "tar", "rm", "unzip"})
_ASSIGNMENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*=")
# shell words without quotes or backslashes: only space, tab, CR and LF
# separate words, and a run of ``; & |`` is a word of its own
_PLAIN_WORD_RE = re.compile(r"[^ \t\r\n;&|]+|[;&|]+")


@dataclass(frozen=True)
class SmellFinding:
    rule_id: str
    severity: str
    line: int
    message: str
    suggestion: str


@dataclass(frozen=True)
class SmellReport:
    findings: tuple[SmellFinding, ...]
    counts: dict[str, int]


def _split(text: str) -> list[str]:
    """``text`` as POSIX shell words, each run of unquoted ``; & |`` a word.

    Raises:
        ValueError: on an unbalanced quote or a trailing backslash.
    """
    if "'" not in text and '"' not in text and "\\" not in text:
        return _PLAIN_WORD_RE.findall(text)
    import shlex  # only quoted text needs it

    lexer = shlex.shlex(text, posix=True, punctuation_chars=";&|")
    lexer.whitespace_split = True
    lexer.commenters = ""
    return list(lexer)


def _words(instr: Instruction) -> list[str]:
    """The instruction's shell words, tokenized once."""
    tokens = exec_tokens(instr)
    if tokens is not None:
        return tokens
    try:
        return _split(instr.args)
    except ValueError:  # unbalanced quoting; split as if the text had no quotes
        return _PLAIN_WORD_RE.findall(instr.args)


def _flag_value(args: list[str], flag: str) -> str | None:
    for i, arg in enumerate(args[:-1]):
        if arg == flag:
            return args[i + 1]
    return None


def _operands(args: list[str]) -> list[str]:
    return [a for a in args if a and not a.startswith("-")]


def _norm(path: str) -> str:
    return path.rstrip("/") if path != "/" else path


def _command_word_index(command: list[str]) -> int:
    """Index of the command word: past ``NAME=value`` words and one ``env``."""
    i = 0
    while i < len(command) and _ASSIGNMENT_RE.match(command[i]):
        i += 1
    if i < len(command) and command[i] == "env":
        i += 1
        while i < len(command) and _ASSIGNMENT_RE.match(command[i]):
            i += 1
    return i


def _run_paths(words: list[str]) -> tuple[list[str], list[str], list[str]]:
    """The paths a RUN creates, removes and extracts, in order of appearance.

    The RUN is split into commands at the operator words ``_words`` emits,
    glued to a word or not.  The command word is the first word of a
    command after any ``NAME=value`` words and an optional ``env`` prefix
    (with its own ``NAME=value`` words); its arguments run to the end of
    that command.
    """
    commands: list[list[str]] = [[]]
    for word in words:
        if word in _SHELL_OPERATORS:
            commands.append([])
        else:
            commands[-1].append(word)
    created: list[str] = []
    removed: list[str] = []
    extracted: list[str] = []
    for command in commands:
        i = _command_word_index(command)
        if i == len(command) or command[i] not in _PATH_WORDS:
            continue
        word, args = command[i], command[i + 1 :]
        if word == "wget":
            target = _flag_value(args, "-O")
            if target is not None:
                created.append(target)
            else:
                created.extend(posixpath.basename(a) for a in _operands(args))
        elif word == "curl":
            outputs = [args[j + 1] for j, a in enumerate(args[:-1]) if a == "-o"]
            created.extend(outputs)
            if "-O" in args:
                created.extend(
                    posixpath.basename(a) for a in _operands(args) if a not in outputs
                )
        elif word == "rm":
            removed.extend(_norm(a) for a in _operands(args))
        elif word == "unzip":
            extracted.extend(_norm(a) for a in _operands(args))
        elif args and "x" in args[0].lstrip("-"):  # tar x
            target_dir = _flag_value(args, "-C")
            if target_dir is not None:
                created.append(target_dir)
            rest = iter(args[1:])
            for arg in rest:
                if arg == "-C":
                    next(rest, None)  # the directory, not an archive
                elif arg and not arg.startswith("-"):
                    extracted.append(_norm(arg))
    return [_norm(c) for c in created if c], removed, extracted


def _stages(ast: DockerfileAst) -> list[list[Instruction]]:
    """Instructions grouped by stage; the ARGs before the first FROM join it."""
    stages: list[list[Instruction]] = [[]]
    has_from = False
    for instr in ast.instructions:
        if instr.kind == "FROM":
            if has_from:
                stages.append([])
            has_from = True
        stages[-1].append(instr)
    return stages


_CACHE_CLEANERS = {
    "apt-get": (
        lambda toks: ("install" in toks or "update" in toks),
        lambda toks: "clean" in toks
        or ("rm" in toks and any("/var/lib/apt/lists" in t for t in toks)),
        "rm -rf /var/lib/apt/lists/*",
    ),
    "yum": (
        lambda toks: "install" in toks,
        lambda toks: "clean" in toks,
        "yum clean all",
    ),
    "apk": (
        lambda toks: "add" in toks,
        lambda toks: "--no-cache" in toks
        or ("rm" in toks and any("/var/cache/apk" in t for t in toks)),
        "apk add --no-cache",
    ),
    "pip": (
        lambda toks: "install" in toks,
        lambda toks: "--no-cache-dir" in toks or ("cache" in toks and "purge" in toks),
        "pip install --no-cache-dir",
    ),
}
_CACHE_CLEANERS["pip3"] = _CACHE_CLEANERS["pip"]


def _finding(rule_id: str, line: int, message: str, suggestion: str) -> SmellFinding:
    return SmellFinding(rule_id, RULES[rule_id][0], line, message, suggestion)


def _check_layers(stage: list[Instruction]) -> Iterator[SmellFinding]:
    """TF1, TF2 and TF3 in one pass over the stage."""
    # path -> lines of the RUNs creating it, each once (a dict as ordered set)
    created: dict[str, dict[int, None]] = {}
    archives: dict[str, list[int]] = {}  # archive path in image -> COPY lines
    flagged: set[int] = set()  # COPY lines already reported by TF2
    for instr in stage:
        line = instr.line_span[0]
        if instr.kind == "COPY":
            words = _words(instr)
            for src in words[:-1]:
                if src.endswith(_ARCHIVE_SUFFIXES):
                    dst = words[-1]
                    path = dst + posixpath.basename(src) if dst.endswith("/") else dst
                    archives.setdefault(_norm(path), []).append(line)
            continue
        if instr.kind != "RUN":
            continue
        words = _words(instr)
        made, removed, extracted = _run_paths(words)
        for path in dict.fromkeys(removed):
            for creating_line in created.get(path, ()):
                yield _finding(
                    "TF1",
                    line,
                    f"{path} was created on line {creating_line} and removed "
                    "in a later layer; the space is not freed, only the "
                    "reference is removed",
                    f"merge the removal into the RUN on line {creating_line} "
                    "so creation and deletion share one layer",
                )
        for path in made:
            created.setdefault(path, {})[line] = None
        for path in extracted:
            for copy_line in archives.get(path, ()):
                if copy_line not in flagged:
                    flagged.add(copy_line)
                    yield _finding(
                        "TF2",
                        copy_line,
                        f"archive {path} is copied here and extracted on "
                        f"line {line}, leaving the archive in its own layer",
                        "use ADD instead of COPY; it extracts local archives "
                        "in a single layer",
                    )
        for manager, (installs, cleans, fix) in _CACHE_CLEANERS.items():
            if manager in words and installs(words) and not cleans(words):
                yield _finding(
                    "TF3",
                    line,
                    f"{manager} runs without a cache cleanup in the same RUN",
                    f"end the shell command with a cleanup, e.g. {fix}",
                )
                break  # one finding per RUN


def _check_p1(ast: DockerfileAst) -> Iterator[SmellFinding]:
    # FROM flags, ``scratch`` and the names of earlier stages are not image
    # references; stage names compare case-insensitively, as in Docker
    stage_names = {"scratch"}
    for instr in ast.instructions:
        if instr.kind != "FROM":
            continue
        words = [w for w in instr.args.split() if not w.startswith("--")]
        if not words:
            continue
        ref = ImageRef.parse(words[0])
        names_stage = words[0].lower() in stage_names
        if len(words) == 3 and words[1].lower() == "as":
            stage_names.add(words[2].lower())
        if names_stage or ref.pinned:
            continue
        problem = "has no tag" if ref.tag is None else "uses the floating tag 'latest'"
        yield _finding(
            "P1",
            instr.line_span[0],
            f"base image {ref} {problem}; the build environment is not reproducible",
            "pin an exact version tag for the base image",
        )


def _check_e1(stage: list[Instruction]) -> Iterator[SmellFinding]:
    entrypoint_line: int | None = None
    has_cmd = False
    for instr in stage:
        if instr.kind == "ENTRYPOINT" and entrypoint_line is None:
            entrypoint_line = instr.line_span[0]
        elif instr.kind == "CMD":
            has_cmd = True
    if entrypoint_line is not None and not has_cmd:
        yield _finding(
            "E1",
            entrypoint_line,
            "ENTRYPOINT is set but no CMD provides default arguments",
            "add a CMD with default arguments; callers can still override them",
        )


def lint(ast: DockerfileAst) -> SmellReport:
    """Apply every registered rule; findings are ordered (line, rule_id)."""
    findings: list[SmellFinding] = []
    for stage in _stages(ast):
        findings += _check_layers(stage)
        findings += _check_e1(stage)
    findings += _check_p1(ast)
    findings.sort(key=lambda f: (f.line, f.rule_id))
    counts = {"error": 0, "warning": 0, "info": 0}
    for finding in findings:
        counts[finding.severity] += 1
    return SmellReport(tuple(findings), counts)


def machine_report(report: SmellReport) -> str:
    """One finding per line: ``rule_id:severity:line:message``."""
    return "".join(
        f"{f.rule_id}:{f.severity}:{f.line}:{f.message}\n" for f in report.findings
    )
