"""Dockerfile smell detection.

Five rules, centred on temporary-file smells that bloat images because
layers are append-only: a file deleted in a later layer still occupies
space in the layer that created it.

Detection is token-pattern based (shell words), not full shell parsing:
each RUN is tokenized once and split into commands at the shell operators
``&& || ; |``, whether they stand alone or are glued to a word, and each
rule misses what its patterns cannot see.  Words are read as
``shlex.split`` reads them, with each run of unquoted ``; & |`` a word of
its own (text without quotes or backslashes is split by ``str.split`` where
that reads the same, else by a regex; the rest by ``shlex``); text with an
unbalanced quote or a trailing backslash goes to the regex too, its quotes
and backslashes read as word characters.  The words of a JSON-form RUN,
COPY or ADD are its list.

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
  image.  As in Docker, ``$NAME`` and ``${NAME}`` in the image are replaced
  by the defaults of the ARGs declared before the first FROM; an image with
  a reference that no such default resolves is checked as written.
- E1 sees only the stage's own instructions, not an ENTRYPOINT inherited
  from the base image.
"""

from __future__ import annotations

import re

from hpcflow.dockerfile import DockerfileAst, Instruction, exec_tokens
from hpcflow.errors import ImageRef, Record

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
_ARG_REF_RE = re.compile(r"\$(?:\{([A-Za-z_][A-Za-z0-9_]*)\}|([A-Za-z_][A-Za-z0-9_]*))")
# shell words without quotes or backslashes: only space, tab, CR and LF
# separate words, and a run of ``; & |`` is a word of its own
_PLAIN_WORD_RE = re.compile(r"[^ \t\r\n;&|]+|[;&|]+")


class SmellFinding(Record):
    rule_id: str
    severity: str
    line: int
    message: str
    suggestion: str

    # over a thousand on a large file, so a plain constructor
    def __init__(self, rule_id: str, severity: str, line: int, message: str, suggestion: str):
        self.__dict__.update(
            rule_id=rule_id, severity=severity, line=line, message=message, suggestion=suggestion
        )


class SmellReport(Record):
    findings: tuple[SmellFinding, ...]
    counts: dict[str, int]


def _split(text: str) -> list[str]:
    """Quoted ``text`` as POSIX shell words, each run of unquoted ``; & |`` a word.

    Raises:
        ValueError: on an unbalanced quote or a trailing backslash.
    """
    import shlex  # only quoted text needs it

    lexer = shlex.shlex(text, posix=True, punctuation_chars=";&|")
    lexer.whitespace_split = True
    lexer.commenters = ""
    return list(lexer)


def _words(instr: Instruction) -> list[str]:
    """The instruction's shell words, tokenized once."""
    if instr.exec_form:
        return exec_tokens(instr)
    text = instr.args
    if "'" in text or '"' in text or "\\" in text:
        try:
            return _split(text)
        except ValueError:  # unbalanced quoting; split as if the text had no quotes
            pass
    elif (
        text.isprintable()
        and ";" not in text
        and "|" not in text
        and text.count("&") == 2 * text.count(" && ")
    ):
        # the space is the only whitespace in printable text, and each
        # operator is an ``&&`` between spaces
        return text.split()
    return _PLAIN_WORD_RE.findall(text)


def _flag_value(args: list[str], flag: str) -> str | None:
    if flag in args[:-1]:
        return args[args.index(flag) + 1]
    return None


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
    that command.  Operands are the arguments that do not start with ``-``.
    """
    created: list[str] = []
    removed: list[str] = []
    extracted: list[str] = []
    if _SHELL_OPERATORS.isdisjoint(words):
        ends = [len(words)]
    else:
        ends = [i for i, word in enumerate(words) if word in _SHELL_OPERATORS]
        ends.append(len(words))
    start = 0
    for end in ends:
        i = start
        start = end + 1
        if i < end and ("=" in words[i] or words[i] == "env"):
            i += _command_word_index(words[i:end])
        if i == end or words[i] not in _PATH_WORDS:
            continue
        word, args = words[i], words[i + 1 : end]
        if word == "rm" or word == "unzip":
            paths = removed if word == "rm" else extracted
            for arg in args:
                if arg and arg[0] != "-":
                    paths.append(_norm(arg))
        elif word == "tar":
            if args and "x" in args[0].lstrip("-"):  # tar x
                target_dir = _flag_value(args, "-C")
                if target_dir is not None:
                    created.append(target_dir)
                rest = iter(args[1:])
                for arg in rest:
                    if arg == "-C":
                        next(rest, None)  # the directory, not an archive
                    elif arg and arg[0] != "-":
                        extracted.append(_norm(arg))
        elif word == "wget":
            target = _flag_value(args, "-O")
            if target is not None:
                created.append(target)
            else:
                for arg in args:
                    if arg and arg[0] != "-":
                        created.append(arg.rpartition("/")[2])
        else:  # curl
            outputs = [args[j + 1] for j, arg in enumerate(args[:-1]) if arg == "-o"]
            created += outputs
            if "-O" in args:
                for arg in args:
                    if arg and arg[0] != "-" and arg not in outputs:
                        created.append(arg.rpartition("/")[2])
    return [_norm(c) for c in created if c], removed, extracted


# manager -> (installs, cleans, fix).  The tests take the RUN's words as a
# set, and the words joined by spaces for the paths, which hold no space.
_CACHE_CLEANERS = {
    "apt-get": (
        lambda words, text: "install" in words or "update" in words,
        lambda words, text: "clean" in words
        or ("rm" in words and "/var/lib/apt/lists" in text),
        "rm -rf /var/lib/apt/lists/*",
    ),
    "yum": (
        lambda words, text: "install" in words,
        lambda words, text: "clean" in words,
        "yum clean all",
    ),
    "apk": (
        lambda words, text: "add" in words,
        lambda words, text: "--no-cache" in words
        or ("rm" in words and "/var/cache/apk" in text),
        "apk add --no-cache",
    ),
    "pip": (
        lambda words, text: "install" in words,
        lambda words, text: "--no-cache-dir" in words or ("cache" in words and "purge" in words),
        "pip install --no-cache-dir",
    ),
}
_CACHE_CLEANERS["pip3"] = _CACHE_CLEANERS["pip"]
_MANAGERS = frozenset(_CACHE_CLEANERS)
_RULE_WORDS = _PATH_WORDS | _MANAGERS  # a RUN without one of these has no finding


def _finding(rule_id: str, line: int, message: str, suggestion: str) -> SmellFinding:
    return SmellFinding(rule_id, RULES[rule_id][0], line, message, suggestion)


def _check_run(
    words: list[str],
    line: int,
    created: dict[str, dict[int, None]],
    archives: dict[str, list[int]],
    flagged: set[int],
    findings: list[SmellFinding],
) -> None:
    """TF1, TF2 and TF3 for the words of the RUN on ``line``, given its stage's state so far."""
    if not _PATH_WORDS.isdisjoint(words):
        made, removed, extracted = _run_paths(words)
        for path in dict.fromkeys(removed):
            for creating_line in created.get(path, ()):
                findings.append(_finding(
                    "TF1",
                    line,
                    f"{path} was created on line {creating_line} and removed "
                    "in a later layer; the space is not freed, only the "
                    "reference is removed",
                    f"merge the removal into the RUN on line {creating_line} "
                    "so creation and deletion share one layer",
                ))
        for path in made:
            created.setdefault(path, {})[line] = None
        for path in extracted:
            for copy_line in archives.get(path, ()):
                if copy_line not in flagged:
                    flagged.add(copy_line)
                    findings.append(_finding(
                        "TF2",
                        copy_line,
                        f"archive {path} is copied here and extracted on "
                        f"line {line}, leaving the archive in its own layer",
                        "use ADD instead of COPY; it extracts local archives "
                        "in a single layer",
                    ))
    if not _MANAGERS.isdisjoint(words):
        word_set, text = set(words), " ".join(words)
        for manager, (installs, cleans, fix) in _CACHE_CLEANERS.items():
            if manager in word_set and installs(word_set, text) and not cleans(word_set, text):
                findings.append(_finding(
                    "TF3",
                    line,
                    f"{manager} runs without a cache cleanup in the same RUN",
                    f"end the shell command with a cleanup, e.g. {fix}",
                ))
                break  # one finding per RUN


def _arg_defaults(args: str) -> dict[str, str]:
    """The ``NAME=value`` defaults an ARG declares, one pair of quotes removed."""
    defaults = {}
    for word in args.split():
        name, eq, value = word.partition("=")
        if eq:
            if len(value) > 1 and value[0] == value[-1] and value[0] in "'\"":
                value = value[1:-1]
            defaults[name] = value
    return defaults


def _p1(
    instr: Instruction, stage_names: set[str], arg_defaults: dict[str, str]
) -> SmellFinding | None:
    """P1 for one FROM; adds the stage it names to ``stage_names``."""
    # FROM flags, ``scratch`` and the names of earlier stages are not image
    # references; stage names compare case-insensitively, as in Docker
    words = [w for w in instr.args.split() if not w.startswith("--")]
    if not words:
        return None
    image = words[0]
    if "$" in image:  # resolved only if every reference has a default
        resolved = _ARG_REF_RE.sub(lambda m: arg_defaults.get(m[1] or m[2], m[0]), image)
        if "$" not in resolved:
            image = resolved
    ref = ImageRef.parse(image)
    names_stage = image.lower() in stage_names
    if len(words) == 3 and words[1].lower() == "as":
        stage_names.add(words[2].lower())
    if names_stage or ref.pinned:
        return None
    problem = "has no tag" if ref.tag is None else "uses the floating tag 'latest'"
    return _finding(
        "P1",
        instr.line_span[0],
        f"base image {ref} {problem}; the build environment is not reproducible",
        "pin an exact version tag for the base image",
    )


def _e1(entrypoint_line: int | None, has_cmd: bool) -> list[SmellFinding]:
    if entrypoint_line is None or has_cmd:
        return []
    return [
        _finding(
            "E1",
            entrypoint_line,
            "ENTRYPOINT is set but no CMD provides default arguments",
            "add a CMD with default arguments; callers can still override them",
        )
    ]


def lint(ast: DockerfileAst) -> SmellReport:
    """Apply every registered rule; findings are ordered (line, rule_id).

    One walk over the instructions.  Each FROM after the first starts a
    new stage (ARGs before the first FROM join the first), and TF1–TF3 and
    E1 look only within a stage.
    """
    findings: list[SmellFinding] = []
    stage_names = {"scratch"}
    arg_defaults: dict[str, str] = {}  # of the ARGs before the first FROM
    has_from = False
    # the stage's state: path -> lines of the RUNs creating it, each once (a
    # dict as ordered set); archive path in image -> COPY lines; COPY lines
    # already reported by TF2; the first ENTRYPOINT's line; whether a CMD is set
    created: dict[str, dict[int, None]] = {}
    archives: dict[str, list[int]] = {}
    flagged: set[int] = set()
    entrypoint_line: int | None = None
    has_cmd = False
    for instr in ast.instructions:
        kind = instr.kind
        if kind == "RUN":
            words = _words(instr)
            if not _RULE_WORDS.isdisjoint(words):
                _check_run(words, instr.line_span[0], created, archives, flagged, findings)
        elif kind == "COPY":
            words = _words(instr)
            for src in words[:-1]:
                if src.endswith(_ARCHIVE_SUFFIXES):
                    dst = words[-1]
                    path = dst + src.rpartition("/")[2] if dst.endswith("/") else dst
                    archives.setdefault(_norm(path), []).append(instr.line_span[0])
        elif kind == "FROM":
            if has_from:  # a new stage
                findings += _e1(entrypoint_line, has_cmd)
                created, archives, flagged = {}, {}, set()
                entrypoint_line, has_cmd = None, False
            has_from = True
            finding = _p1(instr, stage_names, arg_defaults)
            if finding is not None:
                findings.append(finding)
        elif kind == "ARG" and not has_from:
            arg_defaults.update(_arg_defaults(instr.args))
        elif kind == "ENTRYPOINT":
            if entrypoint_line is None:
                entrypoint_line = instr.line_span[0]
        elif kind == "CMD":
            has_cmd = True
    findings += _e1(entrypoint_line, has_cmd)
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
