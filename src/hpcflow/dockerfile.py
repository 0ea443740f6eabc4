"""Dockerfile parsing, rendering, and generation.

The parser maps every source line to exactly one instruction node:
backslash continuations (plus blank or comment lines inside them) join
their instruction, unrecognized directives become lossless ``UNKNOWN``
nodes, and comments and blank lines are kept as ``COMMENT`` nodes so rule
reports can point at real line numbers.
"""

from __future__ import annotations

import json
import posixpath
import re

from hpcflow.errors import DockerfileError, Record
from hpcflow.profiles import EnvironmentSpec
from hpcflow.recon import DEFAULT_INSTALLERS, default_cmd_args

KNOWN_KINDS = frozenset(
    {
        "FROM",
        "RUN",
        "COPY",
        "ADD",
        "ENV",
        "ARG",
        "WORKDIR",
        "ENTRYPOINT",
        "CMD",
        "EXPOSE",
        "USER",
        "LABEL",
        "VOLUME",
    }
)
# instructions whose arguments may be a bracketed token list
_EXEC_KINDS = frozenset({"RUN", "CMD", "ENTRYPOINT"})
# tolerated before the first FROM
_PREAMBLE_KINDS = frozenset({"ARG", "COMMENT", "UNKNOWN"})

_ESCAPE_DIRECTIVE_RE = re.compile(r"^#\s*escape\s*=", re.IGNORECASE)
# instructions that may open a heredoc, and their words with quotes kept: a
# word reading [fd]<<[-]NAME (NAME possibly quoted) opens one, as in BuildKit
_HEREDOC_KINDS = frozenset({"RUN", "COPY", "ADD"})
_RAW_WORD_RE = re.compile(r"""(?:[^\s'"\\]+|'[^']*'|"(?:[^"\\]|\\.)*"|\\.|['"\\])+""", re.DOTALL)
_HEREDOC_WORD_RE = re.compile(r"\d*<<-?[^<]+")
_WORD_RE = re.compile(r"^\s*(\S+)(?:\s+(.*))?$", re.DOTALL)


class Instruction(Record):
    """One Dockerfile instruction (or comment/blank/unknown line).

    ``args`` holds the argument text with continuations collapsed; for
    exec-form instructions it is normalized to a canonical bracketed,
    double-quoted token list.  ``COMMENT`` and ``UNKNOWN`` keep their raw
    line verbatim in ``args``.  ``line_span`` records source lines and is
    excluded from equality, since rendering collapses continuations.
    """

    kind: str
    args: str
    exec_form: bool = False
    line_span: tuple[int, int] = (0, 0)
    _uncompared = ("line_span",)

    # one per source line, so a plain constructor
    def __init__(
        self, kind: str, args: str, exec_form: bool = False, line_span: tuple[int, int] = (0, 0)
    ) -> None:
        self.__dict__.update(kind=kind, args=args, exec_form=exec_form, line_span=line_span)


class DockerfileAst(Record):
    instructions: tuple[Instruction, ...]
    source_name: str | None = None
    _uncompared = ("source_name",)


def exec_tokens(instr: Instruction) -> list[str] | None:
    """Return the token list of an exec-form instruction, else None."""
    if not instr.exec_form:
        return None
    return json.loads(instr.args)


def make_exec(kind: str, tokens: list[str], line: int = 0) -> Instruction:
    """Build an exec-form instruction with canonical argument text."""
    return Instruction(kind, json.dumps(tokens), exec_form=True, line_span=(line, line))


def parse_dockerfile(text: str, source_name: str | None = None) -> DockerfileAst:
    """Parse Dockerfile text into an ordered instruction list.

    Unrecognized directives never fail; they become ``UNKNOWN`` nodes kept
    verbatim.  Escape directives and heredocs are not supported and are
    rejected.

    Raises:
        DockerfileError: when a recognized non-ARG instruction appears
            before any FROM, an escape directive is declared, or a RUN,
            COPY or ADD opens a heredoc.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    instructions: list[Instruction] = []
    seen_from = False
    directive_zone = True  # parser directives may only precede everything else
    i = 0
    while i < len(lines):
        raw = lines[i]
        stripped = raw.strip()
        if stripped == "" or stripped.startswith("#"):
            if stripped and directive_zone and _ESCAPE_DIRECTIVE_RE.match(stripped):
                raise DockerfileError(
                    "escape directives are not supported (backslash continuation only)",
                    line=i + 1,
                )
            instructions.append(Instruction("COMMENT", raw, line_span=(i + 1, i + 1)))
            i += 1
            continue

        directive_zone = False
        start = i
        buf = lines[i]
        i += 1
        while buf.rstrip().endswith("\\"):
            buf = buf.rstrip()[:-1]
            # blank and comment lines inside a continuation are consumed
            # without contributing text
            appended = False
            while i < len(lines):
                nxt = lines[i]
                s = nxt.strip()
                i += 1
                if s == "" or s.startswith("#"):
                    continue
                buf += nxt
                appended = True
                break
            if not appended:
                break

        span = (start + 1, i)
        m = _WORD_RE.match(buf)
        assert m is not None  # buf contains at least one non-space char
        keyword = m.group(1).upper()
        if keyword in KNOWN_KINDS:
            kind = keyword
            args = (m.group(2) or "").strip()
        else:
            kind = "UNKNOWN"
            args = buf

        if (
            kind in _HEREDOC_KINDS
            and "<<" in args
            and any(_HEREDOC_WORD_RE.fullmatch(w) for w in _RAW_WORD_RE.findall(args))
        ):
            raise DockerfileError(f"{kind} heredocs are not supported", line=start + 1)
        if kind == "FROM":
            seen_from = True
        elif kind not in _PREAMBLE_KINDS and not seen_from:
            raise DockerfileError(
                f"{kind} instruction before any FROM", line=start + 1
            )

        exec_form = False
        if kind in _EXEC_KINDS and args.startswith("["):
            try:
                tokens = json.loads(args)
            except ValueError:
                tokens = None
            if isinstance(tokens, list) and all(isinstance(t, str) for t in tokens):
                args = json.dumps(tokens)
                exec_form = True

        instructions.append(Instruction(kind, args, exec_form, span))

    return DockerfileAst(tuple(instructions), source_name=source_name)


def render_dockerfile(ast: DockerfileAst) -> str:
    """Render an AST to canonical text: one instruction per line.

    Continuations are collapsed, exec-form arguments come out as a
    bracketed double-quoted token list, and COMMENT/UNKNOWN lines are
    emitted verbatim, so ``parse(render(ast))`` equals ``ast``.
    """
    if not ast.instructions:
        return ""
    lines = []
    for instr in ast.instructions:
        if instr.kind in ("COMMENT", "UNKNOWN"):
            lines.append(instr.args)
        elif instr.args:
            lines.append(f"{instr.kind} {instr.args}")
        else:
            lines.append(instr.kind)
    return "\n".join(lines) + "\n"


def generate_dockerfile(spec: EnvironmentSpec) -> DockerfileAst:
    """Generate a workflow-conformant Dockerfile from an environment spec.

    Layout: FROM the chosen base image, a single RUN installing system
    packages (with cache cleanup in the same layer), one COPY per code
    pair, then the strategy-specific tail.  The ``entrypoint`` strategy
    copies the version-installing script and wires exec-form
    ENTRYPOINT/CMD; the ``tags`` strategy pins versions through a build
    argument so one file serves every tagged variant; ``ngc`` images
    already ship their versions, so nothing is added.

    Raises:
        ReconcileError: entrypoint strategy without a default
            openmpi_version for CMD.
        DockerfileError: entrypoint strategy without entrypoint_path
            (normally impossible for parsed specs).
    """
    instructions: list[Instruction] = []

    def shell(kind: str, args: str) -> None:
        instructions.append(Instruction(kind, args, line_span=(len(instructions) + 1,) * 2))

    def execf(kind: str, tokens: list[str]) -> None:
        instructions.append(make_exec(kind, tokens, line=len(instructions) + 1))

    shell("FROM", spec.base_image)
    if spec.strategy == "tags":
        shell("ARG", "openmpi_version")
    if spec.system_packages:
        packages = " ".join(spec.system_packages)
        shell("RUN", DEFAULT_INSTALLERS.system_packages_install.format(packages=packages))
    for src, dst in spec.code_copies:
        shell("COPY", f"{src} {dst}")

    if spec.strategy == "entrypoint":
        if spec.entrypoint_path is None:
            raise DockerfileError("entrypoint strategy requires entrypoint_path")
        script_src = posixpath.basename(spec.entrypoint_path)
        shell("COPY", f"{script_src} {spec.entrypoint_path}")
        shell("RUN", f"chmod +x {spec.entrypoint_path}")
        execf("ENTRYPOINT", [spec.entrypoint_path])
        execf("CMD", list(default_cmd_args(spec)))
    elif spec.strategy == "tags":
        # the build argument carries the per-variant OpenMPI version
        for command in DEFAULT_INSTALLERS.version_installs(
            "${openmpi_version}", spec.horovod_version
        ):
            shell("RUN", command)

    return DockerfileAst(tuple(instructions))
