"""Dockerfile parsing, rendering, and generation.

The parser maps every source line to exactly one instruction node:
backslash continuations (plus blank or comment lines inside them) join
their instruction, unrecognized directives become lossless ``UNKNOWN``
nodes, and comments and blank lines are kept as ``COMMENT`` nodes so rule
reports can point at real line numbers.

A JSON list of strings after RUN, CMD, ENTRYPOINT, COPY or ADD is exec
form, kept as written.  ``exec_tokens`` is its one reader, so the
``["src", ..., "dest"]`` form of COPY and ADD reaches lint as words, like
the shell form, and ``make_exec`` its one writer.  The parser never loads
``json``, and ``exec_tokens`` loads it only for a list not written as
``json.dumps`` writes one of plain ASCII words, so a typical Dockerfile is
parsed and linted without it.
"""

from __future__ import annotations

import collections
import posixpath
import re
from collections.abc import Iterator

from hpcflow.errors import DockerfileError, Record

# The annotation ``EnvironmentSpec`` is ``hpcflow.profiles.EnvironmentSpec``,
# not imported so that parsing and linting do not load the profile layer;
# ``generate_dockerfile`` imports ``recon`` when called, for the same reason.

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
# instructions whose arguments may be a JSON list of strings
_EXEC_KINDS = frozenset({"RUN", "CMD", "ENTRYPOINT", "COPY", "ADD"})
_JSON_BLANKS = " \t\n\r"  # json reads a list after them; parsed args never start with one
# tolerated before the first FROM
_PREAMBLE_KINDS = frozenset({"ARG", "COMMENT", "UNKNOWN"})

# instructions that may open a heredoc
_HEREDOC_KINDS = frozenset({"RUN", "COPY", "ADD"})
# BuildKit's directive and heredoc patterns are Go regexps, whose \s and \d
# are ASCII; its word splitter breaks at Unicode white space, as \s and
# str.split do here
_ESCAPE_DIRECTIVE = r"(?ai)#\s*escape\s*="
# a word with its quotes kept, and a word that opens a heredoc
_RAW_WORD = r"""(?s)(?:[^\s'"\\]+|'[^']*'|"(?:[^"\\]|\\.)*"|\\.|['"\\])+"""
_HEREDOC_WORD = r"(?a)\d*<<-?[^<]+"


class Instruction(collections.namedtuple("Instruction", "kind args line_span", defaults=((0, 0),))):
    """One Dockerfile instruction (or comment/blank/unknown line).

    ``args`` holds the argument text with continuations collapsed.  After
    RUN, CMD, ENTRYPOINT, COPY or ADD, text that is a JSON list of strings
    is exec form, which ``exec_tokens`` reads as words; the parser keeps
    such a list as written.  So whether an instruction is in exec form is
    read from its kind and ``args``, not held beside them.
    ``COMMENT`` and ``UNKNOWN`` keep their raw line verbatim in ``args``.
    ``line_span`` records source lines and is excluded from equality, since
    rendering collapses continuations.

    One is built per source line, so it is a namedtuple, which the parser
    builds with ``tuple.__new__``, running no Python code.  It equals no
    plain tuple; namedtuple's ``_replace`` makes a changed copy.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and self[:2] == other[:2]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:2])


class DockerfileAst(Record):
    instructions: tuple[Instruction, ...]
    source_name: str | None = None
    _uncompared = ("source_name",)


def exec_tokens(instr: Instruction) -> list[str] | None:
    """The words of an instruction in exec form, else None.

    An instruction is in exec form when its kind takes a JSON list and its
    ``args`` read as a JSON list of strings; text too deeply nested for
    ``json`` is no such list.
    """
    kind, text, _ = instr
    if kind not in _EXEC_KINDS or text.lstrip(_JSON_BLANKS)[:1] != "[":
        return None
    words = _dumped_words(text)
    if words is not None:
        return words
    import json

    try:
        tokens = json.loads(text)
    except (ValueError, RecursionError):
        return None
    if isinstance(tokens, list) and all(isinstance(t, str) for t in tokens):
        return tokens
    return None


def make_exec(kind: str, tokens: list[str], line: int = 0) -> Instruction:
    """Build an exec-form instruction with canonical argument text."""
    import json

    return Instruction(kind, json.dumps(tokens), line_span=(line, line))


def _dumped_words(text: str) -> list[str] | None:
    """The words of ``text`` if ``json.dumps`` writes it as it stands, from
    words of printable ASCII without a quote or backslash; else None."""
    # such words between '["', '", "' and '"]' are read without json
    if len(text) > 3 and text.startswith('["') and text.endswith('"]'):
        words = text[2:-2].split('", "')
        if all(w.isascii() and w.isprintable() and '"' not in w and "\\" not in w for w in words):
            return words
    return None


def _opens_heredoc(args: str) -> bool:
    """Whether a word of ``args``, quotes kept, reads [fd]<<[-]NAME (NAME
    possibly quoted): such a word opens a heredoc, as in BuildKit."""
    return any(re.fullmatch(_HEREDOC_WORD, w) for w in re.findall(_RAW_WORD, args))


def _join_continuation(
    line: str, numbered: Iterator[tuple[int, str]], end: int
) -> tuple[str, int]:
    """Join the instruction that starts with ``line``, number ``end``, ending in ``\\``.

    Reads the lines it joins from ``numbered``; blank and comment lines
    among them add no text.  Returns the joined text and the number of its
    last line.
    """
    parts = []
    while True:
        body = line.rstrip()
        if not body.endswith("\\"):
            parts.append(line)
            break
        parts.append(body[:-1])
        for end, line in numbered:
            s = line.strip()
            if s and s[0] != "#":
                break
        else:
            break
    return "".join(parts), end


def parse_dockerfile(text: str, source_name: str | None = None) -> DockerfileAst:
    """Parse Dockerfile text into an ordered instruction list.

    Unrecognized directives never fail; they become ``UNKNOWN`` nodes kept
    verbatim.  Escape directives and heredocs are not supported and are
    rejected.

    Raises:
        DockerfileError: when a recognized non-ARG instruction appears
            before any FROM, an escape directive is declared, a RUN, COPY
            or ADD opens a heredoc, or a continuation holds no instruction.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    instructions: list[Instruction] = []
    append = instructions.append
    new = tuple.__new__  # each record built as namedtuple's _make builds one
    seen_from = False
    directive_zone = True  # parser directives may only precede everything else
    numbered = enumerate(lines, 1)
    for start, raw in numbered:
        stripped = raw.strip()
        if not stripped or stripped[0] == "#":
            if directive_zone and stripped and re.match(_ESCAPE_DIRECTIVE, stripped):
                raise DockerfileError(
                    "escape directives are not supported (backslash continuation only)",
                    line=start,
                )
            append(new(Instruction, ("COMMENT", raw, (start, start))))
            continue

        directive_zone = False
        end = start
        if stripped[-1] == "\\":
            raw, end = _join_continuation(raw, numbered, end)
            stripped = raw.strip()
            if not stripped:
                raise DockerfileError("line continuation without an instruction", line=start)
        kind, _, args = stripped.partition(" ")
        if kind in KNOWN_KINDS:
            args = args.lstrip()
        else:  # another separator or case, or no instruction
            # split() and strip() break at str.isspace characters, as \s does
            words = stripped.split(None, 1)
            kind = words[0].upper()
            if kind in KNOWN_KINDS:
                args = words[1] if len(words) > 1 else ""
            else:
                kind, args = "UNKNOWN", raw

        if "<<" in args and kind in _HEREDOC_KINDS and _opens_heredoc(args):
            raise DockerfileError(f"{kind} heredocs are not supported", line=start)
        if kind == "FROM":
            seen_from = True
        elif not seen_from and kind not in _PREAMBLE_KINDS:
            raise DockerfileError(f"{kind} instruction before any FROM", line=start)

        append(new(Instruction, (kind, args, (start, end))))

    return DockerfileAst(tuple(instructions), source_name=source_name)


def render_dockerfile(ast: DockerfileAst) -> str:
    """Render an AST to text: one instruction per line.

    Continuations are collapsed, and arguments, exec-form lists among them,
    and COMMENT/UNKNOWN lines are emitted as they are held, so
    ``parse(render(ast))`` equals ``ast``.
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


_SYSTEM_PACKAGES_INSTALL = (
    "apt-get update && apt-get install -y --no-install-recommends {packages}"
    " && rm -rf /var/lib/apt/lists/*"
)


def generate_dockerfile(spec: EnvironmentSpec) -> DockerfileAst:
    """Generate a workflow-conformant Dockerfile from an environment spec.

    Layout: FROM the chosen base image, a single RUN installing system
    packages (with cache cleanup in the same layer), one COPY per code
    pair, then the strategy-specific tail.  The ``entrypoint`` strategy
    copies the version-installing script and wires exec-form
    ENTRYPOINT/CMD; the ``tags`` strategy pins versions through a build
    argument so one file serves every tagged variant; ``ngc`` images
    already ship their versions, so nothing is added.
    """
    from hpcflow.recon import DEFAULT_INSTALLERS

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
        shell("RUN", _SYSTEM_PACKAGES_INSTALL.format(packages=packages))
    for src, dst in spec.code_copies:
        shell("COPY", f"{src} {dst}")

    if spec.strategy == "entrypoint":
        script_src = posixpath.basename(spec.entrypoint_path)
        shell("COPY", f"{script_src} {spec.entrypoint_path}")
        shell("RUN", f"chmod +x {spec.entrypoint_path}")
        execf("ENTRYPOINT", [spec.entrypoint_path])
        execf("CMD", [str(spec.openmpi_version), spec.horovod_version])
    elif spec.strategy == "tags":
        # the build argument carries the per-variant OpenMPI version
        for command in DEFAULT_INSTALLERS.version_installs(
            "${openmpi_version}", spec.horovod_version
        ):
            shell("RUN", command)

    return DockerfileAst(tuple(instructions))
