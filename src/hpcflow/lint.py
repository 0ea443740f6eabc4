"""Dockerfile smell detection.

Five rules, centred on temporary-file smells that bloat images because
layers are append-only: a file deleted in a later layer still occupies
space in the layer that created it.

Detection is token-pattern based (shell words), not full shell parsing;
each rule documents its false-negative risk inline.
"""

from __future__ import annotations

import json
import posixpath
import shlex
from dataclasses import dataclass

from hpcflow.dockerfile import DockerfileAst, Instruction
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


def _tokens(instr: Instruction) -> list[str]:
    if instr.exec_form:
        return json.loads(instr.args)
    try:
        return shlex.split(instr.args, posix=True)
    except ValueError:  # unbalanced quoting; fall back to whitespace words
        return instr.args.split()


def _segment(tokens: list[str], start: int) -> list[str]:
    """Tokens from ``start`` up to the next shell operator."""
    seg = []
    for tok in tokens[start:]:
        if tok in _SHELL_OPERATORS:
            break
        seg.append(tok)
    return seg


def _flag_value(seg: list[str], flag: str) -> str | None:
    for i, tok in enumerate(seg):
        if tok == flag and i + 1 < len(seg):
            return seg[i + 1]
    return None


def _norm(path: str) -> str:
    return path.rstrip("/") if path != "/" else path


def _created_paths(tokens: list[str]) -> list[str]:
    """Paths a RUN creates via download/extract patterns.

    Covers ``wget`` (plain or -O), ``curl -o/-O``, and ``tar x ... -C dir``.
    Creations hidden behind variables or subshells go undetected.
    """
    created: list[str] = []
    for i, tok in enumerate(tokens):
        seg = _segment(tokens, i + 1)
        if tok == "wget":
            target = _flag_value(seg, "-O")
            if target is not None:
                created.append(target)
            else:
                created.extend(
                    posixpath.basename(t) for t in seg if t and not t.startswith("-")
                )
        elif tok == "curl":
            for j, t in enumerate(seg):
                if t == "-o" and j + 1 < len(seg):
                    created.append(seg[j + 1])
            if "-O" in seg:
                o_values = {seg[j + 1] for j, t in enumerate(seg) if t == "-o" and j + 1 < len(seg)}
                created.extend(
                    posixpath.basename(t)
                    for t in seg
                    if t and not t.startswith("-") and t not in o_values
                )
        elif tok == "tar" and seg and "x" in seg[0].lstrip("-"):
            target_dir = _flag_value(seg, "-C")
            if target_dir is not None:
                created.append(target_dir)
    return [_norm(c) for c in created if c]


def _removed_paths(tokens: list[str]) -> list[str]:
    removed = []
    for i, tok in enumerate(tokens):
        if tok == "rm":
            removed.extend(
                _norm(t) for t in _segment(tokens, i + 1) if t and not t.startswith("-")
            )
    return removed


def _extraction_targets(tokens: list[str]) -> list[str]:
    """Archive paths referenced by ``tar x``/``unzip`` invocations."""
    targets = []
    for i, tok in enumerate(tokens):
        seg = _segment(tokens, i + 1)
        if tok == "tar" and seg and "x" in seg[0].lstrip("-"):
            skip_next = False
            for t in seg[1:]:
                if skip_next:
                    skip_next = False
                    continue
                if t == "-C":
                    skip_next = True
                    continue
                if t and not t.startswith("-"):
                    targets.append(_norm(t))
        elif tok == "unzip":
            targets.extend(_norm(t) for t in seg if t and not t.startswith("-"))
    return targets


def _stages(ast: DockerfileAst) -> list[list[tuple[int, Instruction]]]:
    stages: list[list[tuple[int, Instruction]]] = []
    current: list[tuple[int, Instruction]] = []
    has_from = False
    for pos, instr in enumerate(ast.instructions):
        if instr.kind == "FROM" and has_from:
            stages.append(current)
            current = []
            has_from = False
        current.append((pos, instr))
        if instr.kind == "FROM":
            has_from = True
    if current:
        stages.append(current)
    return stages


def _check_tf1(stage: list[tuple[int, Instruction]], findings: list[SmellFinding]) -> None:
    # removal paths must match the created path textually; renames and glob
    # deletions go undetected
    created: list[tuple[str, int]] = []  # (path, creating line)
    for _, instr in stage:
        if instr.kind != "RUN":
            continue
        tokens = _tokens(instr)
        for path in _removed_paths(tokens):
            for known, creating_line in created:
                if path == known:
                    findings.append(
                        SmellFinding(
                            "TF1",
                            RULES["TF1"][0],
                            instr.line_span[0],
                            f"{path} was created on line {creating_line} and removed "
                            "in a later layer; the space is not freed, only the "
                            "reference is removed",
                            f"merge the removal into the RUN on line {creating_line} "
                            "so creation and deletion share one layer",
                        )
                    )
        for path in _created_paths(tokens):
            created.append((path, instr.line_span[0]))


def _check_tf2(stage: list[tuple[int, Instruction]], findings: list[SmellFinding]) -> None:
    # misses extractions that rename/move the archive first, or address it
    # through variables
    archives: list[tuple[str, int]] = []  # (path in image, COPY line)
    flagged: set[int] = set()
    for _, instr in stage:
        if instr.kind == "COPY":
            tokens = _tokens(instr)
            if len(tokens) < 2:
                continue
            dst = tokens[-1]
            for src in tokens[:-1]:
                if src.endswith(_ARCHIVE_SUFFIXES):
                    path = dst + posixpath.basename(src) if dst.endswith("/") else dst
                    archives.append((_norm(path), instr.line_span[0]))
        elif instr.kind == "RUN":
            for target in _extraction_targets(_tokens(instr)):
                for path, copy_line in archives:
                    if target == path and copy_line not in flagged:
                        flagged.add(copy_line)
                        findings.append(
                            SmellFinding(
                                "TF2",
                                RULES["TF2"][0],
                                copy_line,
                                f"archive {path} is copied here and extracted on "
                                f"line {instr.line_span[0]}, leaving the archive in "
                                "its own layer",
                                "use ADD instead of COPY; it extracts local archives "
                                "in a single layer",
                            )
                        )


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
    "pip3": (
        lambda toks: "install" in toks,
        lambda toks: "--no-cache-dir" in toks or ("cache" in toks and "purge" in toks),
        "pip install --no-cache-dir",
    ),
}


def _check_tf3(stage: list[tuple[int, Instruction]], findings: list[SmellFinding]) -> None:
    # misses managers invoked through wrapper scripts or variable expansion
    for _, instr in stage:
        if instr.kind != "RUN":
            continue
        tokens = _tokens(instr)
        for manager, (installs, cleans, fix) in _CACHE_CLEANERS.items():
            if manager in tokens and installs(tokens) and not cleans(tokens):
                findings.append(
                    SmellFinding(
                        "TF3",
                        RULES["TF3"][0],
                        instr.line_span[0],
                        f"{manager} runs without a cache cleanup in the same RUN",
                        f"end the shell command with a cleanup, e.g. {fix}",
                    )
                )
                break  # one finding per RUN


def _check_p1(ast: DockerfileAst, findings: list[SmellFinding]) -> None:
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
        findings.append(
            SmellFinding(
                "P1",
                RULES["P1"][0],
                instr.line_span[0],
                f"base image {ref} {problem}; the build environment is not reproducible",
                "pin an exact version tag for the base image",
            )
        )


def _check_e1(stage: list[tuple[int, Instruction]], findings: list[SmellFinding]) -> None:
    entrypoint_line: int | None = None
    has_cmd = False
    for _, instr in stage:
        if instr.kind == "ENTRYPOINT" and entrypoint_line is None:
            entrypoint_line = instr.line_span[0]
        elif instr.kind == "CMD":
            has_cmd = True
    if entrypoint_line is not None and not has_cmd:
        findings.append(
            SmellFinding(
                "E1",
                RULES["E1"][0],
                entrypoint_line,
                "ENTRYPOINT is set but no CMD provides default arguments",
                "add a CMD with default arguments; callers can still override them",
            )
        )


def lint(ast: DockerfileAst) -> SmellReport:
    """Apply every registered rule; findings are ordered (line, rule_id)."""
    findings: list[SmellFinding] = []
    for stage in _stages(ast):
        _check_tf1(stage, findings)
        _check_tf2(stage, findings)
        _check_tf3(stage, findings)
        _check_e1(stage, findings)
    _check_p1(ast, findings)
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
