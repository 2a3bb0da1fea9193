"""The Python examples in README.md run, their `# value` comments hold, and
the package surface they import from is pinned."""

import ast
import functools
import re
from pathlib import Path

import pytest
from shared import CORPUS_BUILDERS

import aq
from aq import corpus
from aq.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
# canonical.json of the README session with maxdeg and levels both 5
REFERENCE_5 = ROOT / "bench" / "reference" / "readme-5.canonical.json"


def _blocks(language: str) -> list[str]:
    """The fenced blocks whose opening fence names `language` ("" for none)."""
    blocks, current, inside = [], None, False
    for line in README.read_text().splitlines():
        fence = line.strip()
        if not fence.startswith("```"):
            if current is not None:
                current.append(line)
        elif inside:
            if current is not None:
                blocks.append("\n".join(current))
            inside, current = False, None
        else:
            inside, current = True, [] if fence[3:] == language else None
    return blocks


def _expected_value(lines: list[str], stmt: ast.stmt):
    """The literal in the comment that ends the statement's last line."""
    tail = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
    if not tail.startswith("#"):
        return None
    return ast.literal_eval(tail[1:].strip())


def test_readme_has_commented_values():
    assert BLOCKS
    commented = 0
    for block in BLOCKS:
        lines = block.splitlines()
        commented += sum(isinstance(stmt, ast.Expr)
                         and _expected_value(lines, stmt) is not None
                         for stmt in ast.parse(block).body)
    assert commented >= 3


BLOCKS = _blocks("python")


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block-{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_block_runs_and_its_values_hold(block):
    lines = block.splitlines()
    namespace: dict = {}
    for stmt in ast.parse(block).body:
        code = ast.Module(body=[stmt], type_ignores=[])
        if not isinstance(stmt, ast.Expr):
            exec(compile(code, "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"),
                     namespace)
        expected = _expected_value(lines, stmt)
        if expected is not None:
            assert value == expected, ast.unparse(stmt)


def test_readme_session_runs_from_the_command_line(tmp_path):
    (session,) = _blocks("")
    path = tmp_path / "readme.aq"
    path.write_text(session + "\n")
    canonical = {}
    for order in (None, "degrevlex", "lex"):
        out = tmp_path / str(order)
        flags = [] if order is None else ["--order", order]
        assert main(["run", str(path), "--out", str(out)] + flags) == 0
        written = {p.name for p in out.iterdir()}
        assert {"task-001-homology.json", "task-002-classify.json",
                "task-003-resolve.json", "task-004-check.json",
                "canonical.json", "summary.json"} <= written
        canonical[order] = (out / "canonical.json").read_bytes()
    assert canonical[None] == canonical["degrevlex"] == canonical["lex"]


def _readme_5(tmp_path) -> Path:
    """The README session with maxdeg and levels both 5, as a file."""
    (session,) = _blocks("")
    session, count = re.subn(r"\b(maxdeg|levels) \d+", r"\1 5", session)
    assert count == 2
    path = tmp_path / "readme-5.aq"
    path.write_text(session + "\n")
    return path


def _canonical_bytes(path, out, order) -> bytes:
    assert main(["run", str(path), "--out", str(out), "--order", order]) == 0
    return (out / "canonical.json").read_bytes()


def test_readme_session_matches_the_reference_bytes(tmp_path):
    path = _readme_5(tmp_path)
    reference = REFERENCE_5.read_bytes()
    for order in ("degrevlex", "lex"):
        assert _canonical_bytes(path, tmp_path / order, order) == reference, order


def test_readme_session_bytes_are_the_same_cold_and_warm(tmp_path, monkeypatch):
    """Once over corpora nobody has read, then in both orders over the
    shared ones, whose algebras keep the maps of the ring-property cases."""
    path = _readme_5(tmp_path)
    reference = REFERENCE_5.read_bytes()
    for builder in CORPUS_BUILDERS:
        raw = getattr(corpus, builder).__wrapped__
        monkeypatch.setattr(corpus, builder, functools.wraps(raw)(
            lambda *args, raw=raw, **kwargs: raw(*args, **kwargs)))
    assert _canonical_bytes(path, tmp_path / "cold", "degrevlex") == reference
    monkeypatch.undo()
    for run, order in enumerate(("lex", "degrevlex", "lex")):
        out = tmp_path / f"warm-{run}"
        assert _canonical_bytes(path, out, order) == reference, (run, order)


# Top-level functions and methods that nothing in the package or in
# tools/diffdump.py names: the tests reach them, the program does not.  A
# new name here is dead code added on purpose.
UNCALLED = {
    "derivation_basis_at_point", "homology_models_agree", "leibniz_holds",
    "rank_exactness_check", "retract_check",
}


def _uncalled_definitions() -> set[str]:
    """Qualified names of the definitions in src/aq whose bare name no
    module of src/aq (imports in __init__.py included) nor the dump tool
    names; dunder methods are called implicitly and left out."""
    definitions, names = [], set()
    for path in sorted((ROOT / "src" / "aq").glob("*.py")) + [
            ROOT / "tools" / "diffdump.py"]:
        tree = ast.parse(path.read_text())
        if path.parent.name == "aq":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    definitions.append((node.name, node.name))
                elif isinstance(node, ast.ClassDef):
                    definitions.extend(
                        (item.name, f"{node.name}.{item.name}")
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return {qualified for name, qualified in definitions if name not in names}


def test_the_package_surface_is_pinned():
    assert [name for name in aq.__all__ if not hasattr(aq, name)] == []
    assert _uncalled_definitions() == UNCALLED


def _unused_imports() -> dict[str, list[str]]:
    """Per module of src/aq, the names its top-level imports bind that it
    never names again; __init__.py, which imports to re-export, is left
    out, and so is `from __future__ import annotations`."""
    unused = {}
    for path in sorted((ROOT / "src" / "aq").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = [(alias.asname or alias.name).split(".")[0]
                 for node in tree.body
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names]
        named = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
        missing = [name for name in bound if name not in named]
        if missing:
            unused[path.name] = missing
    return unused


def test_every_import_is_used():
    assert _unused_imports() == {}
