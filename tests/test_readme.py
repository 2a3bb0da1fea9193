"""The Python examples in README.md run, and their `# value` comments hold."""

import ast
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list[str]:
    blocks, current = [], None
    for line in README.read_text().splitlines():
        if current is None and line.strip() == "```python":
            current = []
        elif current is not None and line.strip() == "```":
            blocks.append("\n".join(current))
            current = None
        elif current is not None:
            current.append(line)
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


BLOCKS = _python_blocks()


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
