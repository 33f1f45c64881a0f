"""Tests for the README's library example.

Proves:
  1. The README's python block runs against the installed package, so its
     imports and calls follow the current API.
  2. Every print in it annotated with a shape, such as `# (2, 4, 4)`,
     prints exactly that shape, in order.
"""
import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs_and_prints_its_shapes():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(),
                          re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    shapes = re.findall(r"^print\(.*\)\s+# (\([\d, ]+\))", block, re.MULTILINE)
    assert shapes == ["(2, 4, 4)", "(3, 8)", "(3, 8)", "(2, 6, 6)"]
    printed = out.getvalue().splitlines()
    assert [line for line in printed if line in shapes] == shapes
