"""The fenced python blocks of README.md run, so the documented API keeps working, and
its table of rule names is the package's."""

import re
from pathlib import Path

import pytest

from mmregret.rules import RULES

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_python_block_runs(code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a block that writes a file writes it here
    exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
    capsys.readouterr()


def test_rule_name_table_is_the_map():
    table = re.search(r"^\| Name \| Rule \| Parameters \|\n\| --- .*\n((?:\|.*\n)+)",
                      README.read_text(), re.MULTILINE).group(1)
    names = re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE)
    assert len(names) == len(set(names)) == len(table.splitlines())
    assert set(names) == set(RULES)
