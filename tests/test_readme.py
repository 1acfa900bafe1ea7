import re
import types
from dataclasses import fields
from pathlib import Path

import pytest

from cuspforge import AnalysisConfig

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_readme_lists_exactly_the_config_keys():
    listed = re.search(r"Recognized keys:(.*?)\.\s", TEXT, re.DOTALL).group(1)
    keys = {k for span in re.findall(r"`([^`]*)`", listed) for k in span.split()}
    assert keys == {f.name for f in fields(AnalysisConfig)}


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from cuspforge import *", namespace)
    names = set(namespace) - {"__builtins__"}
    assert {"solve_dkp", "lift_loop", "SingularEncounter", "make_family"} <= names
    assert not [n for n in names if isinstance(namespace[n], types.ModuleType)]
