"""The README's documented imports are the package's public surface."""

import re
from pathlib import Path

import pexsurv

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_entry_points_block_imports_public_names():
    section = README.read_text().split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    names = set(namespace) - {"__builtins__"}
    assert names and names <= set(pexsurv.__all__)


def test_stated_imputation_default_is_the_configs():
    stated = re.search(r"the\s+default\s+stays\s+`impute=(\w+)`", README.read_text()).group(1)
    assert stated == str(pexsurv.McmcConfig().impute)
