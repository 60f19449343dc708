"""The README's library example runs as written and reaches its verdict."""

import re
from pathlib import Path

from ringnet.analysis import Regime

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_and_localizes():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["verdict"].regime is Regime.LOCALIZED
