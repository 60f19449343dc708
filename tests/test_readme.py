"""The README's examples run as written: the library example reaches its
verdict, and the config-schema block is a complete config."""

import json
import re
from pathlib import Path

from ringnet.analysis import Regime
from ringnet.config import effective_config, parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_and_localizes():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["verdict"].regime is Regime.LOCALIZED


def test_config_schema_block_lists_every_key_parse_config_echoes():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Config schema", 1)[1]
    block = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    block.pop("output")
    assert effective_config(parse_config(block)) == block
