"""The mutant table of ``scripts/mutants.py`` stays current: every edit applies
exactly once to the code as it is. Running the mutants takes minutes and is
not part of these tests; ``python3 scripts/mutants.py`` does that."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "mutants.py"


def load_script():
    spec = importlib.util.spec_from_file_location("ringnet_mutants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


def test_every_mutant_edit_applies_exactly_once():
    assert load_script().check_table() == []


def test_an_edit_that_does_not_apply_once_is_an_error():
    script = load_script()
    mutant = script.Mutant
    defs = (ROOT / "src/ringnet/config.py").read_text(encoding="utf-8").count("def ")
    faults = script.check_table([
        mutant("absent", "src/ringnet/config.py", "no such text", "x"),
        mutant("repeated", "src/ringnet/config.py", "def ", "fed "),
        mutant("repeated", "src/ringnet/config.py", "class ConfigError", "class ConfigError"),
        mutant("no-file", "src/ringnet/absent.py", "x", "y"),
    ])
    assert faults == [
        "repeated: name appears twice",
        "absent: old text occurs 0 times in src/ringnet/config.py, not once",
        f"repeated: old text occurs {defs} times in src/ringnet/config.py, not once",
        "repeated: the edit changes nothing",
        "no-file: no file src/ringnet/absent.py",
    ]
