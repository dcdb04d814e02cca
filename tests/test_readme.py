"""README.md names only module attributes that exist."""

import re
from pathlib import Path

import mpmd.engine
import mpmd.harness
import mpmd.metric
import mpmd.oracle

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {
    "engine": mpmd.engine,
    "harness": mpmd.harness,
    "metric": mpmd.metric,
    "oracle": mpmd.oracle,
}


def test_readme_module_attributes_exist():
    text = README.read_text(encoding="utf-8")
    names = re.findall(r"`(engine|harness|metric|oracle)\.(\w+)`", text)
    assert names, "README.md names no engine, harness, metric or oracle attribute"
    missing = [f"{module}.{attr}" for module, attr in names if not hasattr(MODULES[module], attr)]
    assert missing == []
