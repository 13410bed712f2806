"""Every name that perfbench/tracing.py patches must exist in meshcond."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_patched_name_resolves():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracing._PATCHES
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
