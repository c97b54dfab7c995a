"""Every function the perfbench tracer wraps still exists where it looks.

Tier-1 does not collect perfbench's own tests, so without this a rename or
deletion in the library would break every traced benchmark run while the
library's tests stay green. This reads perfbench/spans.py and changes nothing.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module,attr", [t[:2] for t in spans.TARGETS],
                         ids=[f"{t[0]}.{t[1]}" for t in spans.TARGETS])
def test_trace_target_is_reachable(module, attr):
    assert spans._holders(module, attr)
