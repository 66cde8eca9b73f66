"""The benchmark's tracer wraps library attributes by name (``perfbench/spans.py``).

A refactor that removes or stops looking up one of them fails here, rather
than as a ``KeyError`` or a missing layer figure in a traced benchmark run.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

import communityplan.io  # noqa: E402
import instances  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_wrapped_attribute_exists():
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in spans.WRAPPED
               if attr not in vars(owner)]
    assert missing == []


def test_install_wraps_and_uninstall_restores():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in spans.WRAPPED]
    tracer = spans.Tracer()
    tracer.install()
    try:
        replaced = [vars(owner)[attr] is not original for owner, attr, original in originals]
    finally:
        tracer.uninstall()
    assert all(replaced)
    kept = [f"{owner.__name__}.{attr}" for owner, attr, original in originals
            if vars(owner)[attr] is not original]
    assert kept == []


def test_every_span_is_recorded_by_the_warm_up(tmp_path):
    # the library looks each wrapped name up where the tracer replaces it,
    # so the benchmark's warm-up, which calls every layer once, opens each span
    tracer = spans.Tracer()
    tracer.install()
    try:
        data = instances.data_directory(tmp_path / "data", 1, 0)
        history = communityplan.io.ingest_community(data).history
        workloads.warm_up(history, 0, tmp_path)
    finally:
        tracer.uninstall()
    recorded = {span["name"] for span in tracer.spans}
    assert sorted({name for _, _, name, *_ in spans.WRAPPED} - recorded) == []
