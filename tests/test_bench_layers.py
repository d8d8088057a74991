"""The benchmark's traced layers exist in the program.

``sandbench/tracer.py`` wraps each layer by its attribute name on the owning
module or class, so a renamed or moved function would otherwise show only in
a traced benchmark run.  The tracer source is read and executed here, not
imported, so that nothing is written under ``sandbench/``.
"""

from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "sandbench" / "tracer.py"


def test_every_traced_layer_resolves():
    namespace = {"__name__": "sandbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    targets = namespace["layer_targets"]()
    missing = [name for owner, attr, name, _ in targets if attr not in vars(owner)]
    assert targets and not missing
