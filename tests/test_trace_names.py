"""The traced benchmark reads per-function metrics by fedssl name.

`perfbench/run.py --trace 1` looks up every `module.function.<field>` (and
`module.Class.method.<field>`) of its LAYER_METRICS in the tracer's table,
which names each public fedssl callable after its defining module. A renamed
or deleted function therefore makes the traced run fail with a KeyError;
this test catches that without running the benchmark.
"""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
TIMED_FIELDS = (".calls", ".self_s", ".total_s")


def _layer_metric_names() -> list[str]:
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_METRICS" for t in node.targets
        ):
            return [name for name, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"no LAYER_METRICS assignment in {RUN_PY}")


def _problem(traced: str) -> str | None:
    module, *path = traced.split(".")
    try:
        obj = importlib.import_module(f"fedssl.{module}")
        for part in path:
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        return f"{traced}: {exc}"
    if any(part.startswith("_") for part in path):
        return f"{traced}: not public"
    if not callable(obj) or isinstance(obj, type):
        return f"{traced}: not a function"
    if len(path) == 1 and (obj.__module__, obj.__name__) != (f"fedssl.{module}", path[0]):
        return f"{traced}: traced as {obj.__module__}.{obj.__name__}"
    return None


def test_traced_functions_resolve_in_fedssl():
    traced = sorted({
        name.rsplit(".", 1)[0] for name in _layer_metric_names() if name.endswith(TIMED_FIELDS)
    })
    assert len(traced) > 20
    problems = [p for p in map(_problem, traced) if p is not None]
    assert problems == []
