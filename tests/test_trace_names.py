"""The traced benchmark reads per-function metrics by fedssl name.

`perfbench/run.py --trace 1` looks up every `module.function.<field>` (and
`module.Class.method.<field>`) of its LAYER_METRICS in the tracer's table,
which names each public fedssl callable after its defining module. The
tracer (`perfbench/tracer.py`) also wraps each method its METHODS table
names, looked up in the class's own namespace. A renamed or deleted function
or method therefore makes the traced run fail with a KeyError; these tests
catch that without running the benchmark.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RUN_PY = PERFBENCH / "run.py"
TRACER_PY = PERFBENCH / "tracer.py"
TIMED_FIELDS = (".calls", ".self_s", ".total_s")


def _literal(path: Path, name: str):
    """The literal value of a module-level assignment to name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} assignment in {path}")


def _layer_metric_names() -> list[str]:
    return [name for name, _ in _literal(RUN_PY, "LAYER_METRICS")]


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


def test_traced_methods_are_defined_on_their_classes():
    methods = _literal(TRACER_PY, "METHODS")
    assert methods
    problems = []
    for qual, names in methods.items():
        module, cls_name = qual.rsplit(".", 1)
        cls = getattr(importlib.import_module(f"fedssl.{module}"), cls_name, None)
        if not isinstance(cls, type):
            problems.append(f"{qual}: not a class")
            continue
        problems += [f"{qual}.{name}: not defined on the class" for name in names
                     if not callable(vars(cls).get(name))]
    assert problems == []
