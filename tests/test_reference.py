"""The textbook reference (tests/reference.py) is independent of the pass
it checks, and right on its own terms.
"""

import ast
from pathlib import Path

import numpy as np

from fedssl.nn import ModelSpec, central_diff, init_params

import reference


def test_the_reference_takes_only_the_layout_from_fedssl():
    tree = ast.parse(Path(reference.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {f"{node.module}.{alias.name}" for alias in node.names}
    assert {name for name in imported if name.split(".")[0] == "fedssl"} == {"fedssl.nn.ModelSpec"}


def test_the_reference_gradient_matches_central_differences():
    spec = ModelSpec(input_dim=4, hidden_dims=(6, 5), num_classes=3)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(9, spec.input_dim))
    targets = rng.integers(0, spec.num_classes, size=9)
    weights = (rng.random(9) < 0.7).astype(np.float64)
    values = init_params(spec, 1).values

    def loss(v):
        return reference.loss_and_grad(v, spec, x, targets, weights)[0]

    _, grad, probs = reference.loss_and_grad(values, spec, x, targets, weights)
    np.testing.assert_allclose(grad, central_diff(loss, values, 1e-6), rtol=1e-5, atol=1e-8)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)
