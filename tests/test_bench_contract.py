"""The benchmark's tracer finds every package name it wraps, and restores them.

``perfbench/spans.py`` looks functions, methods and layer classes up by name;
a renamed or removed one fails here instead of inside a benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings(spans) -> dict:
    """Every attribute of a package module or class the tracer may replace."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == spans.PACKAGE or name.startswith(spans.PACKAGE + "."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = value
    for mod, cls, meth in spans.METHODS:
        owner = getattr(importlib.import_module(f"{spans.PACKAGE}.{mod}"), cls)
        out[(mod, cls, meth)] = owner.__dict__[meth]
    layers = importlib.import_module(f"{spans.PACKAGE}.layers")
    models = importlib.import_module(f"{spans.PACKAGE}.models")
    for owner in [models.Model] + [getattr(layers, c) for c in spans.LAYER_CLASSES]:
        for meth in ("forward", "backward"):
            out[(owner.__name__, meth)] = owner.__dict__[meth]
    return out


def test_tracer_installs_and_uninstalls_cleanly():
    spans = load_spans()
    tracer = spans.Tracer()
    for mod in ("cli", "models", "training"):
        importlib.import_module(f"{spans.PACKAGE}.{mod}")
    before = package_bindings(spans)
    try:
        tracer.install()
        during = package_bindings(spans)
        for mod, attr in spans.FUNCTIONS:
            module = importlib.import_module(f"{spans.PACKAGE}.{mod}")
            assert hasattr(getattr(module, attr), "__wrapped__"), (mod, attr)
    finally:
        tracer.uninstall()
    assert during != before
    after = package_bindings(spans)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_workloads_find_every_package_name():
    """``perfbench/workloads.py`` imports, patches and reads these names."""
    from vulncascade import archive, cli, models, serialize, training

    assert callable(cli.main)
    # the scan workload swaps cli.load_model to capture the loaded models
    assert cli.load_model is serialize.load_model
    assert callable(training.predict_batched)
    assert callable(archive.load_archive)
    spec = models.ModelSpec(stage=1, vocab_size=3, embedding_dim=2, input_length=2,
                            layers=(models.FlattenSpec(), models.DenseSpec(1)))
    model = models.build_model(spec)
    training.predict_batched(model, np.array([[0, 1], [2, 0]]))
    assert model.eval_samples == 2
