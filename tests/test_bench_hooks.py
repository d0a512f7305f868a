"""The benchmark tracer (perfbench/tracing.py) wraps ctie functions by name
and reads some of their arguments by name; a refactor that renames either
must fail here rather than in a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path
from unittest.mock import MagicMock

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = _load_tracing().WRAPPED


class _ArgumentRecorder(dict):
    """Stands in for the bound arguments; records every name a hook reads."""

    def __init__(self):
        super().__init__()
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return MagicMock()

    def get(self, key, default=None):
        self.read.add(key)
        return MagicMock()


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("entry", WRAPPED, ids=[f"{m}.{a}" for m, a, *_ in WRAPPED])
def test_wrapped_name_resolves(entry):
    module_name, attr = entry[:2]
    assert callable(_resolve(module_name, attr))


def test_hook_arguments_are_in_the_signatures():
    seen = set()
    for module_name, attr, _layer, before, _after, step in WRAPPED:
        params = inspect.signature(_resolve(module_name, attr)).parameters
        for hook in (before, step):
            if hook is None:
                continue
            recorder = _ArgumentRecorder()
            hook(recorder)
            missing = recorder.read - set(params)
            assert not missing, f"{module_name}.{attr} has no argument {sorted(missing)}"
            seen |= recorder.read
    assert {"batch", "mode", "trace", "attention_mask"} <= seen


def test_benchmark_calls_bind_to_the_signatures():
    """perfbench/run.py calls these by keyword; each call must still bind."""
    import ctie

    calls = [
        (ctie.Extractor, (), dict(params=0, config=0, vocab=0, types=0, ontology=0)),
        (ctie.Extractor.extract_text, (None, "text"),
         dict(sentence_index=0, ontology_filter=True, confidence_floor=0.5)),
        (ctie.evaluate_model, (0, 0, 0, 0, []), dict(re_mode="gold")),
        (ctie.train_loop, ([], 0, 0), dict(model_kwargs={})),
        (ctie.TrainConfig, (), dict(epochs=1, learning_rate=0.01)),
    ]
    for fn, args, kwargs in calls:
        inspect.signature(fn).bind(*args, **kwargs)
