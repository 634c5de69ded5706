"""The benchmark's tracer wraps package functions by name; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


TRACED = load_traced()


@pytest.mark.parametrize("module_name, attr, span", TRACED, ids=[span for *_, span in TRACED])
def test_traced_name_resolves(module_name, attr, span):
    # `Tracer.install` looks each name up with no default, so a missing one
    # makes every `--trace 1` run fail.
    owner = importlib.import_module(f"twinfield_qka.{module_name}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert callable(getattr(owner, name)), span
    if path:
        # Methods are rewrapped through the class's own classmethod entry.
        assert isinstance(vars(owner).get(name), classmethod), span
