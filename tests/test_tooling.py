"""The benchmark's outside-in tracer must keep finding what it wraps.

``perfbench/tracer.py`` names tatekit functions, methods and lru caches by
string; a refactor that renames or uncaches one would only surface when a
traced benchmark run fails.  These checks read its tables and change nothing.
"""

import importlib
import importlib.util
from pathlib import Path

import tatekit.cli  # noqa: F401  (the tracer installs over a loaded CLI)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SPANS, mod.CACHES


def test_every_traced_attribute_resolves():
    spans, _ = _tracer_tables()
    for mod_name, attr, _ in spans:
        mod = importlib.import_module(f"tatekit.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer wraps the method found in the class body itself
            assert callable(vars(getattr(mod, cls_name)).get(meth)), (mod_name, attr)
        else:
            assert callable(getattr(mod, attr, None)), (mod_name, attr)


def test_every_traced_cache_is_lru_cached():
    _, caches = _tracer_tables()
    for mod_name, attr in caches:
        fn = getattr(importlib.import_module(f"tatekit.{mod_name}"), attr)
        assert callable(getattr(fn, "cache_info", None)), (mod_name, attr)
        assert callable(getattr(fn, "cache_clear", None)), (mod_name, attr)
        assert callable(getattr(fn, "__wrapped__", None)), (mod_name, attr)


def test_the_benchmark_can_clear_the_parser_cache():
    # the benchmark clears every cache it finds before each job, so each job
    # builds its parser as a fresh process does; one it missed would stay warm
    spec = importlib.util.spec_from_file_location("perfbench_worker", TRACER.with_name("worker.py"))
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    assert callable(getattr(tatekit.cli._build_parser, "cache_clear", None))
    assert tatekit.cli._build_parser in worker.lru_caches()
