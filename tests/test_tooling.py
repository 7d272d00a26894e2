"""The benchmark's outside-in tracer must keep finding what it wraps.

``perfbench/tracer.py`` names tatekit functions, methods and lru caches by
string; a refactor that renames or uncaches one would only surface when a
traced benchmark run fails.  These checks read its tables and change nothing.
"""

import hashlib
import importlib
import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tatekit.cli  # noqa: F401  (the tracer installs over a loaded CLI)
from tatekit.matrices import IntMatrix, SmithForm, smith_normal_form

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _tracer_tables():
    mod = _tracer()
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


def test_every_smith_form_field_is_a_matrix_the_tracer_can_read():
    # a traced run reads u, v, u_inv and v_inv of every Smith form for
    # transform_bits_max, whichever of them the caller had tracked
    bits = _tracer()._bits
    # the last shape's +-1 unit-vector rows take the peeled-pivot path
    peeled = IntMatrix.from_rows([[0, 1, 0], [3, 5, 7], [-1, 0, 0], [0, 1, 0]])
    shapes = [IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12]]), IntMatrix.zeros(0, 0), IntMatrix.zeros(2, 3), peeled]
    for a, cols, inverses in itertools.product(shapes, *[(True, False)] * 2):
        sf = smith_normal_form(a, cols=cols, inverses=inverses)
        assert isinstance(sf, SmithForm)
        for field in (sf.u, sf.v, sf.u_inv, sf.v_inv):
            assert isinstance(field, IntMatrix)
            assert bits(field) >= 0


def test_every_package_attribute_named_after_a_submodule_is_that_submodule():
    # a re-exported name equal to its submodule's would shadow it, and
    # ``import tatekit.<name> as m`` would then bind that object instead
    package = importlib.import_module("tatekit")
    names = sorted(p.stem for p in Path(package.__file__).parent.glob("*.py") if p.stem != "__init__")
    assert "gmodule" in names
    for name in names:
        module = importlib.import_module(f"tatekit.{name}")
        assert getattr(package, name) is module, name


@pytest.mark.parametrize(
    "argv,digest",
    [
        (["local_counterexample.py", "--max-p", "60"], "450b8da3bc4fa3a897f075c06d655e6b62f5ceb551ef83de618f0414e38b72f0"),
        (["klein_tower.py", "--n", "2", "--alpha", "1"], "ebba790583f23831924e323a29902df5818486a1bb173cb82e7040bec4b1f740"),
        (["subgroup_bounds.py", "--max-order", "16"], "412e8bcf4daa29e3afbf120baa1d99e3c73902a68f41c05b56635ae972fe8439"),
    ],
)
def test_the_readme_scripts_print_what_they_printed(argv, digest):
    # the README's three example commands, run on this checkout's sources
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]], capture_output=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == digest


# stdlib modules that only introspection and code generation need; the CLI
# loads none of them, at import or while it runs a job
INTROSPECTION_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def _one_payload_per_op() -> dict:
    from test_cli import klein_scenario, klein_tower, mul_table, quarter_classes

    from tatekit.gmodule import cyclic, klein_four

    quarter = {
        "group": {"mul_table": mul_table(cyclic(4))},
        "module": {"rank": 2, "generators": [{"element_index": 1, "matrix": [[0, -1], [1, 0]]}]},
    }
    return {
        "snf": {"matrix": [[2, 4], [6, 8]]},
        "tate": quarter,
        "transfer": {**quarter, "subgroup_members": [0, 2], "class": ["1"]},
        "counterexample-local": {"p": 5},
        "teichmuller": {"p": 5, "alpha": 2},
        "quad-sub": {"p": 5, "f": 1, "e": 2, "alpha": 2},
        "sha1": {"scenario": klein_scenario()},
        "tate-obstruction": quarter_classes({"v": [1]}),
        "subgroup-bound": {"group": {"mul_table": mul_table(klein_four())}},
        "exponents": {"theta_order": 4},
        "split-sim": klein_tower([1]),
    }


def test_the_cli_loads_no_introspection_module_at_import_or_in_a_job(tmp_path):
    payloads = _one_payload_per_op()
    assert set(payloads) == set(tatekit.cli._HANDLERS)
    argvs = []
    for op, payload in payloads.items():
        src = tmp_path / f"{op}.json"
        src.write_text(json.dumps(payload))
        argvs.append([op, str(src), "--out", str(tmp_path / f"{op}.out.json")])
    program = (
        "import json, sys\n"
        f"watched = set({INTROSPECTION_MODULES!r})\n"
        "before = set(sys.modules)\n"
        "from tatekit import cli\n"
        "at_import = sorted((set(sys.modules) - before) & watched)\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "after_jobs = sorted((set(sys.modules) - before) & watched)\n"
        "print(json.dumps([at_import, after_jobs, codes]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-B", "-c", program], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    at_import, after_jobs, codes = json.loads(run.stdout)
    assert codes == [0] * len(argvs)
    assert at_import == []
    assert after_jobs == []


def test_no_op_runs_the_dense_forms(tmp_path, monkeypatch):
    # sha1_S, sha1_shapiro and permutation_module are the reference for the
    # tests and perfbench/record.py; with them raising, every op still runs,
    # and split-sim builds the place data of its level s and no others
    from tatekit import gmodule, sha, tower

    def refuse(*args):
        raise AssertionError("an op ran a dense Sha form")

    for module in (sha, gmodule, tower):
        for name in ("sha1_S", "sha1_shapiro", "permutation_module"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    built, real = [], sha.build_place_module

    def spy(data):
        built.append(data)
        return real(data)

    for module in (sha, tower):
        monkeypatch.setattr(module, "build_place_module", spy)
    reports = {}
    for op, payload in _one_payload_per_op().items():
        src, out = tmp_path / f"{op}.json", tmp_path / f"{op}.out.json"
        src.write_text(json.dumps(payload))
        assert tatekit.cli.main([op, str(src), "--out", str(out)]) == 0, out.read_text()
        reports[op] = json.loads(out.read_text())["result"]
    tower_result = reports["split-sim"]
    assert [data.theta.order for data in built] == [int(tower_result["effective_group_order"])]
    assert [p.label for p in built[0].places] == ["v1", "v2", "v3", "w"]
