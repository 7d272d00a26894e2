"""The benchmark's outside-in tracer must keep finding what it wraps.

``perfbench/tracer.py`` names tatekit functions, methods and lru caches by
string; a refactor that renames or uncaches one would only surface when a
traced benchmark run fails.  These checks read its tables and change nothing.
"""

import ast
import contextlib
import hashlib
import importlib
import importlib.util
import io
import itertools
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import tatekit.cli  # noqa: F401  (the tracer installs over a loaded CLI)
from tatekit.matrices import IntMatrix, SmithForm, smith_normal_form

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _perfbench(path: Path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _tracer():
    return _perfbench(TRACER)


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


def test_the_tracer_installs_resets_and_summarizes_a_traced_ops_mix_block(tmp_path):
    # a traced benchmark run installs the tracer over a loaded CLI and resets
    # it before each round; the table checks above run before install()
    program = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(TRACER.parent)!r})\n"
        f"work = {str(tmp_path)!r}\n"
        "from tatekit import cli\n"
        "import tracer, workloads\n"
        f"recorded = json.loads(open({str(TRACER.with_name('recorded.json'))!r}).read())\n"
        "block = workloads.make_jobs('ops-mix', 1, recorded)[:len(cli._HANDLERS)]\n"
        "assert sorted(job['op'] for job in block) == sorted(cli._HANDLERS)\n"
        "tr = tracer.Tracer()\n"
        "tr.install()\n"
        "tr.reset()\n"
        "codes = []\n"
        "for i, job in enumerate(block):\n"
        "    src = f'{work}/{i}.json'\n"
        "    with open(src, 'w') as fh:\n"
        "        json.dump(job['input'], fh)\n"
        "    tr.job = i\n"
        "    codes.append(cli.main([job['op'], src, '--out', f'{work}/{i}.out.json']))\n"
        "tr.absorb_caches()\n"
        "summary = tr.summary()\n"
        "tr.reset()\n"
        "print(json.dumps([codes, summary['cli.main.calls']]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-B", "-c", program], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    codes, calls = json.loads(run.stdout)
    assert codes == [0] * len(tatekit.cli._HANDLERS)
    assert calls == len(codes)


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


# the README's three example commands, and the sha256 of what each prints
README_COMMANDS = [
    (["local_counterexample.py", "--max-p", "60"], "450b8da3bc4fa3a897f075c06d655e6b62f5ceb551ef83de618f0414e38b72f0"),
    (["klein_tower.py", "--n", "2", "--alpha", "1"], "ebba790583f23831924e323a29902df5818486a1bb173cb82e7040bec4b1f740"),
    (["subgroup_bounds.py", "--max-order", "16"], "412e8bcf4daa29e3afbf120baa1d99e3c73902a68f41c05b56635ae972fe8439"),
]


@pytest.mark.parametrize("argv,digest", README_COMMANDS)
def test_the_readme_scripts_print_what_they_printed(argv, digest):
    # the README's three example commands, run on this checkout's sources
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]], capture_output=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == digest


def _run_block(source: str) -> tuple[dict, list]:
    """Run a code block statement by statement: its namespace, and the value
    of each bare expression, in order."""
    namespace, values = {}, []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return namespace, values


def test_the_readme_quick_start_computes_what_its_comments_say():
    first, second = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    _, values = _run_block(first)
    assert values[:2] == [(2,), (2, 2)]
    assert not values[2].is_zero()  # the transferred class
    namespace, values = _run_block(second)
    assert values == [(2,), (2,)]
    forms = namespace["inclusion"], namespace["localization"]
    assert [form.group_invariants for form in forms] == [(2,), (2,)] and namespace["agree"] is True


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


# the sha256 of the report of each ``_one_payload_per_op()`` job: a change to
# any report's bytes must edit this table
REPORT_DIGESTS = {
    "counterexample-local": "80d6b073442ef2efafbec407814dc00d301f46bc8d984d9ec15f3fdcd5a6b714",
    "exponents": "64888eeed7d7dab8cfcedfabffbc2452d730e03defc09e748a7ef553f487c820",
    "quad-sub": "bb2eb57814793021c5ab5ec8b724f8b72775d2eb6f1fcbd90e2840c7b37d0e92",
    "sha1": "02e27a887283da9ba797ae37733442874909d1312bd6e6edc59d9c328047e9bf",
    "snf": "8ab7caf804938472c3f8fdcd7da6b24f54a4a523e21bddbe109a61eb99b1a462",
    "split-sim": "02e5af888be724b32b793852975b0678005bec963c46c555ba298a38c40ab9c2",
    "subgroup-bound": "e320d2720412b03791f45d3a186f50e7a621e18f925ad1c1a1541a4b98feebd1",
    "tate": "f04ca05efad68245b91baa1fe445814ab1a99c4f2ad2c22a035478ac100042c6",
    "tate-obstruction": "e9f67da99b158eef1646047d6a6a806da606b4b7b6a7c001243e4a4ef8104068",
    "teichmuller": "ce2162b193d01d01e908eca988428d8ef5c8e33d996dceb48e6f2c66a76a6f64",
    "transfer": "0fb4f1efab5783b44ff9f920c259c6a2c078b131cf06719a6081961dce81d3c7",
}


REPORT_KEYS = {"version", "op", "input_digest", "result"}


def test_a_report_holds_the_version_op_input_digest_and_result_alone(tmp_path):
    payloads = _one_payload_per_op()
    reports = {}
    for op, payload in payloads.items():
        src, out = tmp_path / f"{op}.json", tmp_path / f"{op}.out.json"
        src.write_text(json.dumps(payload))
        assert tatekit.cli.main([op, str(src), "--out", str(out)]) == 0, out.read_text()
        reports[op] = json.loads(out.read_text())
        assert set(reports[op]) == REPORT_KEYS, op
        assert reports[op]["op"] == op
    for op, payload in [("snf", [1]), ("snf", {"matrix": "x"}), ("exponents", {"theta_order": 0})]:
        src, out = tmp_path / "bad.json", tmp_path / "bad.out.json"
        src.write_text(json.dumps(payload))
        assert tatekit.cli.main([op, str(src), "--out", str(out)]) == 1
        body = json.loads(out.read_text())
        assert set(body) == {"error"} and set(body["error"]) == {"code", "message"}, body
    batch, out = tmp_path / "batch.json", tmp_path / "batch.out.json"
    batch.write_text(json.dumps({"jobs": [{"op": op, "input": payload} for op, payload in payloads.items()]}))
    assert tatekit.cli.main(["run", "--batch", str(batch), "--out", str(out)]) == 0
    body = json.loads(out.read_text())
    assert set(body) == {"version", "reports"}
    for report in body["reports"]:
        assert set(report) == REPORT_KEYS
    assert body["reports"] == list(reports.values())


def test_every_ops_mix_snf_shape_is_within_the_snf_budget(monkeypatch):
    # the benchmark's snf jobs draw entries in [-9, 9]; a refused one would
    # be a failed job
    monkeypatch.syspath_prepend(str(TRACER.parent))
    workloads = _perfbench(TRACER.with_name("workloads.py"))
    for rows, cols in workloads.SNF_SHAPES:
        worst = IntMatrix(rows, cols, ((-9,) * cols,) * rows)
        assert tatekit.cli._snf_cost(worst) <= tatekit.cli.MAX_SNF_COST, (rows, cols)


def test_every_op_prints_the_report_it_printed(tmp_path, monkeypatch):
    monkeypatch.delenv("TATEKIT_PRECISION", raising=False)
    digests = {}
    for op, payload in _one_payload_per_op().items():
        src, out = tmp_path / f"{op}.json", tmp_path / f"{op}.out.json"
        src.write_text(json.dumps(payload))
        assert tatekit.cli.main([op, str(src), "--out", str(out)]) == 0, out.read_text()
        digests[op] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == REPORT_DIGESTS


def test_a_report_is_a_function_of_its_payload_alone(tmp_path, monkeypatch):
    # no module reads the environment, so a variable an older CLI read moves
    # no pinned report: teichmuller's default precision stays 8
    for path in sorted((ROOT / "src" / "tatekit").glob("*.py")):
        assert not re.search(r"environ|getenv", path.read_text()), path.name
    monkeypatch.setenv("TATEKIT_PRECISION", "zero")
    digests = {}
    for op, payload in _one_payload_per_op().items():
        src, out = tmp_path / f"{op}.json", tmp_path / f"{op}.out.json"
        src.write_text(json.dumps(payload))
        assert tatekit.cli.main([op, str(src), "--out", str(out)]) == 0, out.read_text()
        digests[op] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == REPORT_DIGESTS


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


def _entered_by_the_ops_and_the_readme_scripts(tmp_path, monkeypatch) -> set:
    """Code objects entered by one job of each op and the README commands,
    each run in process from cold caches, and the classes whose instances an
    ``__init__`` built."""
    caches = _perfbench(TRACER.with_name("worker.py")).lru_caches
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)
            if frame.f_code.co_name == "__init__" and "self" in frame.f_locals:
                entered.add(type(frame.f_locals["self"]))

    def run(fn, *args):
        for cache in caches():
            cache.cache_clear()
        sys.setprofile(profile)
        try:
            return fn(*args)
        finally:
            sys.setprofile(None)

    jobs = list(_one_payload_per_op().items())
    # a group given by permutations, so that from_permutations runs
    jobs.append(("subgroup-bound", {"group": {"permutations": [[1, 0, 2], [1, 2, 0]]}}))
    for op, payload in jobs:
        src, out = tmp_path / f"{op}.json", tmp_path / f"{op}.out.json"
        src.write_text(json.dumps(payload))
        assert run(tatekit.cli.main, [op, str(src), "--out", str(out)]) == 0, out.read_text()
    for argv, _ in README_COMMANDS:
        script = str(ROOT / "scripts" / argv[0])
        monkeypatch.setattr(sys, "argv", [script, *argv[1:]])
        with contextlib.redirect_stdout(io.StringIO()):
            run(runpy.run_path, script, None, "__main__")
    return entered


def _imported_from_tatekit(path: Path) -> set:
    """Ids of the objects a file imports from tatekit by name."""
    ids = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tatekit":
            module = importlib.import_module(node.module)
            ids.update(id(getattr(module, alias.name)) for alias in node.names)
    return ids


def _codes(obj) -> set:
    """What entering ``obj`` means: its function's code, or for a class the
    code of any function, property or method its body defines (building an
    instance of exactly that class counts too, see the caller)."""
    while hasattr(obj, "__wrapped__"):
        obj = obj.__wrapped__
    if not isinstance(obj, type):
        return {obj.__code__}
    codes = set()
    for value in vars(obj).values():
        for attr in ("fget", "func", "__func__"):
            value = getattr(value, attr, value)
        if hasattr(value, "__code__"):
            codes.add(value.__code__)
    return codes


def test_every_public_callable_is_reached_by_an_op_a_readme_script_or_the_benchmark(tmp_path, monkeypatch):
    # code that no op, README script, benchmark or acceptance criterion needs
    # is deleted, not kept for its own unit tests
    entered = _entered_by_the_ops_and_the_readme_scripts(tmp_path, monkeypatch)
    named = _imported_from_tatekit(ROOT / "perfbench" / "record.py")
    named |= _imported_from_tatekit(ROOT / "tests" / "test_acceptance.py")
    spans, caches = _tracer_tables()
    for mod_name, attr, *_ in spans + caches:
        named.add(id(getattr(importlib.import_module(f"tatekit.{mod_name}"), attr.split(".")[0])))
    package = importlib.import_module("tatekit")
    unreached = []
    for path in sorted(Path(package.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"tatekit.{path.stem}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not callable(obj) or (isinstance(obj, type) and issubclass(obj, BaseException)):
                continue
            if id(obj) not in named and obj not in entered and not _codes(obj) & entered:
                unreached.append(f"{path.stem}.{name}")
    assert not unreached, f"reached by no op, README script, benchmark or criterion: {unreached}"


def test_every_module_uses_the_names_it_imports():
    # a name imported and never read is dead code; the package's __init__
    # re-exports, and a module's __all__ names its own exports
    package = Path(importlib.import_module("tatekit").__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= set(getattr(importlib.import_module(f"tatekit.{path.stem}"), "__all__", ()))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name != "annotations" and name not in read:
                        unused.append(f"{path.stem}:{node.lineno} {name}")
    assert not unused, f"imported and never used: {unused}"
