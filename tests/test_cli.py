"""End-to-end checks of the command line layer, run in process."""

import io
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tatekit import cli, serial
from tatekit.errors import TheoremViolationError, TooLargeError, TransferNonzeroError
from tatekit.gmodule import MAX_PERMUTATION_GROUP_ORDER, augmentation_kernel_module, cyclic, klein_four
from tatekit.local import DEFAULT_PRECISION, MAX_LIFT_BITS
from tatekit.matrices import IntMatrix
from tatekit.serial import MAX_MODULE_RANK
from tatekit.sha import MAX_CONE_RANK
from tatekit.tower import MAX_LEVEL_RANK, MAX_RHO_BITS


def mul_table(g):
    return [[g.mul(a, b) for b in g.elements()] for a in g.elements()]


def matrix_rows(m):
    return [list(row) for row in m.entries]


def klein_scenario():
    v4 = klein_four()
    aug = augmentation_kernel_module(v4)
    return {
        "theta": {"mul_table": mul_table(v4)},
        "module": {
            "rank": 3,
            "generators": [
                {"element_index": g, "matrix": matrix_rows(aug.act(g))} for g in (1, 2)
            ],
        },
        "places": [
            {"label": "v1", "decomposition_members": [0, 1]},
            {"label": "v2", "decomposition_members": [0, 2]},
            {"label": "v3", "decomposition_members": [0, 3]},
        ],
    }


def quarter_scenario():
    g = cyclic(4)
    return {
        "theta": {"mul_table": mul_table(g)},
        "module": {
            "rank": 2,
            "generators": [{"element_index": 1, "matrix": [[0, -1], [1, 0]]}],
        },
        "places": [
            {"label": "v", "decomposition_members": [0, 1, 2, 3]},
            {"label": "u", "decomposition_members": [0, 1, 2, 3]},
        ],
    }


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    body = json.loads(captured.out) if captured.out else None
    return code, body, captured.err


def write(tmp_path, name, obj) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


# -- single operations -------------------------------------------------------


def test_snf_report_shape(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"matrix": [[2, 4], [6, 8]]})
    code, body, _ = run_cli(capsys, ["snf", path])
    assert code == 0
    assert body["op"] == "snf"
    assert body["version"]
    assert len(body["input_digest"]) == 64
    assert body["result"]["diagonal"] == ["2", "4"]
    assert body["result"]["rank"] == "2"


def test_digest_ignores_formatting_and_int_spelling(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"matrix": [[2, 4], [6, 8]]})
    b = tmp_path / "b.json"
    b.write_text('{\n  "matrix": [ [ "2", "4" ],\n               [ "6", "8" ] ]\n}\n')
    _, body_a, _ = run_cli(capsys, ["snf", a])
    _, body_b, _ = run_cli(capsys, ["snf", str(b)])
    assert body_a == body_b


def test_reports_are_byte_deterministic(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"matrix": [[1, 2], [3, 4]]})
    cli.main(["snf", path])
    first = capsys.readouterr().out
    cli.main(["snf", path])
    second = capsys.readouterr().out
    assert first == second
    assert first.endswith("\n")


def _stdin(data: bytes):
    """Standard input as the interpreter opens it in UTF-8 mode."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def test_stdin_and_out_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", _stdin(b'{"theta_order": 4}'))
    out = tmp_path / "report.json"
    code = cli.main(["exponents", "-", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    body = json.loads(out.read_text())
    assert body["result"] == {"theta_order": "4", "lam": "2", "rho": "49", "d": "52"}
    # stdin is decoded as strictly as a file: a byte that is not UTF-8, even
    # inside a string that no op reads, is a parse error
    monkeypatch.setattr(sys, "stdin", _stdin(b'{"theta_order": 4, "note": "\xff"}'))
    code, body, err = run_cli(capsys, ["exponents", "-"])
    assert code == 1 and body["error"]["code"] == "PARSE_ERROR" and err == ""


def test_tate_and_transfer_ops(tmp_path, capsys):
    payload = {
        "group": {"mul_table": mul_table(cyclic(4))},
        "module": {
            "rank": 2,
            "generators": [{"element_index": 1, "matrix": [[0, -1], [1, 0]]}],
        },
    }
    path = write(tmp_path, "tate.json", payload)
    code, body, _ = run_cli(capsys, ["tate", path])
    assert code == 0
    assert body["result"]["coinvariants"]["invariant_factors"] == ["2"]
    assert body["result"]["h_minus1"]["invariant_factors"] == ["2"]
    assert body["result"]["h0"]["order"] == "1"

    payload["subgroup_members"] = [0, 2]
    payload["class"] = ["1"]
    path = write(tmp_path, "transfer.json", payload)
    code, body, _ = run_cli(capsys, ["transfer", path])
    assert code == 0
    assert body["result"]["target"]["invariant_factors"] == ["2", "2"]
    assert body["result"]["nonzero"] is True


def test_counterexample_op(tmp_path, capsys):
    path = write(tmp_path, "c.json", {"p": 13})
    code, body, _ = run_cli(capsys, ["counterexample-local", path])
    assert code == 0
    res = body["result"]
    assert res["period"] == "2"
    assert res["index_divisibility"] == "4"
    assert [b["square_class"] for b in res["branches"]] == ["eps", "pi", "eps*pi"]
    assert all(b["restriction_nonzero"] is True for b in res["branches"])


def test_teichmuller_reads_its_precision_from_the_payload(tmp_path, capsys):
    path = write(tmp_path, "t.json", {"p": 5, "alpha": 2, "precision": 3})
    code, body, _ = run_cli(capsys, ["teichmuller", path])
    assert code == 0
    assert body["result"]["precision"] == "3"
    assert body["result"]["value"] == "57"
    assert body["result"]["digits"] == ["2", "1", "2"]  # 57 = 2 + 1*5 + 2*25

    path = write(tmp_path, "t2.json", {"p": 5, "alpha": 2})
    _, body, _ = run_cli(capsys, ["teichmuller", path])
    assert body["result"]["precision"] == str(DEFAULT_PRECISION) == "8"

    path = write(tmp_path, "t3.json", {"p": 5, "alpha": 2, "precision": "zero"})
    code, body, _ = run_cli(capsys, ["teichmuller", path])
    assert code == 1 and body["error"]["code"] == "SCHEMA_ERROR"


def test_quad_sub_op(tmp_path, capsys):
    path = write(tmp_path, "q.json", {"p": 5, "f": 1, "e": 2, "alpha": 2})
    code, body, _ = run_cli(capsys, ["quad-sub", path])
    assert code == 0
    assert body["result"]["square_class"] == "eps*pi"
    assert body["result"]["is_unit_class"] is False
    assert body["result"]["derivation"]

    path = write(tmp_path, "q2.json", {"p": 5, "f": 1, "e": 3})
    code, body, _ = run_cli(capsys, ["quad-sub", path])
    assert code == 1
    assert body["error"]["code"] == "ODD_DEGREE"


def test_sha1_op(tmp_path, capsys):
    path = write(tmp_path, "s.json", {"scenario": klein_scenario()})
    code, body, _ = run_cli(capsys, ["sha1", path])
    assert code == 0
    res = body["result"]
    assert res["s_form"]["invariant_factors"] == ["2"]
    assert res["shapiro_form"]["invariant_factors"] == ["2"]
    assert res["agree"] is True


def test_obstruction_op(tmp_path, capsys):
    scen = quarter_scenario()
    scen["local_classes"] = {"v": [1], "u": [1]}
    path = write(tmp_path, "o.json", {"scenario": scen})
    code, body, _ = run_cli(capsys, ["tate-obstruction", path])
    assert code == 0
    assert body["result"]["verdict"] == "EXISTS"

    scen["local_classes"] = {"v": [1]}
    path = write(tmp_path, "o2.json", {"scenario": scen})
    code, body, _ = run_cli(capsys, ["tate-obstruction", path])
    assert code == 0
    assert body["result"]["verdict"] == "OBSTRUCTED"
    assert body["result"]["obstruction"] == ["1"]

    del scen["local_classes"]
    path = write(tmp_path, "o3.json", {"scenario": scen})
    code, body, _ = run_cli(capsys, ["tate-obstruction", path])
    assert code == 1
    assert body["error"]["code"] == "SCHEMA_ERROR"


def test_subgroup_bound_op(tmp_path, capsys):
    path = write(tmp_path, "g.json", {"group": {"mul_table": mul_table(klein_four())}})
    code, body, _ = run_cli(capsys, ["subgroup-bound", path])
    assert code == 0
    assert body["result"]["subgroup_count"] == "5"
    assert body["result"]["holds"] is True


def test_split_sim_op(tmp_path, capsys):
    payload = {
        "scenario": klein_scenario(),
        "n": 2,
        "sigma": [
            {"label": "v1", "generators": [[1, 1]]},
            {"label": "v2", "generators": [[2, 1]]},
            {"label": "v3", "generators": [[3, 1]]},
        ],
        "alpha": [1],
    }
    path = write(tmp_path, "tower.json", payload)
    code, body, _ = run_cli(capsys, ["split-sim", path])
    assert code == 0
    res = body["result"]
    assert res["chosen_s"] == "3"
    assert res["cardinality_sequence"] == ["7", "13", "13"]
    assert res["transfer_vanished"] is True
    assert res["alpha1_nonzero"] is True
    assert res["splitting_degree"] == {"base": "2", "exponent": "2"}
    assert res["bound"] == {"base": "2", "exponent": "49"}


def test_the_tower_labels_its_auxiliary_place_apart_from_the_base_places(tmp_path, capsys):
    # no report names the auxiliary place, so relabelling the base places to
    # the auxiliary place's usual label and its first alternative changes nothing
    code, plain, _ = run_cli(capsys, ["split-sim", write(tmp_path, "plain.json", klein_tower([1]))])
    payload = klein_tower([1])
    for i, label in enumerate(["w", "w'"]):
        payload["scenario"]["places"][i]["label"] = payload["sigma"][i]["label"] = label
    code, body, _ = run_cli(capsys, ["split-sim", write(tmp_path, "w.json", payload)])
    assert code == 0, body
    assert body["result"] == plain["result"]


# -- failure modes -------------------------------------------------------------


def test_schema_error_exits_one(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"matrix": "nope"})
    code, body, _ = run_cli(capsys, ["snf", path])
    assert code == 1
    assert body["error"]["code"] == "SCHEMA_ERROR"


def test_parse_error_and_missing_file(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    # not JSON; a UTF-16 byte order mark; a byte that is not UTF-8 in a string
    for data in (b"{not json", b"\xff\xfe{}", b'{"matrix": [[1]], "note": "\xff"}'):
        broken.write_bytes(data)
        for argv in (["snf", str(broken)], ["run", "--batch", str(broken)]):
            code, body, err = run_cli(capsys, argv)
            assert code == 1 and body["error"]["code"] == "PARSE_ERROR" and err == "", (data, argv)
    code, body, _ = run_cli(capsys, ["snf", str(tmp_path / "absent.json")])
    assert code == 1 and body["error"]["code"] == "DOMAIN_ERROR"


@pytest.mark.parametrize("batch", [False, True])
def test_an_unwritable_out_is_a_domain_error_on_stdout(tmp_path, batch):
    # like an unreadable input: a clean error body, exit 1, no traceback
    payload = {"matrix": [[2, 4], [6, 8]]}
    if batch:
        argv = ["run", "--batch", write(tmp_path, "b.json", {"jobs": [{"op": "snf", "input": payload}]})]
    else:
        argv = ["snf", write(tmp_path, "m.json", payload)]
    out = str(tmp_path / "no" / "such" / "dir" / "o.json")
    src = str(Path(cli.__file__).resolve().parents[1])
    for target in (out, str(tmp_path)):  # a missing directory, and a directory
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "tatekit.cli", *argv, "--out", target],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == ""
        error = json.loads(proc.stdout)["error"]
        assert error["code"] == "DOMAIN_ERROR"
        assert error["message"].startswith(f"cannot write {target!r}: ")


@pytest.mark.parametrize("perms", [[[0, 5, 1]], [[1, 0], [0, 2, 1]]])
def test_a_permutation_payload_that_is_no_permutation_is_a_schema_error(tmp_path, capsys, perms):
    path = write(tmp_path, "g.json", {"group": {"permutations": perms}})
    code, body, _ = run_cli(capsys, ["subgroup-bound", path])
    assert code == 1
    assert body["error"]["code"] == "SCHEMA_ERROR"
    assert body["error"]["message"].startswith("input.group.permutations: ")
    # in a batch, the jobs beside it keep their reports
    path = write(tmp_path, "batch.json", {"jobs": [
        {"op": "subgroup-bound", "input": {"group": {"permutations": perms}}},
        {"op": "subgroup-bound", "input": {"group": {"permutations": [[1, 2, 0]]}}},
    ]})
    code, body, _ = run_cli(capsys, ["run", "--batch", path])
    bad, good = body["reports"]
    assert code == 1 and bad["error"]["code"] == "SCHEMA_ERROR"
    assert good["result"]["subgroup_count"] == "2"


def _symmetric_group(n):
    """S_n on a transposition and an n-cycle."""
    return {"permutations": [[1, 0, *range(2, n)], [*range(1, n), 0]]}


@pytest.mark.parametrize("n", [7, 8])
def test_a_permutation_group_past_the_order_bound_is_refused_at_once(tmp_path, capsys, n):
    for op, payload in (("subgroup-bound", {}), ("tate", {"module": {"rank": 1}})):
        path = write(tmp_path, "g.json", {"group": _symmetric_group(n), **payload})
        started = time.perf_counter()
        code, body, err = run_cli(capsys, [op, path])
        assert time.perf_counter() - started < 0.25
        assert code == 1 and err == ""
        assert body["error"] == {
            "code": "TOO_LARGE",
            "message": f"input.group.permutations: the group's order exceeds the supported bound {MAX_PERMUTATION_GROUP_ORDER}",
        }


def klein_tower(alpha):
    sigma = [{"label": f"v{g}", "generators": [[g, 1]]} for g in (1, 2, 3)]
    return {"scenario": klein_scenario(), "n": 2, "sigma": sigma, "alpha": alpha}


def quarter_classes(classes):
    return {"scenario": {**quarter_scenario(), "local_classes": classes}}


def quarter_transfer(coords):
    scenario = quarter_scenario()
    return {"group": scenario["theta"], "module": scenario["module"], "subgroup_members": [0, 2], "class": coords}


@pytest.mark.parametrize(
    "op,payload,field,got",
    [
        ("split-sim", klein_tower([1, 0]), "input.alpha", 2),
        ("split-sim", klein_tower([]), "input.alpha", 0),
        ("tate-obstruction", quarter_classes({"v": [1, 1]}), "input.scenario.local_classes.v", 2),
        ("tate-obstruction", quarter_classes({"v": [1], "u": []}), "input.scenario.local_classes.u", 0),
        ("transfer", quarter_transfer([1, 0]), "input.class", 2),
    ],
)
def test_class_coordinates_of_the_wrong_length_are_a_schema_error(tmp_path, capsys, op, payload, field, got):
    error = {"code": "SCHEMA_ERROR", "message": f"{field}: expected 1 coordinates, got {got}"}
    path = write(tmp_path, "in.json", payload)
    code, body, _ = run_cli(capsys, [op, path])
    assert code == 1
    assert body["error"] == error
    # in a batch, the jobs beside it keep their reports
    path = write(tmp_path, "batch.json", {"jobs": [
        {"op": "split-sim", "input": klein_tower([1])},
        {"op": op, "input": payload},
        {"op": "tate-obstruction", "input": quarter_classes({"v": [1]})},
    ]})
    code, body, _ = run_cli(capsys, ["run", "--batch", path])
    tower, bad, obstruction = body["reports"]
    assert code == 1
    assert tower["result"]["alpha_trace"][0] == ["level_1", ["2"]]
    assert bad == {"op": op, "error": error}
    assert obstruction["result"]["verdict"] == "OBSTRUCTED"


@pytest.mark.parametrize("label", [5, ["x"], None, ""])
def test_a_sigma_label_that_is_no_string_is_a_schema_error(tmp_path, capsys, label):
    error = {"code": "SCHEMA_ERROR", "message": "input.sigma[1].label: expected a non-empty string"}
    payload = klein_tower([1])
    payload["sigma"][1]["label"] = label
    path = write(tmp_path, "in.json", payload)
    code, body, _ = run_cli(capsys, ["split-sim", path])
    assert code == 1
    assert body["error"] == error
    # in a batch, the good tower keeps its report
    path = write(tmp_path, "batch.json", {"jobs": [
        {"op": "split-sim", "input": klein_tower([1])},
        {"op": "split-sim", "input": payload},
    ]})
    code, body, _ = run_cli(capsys, ["run", "--batch", path])
    good, bad = body["reports"]
    assert code == 1
    assert good["result"]["alpha_trace"][0] == ["level_1", ["2"]]
    assert bad == {"op": "split-sim", "error": error}


def test_a_float_under_an_unread_key_still_gets_a_digest(tmp_path, capsys):
    path = write(tmp_path, "in.json", {"theta_order": 4, "note": 1.5})
    code, body, _ = run_cli(capsys, ["exponents", path])
    assert code == 0
    assert body["result"]["rho"] == "49" and len(body["input_digest"]) == 64


def test_a_residue_degree_of_any_size_answers_at_once(tmp_path, capsys):
    # alpha = 2 is a nonsquare mod 5 and stays one in every odd-degree extension
    def too_slow(signum, frame):
        raise TimeoutError("quad-sub with f = 10^40 + 1 is still running")

    path = write(tmp_path, "q.json", {"p": 5, "f": 10**40 + 1, "e": 2, "alpha": 2})
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        started = time.perf_counter()
        code, body, _ = run_cli(capsys, ["quad-sub", path])
        elapsed = time.perf_counter() - started
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0 and elapsed < 1.0
    assert body["result"]["square_class"] == "eps*pi"


def test_bool_is_not_an_integer(tmp_path, capsys):
    path = write(tmp_path, "b.json", {"theta_order": True})
    code, body, _ = run_cli(capsys, ["exponents", path])
    assert code == 1
    assert body["error"]["code"] == "SCHEMA_ERROR"


def test_theorem_violations_map_to_exit_two():
    assert cli._exit_code(TheoremViolationError("x")) == 2
    assert cli._exit_code(TransferNonzeroError("x")) == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("tatekit ")


@pytest.mark.parametrize("argv", [["bogus", "x"], ["sha1"]], ids=" ".join)
def test_usage_errors_exit_one(argv, capsys):
    # exit 2 is kept for theorem violations
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: tatekit") and "error: " in err


# -- batches -----------------------------------------------------------------------


def test_run_rejects_unknown_op(tmp_path, capsys):
    path = write(tmp_path, "batch.json", {"jobs": [{"op": "frobnicate", "input": {}}]})
    code, body, _ = run_cli(capsys, ["run", "--batch", path])
    assert code == 1
    assert body["error"]["code"] == "SCHEMA_ERROR"
    assert body["error"]["message"].startswith("batch.jobs[0].op: ")


def test_batch_preserves_order_and_aggregates_exit(tmp_path, capsys):
    jobs = {
        "jobs": [
            {"op": "exponents", "input": {"theta_order": 1}},
            {"op": "teichmuller", "input": {"p": 5, "alpha": 0}},  # zero input fails
            {"op": "exponents", "input": {"theta_order": 4}},
        ]
    }
    path = write(tmp_path, "batch.json", jobs)
    code, body, _ = run_cli(capsys, ["run", "--batch", path])
    assert code == 1
    reports = body["reports"]
    assert len(reports) == 3
    assert reports[0]["result"]["rho"] == "1"
    assert reports[1]["error"]["code"] == "ZERO_INPUT"
    assert reports[1]["op"] == "teichmuller"
    assert reports[2]["result"]["rho"] == "49"


def test_batch_of_successes_exits_zero(tmp_path, capsys):
    jobs = {
        "jobs": [
            {"op": "exponents", "input": {"theta_order": k}} for k in (1, 2, 3, 4, 8, 16)
        ]
    }
    path = write(tmp_path, "batch.json", jobs)
    code, body, _ = run_cli(capsys, ["run", "--batch", path])
    assert code == 0
    assert [r["result"]["theta_order"] for r in body["reports"]] == [
        "1", "2", "3", "4", "8", "16",
    ]


def test_empty_batch(tmp_path, capsys):
    path = write(tmp_path, "batch.json", {"jobs": []})
    code, body, _ = run_cli(capsys, ["run", "--batch", path])
    assert code == 0
    assert body["reports"] == []


def test_batch_rejects_non_list(tmp_path, capsys):
    path = write(tmp_path, "batch.json", {"jobs": {"op": "exponents"}})
    code, body, _ = run_cli(capsys, ["run", "--batch", path])
    assert code == 1 and body["error"]["code"] == "SCHEMA_ERROR"


# -- rank-0 modules and the cached parser ------------------------------------


def rank_zero_scenario(matrix):
    return {
        "theta": {"mul_table": mul_table(cyclic(2))},
        "module": {"rank": 0, "generators": [{"element_index": 1, "matrix": matrix}]},
        "places": [{"label": "v", "decomposition_members": [0, 1]}],
    }


@pytest.mark.parametrize("matrix", [[[5, 7], [1, 2]], [[3]]])
def test_rank_zero_module_rejects_a_nonempty_generator(tmp_path, capsys, matrix):
    path = write(tmp_path, "s.json", {"scenario": rank_zero_scenario(matrix)})
    code, body, _ = run_cli(capsys, ["sha1", path])
    assert code == 1
    assert body["error"]["code"] == "SCHEMA_ERROR"
    assert "expected 0x0" in body["error"]["message"]


def test_rank_zero_module_accepts_the_empty_generator(tmp_path, capsys):
    path = write(tmp_path, "s.json", {"scenario": rank_zero_scenario([])})
    code, body, _ = run_cli(capsys, ["sha1", path])
    assert code == 0
    assert body["result"]["s_form"]["order"] == "1"
    assert body["result"]["agree"] is True


def test_parser_survives_a_rejected_command_line(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"matrix": [[2, 4], [6, 8]]})
    assert cli.main(["snf", path]) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit):
        cli.main(["snf", path, "--no-such-flag"])
    capsys.readouterr()
    assert cli.main(["snf", path]) == 0
    assert capsys.readouterr().out == first


# -- plain lines and the full parser --------------------------------------------

VALID_ARGVS = (
    [[name, "in.json"] for name in cli._HANDLERS]
    + [
        ["snf", "in.json", "--out", "-"],
        ["snf", "in.json", "--out", ""],
        ["snf", "--out", "o.json", "-"],
        ["run", "--batch", "b.json"],
        ["run", "--out", "o.json", "--batch", "-"],
    ]
)


@pytest.mark.parametrize("argv", VALID_ARGVS, ids=" ".join)
def test_one_command_parser_matches_the_full_parser(argv):
    # the plain-line reader took the place of the one-command parser
    assert vars(cli._read_plain_line(argv)) == vars(cli._build_parser().parse_args(argv))


def test_plain_lines_never_build_a_parser(monkeypatch):
    def refuse():
        raise AssertionError("built the argparse parser")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    for argv in VALID_ARGVS:
        assert cli._parse_args(argv).command == argv[0]


def test_a_plain_line_never_imports_argparse(tmp_path):
    path = write(tmp_path, "e.json", {"theta_order": 4})
    program = (
        "import sys\n"
        "from tatekit import cli\n"
        "loaded = lambda: sys.stderr.write(f\"{'argparse' in sys.modules}\\n\")\n"
        "loaded()\n"
        f"cli.main(['exponents', {path!r}])\n"
        "loaded()\n"
        "try:\n"
        "    cli.main(['-h'])\n"
        "except SystemExit:\n"
        "    loaded()\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-B", "-c", program], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), check=True,
    )
    assert json.loads(proc.stdout.splitlines()[0])["result"]["rho"] == "49"
    assert "usage: tatekit" in proc.stdout
    assert proc.stderr == "False\nFalse\nTrue\n"


REJECTED_OR_HELP_ARGVS = (
    [[name, "-h"] for name in cli._COMMANDS]
    + [[name] for name in cli._HANDLERS]  # missing input
    + [
        ["snf", "in.json", "--no-such-flag"],
        ["run", "--batch", "b.json", "--no-such-flag"],
        ["run", "--batch"],
        ["run"],
        ["run", "job.json"],
        ["run", "job.json", "--batch", "b.json"],
        ["snf", "in.json", "extra"],
        ["snf", "--trace", "in.json"],
        ["snf", "in.json", "--tr"],
        ["run", "job.json", "extra"],
        ["frobnicate", "in.json"],
        ["sn", "in.json"],
        [],
        ["-h"],
        ["--version"],
        ["snf", "in.json", "--version"],
        ["--trace", "snf", "in.json"],
        ["snf", "in.json", "--out"],
        ["snf", "in.json", "--out", "--trace"],
        ["snf", "in.json", "--batch", "b.json"],
    ]
)

# spellings argparse accepts that the plain-line reader leaves to it
ARGPARSE_ONLY_ARGVS = [
    ["snf", "--out=o.json", "in.json"],
    ["snf", "in.json", "--ou", "o.json"],
    ["run", "--bat", "b.json"],
    ["snf", "--", "in.json"],
    ["snf", "-5"],
    ["snf", "in.json", "--out", "a", "--out", "b"],
]


@pytest.mark.parametrize(
    "argv", REJECTED_OR_HELP_ARGVS + ARGPARSE_ONLY_ARGVS, ids=lambda a: " ".join(a) or "(none)"
)
def test_the_plain_line_reader_declines_every_other_line(argv):
    assert cli._read_plain_line(argv) is None


@pytest.mark.parametrize("argv", ARGPARSE_ONLY_ARGVS, ids=" ".join)
def test_lines_the_reader_declines_parse_as_argparse_parses_them(argv):
    assert vars(cli._parse_args(argv)) == vars(cli._build_parser().parse_args(argv))


def _exit_of(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("argv", REJECTED_OR_HELP_ARGVS, ids=lambda a: " ".join(a) or "(none)")
def test_rejected_and_help_lines_exit_as_the_full_parser_does(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = _exit_of(cli._build_parser().parse_args, argv, capsys)
    assert _exit_of(cli.main, argv, capsys) == expected


def test_main_without_arguments_reads_sys_argv(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "e.json", {"theta_order": 4})
    monkeypatch.setattr(sys, "argv", ["tatekit", "exponents", path])
    assert cli.main() == 0
    assert json.loads(capsys.readouterr().out)["result"]["rho"] == "49"


# -- oversized inputs ------------------------------------------------------------


@pytest.mark.parametrize(
    "entry, says",
    [
        ("1" * 5000, "5000 digits"),
        ("-" + "9" * 4301, "4301 digits"),
        ("2²", "expected an integer"),
    ],
)
def test_integer_string_int_cannot_convert_is_a_schema_error(tmp_path, capsys, entry, says):
    path = write(tmp_path, "m.json", {"matrix": [[entry]]})
    code, body, _ = run_cli(capsys, ["snf", path])
    assert code == 1
    assert body["error"]["code"] == "SCHEMA_ERROR"
    assert body["error"]["message"].startswith("input.matrix[0][0]: ")
    assert says in body["error"]["message"]


def test_json_number_past_the_digit_limit_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "e.json"
    path.write_text('{"theta_order": %s}' % ("1" * 5000))
    code, body, _ = run_cli(capsys, ["exponents", str(path)])
    assert code == 1
    assert body["error"]["code"] == "PARSE_ERROR"


def _nested(depth: int) -> str:
    """An exponents payload with an unread key nested ``depth`` arrays deep."""
    return '{"theta_order": 4, "x": %s}' % ("[" * depth + "]" * depth)


@pytest.mark.parametrize("depth", [2_000, 100_000])
def test_a_payload_too_deep_to_load_is_a_parse_error(tmp_path, capsys, depth):
    path = tmp_path / "deep.json"
    for text in (_nested(depth), '{"jobs": [{"op": "exponents", "input": %s}]}' % _nested(depth)):
        path.write_text(text)
        for argv in (["exponents", str(path)], ["run", "--batch", str(path)]):
            code, body, err = run_cli(capsys, argv)
            assert code == 1 and err == ""
            assert body["error"] == {"code": "PARSE_ERROR", "message": "the payload nests too deeply to load"}


def test_a_payload_too_deep_to_digest_fails_its_job_alone(tmp_path, capsys):
    # deep enough for serial.encode, whose recursion takes two Python frames
    # a level, but not for json.loads, which takes one
    path = tmp_path / "deep.json"
    path.write_text(_nested(800))
    code, body, err = run_cli(capsys, ["exponents", str(path)])
    assert code == 1 and err == ""
    assert body["error"] == {"code": "PARSE_ERROR", "message": "the payload nests too deeply to digest"}
    path.write_text('{"jobs": [%s, {"op": "exponents", "input": {"theta_order": 4}}]}'
                    % ('{"op": "exponents", "input": %s}' % _nested(800)))
    code, body, err = run_cli(capsys, ["run", "--batch", str(path)])
    deep, plain = body["reports"]
    assert code == 1 and err == ""
    assert deep == {"op": "exponents", "error": {"code": "PARSE_ERROR", "message": "the payload nests too deeply to digest"}}
    assert plain["result"]["rho"] == "49"


def test_batch_keeps_its_reports_beside_an_oversized_integer(tmp_path, capsys):
    jobs = {
        "jobs": [
            {"op": "exponents", "input": {"theta_order": 4}},
            {"op": "snf", "input": {"matrix": [["1" * 5000]]}},
        ]
    }
    path = write(tmp_path, "batch.json", jobs)
    code, body, _ = run_cli(capsys, ["run", "--batch", path])
    assert code == 1
    first, second = body["reports"]
    assert first["result"]["rho"] == "49"
    assert second["op"] == "snf"
    assert second["error"]["code"] == "SCHEMA_ERROR"
    assert second["error"]["message"].startswith("input.matrix[0][0]: ")


def _timed_teichmuller(capsys, path):
    started = time.perf_counter()
    result = run_cli(capsys, ["teichmuller", path])
    return result, time.perf_counter() - started


def test_lift_precision_past_the_bound_is_too_large(tmp_path, capsys):
    path = write(tmp_path, "t.json", {"p": 5, "alpha": 2, "precision": "10000"})
    (code, body, _), seconds = _timed_teichmuller(capsys, path)
    assert code == 1 and body["error"]["code"] == "TOO_LARGE" and seconds < 1
    assert "30000" in body["error"]["message"]
    assert str(MAX_LIFT_BITS) in body["error"]["message"]


def test_lift_precision_at_the_bound_succeeds(tmp_path, capsys):
    under = MAX_LIFT_BITS // 3  # 5 has three bits
    path = write(tmp_path, "t.json", {"p": 5, "alpha": 2, "precision": under})
    code, body, _ = run_cli(capsys, ["teichmuller", path])
    assert code == 0 and body["result"]["precision"] == str(under)
    assert len(body["result"]["digits"]) == under


def test_exponents_past_the_rho_bound_is_too_large(tmp_path, capsys):
    path = write(tmp_path, "e.json", {"theta_order": "1" + "0" * 200})
    started = time.perf_counter()
    code, body, _ = run_cli(capsys, ["exponents", path])
    assert time.perf_counter() - started < 1
    assert code == 1 and body["error"]["code"] == "TOO_LARGE"
    assert str(MAX_RHO_BITS) in body["error"]["message"]


def _trivial_group_jobs(rank: int) -> dict:
    """One payload of each op that reads a module, on the trivial group."""
    group, module = {"mul_table": [[0]]}, {"rank": rank}
    scenario = {"theta": group, "module": module, "places": [{"label": "v", "decomposition_members": [0]}]}
    return {
        "tate": {"group": group, "module": module},
        "transfer": {"group": group, "module": module, "subgroup_members": [0], "class": [0] * rank},
        "sha1": {"scenario": scenario},
        "tate-obstruction": {"scenario": {**scenario, "local_classes": {"v": []}}},
        "split-sim": {"scenario": scenario, "n": 2, "sigma": [{"label": "v", "generators": [[0, 1]]}]},
    }


@pytest.mark.parametrize("op", sorted(_trivial_group_jobs(0)))
def test_a_module_rank_past_the_bound_is_too_large(tmp_path, capsys, op):
    # the trivial group has no generator matrix to bound the rank
    rank = MAX_MODULE_RANK + 1
    path = write(tmp_path, "in.json", _trivial_group_jobs(rank)[op])
    code, body, _ = run_cli(capsys, [op, path])
    assert code == 1 and body["error"]["code"] == "TOO_LARGE"
    assert str(rank) in body["error"]["message"] and str(MAX_MODULE_RANK) in body["error"]["message"]


def test_a_module_rank_at_the_bound_is_read(tmp_path, capsys):
    path = write(tmp_path, "in.json", _trivial_group_jobs(MAX_MODULE_RANK)["sha1"])
    code, body, _ = run_cli(capsys, ["sha1", path])
    assert code == 0 and body["result"]["agree"] is True


def test_batch_keeps_its_reports_beside_an_oversized_theta_order(tmp_path, capsys):
    jobs = {
        "jobs": [
            {"op": "exponents", "input": {"theta_order": "1" + "0" * 200}},
            {"op": "exponents", "input": {"theta_order": str(2**64 - 1)}},
            {"op": "exponents", "input": {"theta_order": 4}},
        ]
    }
    path = write(tmp_path, "batch.json", jobs)
    code, body, _ = run_cli(capsys, ["run", "--batch", path])
    assert code == 1
    too_large, largest, small = body["reports"]
    assert too_large["error"]["code"] == "TOO_LARGE"
    order = 2**64 - 1
    assert largest["result"]["rho"] == str((order - 1) * order**63 + 1)
    assert small["result"]["rho"] == "49"


def _one_point_places(rank: int, count: int) -> dict:
    """A trivial-group scenario: a module of ``rank`` and ``count`` one-point places."""
    places = [{"label": f"v{i}", "decomposition_members": [0]} for i in range(count)]
    return {"theta": {"mul_table": [[0]]}, "module": {"rank": rank}, "places": places}


def _one_point_tower(rank: int, count: int) -> dict:
    sigma = [{"label": f"v{i}", "generators": [[0, 1]]} for i in range(count)]
    return {"scenario": _one_point_places(rank, count), "n": 2, "sigma": sigma, "alpha": []}


def past_the_place_budgets() -> dict:
    """Per op, (rank, bound, payload): on the trivial group the sha1 cone has
    rank r(|S| - 1), and the level-s place module of split-sim rank r|S|."""
    return {
        "sha1": (MAX_CONE_RANK + 1, MAX_CONE_RANK, {"scenario": _one_point_places(MAX_CONE_RANK + 1, 2)}),
        "split-sim": (MAX_LEVEL_RANK + 1, MAX_LEVEL_RANK, _one_point_tower(1, MAX_LEVEL_RANK + 1)),
    }


@pytest.mark.parametrize("op", sorted(past_the_place_budgets()))
def test_place_data_past_the_budget_is_too_large(tmp_path, capsys, op):
    rank, bound, payload = past_the_place_budgets()[op]
    path = write(tmp_path, "in.json", payload)
    started = time.perf_counter()
    code, body, _ = run_cli(capsys, [op, path])
    assert time.perf_counter() - started < 1
    assert code == 1 and body["error"]["code"] == "TOO_LARGE"
    assert f"rank {rank}, over the bound of {bound}" in body["error"]["message"]


def test_a_cone_at_the_bound_is_built(tmp_path, capsys):
    path = write(tmp_path, "in.json", {"scenario": _one_point_places(MAX_CONE_RANK, 2)})
    code, body, _ = run_cli(capsys, ["sha1", path])
    assert code == 0 and body["result"]["agree"] is True


def past_the_snf_budget() -> dict:
    """A 100 x 100 matrix with random entries in [-9, 9]: its Smith form
    alone took 15.7 s, with transform entries of up to 29,215 bits."""
    rng = random.Random(100)
    return {"matrix": [[rng.randint(-9, 9) for _ in range(100)] for _ in range(100)]}


def test_a_matrix_past_the_snf_budget_is_too_large(tmp_path, capsys):
    path = write(tmp_path, "in.json", past_the_snf_budget())
    started = time.perf_counter()
    code, body, _ = run_cli(capsys, ["snf", path])
    assert time.perf_counter() - started < 1
    assert code == 1 and body["error"]["code"] == "TOO_LARGE"
    cost = cli._snf_cost(IntMatrix.from_rows(past_the_snf_budget()["matrix"]))
    assert cost > cli.MAX_SNF_COST
    assert f"estimated cost of {cost}, over the bound of {cli.MAX_SNF_COST}" in body["error"]["message"]


def past_the_digit_limit() -> dict:
    """A 2 x 2 matrix of random 12,000-bit entries: inside the snf budget, but
    its determinant, the last diagonal entry, has about 7,200 decimal digits."""
    rng = random.Random(12000)
    return {"matrix": [[str(rng.getrandbits(12000)) for _ in range(2)] for _ in range(2)]}


def test_a_report_integer_past_the_digit_limit_is_too_large(tmp_path, capsys):
    matrix = IntMatrix.from_rows([[int(x) for x in row] for row in past_the_digit_limit()["matrix"]])
    assert cli._snf_cost(matrix) <= cli.MAX_SNF_COST
    code, body, _ = run_cli(capsys, ["snf", write(tmp_path, "in.json", past_the_digit_limit())])
    assert code == 1 and body["error"]["code"] == "TOO_LARGE"
    assert " bits " in body["error"]["message"]
    assert str(sys.get_int_max_str_digits()) in body["error"]["message"]
    with pytest.raises(TooLargeError, match="an integer of 20001 bits"):  # a transform entry
        serial.encode(IntMatrix.from_rows([[0, 1 << 20000]]))


def test_batch_keeps_its_reports_beside_a_report_past_the_digit_limit(tmp_path, capsys):
    jobs = {"jobs": [{"op": "exponents", "input": {"theta_order": 4}}, {"op": "snf", "input": past_the_digit_limit()}]}
    out = tmp_path / "out.json"
    assert cli.main(["run", "--batch", write(tmp_path, "batch.json", jobs), "--out", str(out)]) == 1
    first, second = json.loads(out.read_text())["reports"]
    assert first["result"]["rho"] == "49"
    assert second["op"] == "snf" and second["error"]["code"] == "TOO_LARGE"


def test_a_matrix_at_the_snf_budget_answers(tmp_path, capsys, monkeypatch):
    # a 24 x 24 matrix, the largest shape of ops-mix; with the bound moved to
    # its estimate it answers as before, and one below it is refused
    rows = [[(5 * i + 11 * j + i * j) % 19 - 9 for j in range(24)] for i in range(24)]
    path = write(tmp_path, "in.json", {"matrix": rows})
    code, body, _ = run_cli(capsys, ["snf", path])
    assert code == 0
    cost = cli._snf_cost(IntMatrix.from_rows(rows))
    assert cost <= cli.MAX_SNF_COST
    monkeypatch.setattr(cli, "MAX_SNF_COST", cost)
    assert run_cli(capsys, ["snf", path])[:2] == (code, body)
    monkeypatch.setattr(cli, "MAX_SNF_COST", cost - 1)
    code, body, _ = run_cli(capsys, ["snf", path])
    assert code == 1 and body["error"]["code"] == "TOO_LARGE"
    assert f"estimated cost of {cost}, over the bound of {cost - 1}" in body["error"]["message"]


def test_a_level_at_the_bound_is_built(tmp_path, capsys, monkeypatch):
    # the Klein tower builds a level of rank (set_sizes[-1] - 1) * 3; with the
    # bound moved to that rank it answers, and one below it is refused
    from tatekit import tower

    path = write(tmp_path, "in.json", klein_tower([1]))
    code, body, _ = run_cli(capsys, ["split-sim", path])
    level = (int(body["result"]["set_sizes"][-1]) - 1) * 3
    monkeypatch.setattr(tower, "MAX_LEVEL_RANK", level)
    assert run_cli(capsys, ["split-sim", path])[:2] == (code, body)
    monkeypatch.setattr(tower, "MAX_LEVEL_RANK", level - 1)
    code, body, _ = run_cli(capsys, ["split-sim", path])
    assert code == 1 and body["error"]["code"] == "TOO_LARGE"
    assert f"rank {level}, over the bound of {level - 1}" in body["error"]["message"]
