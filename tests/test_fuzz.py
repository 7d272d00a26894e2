"""Mutated payloads of every op get a JSON report and an exit code, never a
traceback or a hang.

Each example takes one valid payload per op (``_one_payload_per_op``) and
changes one or two of its nodes: a wrong type, a shorter or longer list, an
empty list or object, a dropped key, another label, or an integer past the
interpreter's digit limit, as a JSON number and as a decimal string.  The
job runs through ``cli.main`` in process under a ``SIGALRM`` guard.
"""

import contextlib
import io
import json
import os
import signal
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatekit import cli
from tatekit.serial import MAX_MODULE_RANK
from test_cli import past_the_place_budgets, past_the_snf_budget
from test_tooling import _one_payload_per_op

PAYLOADS = _one_payload_per_op()
DIGITS = "9" * 4400  # int() converts at most 4300 digits by default
RAW_NUMBER = "@digits@"  # written into the JSON text as a bare number of DIGITS
SECONDS_PER_JOB = 5


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _at(node, path):
    for step in path:
        node = node[step]
    return node


def _replaced(node, path, value):
    """A copy of ``node`` with ``value`` at ``path``."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(node, dict):
        return {**node, head: _replaced(node[head], rest, value)}
    return node[:head] + [_replaced(node[head], rest, value)] + node[head + 1 :]


def _mutations(node) -> list:
    """What a node may become: any wrong kind, or a near miss of its own."""
    out = [None, True, 1.5, "x", [], {}, RAW_NUMBER, DIGITS]
    if isinstance(node, int) and not isinstance(node, bool):
        out += [0, -1, node + 1, 10**40, -(10**40)]
    elif isinstance(node, str):
        out += [5, ["x"], "", node + "'"]
    elif isinstance(node, list):
        out += [[node], node[:-1], node + node[-1:]]
    elif isinstance(node, dict):
        out += [{k: v for k, v in node.items() if k != key} for key in node]
        out.append({**node, "unknown": 1})
    return out


def _run(op: str, text: str) -> tuple[int, str]:
    def too_slow(signum, frame):
        raise TimeoutError(f"{op} ran past {SECONDS_PER_JOB} s")

    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w") as fh:
            fh.write(text)
        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(SECONDS_PER_JOB)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([op, path])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue()


@settings(max_examples=500, derandomize=True)
@given(st.data())
def test_a_mutated_payload_gets_a_report_and_no_traceback(data):
    op = data.draw(st.sampled_from(sorted(PAYLOADS)), label="op")
    payload = PAYLOADS[op]
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(payload))), label="path")
        payload = _replaced(payload, path, data.draw(st.sampled_from(_mutations(_at(payload, path)))))
    text = json.dumps(payload).replace(json.dumps(RAW_NUMBER), DIGITS)
    _assert_a_report(*_run(op, text))


def _assert_a_report(code: int, out: str) -> None:
    assert code in (0, 1, 2)
    report = json.loads(out)
    assert ("error" in report) == (code != 0), report


def _module_of_rank(table, rank) -> dict:
    return {"group": {"mul_table": table}, "module": {"rank": rank}}


KNOWN_MUTATIONS = [
    ("tate", _module_of_rank([[0, 1], [1, 0]], 10**40)),
    ("tate", _module_of_rank([[0]], 10**40)),
    ("tate", _module_of_rank([[0]], MAX_MODULE_RANK + 1)),
] + [(op, payload) for op, (_, _, payload) in sorted(past_the_place_budgets().items())]
KNOWN_MUTATIONS.append(("snf", past_the_snf_budget()))


@pytest.mark.parametrize(
    "op,payload", KNOWN_MUTATIONS, ids=[f"payload{i}" for i in range(len(KNOWN_MUTATIONS))]
)
def test_a_known_mutation_gets_a_report(op, payload):
    _assert_a_report(*_run(op, json.dumps(payload)))
