"""Correctness oracles that share no code with tatekit.

Each check reads the job's own payload and the report the CLI wrote, and
compares invariants only: invariant factors, counts, verdicts, the closed
forms of the paper.  Generator vectors and transform matrices are never
compared, because a faster algorithm may legitimately change them.  Group
invariants come from sympy's Smith form; sha1 and split-sim answers come
from ``recorded.json``, frozen when the benchmark was defined.
"""

from __future__ import annotations

import hashlib
import json
from math import prod

from sympy import Matrix, ZZ
from sympy.matrices.normalforms import invariant_factors

import groups as G


def _ints(values) -> list[int]:
    return [int(v) for v in values]


def _smith_diagonal(rows: list[list[int]], nrows: int, ncols: int) -> list[int]:
    if not nrows or not ncols:
        return []
    return [abs(int(d)) for d in invariant_factors(Matrix(nrows, ncols, lambda i, j: rows[i][j]), domain=ZZ)]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def full_action(table, module: dict) -> dict[int, list[list[int]]]:
    """Extend the generator matrices to every element: rho(a g) = rho(a) rho(g)."""
    rank = module["rank"]
    gens = {int(e["element_index"]): [_ints(r) for r in e["matrix"]] for e in module["generators"]}
    action = {0: G.identity(rank)}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for g, m in gens.items():
                b = table[a][g]
                if b not in action:
                    action[b] = _matmul(action[a], m)
                    nxt.append(b)
        frontier = nxt
    return action


def coinvariant_shape(table, module: dict, members=None) -> tuple[list[int], int]:
    """(torsion invariant factors, free rank) of Z^r / span{(h - 1) m : h in members}."""
    rank = module["rank"]
    action = full_action(table, module)
    members = range(len(table)) if members is None else members
    cols = []
    for h in members:
        m = action[h]
        for j in range(rank):
            cols.append([m[i][j] - (1 if i == j else 0) for i in range(rank)])
    rows = [[c[i] for c in cols] for i in range(rank)]
    diag = _smith_diagonal(rows, rank, len(cols))
    torsion = [d for d in diag if d > 1]
    return torsion, rank - sum(1 for d in diag if d)


class Sizes:
    """Memoized coinvariant shapes, keyed by catalogue names."""

    def __init__(self):
        self._memo = {}
        self._groups = G.named_groups()

    def coinvariants(self, gname: str, mname: str, module: dict, members):
        key = (gname, mname, None if members is None else tuple(members))
        if key not in self._memo:
            self._memo[key] = coinvariant_shape(self._groups[gname].table, module, members)
        return self._memo[key]


def canonical_digest(payload) -> str:
    """sha256 of the canonical JSON: integers as decimal strings, sorted keys."""

    def enc(v):
        if isinstance(v, bool) or v is None or isinstance(v, str):
            return v
        if isinstance(v, int):
            return str(v)
        if isinstance(v, dict):
            return {str(k): enc(x) for k, x in v.items()}
        return [enc(x) for x in v]

    text = json.dumps(enc(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Mismatch(Exception):
    pass


def _expect(cond: bool, what: str):
    if not cond:
        raise Mismatch(what)


def _shape_of(group_dict) -> tuple[list[int], int]:
    return _ints(group_dict["invariant_factors"]), int(group_dict["free_rank"])


# -- per-op checks; each raises Mismatch ---------------------------------------


def _snf(inp, res, exp, ctx):
    rows = [_ints(r) for r in inp["matrix"]]
    diag = _smith_diagonal(rows, len(rows), len(rows[0]))
    _expect(_ints(res["diagonal"]) == diag, f"diagonal {res['diagonal']} != {diag}")
    _expect(int(res["rank"]) == sum(1 for d in diag if d), "rank")


def _tate(inp, res, exp, ctx):
    table = inp["group"]["mul_table"]
    tors, free = coinvariant_shape(table, inp["module"])
    _expect(_shape_of(res["coinvariants"]) == (tors, free), "coinvariants")
    # the norm is injective on the free part, so H^-1 is the torsion part
    _expect(_shape_of(res["h_minus1"]) == (tors, 0), "h_minus1")
    h0, h0_free = _shape_of(res["h0"])
    _expect(h0_free == 0 and all(len(table) % d == 0 for d in h0), "h0 exponent divides |G|")


def _transfer(inp, res, exp, ctx):
    table = inp["group"]["mul_table"]
    tors, free = coinvariant_shape(table, inp["module"])
    _expect(_shape_of(res["source"]) == (tors, free), "transfer source")
    tgt = coinvariant_shape(table, inp["module"], inp["subgroup_members"])
    _expect(_shape_of(res["target"]) == tgt, "transfer target")
    cls = _ints(inp["class"])
    reduced = [c % d for c, d in zip(cls, tors)] + cls[len(tors):]
    _expect(_ints(res["class"]) == reduced, "class echo")
    _expect(res["nonzero"] == any(_ints(res["transferred"])), "nonzero flag")


def _counterexample(inp, res, exp, ctx):
    trivial = inp.get("trivial_class", False)
    _expect((int(res["p"]), int(res["q"])) == (inp["p"], inp["q"]), "p, q echo")
    _expect(int(res["period"]) == (1 if trivial else 2), "period")
    _expect(int(res["index_divisibility"]) == (1 if trivial else 4), "index divisibility")
    _expect(_ints(res["h1_invariant_factors"]) == [2], "H1 of the quarter-turn plane")
    _expect(_ints(res["product_invariant_factors"]) == [2, 2, 2], "H1 of the product")
    branches = res["branches"]
    _expect(sorted(b["square_class"] for b in branches) == ["eps", "eps*pi", "pi"], "branches")
    if not trivial:
        _expect(all(b["restriction_nonzero"] and b["splits_over_quartic"] for b in branches), "witnesses")


def _teichmuller(inp, res, exp, ctx):
    p, prec = inp["p"], inp["precision"]
    mod = p**prec
    value = int(res["value"])
    _expect(int(res["modulus"]) == mod and 0 <= value < mod, "modulus")
    _expect(pow(value, p, mod) == value, "value^p == value mod p^precision")
    _expect(value % p == inp["alpha"] % p, "value == alpha mod p")
    _expect(sum(int(d) * p**i for i, d in enumerate(res["digits"])) == value, "digits")


def _quad_sub(inp, res, exp, ctx):
    p, f, alpha = inp["p"], inp["f"], inp["alpha"]
    if f % 2 == 0:
        label = "eps"
    else:
        label = "pi" if pow(alpha, (p**f - 1) // 2, p) == 1 else "eps*pi"
    _expect(res["square_class"] == label, f"square class {res['square_class']} != {label}")
    _expect(res["is_unit_class"] == (label == "eps"), "unit flag")


def _sha1(inp, res, exp, ctx):
    want = ctx["recorded"]["sha1"][exp["key"]]
    _expect(res["agree"] is True, "the two kernel descriptions disagree")
    for form in ("s_form", "shapiro_form"):
        got = _ints(res[form]["invariant_factors"])
        _expect(got == want, f"{form} {got} != recorded {want}")
        _expect(int(res[form]["order"]) == prod(want), f"{form} order")


def _obstruction(inp, res, exp, ctx):
    scen = inp["scenario"]
    table = scen["theta"]["mul_table"]
    tors, _ = coinvariant_shape(table, scen["module"])
    _expect(_ints(res["target_invariants"]) == tors, "target invariants")
    members = {p["label"]: p["decomposition_members"] for p in scen["places"]}
    echo = {lab: _ints(c) for lab, c in res["local_classes"]}
    for lab, coords in scen["local_classes"].items():
        local, _ = coinvariant_shape(table, scen["module"], members[lab])
        _expect(echo[lab] == [c % d for c, d in zip(coords, local)], f"class echo at {lab}")
    total = [0] * len(tors)
    for _, c in res["contributions"]:
        total = [t + int(x) for t, x in zip(total, c)]
    obstruction = _ints(res["obstruction"])
    _expect(obstruction == [t % d for t, d in zip(total, tors)], "obstruction is the sum of contributions")
    _expect(res["exists"] == (not any(obstruction)), "verdict")
    _expect(res["verdict"] == ("EXISTS" if res["exists"] else "OBSTRUCTED"), "verdict label")
    if not any(any(c) for c in scen["local_classes"].values()):
        _expect(res["exists"], "zero classes glue")


def _subgroup_bound(inp, res, exp, ctx):
    table = inp["group"]["mul_table"]
    key = json.dumps(table)
    if key not in ctx["subgroups"]:
        ctx["subgroups"][key] = len(G.Group("g", table).subgroups())
    n = len(table)
    lam = n.bit_length() - 1
    count = ctx["subgroups"][key]
    got = [int(res[k]) for k in ("group_order", "lam", "subgroup_count", "bound")]
    _expect(got == [n, lam, count, n**lam], f"{got} != {[n, lam, count, n**lam]}")
    _expect(res["holds"] == (count <= n**lam), "holds")


def _exponents(inp, res, exp, ctx):
    n = inp["theta_order"]
    lam = n.bit_length() - 1
    rho = (n - 1) * n**lam + 1
    got = [int(res[k]) for k in ("theta_order", "lam", "rho", "d")]
    _expect(got == [n, lam, rho, rho + lam + 1], "closed form")


TOWER_MAX_MODULUS = 4096


def tower_counts(table, sigma, n: int):
    """Place counts per level, by closing each place's generators in Theta x Z/m.

    Returns None when the modulus outgrows ``TOWER_MAX_MODULUS`` before two
    consecutive levels agree.
    """
    order = len(table)
    counts = []
    s = 1
    while True:
        m = n ** (s - 1)
        if m > TOWER_MAX_MODULUS:
            return None
        count = 1
        for entry in sigma:
            gens = [(int(t), int(c) % m) for t, c in entry["generators"]]
            seen = {(0, 0)}
            frontier = [(0, 0)]
            while frontier:
                nxt = []
                for a, x in frontier:
                    for t, c in gens:
                        b = (table[a][t], (x + c) % m)
                        if b not in seen:
                            seen.add(b)
                            nxt.append(b)
                frontier = nxt
            count += order * m // len(seen)
        counts.append(count)
        if len(counts) >= 2 and counts[-1] == counts[-2]:
            return counts
        s += 1


def _split_sim(inp, res, exp, ctx):
    want = ctx["recorded"]["split-sim"][exp["key"]]
    seq = _ints(res["cardinality_sequence"])
    _expect(int(res["chosen_s"]) == want["chosen_s"], "chosen_s")
    _expect(seq == want["cardinality_sequence"], "cardinality sequence")
    _expect(res["transfer_vanished"] is True, "transfer vanished")
    counts = tower_counts(inp["scenario"]["theta"]["mul_table"], inp["sigma"], inp["n"])
    if counts is not None:
        _expect(seq == counts and len(counts) == int(res["chosen_s"]), f"brute-force counts {counts}")


CHECKS = {
    "snf": _snf,
    "tate": _tate,
    "transfer": _transfer,
    "counterexample-local": _counterexample,
    "teichmuller": _teichmuller,
    "quad-sub": _quad_sub,
    "sha1": _sha1,
    "tate-obstruction": _obstruction,
    "subgroup-bound": _subgroup_bound,
    "exponents": _exponents,
    "split-sim": _split_sim,
}


def new_context(recorded: dict) -> dict:
    return {"recorded": recorded, "subgroups": {}}


def check(job: dict, report, ctx: dict) -> str | None:
    """None when the report is right, else the reason it is wrong."""
    if not isinstance(report, dict) or "result" not in report:
        return f"no result: {json.dumps(report)[:200]}"
    try:
        _expect(report.get("op") == job["op"], "op echo")
        _expect(report.get("input_digest") == canonical_digest(job["input"]), "input digest")
        CHECKS[job["op"]](job["input"], report["result"], job["expect"], ctx)
    except Mismatch as exc:
        return f"{job['op']}: {exc}"
    except (KeyError, TypeError, ValueError) as exc:
        return f"{job['op']}: malformed report ({type(exc).__name__}: {exc})"
    return None
