"""Write recorded.json: the sha1 and split-sim answers the oracles compare to.

Run once, at the commit that defines the benchmark, from the repository
root:  PYTHONPATH=src python3 perfbench/record.py

Every sha1 answer is recorded only when the inclusion and the localization
forms agree, and every tower answer only when its cardinality sequence
matches the brute-force count in oracles.py.  Never re-record to make a
failing check pass: a changed answer is a finding.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from oracles import tower_counts  # noqa: E402
from tatekit import serial, sha1_S, sha1_shapiro, simulate_splitting_tower  # noqa: E402


def sha_invariants(scen: dict) -> list[int]:
    data, _ = serial.load_scenario(scen)
    a, b = sha1_S(data), sha1_shapiro(data)
    if a.group_invariants != b.group_invariants:
        raise SystemExit(f"the two forms disagree on {scen}")
    return list(a.group_invariants)


def scen_of(gname, mname, places):
    return {
        "theta": W.group(gname).payload(),
        "module": W.module(gname, mname),
        "places": [{"label": f"p{i}", "decomposition_members": list(h)} for i, h in enumerate(places)],
    }


def main() -> None:
    out = {"sha1": {}, "split-sim": {}}
    for gname, mname, places in W.sha_catalogue():
        out["sha1"][W.scenario_key(gname, mname, places)] = sha_invariants(scen_of(gname, mname, places))
    for gname, places in W.LADDER:
        out["sha1"][W.scenario_key(gname, "aug", places)] = sha_invariants(scen_of(gname, "aug", places))
        print("ladder", gname, places, flush=True)
    for gname, mname, places, n in W.SMALL_TOWER:
        scen = scen_of(gname, mname, places)
        data, _ = serial.load_scenario(scen)
        kernel = list(sha1_S(data).group_invariants)
        sigma = [
            {"label": f"p{i}", "generators": [[x, 1] for x in W.group(gname).generators(h)] or [[0, 1]]}
            for i, h in enumerate(places)
        ]
        alpha = [0] * len(kernel)
        cfg, a = serial.load_tower({"scenario": scen, "n": n, "sigma": sigma, "alpha": alpha})
        rep = simulate_splitting_tower(cfg, a)
        seq = list(rep.cardinality_sequence)
        if tower_counts(scen["theta"]["mul_table"], sigma, n) != seq:
            raise SystemExit(f"brute-force counts disagree on {gname} {mname} {places} n={n}")
        out["split-sim"][W.tower_key(gname, mname, places, n)] = {
            "chosen_s": rep.chosen_s,
            "cardinality_sequence": seq,
            "transfer_vanished": rep.transfer_vanished,
            "kernel_invariants": kernel,
        }
        print("tower", gname, mname, places, n, flush=True)
    (HERE / "recorded.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
