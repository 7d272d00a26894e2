"""Seeded job lists for the benchmark workloads.

A job is ``{"op", "input", "expect"}``: ``op`` and ``input`` are what the
CLI receives, ``expect`` is what the oracles need and never reaches tatekit.
Each list has a fixed size; a run repeats it for as long as it measures.

The sha-ladder list is a fixed catalogue; a seed renames its places.
ops-mix draws fresh parameters for every job over a fixed schedule of
shapes.
"""

from __future__ import annotations

import itertools
import random

import groups as G

OPS_MIX_JOBS = 132  # 12 blocks of the eleven ops, about 1 s a round

PRIMES = [p for p in range(2, 100) if all(p % d for d in range(2, p))]

# -- recorded-answer keys ----------------------------------------------------


def scenario_key(group: str, module: str, places) -> str:
    return f"{group}|{module}|" + ";".join(",".join(map(str, h)) for h in places)


def tower_key(group: str, module: str, places, n: int) -> str:
    return scenario_key(group, module, places) + f"|n={n}"


# -- the fixed catalogues ------------------------------------------------------

# (group, places as member lists); the module is the augmentation kernel,
# so rank(M[S]_0) = (sum of indices - 1) * (|G| - 1) runs from 10 to 33.
LADDER = [
    ("Z3", [(0,), (0,)]),
    ("V4", [(0, 1), (0, 2), (0, 3)]),
    ("Z5", [(0,)]),
    ("Z4", [(0,), (0,)]),
    ("V4", [(0, 1), (0,), (0,)]),
    ("V4", [(0,), (0,), (0,)]),
]

# the cheapest tower entries known to run the whole tower and vanish; ops-mix uses them
SMALL_TOWER = [
    ("Z2", "triv1", [(0,), (0, 1)], 2),
    ("Z2", "sign0", [(0,), (0, 1), (0, 1)], 4),
    ("Z3", "triv1", [(0,), (0, 1, 2)], 2),
    ("V4", "triv1", [(0, 1), (0, 2)], 4),
]

SHA_GROUPS = ("Z2", "Z4", "V4")  # the criterion-06 catalogue


GROUPS = G.named_groups()


def group(name: str) -> G.Group:
    return GROUPS[name]


def module(gname: str, mname: str) -> dict:
    g = group(gname)
    if mname == "aug":
        return G.augmentation_kernel(g)
    return G.small_modules(g)[mname]


def _labels(rng: random.Random, k: int) -> list[str]:
    return [f"v{i}-{rng.randrange(10**6):06d}" for i in range(k)]


def scenario(rng: random.Random, gname: str, mname: str, places) -> tuple[dict, list[str]]:
    labels = _labels(rng, len(places))
    return {
        "theta": group(gname).payload(),
        "module": module(gname, mname),
        "places": [
            {"label": lab, "decomposition_members": list(h)} for lab, h in zip(labels, places)
        ],
    }, labels


def tower_job(rng: random.Random, entry, recorded: dict) -> dict:
    gname, mname, places, n = entry
    key = tower_key(gname, mname, places, n)
    scen, labels = scenario(rng, gname, mname, places)
    g = group(gname)
    sigma = [
        {"label": lab, "generators": [[x, 1] for x in g.generators(h)] or [[0, 1]]}
        for lab, h in zip(labels, places)
    ]
    # any class of the kernel group killed by n; the recorded invariant
    # factors say which coordinates qualify
    alpha = [
        rng.choice([c for c in range(d) if (n * c) % d == 0])
        for d in recorded["split-sim"][key]["kernel_invariants"]
    ]
    return {
        "op": "split-sim",
        "input": {"scenario": scen, "n": n, "sigma": sigma, "alpha": alpha},
        "expect": {"key": key},
    }


# -- workloads -----------------------------------------------------------------


def sha_ladder(rng: random.Random, recorded: dict) -> list[dict]:
    jobs = []
    for gname, places in LADDER:
        scen, _ = scenario(rng, gname, "aug", places)
        jobs.append({
            "op": "sha1",
            "input": {"scenario": scen},
            "expect": {"key": scenario_key(gname, "aug", places)},
        })
    return jobs


def sha_catalogue() -> list[tuple[str, str, tuple]]:
    """Every (group, module, multiset of <= 3 subgroups) of criterion 06."""
    out = []
    for gname in SHA_GROUPS:
        g = group(gname)
        for mname in G.small_modules(g):
            for k in (1, 2, 3):
                for places in itertools.combinations_with_replacement(g.subgroups(), k):
                    out.append((gname, mname, places))
    return out


# ops-mix: one generator per op; each block of eleven jobs holds every op once.
# The k-th job of an op takes the k-th entry of a fixed schedule of shapes
# (matrix size, group and module, catalogue entry), so every seed costs about
# the same; the seed draws the entries, labels, classes and primes.

SNF_SHAPES = [(n, n) for n in range(2, 25, 2)] + [(n, 26 - n) for n in range(3, 25, 2)]
SMALL_GROUPS = ("Z2", "Z3", "Z4", "V4", "S3", "Z6")


def small_modules() -> list[tuple[str, str, dict]]:
    out = []
    for gname in SMALL_GROUPS:
        mods = dict(G.small_modules(group(gname)))
        mods["aug"] = G.augmentation_kernel(group(gname))
        out.extend((gname, mname, mods[mname]) for mname in sorted(mods))
    return out


def _snf(rng, k, ctx):
    rows, cols = SNF_SHAPES[k % len(SNF_SHAPES)]
    return {"matrix": [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]}, {}


def _tate(rng, k, ctx):
    gname, _, mod = ctx["modules"][k % len(ctx["modules"])]
    return {"group": group(gname).payload(), "module": mod}, {}


def _transfer(rng, k, ctx):
    mods = ctx["modules"]
    gname, mname, mod = mods[(5 * k) % len(mods)]
    g = group(gname)
    tors, free = ctx["sizes"].coinvariants(gname, mname, mod, None)
    payload = {
        "group": g.payload(),
        "module": mod,
        "subgroup_members": list(rng.choice(g.subgroups())),
        "class": [rng.randrange(d) for d in tors] + [rng.randint(-3, 3) for _ in range(free)],
    }
    return payload, {}


def _counterexample(rng, k, ctx):
    p = rng.choice([p for p in PRIMES if p % 4 == 1])
    return {"p": p, "q": p, "trivial_class": rng.random() < 0.25}, {}


def _teichmuller(rng, k, ctx):
    p = rng.choice(PRIMES)
    return {"p": p, "alpha": rng.randrange(1, p), "precision": rng.randint(1, 12)}, {}


def _quad_sub(rng, k, ctx):
    p = rng.choice(PRIMES[1:15])
    while True:
        f, e = rng.randint(1, 3), rng.randint(1, 6)
        if e % p and (f * e) % 2 == 0:
            break
    return {"p": p, "f": f, "e": e, "alpha": rng.randrange(1, p)}, {}


def _catalogue_entry(k, ctx):
    cat = ctx["catalogue"]
    return cat[(97 * k) % len(cat)]  # a stride that mixes groups and sizes


def _sha1(rng, k, ctx):
    gname, mname, places = _catalogue_entry(k, ctx)
    scen, _ = scenario(rng, gname, mname, places)
    return {"scenario": scen}, {"key": scenario_key(gname, mname, places)}


def _obstruction(rng, k, ctx):
    gname, mname, places = _catalogue_entry(k + 1, ctx)
    scen, labels = scenario(rng, gname, mname, places)
    classes = {}
    for lab, h in zip(labels, places):
        if rng.random() < 0.75:
            tors, _ = ctx["sizes"].coinvariants(gname, mname, scen["module"], h)
            classes[lab] = [rng.randrange(d) for d in tors]
    scen["local_classes"] = classes
    return {"scenario": scen}, {}


def _subgroup_bound(rng, k, ctx):
    """A corpus group with its non-identity elements relabelled at random."""
    g = list(GROUPS.values())[k % len(GROUPS)]
    perm = [0] + rng.sample(range(1, g.order), g.order - 1)
    table = [[0] * g.order for _ in range(g.order)]
    for a in range(g.order):
        for b in range(g.order):
            table[perm[a]][perm[b]] = perm[g.mul(a, b)]
    return {"group": {"mul_table": table}}, {}


def _exponents(rng, k, ctx):
    return {"theta_order": rng.randint(1, 64)}, {}


def _split_sim(rng, k, ctx):
    job = tower_job(rng, SMALL_TOWER[k % len(SMALL_TOWER)], ctx["recorded"])
    return job["input"], job["expect"]


OPS = {
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


def ops_mix(rng: random.Random, recorded: dict) -> list[dict]:
    from oracles import Sizes

    catalogue = sha_catalogue()
    ctx = {
        "recorded": recorded,
        "sizes": Sizes(),
        "modules": small_modules(),
        "catalogue": catalogue,
    }
    jobs = []
    made = dict.fromkeys(OPS, 0)
    while len(jobs) < OPS_MIX_JOBS:
        block = list(OPS)
        rng.shuffle(block)
        for op in block:
            payload, expect = OPS[op](rng, made[op], ctx)
            made[op] += 1
            jobs.append({"op": op, "input": payload, "expect": expect})
    return jobs[:OPS_MIX_JOBS]


WORKLOADS = {"ops-mix": ops_mix, "sha-ladder": sha_ladder}


def make_jobs(workload: str, seed: int, recorded: dict) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, recorded)
