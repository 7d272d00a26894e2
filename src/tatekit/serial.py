"""JSON intake and canonical emission for the command line layer.

Integers are emitted as decimal strings so arbitrarily large values survive
any JSON consumer, and accepted leniently as either strings or plain JSON
numbers.  Canonical dumps sort keys and use tight separators, so equal
payloads serialize to identical bytes and digests are stable.
"""

from __future__ import annotations

import json

from .errors import ParseError, SchemaError
from .gmodule import (
    FiniteGroup,
    GModule,
    Subgroup,
    finite_group,
    from_permutations,
    module_from_generators,
    subgroup,
)
from .matrices import IntMatrix
from .sha import GlobalData, PlaceDatum
from .tower import TowerConfig

__all__ = [
    "canonical_dumps",
    "encode",
    "expect_dict",
    "expect_list",
    "input_digest",
    "load_group",
    "load_json",
    "load_matrix",
    "load_module",
    "load_scenario",
    "load_subgroup",
    "load_tower",
    "parse_int",
]


def load_json(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except ValueError:  # a number with more digits than int() converts (4300 by default)
        raise ParseError(
            "a JSON number exceeds the interpreter's integer conversion limit"
        ) from None


def parse_int(value, where: str) -> int:
    if isinstance(value, bool):
        raise SchemaError(f"{where}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        text = value.strip()
        body = text[1:] if text[:1] in "+-" else text
        if body.isdecimal():
            try:
                return int(text)
            except ValueError:  # more digits than int() converts (4300 by default)
                raise SchemaError(
                    f"{where}: {len(body)} digits exceed the interpreter's integer conversion limit"
                ) from None
    raise SchemaError(f"{where}: expected an integer or decimal string, got {value!r}")


def expect_dict(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    return obj


def expect_list(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected an array")
    return obj


def _get(obj: dict, key: str, where: str):
    if key not in obj:
        raise SchemaError(f"{where}.{key}: missing")
    return obj[key]


def load_matrix(obj, where: str) -> IntMatrix:
    rows = expect_list(obj, where)
    parsed = []
    width = None
    for i, row in enumerate(rows):
        row = expect_list(row, f"{where}[{i}]")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{where}[{i}]: ragged row")
        parsed.append([parse_int(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)])
    return IntMatrix(len(parsed), width or 0, tuple(map(tuple, parsed)))


def load_group(obj, where: str = "group") -> FiniteGroup:
    """Either an explicit multiplication table or permutation generators."""
    obj = expect_dict(obj, where)
    if "mul_table" in obj:
        table = expect_list(obj["mul_table"], f"{where}.mul_table")
        rows = []
        for i, row in enumerate(table):
            row = expect_list(row, f"{where}.mul_table[{i}]")
            rows.append(
                tuple(parse_int(x, f"{where}.mul_table[{i}][{j}]") for j, x in enumerate(row))
            )
        if "order" in obj and parse_int(obj["order"], f"{where}.order") != len(rows):
            raise SchemaError(f"{where}.order: does not match the table size")
        try:
            return finite_group(tuple(rows))
        except ValueError as exc:
            raise SchemaError(f"{where}.mul_table: {exc}") from None
    if "permutations" in obj:
        perms = expect_list(obj["permutations"], f"{where}.permutations")
        parsed = []
        for i, perm in enumerate(perms):
            perm = expect_list(perm, f"{where}.permutations[{i}]")
            parsed.append(
                [parse_int(x, f"{where}.permutations[{i}][{j}]") for j, x in enumerate(perm)]
            )
        try:
            return from_permutations(parsed)[0]
        except ValueError as exc:
            raise SchemaError(f"{where}.permutations: {exc}") from None
    raise SchemaError(f"{where}: needs either mul_table or permutations")


def load_module(group: FiniteGroup, obj, where: str = "module") -> GModule:
    obj = expect_dict(obj, where)
    rank = parse_int(_get(obj, "rank", where), f"{where}.rank")
    if rank < 0:
        raise SchemaError(f"{where}.rank: must be non-negative")
    gens: dict[int, IntMatrix] = {}
    for i, entry in enumerate(expect_list(obj.get("generators", []), f"{where}.generators")):
        entry = expect_dict(entry, f"{where}.generators[{i}]")
        g = parse_int(_get(entry, "element_index", f"{where}.generators[{i}]"),
                      f"{where}.generators[{i}].element_index")
        if not 0 <= g < group.order:
            raise SchemaError(f"{where}.generators[{i}].element_index: out of range")
        mat = load_matrix(_get(entry, "matrix", f"{where}.generators[{i}]"),
                          f"{where}.generators[{i}].matrix")
        if (mat.rows, mat.cols) != (rank, rank):
            raise SchemaError(f"{where}.generators[{i}].matrix: expected {rank}x{rank}")
        gens[g] = mat
    try:
        return module_from_generators(group, rank, gens)
    except ValueError as exc:
        raise SchemaError(f"{where}.generators: {exc}") from None


def load_subgroup(group: FiniteGroup, obj, where: str) -> Subgroup:
    members = [parse_int(x, f"{where}[{i}]") for i, x in enumerate(expect_list(obj, where))]
    for i, m in enumerate(members):
        if not 0 <= m < group.order:
            raise SchemaError(f"{where}[{i}]: out of range")
    try:
        return subgroup(group, members)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def load_scenario(obj, where: str = "scenario") -> tuple[GlobalData, dict[str, tuple[int, ...]] | None]:
    """Group, module, and labeled places; optional local classes ride along."""
    obj = expect_dict(obj, where)
    theta = load_group(_get(obj, "theta", where), f"{where}.theta")
    module = load_module(theta, _get(obj, "module", where), f"{where}.module")
    places = []
    seen = set()
    for i, entry in enumerate(expect_list(_get(obj, "places", where), f"{where}.places")):
        entry = expect_dict(entry, f"{where}.places[{i}]")
        label = _get(entry, "label", f"{where}.places[{i}]")
        if not isinstance(label, str) or not label:
            raise SchemaError(f"{where}.places[{i}].label: expected a non-empty string")
        if label in seen:
            raise SchemaError(f"{where}.places[{i}].label: duplicate {label!r}")
        seen.add(label)
        dec = load_subgroup(
            theta,
            _get(entry, "decomposition_members", f"{where}.places[{i}]"),
            f"{where}.places[{i}].decomposition_members",
        )
        places.append(PlaceDatum(label, dec))
    data = GlobalData(theta, module, tuple(places))
    classes = None
    if "local_classes" in obj:
        raw = expect_dict(obj["local_classes"], f"{where}.local_classes")
        classes = {}
        for label, coords in raw.items():
            if label not in seen:
                raise SchemaError(f"{where}.local_classes.{label}: unknown place")
            classes[label] = tuple(
                parse_int(x, f"{where}.local_classes.{label}[{i}]")
                for i, x in enumerate(expect_list(coords, f"{where}.local_classes.{label}"))
            )
    return data, classes


def load_tower(obj, where: str = "input") -> tuple[TowerConfig, tuple[int, ...]]:
    obj = expect_dict(obj, where)
    data, _ = load_scenario(_get(obj, "scenario", where), f"{where}.scenario")
    n = parse_int(_get(obj, "n", where), f"{where}.n")
    sigma = []
    for i, entry in enumerate(expect_list(_get(obj, "sigma", where), f"{where}.sigma")):
        entry = expect_dict(entry, f"{where}.sigma[{i}]")
        label = _get(entry, "label", f"{where}.sigma[{i}]")
        if not isinstance(label, str) or not label:
            raise SchemaError(f"{where}.sigma[{i}].label: expected a non-empty string")
        gens = []
        for j, pair in enumerate(
            expect_list(_get(entry, "generators", f"{where}.sigma[{i}]"), f"{where}.sigma[{i}].generators")
        ):
            pair = expect_list(pair, f"{where}.sigma[{i}].generators[{j}]")
            if len(pair) != 2:
                raise SchemaError(f"{where}.sigma[{i}].generators[{j}]: expected a pair")
            gens.append(
                (
                    parse_int(pair[0], f"{where}.sigma[{i}].generators[{j}][0]"),
                    parse_int(pair[1], f"{where}.sigma[{i}].generators[{j}][1]"),
                )
            )
        sigma.append((label, tuple(gens)))
    alpha = tuple(
        parse_int(x, f"{where}.alpha[{i}]")
        for i, x in enumerate(expect_list(obj.get("alpha", []), f"{where}.alpha"))
    )
    extra = obj.get("extra_label", "w")
    if not isinstance(extra, str) or not extra:
        raise SchemaError(f"{where}.extra_label: expected a non-empty string")
    try:
        cfg = TowerConfig(data, n, tuple(sigma), extra)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    return cfg, alpha


# -- emission ---------------------------------------------------------------


def encode(value):
    """Recursively convert to JSON-safe data with stringified integers; a
    float, which only a payload key that no op reads can hold, stays as is."""
    if isinstance(value, (bool, float)):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str) or value is None:
        return value
    if isinstance(value, IntMatrix):
        return [[str(x) for x in row] for row in value.entries]
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__}")


def canonical_dumps(value) -> str:
    return json.dumps(encode(value), sort_keys=True, separators=(",", ":"))


def input_digest(value) -> str:
    """Digest of the canonicalized payload, insensitive to formatting."""
    import hashlib

    return hashlib.sha256(canonical_dumps(value).encode()).hexdigest()
