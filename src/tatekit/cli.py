"""Command line front end.

Every subcommand reads one JSON payload (a file path or ``-`` for stdin),
runs the corresponding library operation, and prints a canonical report:
sorted keys, integers as decimal strings, a sha256 digest of the canonical
input, the package version, and the list of operations the derivation went
through.  ``run`` executes a job object ``{"op": ..., "input": ...}`` and
``run --batch`` a whole file of them, one after another in file order.
A plain command line is read without argparse; any other spelling, help and
``--version`` go to the full argparse parser, which alone prints usage and
errors.

Exit codes: 0 on success, 1 when the input is outside an operation's domain
(including parse and schema problems), 2 when a certified statement fails
to verify, which indicates corrupted inputs or a genuine bug.
"""

from __future__ import annotations

import os
import sys
from functools import cache
from types import SimpleNamespace

from . import __version__, serial
from .errors import CoordinateLengthError, DomainError, Frozen, SchemaError, TatekitError, TheoremViolationError
from .gmodule import coinvariants, tate_h0, tate_h_minus1, transfer
from .local import (
    TameExtDescriptor,
    quadratic_subextension_with_trace,
    residue_field,
    teichmuller_lift,
)
from .matrices import smith_normal_form
from .periodindex import verify_counterexample_local
from .sha import sha1_forms, tate_obstruction
from .tower import degree_exponents, simulate_splitting_tower, subgroup_bound_check

DEFAULT_PRECISION = 8


class Job(Frozen):
    """One operation and its JSON payload; immutable."""

    def __init__(self, op: str, payload: dict):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "payload", payload)


def _group_dict(group) -> dict:
    size = group.size()
    return {
        "invariant_factors": list(group.invariant_factors),
        "free_rank": group.free_rank,
        "order": size if isinstance(size, int) else None,
    }


# -- handlers; each returns (result, trace) ---------------------------------


def _op_snf(payload: dict):
    mat = serial.load_matrix(payload.get("matrix"), "input.matrix")
    sf = smith_normal_form(mat)
    result = {
        "diagonal": list(sf.diagonal),
        "rank": sf.rank,
        "u": sf.u,
        "s": sf.s,
        "v": sf.v,
        "u_inv": sf.u_inv,
        "v_inv": sf.v_inv,
    }
    return result, ["smith_normal_form"]


def _load_group_module(payload: dict):
    group = serial.load_group(payload.get("group"), "input.group")
    module = serial.load_module(group, payload.get("module"), "input.module")
    return group, module


def _op_tate(payload: dict):
    _, module = _load_group_module(payload)
    co = coinvariants(module)
    h1 = tate_h_minus1(module)
    h0 = tate_h0(module)
    result = {
        "coinvariants": _group_dict(co.group),
        "h_minus1": _group_dict(h1.group),
        "h_minus1_generators": [list(v) for v in h1.generator_vectors()],
        "h0": _group_dict(h0.group),
    }
    return result, ["coinvariants", "norm_induced_map", "norm_induced_map.kernel", "tate_h0"]


def _op_transfer(payload: dict):
    group, module = _load_group_module(payload)
    sub = serial.load_subgroup(group, payload.get("subgroup_members"), "input.subgroup_members")
    coords = serial.expect_list(payload.get("class", []), "input.class")
    co = coinvariants(module)
    try:
        x = co.group.element(
            tuple(serial.parse_int(c, f"input.class[{i}]") for i, c in enumerate(coords))
        )
    except ValueError as exc:
        raise SchemaError(f"input.class: {exc}") from None
    image = transfer(module, sub, x)
    result = {
        "source": _group_dict(co.group),
        "class": list(x.coords),
        "target": _group_dict(image.group),
        "transferred": list(image.coords),
        "nonzero": not image.is_zero(),
    }
    return result, ["coinvariants", "transfer_matrix", "coinvariants[restriction]", "project"]


def _op_counterexample(payload: dict):
    p = serial.parse_int(payload.get("p", 5), "input.p")
    q = serial.parse_int(payload["q"], "input.q") if "q" in payload else None
    trivial = payload.get("trivial_class", False)
    if not isinstance(trivial, bool):
        raise SchemaError("input.trivial_class: expected a boolean")
    report = verify_counterexample_local(p, q, trivial_class=trivial)
    result = {
        "p": report.p,
        "q": report.q,
        "period": report.period,
        "index_divisibility": report.index_divisibility,
        "component_orders": list(report.component_orders),
        "h1_invariant_factors": list(report.h1_invariant_factors),
        "product_invariant_factors": list(report.product_invariant_factors),
        "branches": [
            {
                "square_class": b.square_class.label(),
                "valuation": b.valuation,
                "unit_residue": list(b.unit_residue),
                "restriction_nonzero": b.restriction_nonzero,
                "transfer_vector": list(b.transfer_vector),
                "restriction_order": b.restriction_order,
                "splits_over_quartic": b.splits_over_quartic,
                "conclusion": b.conclusion,
            }
            for b in report.branches
        ],
        "imported_rules": list(report.imported_rules),
    }
    trace = [
        "counterexample_torus",
        "h1_local",
        "transfer_matrix[index-two]",
        "transfer[trivial]",
        "validate_report",
    ]
    return result, trace


def _env_precision() -> int:
    raw = os.environ.get("TATEKIT_PRECISION", str(DEFAULT_PRECISION))
    try:
        precision = int(raw)
    except ValueError:
        raise DomainError(f"TATEKIT_PRECISION must be an integer, got {raw!r}") from None
    if precision < 1:
        raise DomainError("TATEKIT_PRECISION must be positive")
    return precision


def _op_teichmuller(payload: dict):
    # the only op that reads TATEKIT_PRECISION; it is validated even when the
    # payload gives its own precision
    env_precision = _env_precision()
    p = serial.parse_int(payload.get("p"), "input.p")
    alpha = serial.parse_int(payload.get("alpha"), "input.alpha")
    precision = (
        serial.parse_int(payload["precision"], "input.precision")
        if "precision" in payload
        else env_precision
    )
    field = residue_field(p)
    lift = teichmuller_lift(alpha, field, precision)
    digits = []
    x = lift.value
    for _ in range(precision):
        digits.append(x % p)
        x //= p
    result = {
        "p": p,
        "alpha": alpha % p,
        "precision": precision,
        "modulus": lift.modulus,
        "value": lift.value,
        "digits": digits,
    }
    return result, ["residue_field", "teichmuller_lift"]


def _op_quad_sub(payload: dict):
    p = serial.parse_int(payload.get("p"), "input.p")
    r = serial.parse_int(payload.get("r", 1), "input.r")
    f = serial.parse_int(payload.get("f"), "input.f")
    e = serial.parse_int(payload.get("e"), "input.e")
    raw_alpha = payload.get("alpha", 1)
    if isinstance(raw_alpha, list):
        alpha = tuple(
            serial.parse_int(c, f"input.alpha[{i}]") for i, c in enumerate(raw_alpha)
        )
    else:
        alpha = serial.parse_int(raw_alpha, "input.alpha")
    wild = serial.parse_int(payload.get("wild_exponent", 0), "input.wild_exponent")
    field = residue_field(p, r)
    cls, lines = quadratic_subextension_with_trace(TameExtDescriptor(f, e, alpha, wild), field)
    result = {
        "square_class": cls.label(),
        "is_unit_class": cls.is_unit,
        "derivation": lines,
    }
    return result, ["residue_field", "quadratic_subextension"]


def _op_sha1(payload: dict):
    data, _ = serial.load_scenario(payload.get("scenario"), "input.scenario")
    by_inclusion, by_local, agree = sha1_forms(data)
    result = {
        "s_form": {
            "invariant_factors": list(by_inclusion.group_invariants),
            "order": by_inclusion.order,
            "generators": [list(v) for v in by_inclusion.generators],
        },
        "shapiro_form": {
            "invariant_factors": list(by_local.group_invariants),
            "order": by_local.order,
            "generators": [list(v) for v in by_local.generators],
        },
        "agree": agree,
    }
    return result, ["sha1_cone", "sha1_homology"]


def _op_obstruction(payload: dict):
    data, classes = serial.load_scenario(payload.get("scenario"), "input.scenario")
    if classes is None:
        raise SchemaError("input.scenario.local_classes: missing")
    try:
        res = tate_obstruction(data, classes)
    except CoordinateLengthError as exc:
        raise SchemaError(f"input.scenario.{exc}") from None
    result = {
        "verdict": res.verdict,
        "exists": res.exists,
        "obstruction": list(res.obstruction.coords),
        "target_invariants": list(res.target_invariants),
        "contributions": [[label, list(c)] for label, c in res.contributions],
        "local_classes": [[label, list(c)] for label, c in res.local_classes],
    }
    return result, ["local_torsion_quotient", "tate_obstruction"]


def _op_subgroup_bound(payload: dict):
    group = serial.load_group(payload.get("group"), "input.group")
    rep = subgroup_bound_check(group)
    result = {
        "group_order": rep.group_order,
        "lam": rep.lam,
        "subgroup_count": rep.subgroup_count,
        "bound": rep.bound,
        "holds": rep.holds,
    }
    return result, ["enumerate_subgroups", "subgroup_bound_check"]


def _op_exponents(payload: dict):
    triple = degree_exponents(serial.parse_int(payload.get("theta_order"), "input.theta_order"))
    result = {
        "theta_order": triple.theta_order,
        "lam": triple.lam,
        "rho": triple.rho,
        "d": triple.d,
    }
    return result, ["degree_exponents"]


def _op_split_sim(payload: dict):
    cfg, alpha = serial.load_tower(payload, "input")
    try:
        rep = simulate_splitting_tower(cfg, alpha)
    except CoordinateLengthError as exc:
        raise SchemaError(f"input.{exc}") from None
    result = {
        "theta_order": rep.theta_order,
        "n": rep.n,
        "tower_length": rep.tower_length,
        "chosen_s": rep.chosen_s,
        "cardinality_sequence": list(rep.cardinality_sequence),
        "set_sizes": list(rep.set_sizes),
        "effective_exponent": rep.effective_exponent,
        "effective_group_order": rep.effective_group_order,
        "alpha_trace": [[name, list(coords)] for name, coords in rep.alpha_trace],
        "alpha1_nonzero": rep.alpha1_nonzero,
        "transfer_vanished": rep.transfer_vanished,
        "action_images_coincide": rep.action_images_coincide,
        "mid_transfer_is_mult_n": rep.mid_transfer_is_mult_n,
        "iso_certified": rep.iso_certified,
        "splitting_degree": {"base": rep.splitting_degree[0], "exponent": rep.splitting_degree[1]},
        "bound": {"base": rep.bound[0], "exponent": rep.bound[1]},
    }
    trace = [
        "product_subgroup",
        "cardinality_scan",
        "build_place_module[level_s]",
        "sha1_cone",
        "section/collapse certification",
        "sigma_power_sum",
        "transfer",
    ]
    return result, trace


_HANDLERS = {
    "snf": _op_snf,
    "tate": _op_tate,
    "transfer": _op_transfer,
    "counterexample-local": _op_counterexample,
    "teichmuller": _op_teichmuller,
    "quad-sub": _op_quad_sub,
    "sha1": _op_sha1,
    "tate-obstruction": _op_obstruction,
    "subgroup-bound": _op_subgroup_bound,
    "exponents": _op_exponents,
    "split-sim": _op_split_sim,
}


def parse_job(obj, where: str = "job") -> Job:
    obj = serial.expect_dict(obj, where)
    op = obj.get("op")
    if op not in _HANDLERS:
        raise SchemaError(f"{where}.op: expected one of {sorted(_HANDLERS)}, got {op!r}")
    return Job(op, serial.expect_dict(obj.get("input"), f"{where}.input"))


def run_job(job: Job) -> dict:
    result, trace = _HANDLERS[job.op](job.payload)
    return {
        "version": __version__,
        "op": job.op,
        "input_digest": serial.input_digest(job.payload),
        "result": result,
        "trace": trace,
    }


def _error_body(exc: TatekitError) -> dict:
    return {"error": {"code": exc.code, "message": str(exc)}}


def _exit_code(exc: TatekitError) -> int:
    return 2 if isinstance(exc, TheoremViolationError) else 1


def _read_payload(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path!r}: {exc}") from None


def _emit(body: dict, out: str | None) -> None:
    text = serial.canonical_dumps(body) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_COMMANDS = (*_HANDLERS, "run")


@cache
def _build_parser():
    """The full argparse parser, built on first use; parsing leaves it unchanged.

    argparse is imported here, so a plain command line never loads it.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        """Usage errors exit 1, a domain error: exit 2 means a theorem violation."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = Parser(
        prog="tatekit",
        description="exact computations on group lattices, local square classes, "
        "and place-indexed kernels",
    )
    parser.add_argument("--version", action="version", version=f"tatekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        if name == "run":
            sp = sub.add_parser(name, help="execute a job object {op, input}, or a batch of them")
            sp.add_argument("input", nargs="?", help="path to a job JSON, or - for stdin")
            sp.add_argument("--batch", help="path to a {jobs: [...]} file; jobs run in order")
        else:
            sp = sub.add_parser(name, help=f"run the {name} operation on a JSON payload")
            sp.add_argument("input", help="path to a JSON payload, or - for stdin")
        sp.add_argument("--out", help="write the report to this file instead of stdout")
        sp.add_argument("--trace", action="store_true", help="echo derivation steps to stderr")
    return parser


def _is_plain(token: str) -> bool:
    return token == "-" or not token.startswith("-")


def _read_plain_line(argv: list[str]) -> SimpleNamespace | None:
    """The full parser's fields for ``<op> INPUT`` or ``run [INPUT] [--batch FILE]``,
    each with ``[--out FILE] [--trace]`` in any order; None for any other line.

    It declines spellings argparse also accepts (``--out=FILE``, abbreviations,
    ``--``, a value starting with ``-``, a repeated ``--out`` or ``--batch``).
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    args = {"command": argv[0], "input": None, "out": None, "trace": False}
    if argv[0] == "run":
        args["batch"] = None
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--trace":
            args["trace"] = True
        elif token in ("--out", "--batch") and args.get(token[2:], "") is None:  # declared, unset
            value = next(tokens, "--")  # a missing value is declined like an option
            if not _is_plain(value):
                return None
            args[token[2:]] = value
        elif _is_plain(token) and args["input"] is None:
            args["input"] = token
        else:
            return None
    if args["input"] is None and argv[0] != "run":
        return None
    return SimpleNamespace(**args)


def _parse_args(argv: list[str]):
    """Read a plain line directly; hand any other line to the full parser,
    which prints help, version, usage and errors as argparse does."""
    return _read_plain_line(argv) or _build_parser().parse_args(argv)


def _echo_trace(body: dict) -> None:
    for step in body.get("trace", []):
        sys.stderr.write(f"# {step}\n")


def _run_batch(path: str, out: str | None, trace: bool) -> int:
    obj = serial.load_json(_read_payload(path))
    obj = serial.expect_dict(obj, "batch")
    raw_jobs = obj.get("jobs")
    if not isinstance(raw_jobs, list):
        raise SchemaError("batch.jobs: expected an array")
    jobs = [parse_job(j, f"batch.jobs[{i}]") for i, j in enumerate(raw_jobs)]

    def run_one(job: Job):
        try:
            return run_job(job), 0
        except TatekitError as exc:
            return {"op": job.op, **_error_body(exc)}, _exit_code(exc)

    outcomes = [run_one(job) for job in jobs]
    body = {"version": __version__, "reports": [b for b, _ in outcomes]}
    _emit(body, out)
    if trace:
        for b, _ in outcomes:
            _echo_trace(b)
    return max((c for _, c in outcomes), default=0)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.command == "run":
            if args.batch and args.input:
                raise DomainError("give either a single job or --batch, not both")
            if args.batch:
                return _run_batch(args.batch, args.out, args.trace)
            if not args.input:
                raise DomainError("run needs a job file or --batch")
            job = parse_job(serial.load_json(_read_payload(args.input)))
        else:
            payload = serial.load_json(_read_payload(args.input))
            job = Job(args.command, serial.expect_dict(payload, "input"))
        report = run_job(job)
    except TatekitError as exc:
        _emit(_error_body(exc), getattr(args, "out", None))
        return _exit_code(exc)
    _emit(report, args.out)
    if args.trace:
        _echo_trace(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
