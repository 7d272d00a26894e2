"""Command line front end.

Every subcommand reads one JSON payload (a file path or ``-`` for stdin),
runs the corresponding library operation, and prints a canonical report:
sorted keys, integers as decimal strings, the package version, the op, a
sha256 digest of the canonical input, and the op's result; nothing else.
``run --batch`` executes a file of job objects ``{"op": ..., "input": ...}``,
one after another in file order.  A report is a function of its payload
alone.  A plain command line is read without argparse; any other spelling,
help and ``--version`` go to the full argparse parser, which alone prints
usage and errors.  A report or error that cannot be written to ``--out``
becomes a domain error, printed to stdout.

Exit codes: 0 on success, 1 when the input is outside an operation's domain
(including parse and schema problems), 2 when a certified statement fails
to verify, which indicates corrupted inputs or a genuine bug.
"""

from __future__ import annotations

import sys
from functools import cache
from math import isqrt
from types import SimpleNamespace

from . import __version__, serial
from .abgroup import class_in
from .errors import (
    CoordinateLengthError,
    DomainError,
    Frozen,
    SchemaError,
    TatekitError,
    TheoremViolationError,
    TooLargeError,
)
from .gmodule import coinvariants, tate_h0, tate_h_minus1, transfer
from .local import (
    DEFAULT_PRECISION,
    TameExtDescriptor,
    quadratic_subextension_with_trace,
    residue_field,
    teichmuller_lift,
)
from .matrices import smith_normal_form
from .periodindex import verify_counterexample_local
from .sha import sha1_forms, tate_obstruction
from .tower import degree_exponents, simulate_splitting_tower, subgroup_bound_check

# the largest _snf_cost the snf op accepts: about 2 s for the whole op on a 2-core Xeon
MAX_SNF_COST = 10**9


class Job(Frozen):
    """One operation and its JSON payload; immutable."""

    _fields = ("op", "payload")


def _group_dict(group) -> dict:
    size = group.size()
    return {
        "invariant_factors": list(group.invariant_factors),
        "free_rank": group.free_rank,
        "order": size if isinstance(size, int) else None,
    }


# -- handlers; each returns its report's result -----------------------------


def _snf_cost(mat) -> int:
    """The snf op's cost, estimated from the shape and the entry bits before
    it runs: (2m^2 + mn + n^2) * (k^2 * w * isqrt(w) + 400) for an m x n
    matrix with k = min(m, n) pivots and w = 4 + the largest entry's bit
    length.

    Each pivot's passes run over the rows of s, u and u^-1 and the columns
    of v and v^-1, whose entries grow with k and w; the constant term is the
    building and printing of the transforms, which dominates when k is
    small.  The weights are fitted to the op's time on random matrices.
    """
    m, n = mat.rows, mat.cols
    k = min(m, n)
    w = 4 + max((x.bit_length() for row in mat.entries for x in row), default=0)
    return (2 * m * m + m * n + n * n) * (k * k * w * isqrt(w) + 400)


def _op_snf(payload: dict):
    mat = serial.load_matrix(payload.get("matrix"), "input.matrix")
    cost = _snf_cost(mat)
    if cost > MAX_SNF_COST:
        raise TooLargeError(
            f"the Smith form of a {mat.rows} x {mat.cols} matrix has an estimated cost of {cost}, "
            f"over the bound of {MAX_SNF_COST}"
        )
    sf = smith_normal_form(mat)
    return {
        "diagonal": list(sf.diagonal),
        "rank": sf.rank,
        "u": sf.u,
        "s": sf.s,
        "v": sf.v,
        "u_inv": sf.u_inv,
        "v_inv": sf.v_inv,
    }


def _load_group_module(payload: dict):
    group = serial.load_group(payload.get("group"), "input.group")
    module = serial.load_module(group, payload.get("module"), "input.module")
    return group, module


def _op_tate(payload: dict):
    _, module = _load_group_module(payload)
    co = coinvariants(module)
    h1 = tate_h_minus1(module)
    h0 = tate_h0(module)
    return {
        "coinvariants": _group_dict(co.group),
        "h_minus1": _group_dict(h1.group),
        "h_minus1_generators": [list(v) for v in h1.generator_vectors()],
        "h0": _group_dict(h0.group),
    }


def _op_transfer(payload: dict):
    group, module = _load_group_module(payload)
    sub = serial.load_subgroup(group, payload.get("subgroup_members"), "input.subgroup_members")
    coords = serial.parse_ints(payload.get("class", []), "input.class")
    co = coinvariants(module)
    try:
        x = class_in(co.group, coords, "input.class")
    except CoordinateLengthError as exc:
        raise SchemaError(str(exc)) from None
    image = transfer(module, sub, x)
    return {
        "source": _group_dict(co.group),
        "class": list(x.coords),
        "target": _group_dict(image.group),
        "transferred": list(image.coords),
        "nonzero": not image.is_zero(),
    }


def _op_counterexample(payload: dict):
    p = serial.parse_int(payload.get("p", 5), "input.p")
    q = serial.parse_int(payload["q"], "input.q") if "q" in payload else None
    trivial = payload.get("trivial_class", False)
    if not isinstance(trivial, bool):
        raise SchemaError("input.trivial_class: expected a boolean")
    report = verify_counterexample_local(p, q, trivial_class=trivial)
    return {
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


def _op_teichmuller(payload: dict):
    p = serial.parse_int(payload.get("p"), "input.p")
    alpha = serial.parse_int(payload.get("alpha"), "input.alpha")
    precision = serial.parse_int(payload.get("precision", DEFAULT_PRECISION), "input.precision")
    field = residue_field(p)
    lift = teichmuller_lift(alpha, field, precision)
    digits = []
    x = lift.value
    for _ in range(precision):
        digits.append(x % p)
        x //= p
    return {
        "p": p,
        "alpha": alpha % p,
        "precision": precision,
        "modulus": lift.modulus,
        "value": lift.value,
        "digits": digits,
    }


def _op_quad_sub(payload: dict):
    p = serial.parse_int(payload.get("p"), "input.p")
    r = serial.parse_int(payload.get("r", 1), "input.r")
    f = serial.parse_int(payload.get("f"), "input.f")
    e = serial.parse_int(payload.get("e"), "input.e")
    raw_alpha = payload.get("alpha", 1)
    if isinstance(raw_alpha, list):
        alpha = serial.parse_ints(raw_alpha, "input.alpha")
    else:
        alpha = serial.parse_int(raw_alpha, "input.alpha")
    wild = serial.parse_int(payload.get("wild_exponent", 0), "input.wild_exponent")
    field = residue_field(p, r)
    cls, lines = quadratic_subextension_with_trace(TameExtDescriptor(f, e, alpha, wild), field)
    return {
        "square_class": cls.label(),
        "is_unit_class": cls.is_unit,
        "derivation": lines,
    }


def _op_sha1(payload: dict):
    data, _ = serial.load_scenario(payload.get("scenario"), "input.scenario")
    by_inclusion, by_local, agree = sha1_forms(data)
    return {
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


def _op_obstruction(payload: dict):
    data, classes = serial.load_scenario(payload.get("scenario"), "input.scenario")
    if classes is None:
        raise SchemaError("input.scenario.local_classes: missing")
    try:
        res = tate_obstruction(data, classes)
    except CoordinateLengthError as exc:
        raise SchemaError(f"input.scenario.{exc}") from None
    return {
        "verdict": res.verdict,
        "exists": res.exists,
        "obstruction": list(res.obstruction.coords),
        "target_invariants": list(res.target_invariants),
        "contributions": [[label, list(c)] for label, c in res.contributions],
        "local_classes": [[label, list(c)] for label, c in res.local_classes],
    }


def _op_subgroup_bound(payload: dict):
    group = serial.load_group(payload.get("group"), "input.group")
    rep = subgroup_bound_check(group)
    return {
        "group_order": rep.group_order,
        "lam": rep.lam,
        "subgroup_count": rep.subgroup_count,
        "bound": rep.bound,
        "holds": rep.holds,
    }


def _op_exponents(payload: dict):
    triple = degree_exponents(serial.parse_int(payload.get("theta_order"), "input.theta_order"))
    return {
        "theta_order": triple.theta_order,
        "lam": triple.lam,
        "rho": triple.rho,
        "d": triple.d,
    }


def _op_split_sim(payload: dict):
    cfg, alpha = serial.load_tower(payload, "input")
    try:
        rep = simulate_splitting_tower(cfg, alpha)
    except CoordinateLengthError as exc:
        raise SchemaError(f"input.{exc}") from None
    return {
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


def parse_job(obj, where: str) -> Job:
    obj = serial.expect_dict(obj, where)
    op = obj.get("op")
    if op not in _HANDLERS:
        raise SchemaError(f"{where}.op: expected one of {sorted(_HANDLERS)}, got {op!r}")
    return Job(op, serial.expect_dict(obj.get("input"), f"{where}.input"))


def run_job(job: Job) -> dict:
    """The job's report, encoded once, here: an integer too long to print
    fails this job with ``TooLargeError``, not the writing of its report."""
    result = _HANDLERS[job.op](job.payload)
    return serial.encode({
        "version": __version__,
        "op": job.op,
        "input_digest": serial.input_digest(job.payload),
        "result": result,
    })


def _error_body(exc: TatekitError) -> dict:
    return {"error": {"code": exc.code, "message": str(exc)}}


def _exit_code(exc: TatekitError) -> int:
    return 2 if isinstance(exc, TheoremViolationError) else 1


def _read_payload(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path!r}: {exc}") from None


def _emit(body: dict, out: str | None, code: int) -> int:
    """Write an encoded body (see ``run_job``) as one canonical line and
    return ``code``; if ``out`` cannot be written, print that domain error
    to stdout instead and return its code."""
    text = serial.dumps(body) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code
        except OSError as exc:
            error = DomainError(f"cannot write {out!r}: {exc}")
            text, code = serial.dumps(_error_body(error)) + "\n", _exit_code(error)
    sys.stdout.write(text)
    return code


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
            sp = sub.add_parser(name, help="execute a batch of job objects {op, input}, in order")
            sp.add_argument("--batch", required=True, help="path to a {jobs: [...]} file, or - for stdin")
        else:
            sp = sub.add_parser(name, help=f"run the {name} operation on a JSON payload")
            sp.add_argument("input", help="path to a JSON payload, or - for stdin")
        sp.add_argument("--out", help="write the report to this file instead of stdout")
    return parser


def _is_plain(token: str) -> bool:
    return token == "-" or not token.startswith("-")


def _read_plain_line(argv: list[str]) -> SimpleNamespace | None:
    """The full parser's fields for ``<op> INPUT`` or ``run --batch FILE``,
    each with ``[--out FILE]``, options in any order; None for any other line.

    It declines spellings argparse also accepts (``--out=FILE``, abbreviations,
    ``--``, a value starting with ``-``, a repeated ``--out`` or ``--batch``).
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    source = "batch" if argv[0] == "run" else "input"
    args = {"command": argv[0], source: None, "out": None}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("--out", "--batch") and args.get(token[2:], "") is None:  # declared, unset
            value = next(tokens, "--")  # a missing value is declined like an option
            if not _is_plain(value):
                return None
            args[token[2:]] = value
        elif _is_plain(token) and args.get("input", "") is None:
            args["input"] = token
        else:
            return None
    return None if args[source] is None else SimpleNamespace(**args)


def _parse_args(argv: list[str]):
    """Read a plain line directly; hand any other line to the full parser,
    which prints help, version, usage and errors as argparse does."""
    return _read_plain_line(argv) or _build_parser().parse_args(argv)


def _run_batch(path: str, out: str | None) -> int:
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
    return _emit(body, out, max((c for _, c in outcomes), default=0))


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.command == "run":
            return _run_batch(args.batch, args.out)
        payload = serial.load_json(_read_payload(args.input))
        report = run_job(Job(args.command, serial.expect_dict(payload, "input")))
    except TatekitError as exc:
        return _emit(_error_body(exc), args.out, _exit_code(exc))
    return _emit(report, args.out, 0)


if __name__ == "__main__":
    raise SystemExit(main())
