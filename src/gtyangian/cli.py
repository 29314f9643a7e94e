"""Command-line front door: build, analyze, and report on modules.

Every report embeds the job it came from and a schema version; identical jobs
produce byte-identical JSON. Rationals are serialized as "p/q" strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from .drinfeld import (
    arithmetic_noncrossing,
    drinfeld_data,
    drinfeld_of_tensor,
    highest_weight_series,
    strong_noncrossing,
)
from .errors import INTERNAL_ERRORS, PoleError, ValidationError
from .exact import rf_str
from .glmod import build_module, verify_superalgebra
from .patterns import SuperShape, enumerate_patterns, parse_weight
from .spectra import build_xi, gt_spectrum, is_simple, zeta
from .yangian import (
    berezinian_direct_point,
    berezinian_point,
    berezinian_pole_bound,
    evaluation_action,
    skew_action,
    tensor_action,
    verify_defining_relations,
    verify_gt_lemmas,
)

SCHEMA_VERSION = 1


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational '{text}': {exc}") from exc


def _shape(args) -> SuperShape:
    try:
        return SuperShape(args.m, args.n)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _weights(args, shape: SuperShape | None):
    if not args.weight:
        raise ValidationError("at least one --weight is required")
    return [parse_weight(w, shape) for w in args.weight]


def _shifts(args, count: int):
    shifts = [_rat(s) for s in (args.shift or [])]
    if not shifts:
        shifts = [Fraction(0)] * count
    if len(shifts) == 1 and count > 1:
        shifts = shifts * count
    if len(shifts) != count:
        raise ValidationError(f"need {count} shifts, got {len(shifts)}")
    return shifts


def _build_factors(args):
    """Evaluation or skew factors from repeated --weight/--mu/--shift."""
    shape = _shape(args)
    weights = _weights(args, None)
    mus = args.mu if args.mu else [""] * len(weights)
    if len(mus) == 1 and len(weights) > 1:
        mus = mus * len(weights)
    if len(mus) != len(weights):
        raise ValidationError("need one --mu per --weight (use '' for none)")
    shifts = _shifts(args, len(weights))
    factors = []
    for w, mu_text, h in zip(weights, mus, shifts):
        mu = tuple(int(x) for x in mu_text.split(",") if x.strip() != "") if mu_text else ()
        r = len(mu)
        if len(w) != shape.size + r:
            raise ValidationError(
                f"weight {w} has {len(w)} entries; expected {shape.size + r} for r = {r}"
            )
        factors.append(skew_action(shape, w, mu, h))
    return shape, factors


def _tensor(args):
    shape, factors = _build_factors(args)
    return shape, tensor_action(factors)


def _emit(args, command: str, payload):
    job = {
        "command": command,
        "m": getattr(args, "m", None),
        "n": getattr(args, "n", None),
        "weights": list(getattr(args, "weight", []) or []),
        "mu": list(getattr(args, "mu", []) or []),
        "shifts": list(getattr(args, "shift", []) or []),
    }
    doc = {"schema_version": SCHEMA_VERSION, "tool_version": __version__, "job": job,
           "result": payload}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_patterns(args):
    shape = _shape(args)
    weight = _weights(args, shape)[0]
    pats = enumerate_patterns(shape, weight)
    return {"count": len(pats), "patterns": [p.to_json() for p in pats]}


def cmd_module(args):
    shape = _shape(args)
    weight = _weights(args, shape)[0]
    mod = build_module(shape, weight)
    return json.loads(mod.to_json())


def cmd_tensor(args):
    shape, ym = _tensor(args)
    return {
        "dim": ym.dim,
        "parity": list(ym.parity),
        "factors": [
            {"lam": list(f.lam), "mu": list(f.mu), "r": f.r, "h": str(f.h)}
            for f in ym.factors
        ],
        "t": {
            f"{i},{j}": ym.t[(i, j)].to_json_dict()
            for i in range(1, shape.size + 1)
            for j in range(1, shape.size + 1)
        },
    }


def cmd_spectrum(args):
    _, ym = _tensor(args)
    return gt_spectrum(ym).to_json_dict()


def cmd_tame(args):
    _, ym = _tensor(args)
    rep = gt_spectrum(ym)
    out = {"verdict": "tame" if rep.tame else "not_tame"}
    if rep.tame:
        out["eigenvectors"] = len(rep.eigen)
        out["separation"] = "simple" if rep.simple_spectrum else "collisions"
    return out


def cmd_drinfeld(args):
    shape = _shape(args)
    weights = _weights(args, shape)
    shifts = _shifts(args, 1)
    closed = drinfeld_of_tensor(shape, weights, shifts[0])
    mods = [evaluation_action(build_module(shape, w), shifts[0]) for w in weights]
    ym = tensor_action(mods)
    via_module = drinfeld_data(highest_weight_series(ym), shape.m, shape.n)
    return {
        "closed_form": closed.to_json_dict(),
        "from_module": via_module.to_json_dict(),
        "agree": closed == via_module,
    }


def cmd_noncross(args):
    shape = _shape(args)
    weights = _weights(args, shape)
    shifts = _shifts(args, 1)
    out = {"strong": strong_noncrossing(shape, weights, shifts[0])}
    try:
        out["arithmetic"] = arithmetic_noncrossing(shape, weights)
    except ValidationError as exc:
        out["arithmetic"] = None
        out["arithmetic_note"] = str(exc)
    return out


def cmd_skew(args):
    shape = _shape(args)
    if not args.mu:
        raise ValidationError("skew requires --mu")
    mu = tuple(int(x) for x in args.mu[0].split(",") if x.strip() != "") if args.mu[0] else ()
    weight = _weights(args, None)[0]
    h = _shifts(args, 1)[0]
    ym = skew_action(shape, weight, mu, h)
    f = ym.factors[0]
    return {
        "dim": ym.dim,
        "patterns": [p.to_json() for p in f.patterns],
        "zeta": [
            {str(k): rf_str(zeta(p, k, f.r, f.h)) for k in range(1, shape.size + 1)}
            for p in f.patterns
        ],
    }


def cmd_xi(args):
    _, ym = _tensor(args)
    out = []
    from itertools import product as iproduct

    for combo in iproduct(*(f.patterns for f in ym.factors)):
        vec = build_xi(ym, list(combo))
        out.append(
            {
                "patterns": [p.to_json() for p in combo],
                "vector": [str(x) for x in vec],
            }
        )
    return {"dim": ym.dim, "vectors": out}


def cmd_verify(args):
    suite = args.suite
    if suite == "superalgebra":
        shape = _shape(args)
        weight = _weights(args, shape)[0]
        mod = build_module(shape, weight)
        violations = [list(v) for v in verify_superalgebra(mod)]
        return {"suite": suite, "violations": violations}
    _, ym = _tensor(args)
    if suite == "defrel":
        violations = [list(v) for v in verify_defining_relations(ym)]
    elif suite == "lemmas":
        violations = [list(v) for v in verify_gt_lemmas(ym)]
    elif suite == "berezinian":
        violations = [["berezinian-mismatch", str(u0)]
                      for u0, got, want in _berezinian_checks(ym) if got != want]
    else:
        raise ValidationError(f"unknown suite '{suite}'")
    return {"suite": suite, "violations": violations}


def _berezinian_checks(ym):
    """(u0, B(u0) from the d_k, direct B(u0)) at the first three of
    u0 = 5, 7, 9, ... where both pointwise routes evaluate. More failures than
    `berezinian_pole_bound` allows mean a bug, and the last PoleError then
    stands. The bound needs the symbolic series, so it is computed only after
    a failure."""
    checks, failures, budget = [], 0, None
    u0 = Fraction(5)
    while len(checks) < 3:
        try:
            checks.append((u0, berezinian_point(ym, u0), berezinian_direct_point(ym, u0)))
        except PoleError:
            if budget is None:
                budget = berezinian_pole_bound(ym)
            failures += 1
            if failures > budget:
                raise
        u0 += 2
    return checks


def cmd_simple(args):
    _, ym = _tensor(args)
    verdict, cert = is_simple(ym)
    out = {"simple": verdict}
    if not verdict:
        out["invariant_subspace_dim"] = len(cert["invariant_subspace"])
    return out


HANDLERS = {
    "patterns": cmd_patterns,
    "module": cmd_module,
    "tensor": cmd_tensor,
    "spectrum": cmd_spectrum,
    "tame": cmd_tame,
    "drinfeld": cmd_drinfeld,
    "noncross": cmd_noncross,
    "skew": cmd_skew,
    "xi": cmd_xi,
    "verify": cmd_verify,
    "simple": cmd_simple,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtyangian",
        description="Exact Gelfand-Tsetlin computations for gl(m|n) and its Yangian modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--weight", action="append", default=[],
                       help="weight like '2,1|1,0'; repeat for tensor factors")
        p.add_argument("--mu", action="append", default=[],
                       help="gl_r weight like '1,1'; empty string for none")
        p.add_argument("--r", type=int, default=None, help="expected r (validated)")
        p.add_argument("--shift", action="append", default=[],
                       help="rational shift like '1/2'; repeat per factor")
        p.add_argument("--out", default=None)
        p.add_argument("--json", action="store_true", help="accepted for compatibility")
        if name == "verify":
            p.add_argument("--suite", required=True,
                           choices=["defrel", "superalgebra", "lemmas", "berezinian"])
    return parser


# built once per process at the first main() call; argparse copies the list
# defaults of append actions, so no state carries over between calls
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.r is not None and args.mu:
            got = len([x for x in args.mu[0].split(",") if x.strip() != ""]) if args.mu[0] else 0
            if got != args.r:
                raise ValidationError(f"--r {args.r} does not match --mu with {got} entries")
        payload = HANDLERS[args.command](args)
        _emit(args, args.command, payload)
        return 0
    except INTERNAL_ERRORS as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
