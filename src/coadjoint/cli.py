"""Command line interface.

Subcommands: verify (table regression), index, invariants (generator ledger),
construct (takiff / contraction / edelta / item3), report (render a saved
verification report).  Exit codes: 0 all pass, 1 check failure,
2 configuration or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .qlinalg import SampleConfig, VerificationError


def _cfg(args):
    return SampleConfig(seed=args.seed, height=args.height, rounds=args.rounds)


def _add_sampling(p):
    default = SampleConfig()
    p.add_argument("--seed", type=int, default=default.seed)
    p.add_argument("--height", type=int, default=default.height)
    p.add_argument("--rounds", type=int, default=default.rounds)


def _summands(spec):
    """(label, multiplicity) pairs of a --module spec, in the table grammar."""
    from .atlas import _parse_module, eval_expr

    return [(label, eval_expr(mult, {}))
            for mult, label in _parse_module(spec, "--module")]


def cmd_verify(args):
    from .atlas import run_suite

    tables = (1, 2) if args.table == "all" else (int(args.table),)
    suite = run_suite(tables=tables, row_label=args.row, cfg=_cfg(args),
                      max_dim=args.max_dim, path=args.atlas,
                      validate=args.validate)
    payload = suite.as_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1)
    if args.format == "json":
        print(json.dumps(payload, indent=1))
    else:
        print(suite.render_text())
    return 0 if suite.passed else 1


def cmd_index(args):
    from .liealg import classical_algebra
    from .repn import build_module
    from .semidirect import direct_index, rais_index, semidirect

    L = classical_algebra(args.family, args.size)
    cfg = _cfg(args)
    if args.module:
        R = build_module(args.family, args.size, _summands(args.module), L=L)
        S = semidirect(L, R)
        d = direct_index(S, cfg)
        r = rais_index(S, cfg)
        print(f"s = {args.family}{args.size} |x {args.module}: dim {S.dim}")
        print(f"index (direct) = {int(d)}{'' if d.stabilised else '  [not stabilised]'}")
        print(f"index (Rais)   = {int(r)}{'' if r.stabilised else '  [not stabilised]'}")
        ok = d.stabilised and r.stabilised and int(d) == int(r)
    else:
        from .liealg import index as aindex

        ind = aindex(L, cfg)
        print(f"index {args.family}{args.size} = {int(ind)}"
              f"{'' if ind.stabilised else '  [not stabilised]'}")
        ok = ind.stabilised
    return 0 if ok else 1


def cmd_invariants(args):
    from .invariants import freeness_checklist, generator_ledger
    from .liealg import classical_algebra
    from .repn import build_module
    from .semidirect import semidirect

    L = classical_algebra(args.family, args.size)
    R = build_module(args.family, args.size, _summands(args.module), L=L)
    S = semidirect(L, R)
    led = generator_ledger(S, args.cap)
    print(f"s = {args.family}{args.size} |x {args.module}: ledger to degree {args.cap}")
    for e in led.entries:
        if e.skipped:
            print(f"  {e.multidegree}: component too large, skipped")
        elif e.dim_invariant:
            print(f"  {e.multidegree}: invariants {e.dim_invariant}, "
                  f"decomposable {e.dim_decomposable}, new {e.new_generators}")
    for proof, mdegs in led.proofs().items():
        print(f"  {', '.join(map(str, mdegs))}: zero, proved ({proof})")
    degs = led.generator_degrees()
    print(f"generator degrees up to the cap: {degs}")
    v = freeness_checklist(S, led.generators(), _cfg(args))
    print(v.summary())
    return 0 if v.all_invariant else 1


def cmd_construct(args):
    from .invariants import is_invariant

    cfg = _cfg(args)
    if args.what == "takiff":
        from .constructions import takiff
        from .liealg import classical_algebra, index as aindex

        L = classical_algebra(args.family, args.size)
        S = takiff(L)
        ind = aindex(S.total, cfg)
        print(f"{S}: dim {S.dim}, index {int(ind)}")
        return 0
    if args.what == "contraction":
        from .constructions import ContractionSpec, z2_contraction

        spec = ContractionSpec(args.pair, tuple(args.params))
        S, tops = z2_contraction(spec)
        print(f"{S}: dim {S.dim}")
        held = [is_invariant(S, P) for P in tops]
        for i, (P, ok) in enumerate(zip(tops, held)):
            print(f"  H^bullet[{i}]: degree {P.total_degree()}, "
                  f"multidegree {P.multidegree(S.blocks)}, invariant {ok}")
        return 0 if all(held) else 1
    if args.what == "edelta":
        from .constructions import (
            e_delta_restricted,
            two_block_centraliser_layout,
        )

        if len(args.params) not in (1, 2):
            raise ValueError("edelta takes --params n or --params m n")
        m, n = args.params if len(args.params) == 2 else (1, args.params[0] - 1)
        lay = two_block_centraliser_layout(m, n)
        res = e_delta_restricted(lay, args.k)
        print(f"ambient sp_{lay.N}, target {lay.target}: "
              f"H of Delta_{args.k}: degree {res.H.total_degree()}, "
              f"{len(res.H.terms)} terms, f-degree {res.f_degree} (invariant)")
        return 0
    if args.what == "item3":
        from .constructions import item3_evaluation_identity, item3_lift

        if len(args.params) != 1:
            raise ValueError("item3 takes --params n")
        res = item3_lift(args.params[0])
        degs = [(h.total_degree(), H.total_degree())
                for h, H in zip(res.quadratic, res.lifted)]
        print(f"{res.S}: lifted degrees (h -> H): {degs}")
        ok = item3_evaluation_identity(res, trials=20, seed=cfg.seed)
        print(f"evaluation identity at 20 points: {ok}")
        return 0 if ok else 1
    return 2


def cmd_report(args):
    from .atlas import render_report

    with open(args.file) as fh:
        payload = json.load(fh)
    if not (isinstance(payload, dict) and "pass" in payload
            and isinstance(payload.get("rows"), list)):
        raise ValueError(f"{args.file} holds no verification report")
    if args.format == "json":
        print(json.dumps(payload, indent=1))
    else:
        print(render_report(payload))
    return 0 if payload.get("pass") else 1


def main(argv=None):
    top = argparse.ArgumentParser(prog="coadjoint")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="re-derive the verification tables")
    p.add_argument("--table", choices=["1", "2", "all"], default="all")
    p.add_argument("--row", default=None)
    p.add_argument("--max-dim", type=int, default=400)
    p.add_argument("--atlas", default=None, help="alternate table file")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--validate", action="store_true",
                   help="also run Jacobi / representation checks per row")
    _add_sampling(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("index", help="index of g or of g |x module")
    p.add_argument("--family", required=True, choices=["gl", "sl", "so", "sp"])
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--module", default=None,
                   help="e.g. 'phi1' or '2*phi1+phi4'")
    _add_sampling(p)
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("invariants", help="generator ledger of g |x module")
    p.add_argument("--family", required=True, choices=["gl", "sl", "so", "sp"])
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--cap", type=int, required=True)
    _add_sampling(p)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("construct", help="run one of the explicit constructions")
    p.add_argument("what", choices=["takiff", "contraction", "edelta", "item3"])
    p.add_argument("--family", default="sl")
    p.add_argument("--size", type=int, default=2)
    p.add_argument("--pair", default="sl-sp",
                   choices=["so-so", "sp-sp", "sl-sp", "so-gl"])
    p.add_argument("--params", type=int, nargs="*", default=[2])
    p.add_argument("--k", type=int, default=4)
    _add_sampling(p)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("report", help="render a saved verification report")
    p.add_argument("file")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_report)

    try:
        args = top.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except VerificationError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError, AssertionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
