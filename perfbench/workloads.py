"""The benchmark's workloads: fixed item lists over the public API of coadjoint.

Every workload is a list of items.  An item is a name, a `compute` callable
(the program work that is timed) and a `summarise` callable that turns the
program's output into a JSON record, compared exactly with the recorded
reference, plus the number of checks that output stands for.

`--seed` flows only into `SampleConfig(seed, height=5, rounds=8)`; the item
lists themselves are fixed.
"""

import hashlib
import importlib
import json

# Calls go through the module attributes, so that the tracer's rebinding
# reaches the benchmark's own calls too.
from coadjoint import atlas, constructions, invariants, liealg, qlinalg, repn

# the package attribute `coadjoint.semidirect` is the function, not the module
sd = importlib.import_module("coadjoint.semidirect")

WORKLOADS = ("constructions", "ledger", "tables")


def sample_config(seed):
    return qlinalg.SampleConfig(seed, height=5, rounds=8)


def setup(workload, cfg):
    """The item list of a workload, after the set-up its users pay."""
    return {"tables": _tables, "ledger": _ledger,
            "constructions": _constructions}[workload](cfg)


# ---------------------------------------------------------------------------
# tables: the `coadjoint verify` path
# ---------------------------------------------------------------------------

# Table-1 records in the pass, with the instances taken (None: all of them).
# All of table 1 takes several minutes per pass; these cover spin modules,
# sums with multiplicity, the G2 constant, sphs(k) and contraction kernels.
TABLE1_RECORDS = {"1": None, "2a": None, "2b": None, "3a": None,
                  "4": [{"m": 1}], "7c": None, "9b": [{"m": 2}]}


def _instance_name(row, env):
    params = ",".join(f"{k}={v}" for k, v in env.items())
    return f"{row.table}/{row.label}" + (f" {params}" if params else "")


def _summarise_report(report):
    record = {"skipped": report.skipped,
              "checks": [[c.check, str(c.expected), str(c.computed), c.passed]
                         for c in report.checks]}
    return record, len(report.checks)


def _tables(cfg):
    rows = atlas.load_atlas(cfg=cfg)
    items = []
    for row in rows:
        if row.table == 2:
            envs = row.instances()
        elif row.table == 1 and row.label in TABLE1_RECORDS:
            envs = TABLE1_RECORDS[row.label] or row.instances()
        else:
            continue
        for env in envs:
            items.append((_instance_name(row, env),
                          lambda row=row, env=env: atlas.verify_row(row, env, cfg),
                          _summarise_report))
    return items


# ---------------------------------------------------------------------------
# ledger: generator ledgers and freeness checklists
# ---------------------------------------------------------------------------


def _standard(family, n):
    L = liealg.classical_algebra(family, n)
    return sd.semidirect(L, repn.standard_rep(L))


def _adjoint(family, n):
    L = liealg.classical_algebra(family, n)
    return sd.semidirect(L, repn.adjoint_rep(L))


def _contraction(kind, params):
    return constructions.z2_contraction(
        constructions.ContractionSpec(kind, params))[0]


# (name, constructor of s, degree cap).  Reductive g takes the zero-weight path
# of invariant_space; the three contractions take the direct path.
LEDGER_PRODUCTS = (
    ("sp2|x k2", lambda: _standard("sp", 2), 4),
    ("sl2|x ad", lambda: _adjoint("sl", 2), 3),
    ("so3|x k3", lambda: _standard("so", 3), 3),
    ("sp4|x k4", lambda: _standard("sp", 4), 5),
    ("so5|x k5", lambda: _standard("so", 5), 4),
    ("sl3|x ad", lambda: _adjoint("sl", 3), 3),
    ("takiff(sl3)", lambda: constructions.takiff(liealg.classical_algebra("sl", 3)), 3),
    ("so-so(3,1)", lambda: _contraction("so-so", (3, 1)), 4),
    ("so-gl(2)", lambda: _contraction("so-gl", (2,)), 4),
    ("sl-sp(4)", lambda: _contraction("sl-sp", (4,)), 3),
)

# Freeness items counted per product: invariance, independence,
# count = ind s, and sum of degrees = b(s).
FREENESS_ITEMS = 4


def _ledger_item(build, cap, cfg):
    S = build()
    ledger = invariants.generator_ledger(S, cap)
    verdict = invariants.freeness_checklist(S, ledger.generators(), cfg)
    return ledger, verdict


def _summarise_ledger(out):
    ledger, v = out
    entries = [[list(e.multidegree), e.dim_invariant, e.dim_decomposable,
                e.new_generators, e.skipped] for e in ledger.entries]
    record = {
        "entries": entries,
        "generator_degrees": ledger.generator_degrees(),
        "freeness": {
            "all_invariant": v.all_invariant, "independent": v.independent,
            "count": v.count, "index_s": v.index_s,
            "degree_sum": v.degree_sum, "b_s": v.b_s,
            "degrees": list(v.degrees), "passes": v.passes,
        },
    }
    computed = sum(1 for e in ledger.entries if not e.skipped)
    return record, computed + FREENESS_ITEMS


def _ledger(cfg):
    return [(name, lambda build=build, cap=cap: _ledger_item(build, cap, cfg),
             _summarise_ledger)
            for name, build, cap in LEDGER_PRODUCTS]


# ---------------------------------------------------------------------------
# constructions: explicit generators, verified as invariants
# ---------------------------------------------------------------------------


def poly_digest(P):
    """Digest of a polynomial's exact terms, independent of dict order."""
    terms = sorted((list(m), str(c)) for m, c in P.terms.items())
    return hashlib.sha256(json.dumps(terms).encode()).hexdigest()[:20]


def _poly_record(P):
    return {"degree": P.total_degree(), "terms": len(P.terms),
            "digest": poly_digest(P)}


def _edelta_item(layout, args, ks):
    lay = getattr(constructions, layout)(*args)
    return [constructions.e_delta_restricted(lay, k) for k in ks]


def _summarise_edelta(results):
    # e_delta_restricted re-verifies every H as an invariant of the target
    record = [dict(_poly_record(r.H), k=r.k, f_degree=r.f_degree)
              for r in results]
    return record, len(results)


def _z2_item(kind, params):
    S, tops = constructions.z2_contraction(
        constructions.ContractionSpec(kind, params))
    return tops, [invariants.is_invariant(S, t) for t in tops]


def _summarise_z2(out):
    tops, invariant = out
    record = [dict(_poly_record(t), invariant=ok)
              for t, ok in zip(tops, invariant)]
    return record, len(tops)


def _item3_item(cfg):
    res = constructions.item3_lift(2)
    return res, constructions.item3_evaluation_identity(res, trials=20,
                                                        seed=cfg.seed)


def _summarise_item3(out):
    res, identity = out
    record = {"lifted": [_poly_record(H) for H in res.lifted],
              "identity": identity}
    return record, len(res.lifted)


# (item name, layout constructor in coadjoint.constructions, its arguments,
# the k of each Delta_k).  n = 4 gives sp6 |x k6 with degrees 3, 5 and 7.
EDELTA_LAYOUTS = (
    ("edelta minimal n=2", "minimal_nilpotent_centraliser_layout", (2,), (4,)),
    ("edelta minimal n=3", "minimal_nilpotent_centraliser_layout", (3,), (4, 6)),
    ("edelta minimal n=4", "minimal_nilpotent_centraliser_layout", (4,),
     (4, 6, 8)),
    ("edelta two-block (3,2)", "two_block_centraliser_layout", (3, 2), (10,)),
)

CONTRACTIONS = (("so-so", (3, 1)), ("sp-sp", (4, 2)), ("sl-sp", (4,)),
                ("so-gl", (2,)), ("so-so", (5, 2)))


def _constructions(cfg):
    items = [(name, lambda layout=layout, args=args, ks=ks:
              _edelta_item(layout, args, ks), _summarise_edelta)
             for name, layout, args, ks in EDELTA_LAYOUTS]
    items += [(f"z2 {kind}({','.join(map(str, params))})",
               lambda kind=kind, params=params: _z2_item(kind, params),
               _summarise_z2)
              for kind, params in CONTRACTIONS]
    items.append(("item3 n=2", lambda: _item3_item(cfg), _summarise_item3))
    return items
