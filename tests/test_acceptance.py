"""Acceptance suite.

One test per criterion; every tolerance is exact equality (all arithmetic is
over Q).  Each test prints a single PASS line so the suite reads as a
checklist under pytest -s / -v.
"""

import json
import random
from pathlib import Path

import pytest

from coadjoint.atlas import load_atlas, run_suite, verify_row
from coadjoint.constructions import (
    ContractionSpec,
    e_delta_restricted,
    item3_evaluation_identity,
    item3_lift,
    minimal_nilpotent_centraliser_layout,
    pfaffian,
    principal_minor_sums,
    takiff,
    two_block_centraliser_layout,
    z2_contraction,
)
from coadjoint.invariants import (
    ComponentTooLarge,
    freeness_checklist,
    generator_ledger,
    invariant_space,
    is_invariant,
)
from coadjoint.liealg import classical_algebra, index
from coadjoint.qlinalg import QMatrix, SampleConfig
from coadjoint.repn import (
    adjoint_rep,
    build_module,
    check_representation,
    spin_rep,
    standard_rep,
)
from coadjoint.semidirect import direct_index, rais_index, semidirect

CFG = SampleConfig(seed=2024, height=5, rounds=8)


def _ok(label):
    print(f"\nACCEPTANCE PASS: {label}")


def test_criterion_1_table_regression():
    """Every row of both tables with dim s <= 400: dim V, generic stabiliser
    dimension, and the index by both routes match the table exactly."""
    suite = run_suite(tables=(1, 2), cfg=CFG, max_dim=400)
    failures = [r for r in suite.reports if not r.skipped and not r.passed]
    assert not failures, "\n" + "\n".join(
        f"[{r.table}/{r.label}] {r.params}: "
        + "; ".join(f"{c.check}: {c.expected} != {c.computed}"
                    for c in r.checks if not c.passed)
        for r in failures)
    checked = [r for r in suite.reports if not r.skipped]
    assert len(checked) >= 70
    # every instance's (check, expected, computed, passed), as `verify
    # --table all` reports them, equals the record made at seed 2024
    pinned = json.loads((Path(__file__).parent
                         / "table_regression_seed2024.json").read_text())
    assert ((pinned["seed"], pinned["height"], pinned["rounds"])
            == (CFG.seed, CFG.height, CFG.rounds) and pinned["max_dim"] == 400)
    got = [{"table": r.table, "row": r.label, "params": r.params,
            "skipped": r.skipped,
            "checks": [[c.check, str(c.expected), str(c.computed), c.passed]
                       for c in r.checks]} for r in suite.reports]
    assert len(got) == len(pinned["rows"]) == 77
    for row, ref in zip(got, pinned["rows"]):
        assert row == ref
    _ok(f"criterion 1: {len(checked)} table instances re-derived exactly")


def test_criterion_2_rais_identity_battery():
    """direct index = Rais index on >= 50 semi-direct products."""
    cases = []
    rows = load_atlas(cfg=CFG)
    for row in rows:
        for env in row.instances():
            cases.append(("row", row, env))
    battery = 0
    for kind, row, env in cases:
        from coadjoint.atlas import row_expectations, _family_dim

        exp = row_expectations(row, env, CFG)
        if _family_dim(row.family, exp["size"]) + exp["dim_v"] > 200:
            continue
        L = classical_algebra(row.family, exp["size"])
        R = build_module(row.family, exp["size"],
                         [(lbl, m) for m, lbl in exp["module"] if m > 0], L=L)
        S = semidirect(L, R)
        d, r = direct_index(S, CFG), rais_index(S, CFG)
        assert d.stabilised and r.stabilised and int(d) == int(r), (
            row.label, env)
        battery += 1
    for L in (classical_algebra("sl", 2), classical_algebra("so", 5),
              classical_algebra("sp", 4)):
        S = takiff(L)
        assert int(direct_index(S, CFG)) == int(rais_index(S, CFG))
        battery += 1
    for spec in (ContractionSpec("so-so", (3, 1)),
                 ContractionSpec("sp-sp", (4, 2)),
                 ContractionSpec("sl-sp", (4,)),
                 ContractionSpec("so-gl", (2,))):
        S, _ = z2_contraction(spec)
        assert int(direct_index(S, CFG)) == int(rais_index(S, CFG))
        battery += 1
    assert battery >= 50
    _ok(f"criterion 2: Rais identity exact on {battery} semi-direct products")


def test_criterion_3_generator_ledgers():
    """Desk-scale ledgers with count = ind s and sum of degrees = b(s)."""
    cases = []
    L = classical_algebra("sp", 2)
    cases.append((semidirect(L, standard_rep(L)), 4, [3]))
    L = classical_algebra("sp", 4)
    cases.append((semidirect(L, standard_rep(L)), 5, [3, 5]))
    L = classical_algebra("sl", 2)
    cases.append((semidirect(L, adjoint_rep(L)), 3, [2, 2]))
    L = classical_algebra("so", 3)
    cases.append((semidirect(L, standard_rep(L)), 3, [2, 2]))
    # two rows of the paper: table 2 row 2 (n=2) and table 1 row 1 (n=5, m=2)
    L = classical_algebra("sp", 4)
    cases.append((semidirect(L, build_module("sp", 4, [("phi2", 1)], L=L)),
                  6, [2, 3, 4]))
    L = classical_algebra("so", 5)
    cases.append((semidirect(L, build_module("so", 5, [("phi1", 2)], L=L)),
                  6, [2, 2, 2, 6]))
    for S, cap, want in cases:
        led = generator_ledger(S, cap)
        assert led.generator_degrees() == want, (S, led.generator_degrees())
        gens = led.generators()
        v = freeness_checklist(S, gens, CFG)
        assert v.passes
        assert v.count == v.index_s and v.degree_sum == v.b_s
    _ok("criterion 3: ledgers {3}, {3,5}, {2,2}, {2,2}, {2,3,4}, {2,2,2,6} "
        "with count = ind, sum deg = b")


def test_criterion_4_matryoshka_identity():
    """psi_v of the constructed H_i of sp4 x| k4 equals the corresponding
    ^e'Delta' invariant of sp2 x| heis1, exactly, checked at >= 20 points."""
    from tests.test_constructions import matryoshka_sides

    lay3 = minimal_nilpotent_centraliser_layout(3)
    res = {k: e_delta_restricted(lay3, k) for k in (4, 6)}
    lhs, rhs, labels = matryoshka_sides(lay3, res)
    from coadjoint.qlinalg import sample_vector

    points = 0
    for k in (4, 6):
        assert (lhs[k] - rhs[k]).is_zero()
        for t in range(20):
            pt = sample_vector(SampleConfig(900 + t, 6, 1), len(labels), 0, "m")
            assert lhs[k].evaluate(pt) == rhs[k].evaluate(pt)
            points += 1
    _ok(f"criterion 4: matryoshka identity exact ({points} point checks "
        "plus polynomial equality)")


def test_criterion_5_construction_invariance():
    """Every constructed H-bullet, H_i, H~_i, and lifted polynomial is
    annihilated by all derivations of its algebra."""
    count = 0
    for spec in (ContractionSpec("so-so", (3, 1)),
                 ContractionSpec("sp-sp", (4, 2)),
                 ContractionSpec("sl-sp", (4,)),
                 ContractionSpec("so-gl", (2,))):
        S, tops = z2_contraction(spec)
        for P in tops:
            assert is_invariant(S, P), spec
            count += 1
    # H_i at (n, m) = (2, 1) and (3, 1); H~_i at (2, 3)
    lay = minimal_nilpotent_centraliser_layout(2)
    for k in (4,):
        assert is_invariant(lay.target, e_delta_restricted(lay, k).H)
        count += 1
    lay = minimal_nilpotent_centraliser_layout(3)
    for k in (4, 6):
        assert is_invariant(lay.target, e_delta_restricted(lay, k).H)
        count += 1
    lay = two_block_centraliser_layout(3, 2)
    assert is_invariant(lay.target, e_delta_restricted(lay, 10).H)
    count += 1
    res = item3_lift(2)
    for H in res.lifted:
        assert is_invariant(res.S, H)
        count += 1
    _ok(f"criterion 5: {count} constructed invariants annihilated by all "
        "derivations")


def test_criterion_6_item3_evaluation_law():
    """H_i(A + xi + v) = h_i(A, B(xi), v) at >= 20 split points, and
    deg H_i = deg h_i + 1, for n = 2."""
    res = item3_lift(2)
    assert item3_evaluation_identity(res, trials=20)
    for H, h in zip(res.lifted, res.quadratic):
        assert H.total_degree() == h.total_degree() + 1
    _ok("criterion 6: evaluation law at 20 split points, degree shift +1")


def test_criterion_7_representation_properties():
    """Commutator compatibility for the constructed modules up to the 64-dim
    half-spin of so_14; Pf^2 = det on 100 random antisymmetric matrices."""
    for n, half in [(7, None), (9, None), (11, None), (13, None),
                    (8, "even"), (10, "odd"), (12, "even"), (14, "odd")]:
        check_representation(spin_rep(n, half))
    for family, size, summands in [("so", 9, [("phi1", 2), ("phi4", 1)]),
                                   ("sp", 6, [("phi1", 1), ("phi3", 1)]),
                                   ("so", 10, [("phi4", 1), ("phi5", 1)])]:
        check_representation(build_module(family, size, summands))
    rng = random.Random(424242)
    for _ in range(100):
        n = rng.choice([2, 4, 6, 8, 10])
        A = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randint(-6, 6)
                A[i][j] = v
                A[j][i] = -v
        M = QMatrix.from_rows(A)
        assert pfaffian(M) ** 2 == principal_minor_sums(M)[n]
    _ok("criterion 7: representation property through spin(14) half-spin; "
        "Pf^2 = det on 100 matrices")


def test_criterion_8_declared_out_of_desk_scale():
    """The large bi-degree invariant spaces are declared, not attempted:
    the component caps refuse them instead of grinding."""
    L = classical_algebra("so", 9)
    S = semidirect(L, spin_rep(9, L=L))
    with pytest.raises(ComponentTooLarge) as err:
        invariant_space(S, (6, 6))
    assert err.value.count > err.value.cap
    _ok("criterion 8: Spin9 bi-degree (6,6) component "
        f"({err.value.count} monomials) correctly refused at cap "
        f"{err.value.cap}")
