import json
import os
import tempfile

import pytest

from coadjoint.atlas import (
    AtlasError,
    eval_expr,
    load_atlas,
    named_fingerprint,
    row_expectations,
    run_suite,
    verify_row,
)
from coadjoint.liealg import classical_algebra, fingerprint, fingerprint_sum
from coadjoint.qlinalg import SampleConfig

CFG = SampleConfig(seed=17, height=5, rounds=8)


def _row(rows, table, label):
    for r in rows:
        if (r.table, r.label) == (table, label):
            return r
    raise KeyError((table, label))


def test_load_shapes():
    rows = load_atlas(cfg=CFG)
    assert len(rows) >= 30
    labels1 = {r.label for r in rows if r.table == 1}
    assert {"1", "2a", "3b", "7a", "8a", "9b"} <= labels1
    labels2 = {r.label for r in rows if r.table == 2}
    assert {"1e", "1o", "2", "3", "4", "5", "6"} <= labels2


def test_row_3b_expectations():
    rows = load_atlas(cfg=CFG)
    exp = row_expectations(_row(rows, 1, "3b"), {}, CFG)
    assert exp["size"] == 9            # B4
    assert exp["dim_v"] == 25
    assert exp["dim_v_mod_g"] == 3
    assert exp["stab_name"] == "G2"
    assert exp["ind"] == 5


def test_row_t2_4_expectations():
    rows = load_atlas(cfg=CFG)
    exp = row_expectations(_row(rows, 2, "4"), {}, CFG)
    assert exp["size"] == 6 and exp["dim_v"] == 14
    assert exp["dim_v_mod_g"] == 1 and exp["ind"] == 3
    assert exp["stab_fp"] == fingerprint(classical_algebra("sl", 3), CFG)


def test_row_8a_m0_expectations():
    rows = load_atlas(cfg=CFG)
    exp = row_expectations(_row(rows, 1, "8a"), {"m": 0}, CFG)
    assert exp["dim_v"] == 32 and exp["dim_v_mod_g"] == 1 and exp["ind"] == 6
    assert exp["stab_name"] == "sl(6)"


def test_parse_error_carries_line_number():
    with tempfile.NamedTemporaryFile("w", suffix=".tbl", delete=False) as fh:
        fh.write("[1/x]\nfamily = so\n\nbroken line without equals\n")
        path = fh.name
    try:
        with pytest.raises(AtlasError) as err:
            load_atlas(path, CFG)
        assert "line 4" in str(err.value)
    finally:
        os.unlink(path)


def test_arithmetic_violation_is_load_failure():
    record = """
[1/bad]
family = so
size = 5
module = phi1
dim_v = 5
dim_v_mod_g = 3
stab = {stab}
ind = 3
fa = +
"""
    # a stray brace in the stabiliser template names no algebra
    for stab, message in (("so(4)", "dim V"), ("so({size-1)", "so({size-1)"),
                          ("so({size-1}", "so(4")):
        with tempfile.NamedTemporaryFile("w", suffix=".tbl",
                                         delete=False) as fh:
            fh.write(record.replace("{stab}", stab))
            path = fh.name
        try:
            with pytest.raises(AtlasError) as err:
                load_atlas(path, CFG)
            assert message in str(err.value)
        finally:
            os.unlink(path)


_RECORD = """[1/dup]
family = so
size = n
module = phi1
params = n=5
dim_v = n
dim_v_mod_g = 1
stab = so({n-1})
ind = 1 + (n-1)//2
fa = +
"""


def _load_text(tmp_path, text):
    path = tmp_path / "t.tbl"
    path.write_text(text)
    return load_atlas(str(path), CFG)


def test_a_well_formed_record_loads(tmp_path):
    (row,) = _load_text(tmp_path, _RECORD)
    assert (row.table, row.label, row.fa, row.params) == (1, "dup", "+",
                                                          [{"n": 5}])


@pytest.mark.parametrize("text, message", [
    (_RECORD + "fa = -\n", "line 11: DuplicateOptionError"),
    (_RECORD + "\n" + _RECORD.replace("fa = +", "fa = -"),
     "line 12: DuplicateSectionError"),
    (_RECORD.replace("n=5", "n=3,n=4; n=5"), "'n=3,n=4'"),
], ids=["field", "record", "binding"])
def test_a_repeated_field_record_or_binding_is_refused(tmp_path, text,
                                                       message):
    with pytest.raises(AtlasError, match=message):
        _load_text(tmp_path, text)


@pytest.mark.parametrize("text, message", [
    ("[DEFAULT]\nfa = +\n" + _RECORD, r"\[DEFAULT\]"),
    ("[oops]\n" + _RECORD.split("\n", 1)[1], r"\[oops\]"),
    ("fa = +\n" + _RECORD, "line 1"),
    (_RECORD.replace("[1/dup]", "[1/dup] x"), "line 1"),
    (_RECORD.replace("fa = +", "fa = +\n  -"), "fa spans lines"),
    (_RECORD.replace("fa = +\n", ""), "missing fa"),
], ids=["DEFAULT", "not-table-label", "field-before-header",
        "text-after-header", "continuation", "missing-field"])
def test_a_malformed_record_is_refused(tmp_path, text, message):
    with pytest.raises(AtlasError, match=message):
        _load_text(tmp_path, text)


def test_a_repeated_field_is_refused_under_python_O(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    path = tmp_path / "t.tbl"
    path.write_text(_RECORD + "fa = -\n")
    script = f"""
import sys
from coadjoint.atlas import AtlasError, load_atlas
try:
    assert False
except AssertionError:
    sys.exit(3)  # not running under -O
try:
    load_atlas({str(path)!r})
except AtlasError:
    sys.exit(0)
sys.exit(4)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          timeout=120)
    assert done.returncode == 0


def test_binom_of_a_negative_number_is_an_atlas_error():
    assert eval_expr("binom(4,2)", {}) == 6
    for expr in ("binom(-1,2)", "binom(3,n)"):
        with pytest.raises(AtlasError, match=r"binom\(") as err:
            eval_expr(expr, {"n": -1})
        assert expr in str(err.value)


def test_named_fingerprints():
    assert named_fingerprint("G2", CFG).dim == 14
    assert named_fingerprint("G2+G2", CFG).dim == 28
    assert named_fingerprint("3*sl(2)", CFG).dim == 9
    sl2 = named_fingerprint("sl(2)", CFG)
    assert (named_fingerprint("sl(2)+sl(2)+sl(2)", CFG)
            == fingerprint_sum(fingerprint_sum(sl2, sl2), sl2))
    assert named_fingerprint("ab(4)", CFG).index == 4
    fp = named_fingerprint("sphs(1)", CFG)
    assert fp.dim == 6 and fp.index == 2 and fp.center_dim == 1
    with pytest.raises(AtlasError):
        named_fingerprint("E8", CFG)


def test_named_fingerprint_cache_keys_on_the_whole_config():
    # a one-round index cannot be stabilised; asking again with eight rounds
    # must not return the cached one-round fingerprint
    from coadjoint import atlas

    atlas._fp_cache.clear()
    one = named_fingerprint("so(5)", SampleConfig(2024, 5, 1))
    eight = named_fingerprint("so(5)", SampleConfig(2024, 5, 8))
    assert not one.index.stabilised
    assert eight.index.stabilised


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sphs_closed_form_is_the_fingerprint_of_the_centraliser(k):
    # the expected value is a formula; the algebra built on the layout of
    # the minimal nilpotent centraliser in sp_{2k+2} must agree with it
    from coadjoint.atlas import sp_heis_algebra

    assert (named_fingerprint(f"sphs({k})", CFG)
            == fingerprint(sp_heis_algebra(k), CFG))
    assert named_fingerprint("sphs(0)", CFG) == named_fingerprint("ab(1)", CFG)


def test_verify_row_deterministic():
    rows = load_atlas(cfg=CFG)
    row = _row(rows, 2, "2")
    r1 = verify_row(row, {"n": 2}, CFG)
    r2 = verify_row(row, {"n": 2}, CFG)
    assert [c.computed for c in r1.checks] == [c.computed for c in r2.checks]
    assert r1.passed


def test_verify_row_dim_bound_skips():
    rows = load_atlas(cfg=CFG)
    rep = verify_row(_row(rows, 1, "9b"), {"m": 2}, CFG, max_dim=100)
    assert rep.skipped and not rep.checks


def test_empty_selection_is_not_a_pass():
    from coadjoint.cli import main

    with pytest.raises(AtlasError, match="no-such-row"):
        run_suite(tables=(1,), row_label="no-such-row", cfg=CFG)
    assert main(["verify", "--table", "1", "--row", "no-such-row"]) == 2
    # every instance over the dimension bound: no check ran
    suite = run_suite(tables=(2,), row_label="4", cfg=CFG, max_dim=1)
    assert suite.reports and all(r.skipped for r in suite.reports)
    assert not suite.passed
    assert main(["verify", "--table", "2", "--row", "4", "--max-dim", "1"]) == 1


def test_suite_json_roundtrip():
    suite = run_suite(tables=(2,), row_label="4", cfg=CFG)
    payload = suite.as_dict()
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["pass"] is True
    assert back["rows"][0]["checks"][0]["check"] == "dim V"


def test_cli_exit_codes():
    from coadjoint.cli import main

    assert main(["verify", "--table", "2", "--row", "4"]) == 0
    assert main(["verify", "--table", "3"]) == 2
    assert main(["index", "--family", "sp", "--size", "4"]) == 0
    assert main(["index", "--family", "sp", "--size", "4",
                 "--module", "phi1"]) == 0


@pytest.mark.parametrize("expr", ["1//0", "1%0"])
def test_cli_division_by_zero_in_an_expression_exits_2(expr):
    from coadjoint.cli import main

    with pytest.raises(AtlasError, match="division by zero"):
        eval_expr(expr, {})
    assert main(["index", "--family", "so", "--size", "3",
                 "--module", f"({expr})*phi1"]) == 2


def test_cli_failed_check_exits_1_and_bad_input_exits_2(monkeypatch):
    import coadjoint.constructions as constructions
    from coadjoint.cli import main
    from coadjoint.qlinalg import VerificationError

    def fails(exc):
        def raise_it(*args):
            raise exc("boom")
        return raise_it

    monkeypatch.setattr(constructions, "takiff", fails(VerificationError))
    assert main(["construct", "takiff"]) == 1
    monkeypatch.setattr(constructions, "takiff", fails(ValueError))
    assert main(["construct", "takiff"]) == 2
    assert main(["construct", "contraction", "--pair", "sp-sp",
                 "--params", "2", "1"]) == 2


def test_cli_failed_mathematical_check_exits_1(monkeypatch):
    import coadjoint.atlas as atlas
    import coadjoint.constructions as constructions
    from coadjoint.cli import main
    from coadjoint.liealg import NotClosedError
    from coadjoint.qlinalg import VerificationError
    from coadjoint.repn import FormNotInvariantError

    for exc in (NotClosedError, FormNotInvariantError,
                constructions.RestrictionEscapes):
        assert issubclass(exc, VerificationError) and issubclass(exc, ValueError)
    # k outside the range of the layout is a configuration error
    assert main(["construct", "edelta", "--params", "3", "2", "--k", "8"]) == 2

    def escapes(layout, k):
        raise constructions.RestrictionEscapes("y1")

    def not_closed(S, cfg):
        raise NotClosedError(0, 1)

    monkeypatch.setattr(constructions, "e_delta_restricted", escapes)
    assert main(["construct", "edelta", "--params", "3", "2", "--k", "10"]) == 1
    monkeypatch.setattr(atlas, "generic_stabiliser_in_V", not_closed)
    assert main(["verify", "--table", "2", "--row", "2"]) == 1


def test_cli_sampling_defaults_are_sample_config(monkeypatch):
    import coadjoint.cli as cli

    seen = []
    monkeypatch.setattr(cli, "cmd_verify",
                        lambda args: seen.append(cli._cfg(args)) or 0)
    assert cli.main(["verify"]) == 0
    assert seen == [SampleConfig()]


def test_cli_construct_exits_1_when_a_printed_identity_is_false(monkeypatch):
    from types import SimpleNamespace

    import coadjoint.constructions as constructions
    import coadjoint.invariants as invariants
    from coadjoint.cli import main

    args = ["construct", "contraction", "--pair", "so-gl", "--params", "2"]
    assert main(args) == 0
    monkeypatch.setattr(invariants, "is_invariant", lambda S, P: False)
    assert main(args) == 1
    monkeypatch.setattr(constructions, "item3_lift", lambda n: SimpleNamespace(
        S="S", quadratic=[], lifted=[]))
    monkeypatch.setattr(constructions, "item3_evaluation_identity",
                        lambda res, trials, seed: False)
    assert main(["construct", "item3", "--params", "2"]) == 1
    monkeypatch.setattr(constructions, "item3_evaluation_identity",
                        lambda res, trials, seed: True)
    assert main(["construct", "item3", "--params", "2"]) == 0


def test_cli_construct_item3_checks_the_identity_at_its_seed(monkeypatch):
    import coadjoint.constructions as constructions
    from coadjoint.cli import main

    seen = []
    identity = constructions.item3_evaluation_identity
    monkeypatch.setattr(
        constructions, "item3_evaluation_identity",
        lambda res, trials, seed: seen.append(seed) or identity(res, trials,
                                                               seed))
    for seed in (5, 11):
        assert main(["construct", "item3", "--params", "2",
                     "--seed", str(seed)]) == 0
    assert seen == [5, 11]


def test_cli_malformed_input_exits_2_with_a_message(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    (tmp_path / "dict.json").write_text("{}")
    (tmp_path / "list.json").write_text("[]")
    commands = [
        ["verify", "--table", "2", "--row", "2", "--height", "0"],
        ["index", "--family", "sp", "--size", "4", "--module", "0*phi1"],
        ["construct", "edelta", "--params", "0"],
        ["construct", "edelta", "--params"],
        ["construct", "edelta", "--params", "3", "2", "1"],
        ["construct", "item3", "--params"],
        ["construct", "contraction", "--pair", "so-so", "--params", "3"],
        ["invariants", "--family", "sp", "--size", "2", "--module", "phi1",
         "--cap", "0"],
        ["invariants", "--family", "sp", "--size", "2", "--module", "phi1",
         "--cap", "-1"],
        ["report", str(tmp_path / "dict.json")],
        ["report", str(tmp_path / "list.json")],
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    # the checks must not rest on assert statements, which -O strips
    for flags in ([], ["-O"]):
        for cmd in commands:
            done = subprocess.run(
                [sys.executable, *flags, "-m", "coadjoint.cli", *cmd],
                env=env, capture_output=True, text=True, timeout=120)
            what = (flags, cmd, done.stderr)
            assert done.returncode == 2, what
            assert done.stderr.startswith("error: "), what
            assert done.stderr[len("error: "):].strip(), what


def test_cli_module_spec_uses_the_table_grammar():
    from coadjoint.cli import main

    assert main(["index", "--family", "sp", "--size", "2",
                 "--module", "2*phi1 + trivial"]) == 0
    for bad in ("2*psi1", "phi1 +", "x*phi1", "2 phi1"):
        assert main(["index", "--family", "sp", "--size", "2",
                     "--module", bad]) == 2


def test_verify_row_validate_flag():
    rows = load_atlas(cfg=CFG)
    rep = verify_row(_row(rows, 2, "1o"), {"n": 1, "m": 1}, CFG, validate=True)
    assert rep.passed
    assert any(c.check == "jacobi+rep property" for c in rep.checks)


def test_validate_reports_a_skipped_check_as_skip(monkeypatch):
    from coadjoint.atlas import render_report
    from coadjoint.liealg import LieAlgebraData
    from coadjoint.repn import check_representation, standard_rep

    L = classical_algebra("sp", 2)
    assert L.check_jacobi() is True and L.check_jacobi(max_dim=2) is False
    R = standard_rep(L)
    assert check_representation(R) is True
    assert check_representation(R, max_cost=1) is False
    # a Jacobi check over its size bound: the record must not read as passed
    check = LieAlgebraData.check_jacobi
    monkeypatch.setattr(LieAlgebraData, "check_jacobi",
                        lambda self, max_dim=200: check(self, max_dim=0))
    rows = load_atlas(cfg=CFG)
    rep = verify_row(_row(rows, 2, "1o"), {"n": 1, "m": 1}, CFG, validate=True)
    (c,) = [c for c in rep.checks if c.check == "jacobi+rep property"]
    assert not c.passed and "Jacobi identity not checked" in c.skipped
    assert rep.passed    # every check that ran held
    row = rep.as_dict()
    assert row["checks"][1]["skipped"] == c.skipped
    text = render_report({"rows": [row], "pass": rep.passed})
    assert "SKIP jacobi+rep property: Jacobi identity not checked" in text


def test_skipped_check_states_why_in_its_how(monkeypatch, capsys):
    from coadjoint.cli import main
    from coadjoint.liealg import LieAlgebraData

    check = LieAlgebraData.check_jacobi
    monkeypatch.setattr(LieAlgebraData, "check_jacobi",
                        lambda self, max_dim=200: check(self, max_dim=0))
    argv = ["verify", "--table", "2", "--row", "1o", "--validate"]
    assert main(argv + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    skips = [c for row in rows for c in row["checks"] if c["skipped"]]
    assert skips and all(c["check"] == "jacobi+rep property" for c in skips)
    for c in skips:
        assert c["how"] == {"how": "skipped", "reason": c["skipped"]}
        assert (c["expected"], c["computed"], c["pass"]) == ("True", "SKIP",
                                                             False)
    # the text report names the reason once, as before, and no `how`
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text.count("SKIP jacobi+rep property: Jacobi identity not "
                      "checked") == len(skips)
    assert "skipped" not in text


def test_sampled_checks_state_how_they_were_sampled():
    from coadjoint.atlas import render_report

    rep = verify_row(_row(load_atlas(cfg=CFG), 1, "2a"), {}, CFG,
                     validate=True)
    row = rep.as_dict()
    hows = {c["check"]: c.get("how") for c in row["checks"]}
    # the checks that sample nothing say so
    assert hows.pop("dim V") == {"how": "exact"}
    assert hows.pop("jacobi+rep property") == {"how": "exact"}
    assert sorted(hows) == ["generic stabiliser dim", "index (Rais)",
                            "index (direct)", "stabiliser fingerprint"]
    for how in hows.values():
        assert how["how"] == "sampled" and how["miss_bound"] <= 1e-4
    stab = hows["generic stabiliser dim"]["stabiliser"]
    assert stab["target"] == [14, -14, -14] and len(stab["primes"]) == 2
    assert hows["index (direct)"]["index"]["ranks"][-2:] == [26, 26]
    assert hows["index (Rais)"] == hows["stabiliser fingerprint"]
    assert "sampled" not in render_report({"rows": [row], "pass": rep.passed})


def test_unstable_generic_stabiliser_is_recorded_as_unstable(monkeypatch):
    import coadjoint.atlas as atlas

    sample = atlas.generic_stabiliser_in_V

    def unstable(S, cfg):
        st = sample(S, cfg)
        st.stabilised = False
        return st

    rows = load_atlas(cfg=CFG)
    row, env = _row(rows, 2, "1o"), {"n": 1, "m": 1}
    assert verify_row(row, env, CFG).passed
    monkeypatch.setattr(atlas, "generic_stabiliser_in_V", unstable)
    rep = verify_row(row, env, CFG)
    checks = {c.check: c for c in rep.checks}
    for name in ("generic stabiliser dim", "stabiliser fingerprint",
                 "index (Rais)"):
        assert checks[name].computed == "unstable"
        assert not checks[name].passed
    assert checks["index (direct)"].passed
    assert not rep.passed


def test_cli_invariants_and_report(tmp_path):
    from coadjoint.cli import main

    assert main(["invariants", "--family", "sp", "--size", "2",
                 "--module", "phi1", "--cap", "4"]) == 0
    out = tmp_path / "report.json"
    assert main(["verify", "--table", "2", "--row", "5",
                 "--out", str(out)]) == 0
    assert main(["report", str(out)]) == 0
    assert main(["report", str(out), "--format", "json"]) == 0


@pytest.mark.parametrize("module, cap", [("2*phi1", 8), ("phi1", 3)])
def test_cli_invariants_exits_0_when_freeness_is_only_unchecked(module, cap,
                                                                 capsys):
    # sp4 |x 2 phi1 has degrees 2, 6 with b(s) = 10 > 8, and sp4 |x phi1 to
    # degree 3 has one generator for ind s = 2: the paper marks both free,
    # and the capped ledger leaves their count or degree sum unchecked
    from coadjoint.cli import main

    assert main(["invariants", "--family", "sp", "--size", "4",
                 "--module", module, "--cap", str(cap)]) == 0
    out = capsys.readouterr().out
    assert "invariance: ok" in out and "unchecked" in out
    assert "FAIL" not in out
    if module == "2*phi1":
        assert "generator degrees up to the cap: [2, 6]" in out


def test_cli_report_prints_what_verify_printed(tmp_path, capsys):
    from coadjoint.cli import main

    saved = tmp_path / "saved.json"
    assert main(["verify", "--table", "2", "--max-dim", "14",
                 "--out", str(saved)]) == 0
    printed = capsys.readouterr().out
    assert "SKIP" in printed and "   ok " in printed
    assert main(["report", str(saved)]) == 0
    assert capsys.readouterr().out == printed


@pytest.mark.parametrize("seed, table, label, env", [
    (3, 1, "1", {"n": 4, "m": 1}),
    (20, 2, "1e", {"n": 2, "m": 2}),
    (26, 1, "2a", {}),
    (35, 1, "2a", {}),
])
def test_verify_row_at_seeds_with_a_special_first_agreement(seed, table, label,
                                                            env):
    # At these seeds sampled points have a stabiliser of the right dimension
    # but the wrong algebra (at seed 35 the first two lie on the null cone of
    # the invariant quadric of spin8, and their keys agree); the generic
    # stabiliser must still be found.
    cfg = SampleConfig(seed=seed, height=5, rounds=8)
    row = _row(load_atlas(cfg=cfg), table, label)
    assert env in row.instances()
    report = verify_row(row, env, cfg)
    assert report.passed, [(c.check, c.expected, c.computed)
                           for c in report.checks if not c.passed]
