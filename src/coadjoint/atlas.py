"""Machine-readable verification tables and the row verifier.

The tables ship as a human-editable record file, data/tables.tbl, read by
configparser: a [table/label] header per row, one `key = value` line per
field and # comments.  A repeated record, field or binding is refused, and
so is a value spanning lines.  Loading re-derives two columns of every row
from the others:

    dim V // G = dim V - dim g + dim h,      ind s = dim V // G + ind h,

so internal inconsistencies are load-time failures.  A stabiliser name is
spliced from its template by evaluating each {expr} to an integer, so its
parentheses hold only integers and a sum of names splits on +.  verify_row
then rebuilds everything from scratch: the module dimension, the generic
stabiliser and its fingerprint, and the index along both the direct and the
Rais route.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
import pathlib
import re
import time
from dataclasses import dataclass, field
from importlib import resources

from .liealg import (
    Fingerprint,
    classical_algebra,
    fingerprint,
    fingerprint_sum,
)
from .qlinalg import SampleConfig
from .repn import build_module, spin_rep
from .semidirect import (
    direct_index,
    generic_stabiliser_in_V,
    rais_index_at,
    semidirect,
)


class AtlasError(ValueError):
    pass


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.FloorDiv: operator.floordiv, ast.Mod: operator.mod}


def eval_expr(expr, env):
    """Tiny integer expression evaluator: + - * // % ( ) binom(a,b), names;
    anything else, and a division by zero, is an AtlasError."""
    try:
        tree = ast.parse(expr.strip(), mode="eval").body
    except SyntaxError:
        raise AtlasError(f"bad expression {expr!r}") from None

    def value(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](value(node.left), value(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -value(node.operand)
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return node.value
        if isinstance(node, ast.Name):
            if node.id not in env:
                raise AtlasError(f"unknown name {node.id!r} in expression "
                                 f"{expr!r}")
            return env[node.id]
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "binom" and len(node.args) == 2
                and not node.keywords):
            args = [value(a) for a in node.args]
            if min(args) < 0:
                raise AtlasError(f"negative argument of binom in {expr!r}")
            return math.comb(*args)
        raise AtlasError(f"bad expression {expr!r}")

    try:
        return value(tree)
    except ZeroDivisionError:
        raise AtlasError(f"division by zero in {expr!r}") from None


def _splice(template, env):
    """Replace {expr} parts of a name template by evaluated integers; a stray
    brace is left in the name, which then names no algebra."""
    return re.sub(r"\{([^{}]*)\}",
                  lambda m: str(eval_expr(m.group(1), env)), template)


# ---------------------------------------------------------------------------
# expected stabiliser fingerprints
# ---------------------------------------------------------------------------

# G2 is never constructed (exceptional constructors are out of scope); its
# fingerprint ships as a constant: a 14-dimensional perfect algebra of rank 2
# with nondegenerate Killing form and no centre.
G2_FINGERPRINT = Fingerprint(dim=14, index=2, derived_series_dims=(14, 14),
                             killing_rank=14, center_dim=0)

_fp_cache = {}


def named_fingerprint(name, cfg: SampleConfig) -> Fingerprint:
    """Fingerprint of a named algebra; sums with +, j*name multiplicities."""
    name = name.strip()
    key = (name, cfg)
    if key not in _fp_cache:
        parts = [p.strip() for p in name.split("+") if p.strip()]
        m = re.fullmatch(r"([1-9]\d*)\*(.+)", name)
        if len(parts) > 1:
            fps = [named_fingerprint(p, cfg) for p in parts]
        elif m:
            fps = [named_fingerprint(m.group(2), cfg)] * int(m.group(1))
        else:
            fps = [_atom_fingerprint(name, cfg)]
        _fp_cache[key] = functools.reduce(fingerprint_sum, fps)
    return _fp_cache[key]


def _atom_fingerprint(name, cfg):
    if name == "G2":
        return G2_FINGERPRINT
    m = re.fullmatch(r"(so|sl|sp|gl)\((\d+)\)", name)
    if m:
        fam, k = m.group(1), int(m.group(2))
        if fam == "so" and k <= 1:
            return Fingerprint(0, 0, (0, 0), 0, 0)
        return fingerprint(classical_algebra(fam, k), cfg)
    m = re.fullmatch(r"heis\((\d+)\)", name)
    if m:
        from .liealg import heisenberg_algebra

        return fingerprint(heisenberg_algebra(int(m.group(1))), cfg)
    m = re.fullmatch(r"ab\((\d+)\)", name)
    if m:
        k = int(m.group(1))
        ds = (k, 0) if k else (0, 0)
        return Fingerprint(k, k, ds, 0, k)
    m = re.fullmatch(r"sphs\((\d+)\)", name)
    if m:
        # sp_2k |x heis_k is perfect, of index k + 1, with centre z and the
        # Killing form of sp_2k; sphs(0) is ab(1)
        k = int(m.group(1))
        if k == 0:
            return _atom_fingerprint("ab(1)", cfg)
        d = (2 * k + 1) * (k + 1)
        return Fingerprint(d, k + 1, (d, d), k * (2 * k + 1), 1)
    if name == "sospin7":
        so7 = classical_algebra("so", 7)
        S = semidirect(so7, spin_rep(7, L=so7))
        return fingerprint(S.total, cfg)
    raise AtlasError(f"unknown algebra name {name!r}")


def sp_heis_algebra(k):
    """sp_{2k} |x heis_k, realised as the centraliser of a minimal nilpotent
    element inside sp_{2k+2}: matrix_algebra on the generators of its layout,
    in the layout's labels (one-dimensional abelian when k = 0)."""
    from .liealg import abelian_algebra, matrix_algebra

    if k == 0:
        return abelian_algebra(1)
    from .constructions import minimal_nilpotent_centraliser_layout

    lay = minimal_nilpotent_centraliser_layout(k + 1)
    return matrix_algebra(lay.N, [c.generator for c in lay.coords],
                          [c.label for c in lay.coords],
                          {"name": f"sp{2 * k}|x heis{k}"})


# ---------------------------------------------------------------------------
# table records
# ---------------------------------------------------------------------------


@dataclass
class TableRowSpec:
    table: int
    label: str
    family: str
    size_expr: str
    module: list              # [(mult_expr, weight label)]
    params: list              # [dict] (one empty dict when not parametrised)
    dim_v_expr: str
    dim_v_mod_g_expr: str
    stab_template: str
    ind_expr: str
    fa: str

    def instances(self):
        return self.params


@dataclass
class RowCheck:
    check: str
    expected: object
    computed: object
    passed: bool
    millis: int
    skipped: str = ""   # why the check did not run; it then has not passed
    how: dict = None    # how the check was established or why it was not:
                        # _EXACT, _sampled or "skipped" with the reason


@dataclass
class RowReport:
    table: int
    label: str
    params: dict
    checks: list = field(default_factory=list)
    skipped: str = ""

    @property
    def passed(self):
        """Every check that ran held; skipped checks are reported as such."""
        return all(c.passed for c in self.checks if not c.skipped)

    def record(self, check, expected, computed, t0, how=None):
        self.checks.append(RowCheck(check, expected, computed,
                                    expected == computed,
                                    int((time.perf_counter() - t0) * 1000),
                                    how=how))

    def skip(self, check, expected, reason, t0):
        self.checks.append(RowCheck(check, expected, "SKIP", False,
                                    int((time.perf_counter() - t0) * 1000),
                                    skipped=reason,
                                    how={"how": "skipped", "reason": reason}))

    def as_dict(self):
        return {
            "table": self.table,
            "row": self.label,
            "params": self.params,
            "skipped": self.skipped,
            "checks": [
                {"check": c.check, "expected": str(c.expected),
                 "computed": str(c.computed), "pass": c.passed,
                 "millis": c.millis, "skipped": c.skipped,
                 **({"how": c.how} if c.how else {})}
                for c in self.checks
            ],
            "pass": self.passed,
        }


_MODULE_TERM = re.compile(r"^(?:(.+?)\*)?(phi\d+|trivial)$")


def _parse_module(text, where):
    """[(multiplicity expression, label)] of a module spec such as
    'm*phi1 + 2*phi4'; where names the source in error messages."""
    out = []
    for term in text.split("+"):
        term = term.strip()
        m = _MODULE_TERM.match(term)
        if not m:
            raise AtlasError(f"{where}: bad module term {term!r}")
        out.append((m.group(1) or "1", m.group(2)))
    return out


def _parse_params(text, where):
    """[{name: int}] of the ';'-separated instances of a params field."""
    out = []
    for inst in [i.strip() for i in text.split(";") if i.strip()]:
        env = {}
        for binding in inst.split(","):
            k, _, v = map(str.strip, binding.partition("="))
            if (not k.isidentifier() or not re.fullmatch(r"-?\d+", v)
                    or k in env):
                raise AtlasError(f"{where}: bad binding {binding!r} in "
                                 f"{inst!r}")
            env[k] = int(v)
        out.append(env)
    return out


_FIELDS = "family size module dim_v dim_v_mod_g stab ind fa".split()


def load_atlas(path=None, cfg: SampleConfig = SampleConfig()):
    """Parse the table file and run the load-time arithmetic checks on every
    instance of every row."""
    import configparser

    # no header names the section "": [DEFAULT] is refused, not inherited
    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#",),
        inline_comment_prefixes=("#",), interpolation=None, strict=True,
        default_section="")
    parser.optionxform = str
    parser.SECTCRE = re.compile(r"\[(?P<header>[^]]+)\]$")  # nothing after ]
    text = (resources.files("coadjoint") / "data" / "tables.tbl"
            if path is None else pathlib.Path(path)).read_text()
    try:
        parser.read_string(text)
    except configparser.Error as e:
        line = e.lineno if hasattr(e, "lineno") else e.errors[0][0]
        raise AtlasError(f"line {line}: {type(e).__name__}") from None
    rows = []
    for name in parser.sections():
        m = re.fullmatch(r"(\d+)/(.+)", name)
        if not m:
            raise AtlasError(f"[{name}] is not a [table/label] header")
        fields, where = parser[name], f"row {name}"
        missing = [f for f in _FIELDS if f not in fields]
        if missing:
            raise AtlasError(f"{where} missing {', '.join(missing)}")
        spanning = [f for f, v in fields.items() if "\n" in v]
        if spanning:
            raise AtlasError(f"{where}: {', '.join(spanning)} spans lines")
        row = TableRowSpec(
            table=int(m.group(1)), label=m.group(2), family=fields["family"],
            size_expr=fields["size"],
            module=_parse_module(fields["module"], where),
            params=(_parse_params(fields["params"], where)
                    if "params" in fields else [{}]),
            dim_v_expr=fields["dim_v"], dim_v_mod_g_expr=fields["dim_v_mod_g"],
            stab_template=fields["stab"], ind_expr=fields["ind"],
            fa=fields["fa"])
        for env in row.instances():
            exp = row_expectations(row, env, cfg)
            fp, quot = exp["stab_fp"], exp["dim_v_mod_g"]
            lhs = exp["dim_v"] - _family_dim(row.family, exp["size"]) + fp.dim
            if lhs != quot:
                raise AtlasError(f"{where} {env}: dim V//G = {quot} but "
                                 f"dim V - dim g + dim h = {lhs}")
            if quot + fp.index != exp["ind"]:
                raise AtlasError(f"{where} {env}: ind = {exp['ind']} but "
                                 f"dim V//G + ind h = {quot + fp.index}")
        rows.append(row)
    return rows


def _family_dim(family, n):
    return {"so": n * (n - 1) // 2, "sp": n * (n + 1) // 2,
            "sl": n * n - 1, "gl": n * n}[family]


def row_expectations(row: TableRowSpec, env, cfg):
    """Evaluate all expected values of one instance.

    dimstab/indstab are available to the arithmetic expressions once the
    stabiliser name has been resolved.
    """
    size = eval_expr(row.size_expr, env)
    stab_name = _splice(row.stab_template, dict(env, size=size))
    stab_fp = named_fingerprint(stab_name, cfg)
    env2 = dict(env, size=size, dimstab=stab_fp.dim, indstab=stab_fp.index)
    env2["dim_v"] = eval_expr(row.dim_v_expr, env2)
    env2["dim_v_mod_g"] = eval_expr(row.dim_v_mod_g_expr, env2)
    return {
        "size": size,
        "dim_v": env2["dim_v"],
        "dim_v_mod_g": env2["dim_v_mod_g"],
        "ind": eval_expr(row.ind_expr, env2),
        "stab_name": stab_name,
        "stab_fp": stab_fp,
        "module": [(eval_expr(me, env2), lbl) for me, lbl in row.module],
    }


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


# the `how` of a check computed exactly, with nothing sampled
_EXACT = {"how": "exact"}


def verify_row(row: TableRowSpec, env, cfg: SampleConfig, max_dim=400,
               validate=False) -> RowReport:
    """Rebuild one instance and compare every checkable column."""
    report = RowReport(table=row.table, label=row.label, params=dict(env))
    exp = row_expectations(row, env, cfg)
    g_dim = _family_dim(row.family, exp["size"])
    dim_s = g_dim + exp["dim_v"]
    if dim_s > max_dim:
        report.skipped = f"dim s = {dim_s} exceeds the bound {max_dim}"
        return report
    t0 = time.perf_counter()
    L = classical_algebra(row.family, exp["size"])
    summands = [(lbl, mult) for mult, lbl in exp["module"] if mult > 0]
    R = build_module(row.family, exp["size"], summands, L=L)
    report.record("dim V", exp["dim_v"], R.dim_V, t0, _EXACT)
    S = semidirect(L, R)
    if validate:
        t0 = time.perf_counter()
        from .repn import check_representation

        not_run = []
        if not S.total.check_jacobi():
            not_run.append(f"Jacobi identity not checked at dim s = {dim_s}")
        if not check_representation(R):
            not_run.append("representation property not checked at "
                           f"dim g = {g_dim}, dim V = {R.dim_V}")
        if not_run:
            report.skip("jacobi+rep property", True, "; ".join(not_run), t0)
        else:
            report.record("jacobi+rep property", True, True, t0, _EXACT)
    t0 = time.perf_counter()
    st = generic_stabiliser_in_V(S, cfg)
    report.record("generic stabiliser dim", exp["stab_fp"].dim,
                  st.dim if st.stabilised else "unstable", t0,
                  _sampled(stabiliser=st))
    t0 = time.perf_counter()
    stab_fp = fingerprint(st.algebra, cfg)
    report.record("stabiliser fingerprint", str(exp["stab_fp"]),
                  str(stab_fp) if st.stabilised else "unstable", t0,
                  _sampled(stabiliser=st, stabiliser_index=stab_fp.index))
    t0 = time.perf_counter()
    d_ind = direct_index(S, cfg)
    report.record("index (direct)",
                  exp["ind"], int(d_ind) if d_ind.stabilised else "unstable", t0,
                  _sampled(index=d_ind))
    t0 = time.perf_counter()
    r_ind = rais_index_at(S, st, cfg, stab_fp.index)
    report.record("index (Rais)",
                  exp["ind"], int(r_ind) if r_ind.stabilised else "unstable", t0,
                  _sampled(stabiliser=st, stabiliser_index=stab_fp.index))
    return report


def _sampled(**results):
    """The `how` of a check resting on sampled results, by name: the primes,
    miss bound, and ranks per round (IndexResult) or genericity target and
    candidate (StabiliserResult: the one accepted, "sparse", a round or
    None, and how many were tried) of each, and their summed miss bound."""
    how = {"how": "sampled"}
    for name, r in results.items():
        how[name] = {"primes": list(r.primes), "miss_bound": r.miss_bound,
                     **({"target": list(r.target),
                         "candidate": {"accepted": r.accepted,
                                       "tried": r.tried}}
                        if hasattr(r, "target")
                        else {"ranks": list(r.samples)})}
    how["miss_bound"] = sum(r.miss_bound for r in results.values())
    return how


@dataclass
class SuiteReport:
    reports: list
    seed: int

    @property
    def passed(self):
        """Every check that ran held, and at least one ran."""
        ran = [r for r in self.reports if not r.skipped]
        return (any(not c.skipped for r in ran for c in r.checks)
                and all(r.passed for r in ran))

    def as_dict(self):
        return {"seed": self.seed, "pass": self.passed,
                "rows": [r.as_dict() for r in self.reports]}

    def render_text(self):
        return render_report(self.as_dict())


def render_report(payload):
    """Text rendering of a suite report given as its JSON payload (as_dict)."""
    lines = []
    for row in payload["rows"]:
        tag = f"[{row['table']}/{row['row']}] {row['params'] or ''}"
        if row["skipped"]:
            lines.append(f"SKIP {tag}: {row['skipped']}")
            continue
        lines.append(("pass " if row["pass"] else "FAIL ") + tag)
        for c in row["checks"]:
            if c.get("skipped"):
                lines.append(f"   SKIP {c['check']}: {c['skipped']} "
                             f"({c['millis']} ms)")
                continue
            mark = "ok " if c["pass"] else "BAD"
            lines.append(f"   {mark} {c['check']}: expected {c['expected']}, "
                         f"computed {c['computed']} ({c['millis']} ms)")
    lines.append("overall: " + ("PASS" if payload["pass"] else "FAIL"))
    return "\n".join(lines)


def run_suite(tables=(1, 2), row_label=None, cfg: SampleConfig = SampleConfig(),
              max_dim=400, path=None, validate=False) -> SuiteReport:
    rows = [row for row in load_atlas(path, cfg) if row.table in tables]
    if row_label is not None:
        rows = [row for row in rows if row.label == row_label]
        if not rows:
            raise AtlasError(f"no row {row_label!r} in table(s) "
                             f"{', '.join(map(str, tables))}")
    reports = []
    for row in rows:
        for env in row.instances():
            reports.append(verify_row(row, env, cfg, max_dim=max_dim,
                                      validate=validate))
    reports.sort(key=lambda r: (r.table, r.label, sorted(r.params.items())))
    return SuiteReport(reports=reports, seed=cfg.seed)
