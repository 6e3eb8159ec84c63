"""Chidamber-Kemerer suite, Li-Henry coupling measures, the Briand et al.
coupling factor, and the thirteen class-level mnemonics used by the
quality model.

Conventions (see README for the full list):
- the uses() relation drives CBO / cu_cdused / cu_cdusers and counts only
  system classes; coupling to library stubs is ignored;
- RFC and MPC look one level deep and do count calls into library classes
  (a send is a send no matter the receiver);
- constructors count as member functions (cl_func, cl_wmc, RFC's declared
  set), initializer blocks only contribute statements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexity import class_wmc
from .errors import DegenerateSystem
from .model import SystemModel

KIVIAT_ORDER = (
    "cl_comf", "cl_comm", "cl_data", "cl_data_publ", "cl_func", "cl_func_publ",
    "cl_line", "cl_stat", "cl_wmc", "cu_cdused", "cu_cdusers", "in_bases", "in_noc",
)


@dataclass
class ClassMetricsRecord:
    """Every per-class value the reports consume.  ``None`` marks a metric
    whose preconditions failed (comment rate of a zero-line class, cohesion
    of a one-method class, and so on)."""

    name: str
    # Logiscope mnemonics
    cl_comf: float | None = None
    cl_comm: int = 0
    cl_data: int = 0
    cl_data_publ: int = 0
    cl_func: int = 0
    cl_func_publ: int = 0
    cl_line: int = 0
    cl_stat: int = 0
    cl_wmc: int = 0
    cu_cdused: int = 0
    cu_cdusers: int = 0
    in_bases: int = 0
    in_noc: int = 0
    # CK / coupling
    cbo: int = 0
    rfc: int = 0
    wmc: int = 0
    dit: int = 0
    noc: int = 0
    mpc: int = 0
    dac: int = 0
    # cohesion family
    lcom_ck: int | None = None
    lcom_lh: int | None = None
    lcom_hm: int | None = None
    lcom_hs: float | None = None
    coh: float | None = None
    tcc: float | None = None
    lcc: float | None = None
    sim_cohesion: float | None = None
    # QMOOD per-class metrics
    dam: float | None = None
    dcc: int = 0
    cam: float | None = None
    moa: int = 0
    mfa: float | None = None
    nop: int = 0
    cis: int = 0
    nom: int = 0
    # per-method complexity rows: (method signature, v, ev, iv)
    methods: list[tuple[str, int, int, int]] = field(default_factory=list)

    def mnemonics(self) -> dict[str, float | int | None]:
        return {m: getattr(self, m) for m in KIVIAT_ORDER}


def _internal_used(model: SystemModel, c: str) -> frozenset[str]:
    return frozenset(d for d in model.used_classes(c) if not model.get(d).is_external)


def _internal_users(model: SystemModel, c: str) -> frozenset[str]:
    return frozenset(d for d in model.user_classes(c) if not model.get(d).is_external)


def cbo(model: SystemModel, c: str) -> int:
    """|{d != c : uses(c,d) or uses(d,c)}| over system classes; import and
    export coupling both count."""
    info = model.get(c)
    coupled = _internal_used(model, c) | _internal_users(model, c)
    coupled -= {c}
    return len(coupled) if not info.is_external else 0


def rfc(model: SystemModel, c: str) -> int:
    """|RS|: declared member functions plus distinct first-level invocation
    targets, as (class, method) pairs."""
    info = model.get(c)
    rs: set[tuple[str, str]] = {(c, m.signature) for m in info.member_functions}
    declared_names = {m.name for m in info.member_functions}
    for m in info.methods:
        for inv in m.invocations:
            if inv.target_class == c and inv.method_name in declared_names:
                continue  # self response already in the declared set
            rs.add((inv.target_class, inv.target_method))
    return len(rs)


def mpc(model: SystemModel, c: str) -> int:
    """Send statements: invocation multiplicities into other classes."""
    info = model.get(c)
    total = 0
    for m in info.methods:
        for inv in m.invocations:
            if inv.target_class != c:
                total += inv.count
    return total


def dac(model: SystemModel, c: str) -> int:
    """Attributes whose declared type is a system class."""
    info = model.get(c)
    count = 0
    for a in info.attributes:
        t = a.declared_type
        if t != c and t in model and not model.get(t).is_external:
            count += 1
    return count


def dit(model: SystemModel, c: str) -> int:
    model.get(c)
    return model.inheritance_depth(c)


def noc(model: SystemModel, c: str) -> int:
    return len(model.children(c))


def coupling_factor(model: SystemModel) -> float:
    """Client-server relationships outside inheritance, against the maximum
    possible: sum(client) / (TC^2 - TC - 2*sum(|descendants|))."""
    tc = model.total_classes
    if tc < 2:
        raise DegenerateSystem(f"coupling factor needs at least 2 classes, have {tc}")
    rows = model.hierarchy
    numerator = 0
    desc_total = 0
    for c in model.internal_class_names:
        row = rows[c]
        desc_total += row.descendant_count
        for d in _internal_used(model, c):
            other = rows[d]
            # d is an ancestor of c, or c an ancestor of d (d a descendant)
            if row.has_ancestor(other) or other.has_ancestor(row):
                continue
            numerator += 1
    denominator = tc * tc - tc - 2 * desc_total
    if denominator <= 0:
        raise DegenerateSystem("fully inherited system: no possible client-server pairs")
    return numerator / denominator


def logiscope_mnemonics(model: SystemModel, c: str) -> dict[str, float | int | None]:
    """The thirteen class mnemonics in canonical order."""
    info = model.get(c)
    funcs = info.member_functions
    comf = info.comment_lines / info.line_count if info.line_count > 0 else None
    return {
        "cl_comf": comf,
        "cl_comm": info.comment_lines,
        "cl_data": len(info.attributes),
        "cl_data_publ": sum(1 for a in info.attributes if a.visibility == "public"),
        "cl_func": len(funcs),
        "cl_func_publ": sum(1 for m in funcs if m.visibility == "public"),
        "cl_line": info.line_count,
        "cl_stat": info.statement_count,
        "cl_wmc": class_wmc(info),
        "cu_cdused": len(_internal_used(model, c)),
        "cu_cdusers": len(_internal_users(model, c)),
        "in_bases": model.hierarchy[c].ancestor_count,
        "in_noc": len(model.children(c)),
    }
