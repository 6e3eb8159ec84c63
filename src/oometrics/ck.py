"""Chidamber-Kemerer suite, Li-Henry coupling measures, the Briand et al.
coupling factor, and the thirteen class-level mnemonics used by the
quality model.

Each function returns a plain value, or a dict keyed by report name
(``logiscope_mnemonics``); ``report.compute_class_record`` gathers them
with the other families into one class's ``metrics`` dict.

Conventions (see README for the full list):
- the uses relation of ``SystemModel.coupling`` drives CBO / cu_cdused /
  cu_cdusers over system classes only; coupling to library classes is ignored;
- RFC and MPC look one level deep and do count calls into library classes
  (a send is a send no matter the receiver);
- constructors count as member functions (cl_func, cl_wmc, RFC's declared
  set), initializer blocks only contribute statements.
"""

from __future__ import annotations

from .complexity import class_wmc
from .errors import DegenerateSystem
from .model import SystemModel

KIVIAT_ORDER = (
    "cl_comf", "cl_comm", "cl_data", "cl_data_publ", "cl_func", "cl_func_publ",
    "cl_line", "cl_stat", "cl_wmc", "cu_cdused", "cu_cdusers", "in_bases", "in_noc",
)


def cbo(model: SystemModel, c: str) -> int:
    """|{d != c : c uses d or d uses c}| over system classes; import and
    export coupling both count."""
    model.get(c)
    row = model.coupling[c]
    return len(row.used | row.users)


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


def dit(model: SystemModel, c: str) -> int:
    """Longest superclass path length over system classes; a library
    parent (a name in ``model.externals``) adds no edge."""
    model.get(c)
    return model.hierarchy[c].depth


def coupling_factor(model: SystemModel) -> float:
    """Client-server relationships outside inheritance, against the maximum
    possible: sum(client) / (TC^2 - TC - 2*sum(|descendants|))."""
    tc = len(model)
    if tc < 2:
        raise DegenerateSystem(f"coupling factor needs at least 2 classes, have {tc}")
    rows = model.hierarchy
    numerator = 0
    desc_total = 0
    for c, coupling in model.coupling.items():
        row = rows[c]
        desc_total += row.descendant_count
        for d in coupling.used:
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
    coupling = model.coupling[c]
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
        "cu_cdused": len(coupling.used),
        "cu_cdusers": len(coupling.users),
        "in_bases": model.hierarchy[c].ancestor_count,
        "in_noc": len(model.children(c)),
    }
