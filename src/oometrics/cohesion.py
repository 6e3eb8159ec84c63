"""Class cohesion measures: the four LCOM variants, Briand's Coh,
Bieman-Kang TCC/LCC, and Jaccard similarity cohesion.

All of them look at the same raw material: for each non-constructor
method m of a class, I(m) is the set of attributes declared in that class
which m accesses.  Static attributes count; inherited ones do not.  One
pass over the method pairs (``class_cohesion``) yields every value.
"""

from __future__ import annotations

from collections import Counter

from .errors import UndefinedMetric
from .model import ClassInfo


def method_attribute_sets(info: ClassInfo) -> list[tuple[str, frozenset[str]]]:
    """(method signature, accessed own-attribute names), constructors and
    initializer blocks excluded."""
    own = {a.name for a in info.attributes}
    out = []
    for m in info.regular_methods:
        touched = frozenset(
            attr for owner, attr in m.accessed_attributes if owner == info.name and attr in own
        )
        out.append((m.signature, touched))
    return out


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def components(self) -> int:
        return len({self.find(i) for i in range(len(self.parent))})


def class_cohesion(info: ClassInfo) -> dict[str, int | float | UndefinedMetric]:
    """Every cohesion value, keyed as the report's ``metrics`` object, from one
    pass over the method pairs.  An undefined value is the UndefinedMetric
    that says why.

    Pairs sharing an attribute count towards Q (LCOM-CK), TCC and the
    Jaccard sum, and join one union-find: its components give LCOM-LH,
    its component sizes give LCC, and adding intra-class call edges gives
    LCOM-HM.
    """
    sets = [touched for _, touched in method_attribute_sets(info)]
    m = len(sets)
    a = len(info.attributes)
    p = q = 0
    similarity = 0.0  # pairs with no shared attribute add 0 to the Jaccard sum
    uf = _UnionFind(m)
    for i in range(m):
        si = sets[i]
        for j in range(i + 1, m):
            shared = si & sets[j]
            if shared:
                q += 1
                uf.union(i, j)
                similarity += len(shared) / len(si | sets[j])
            else:
                p += 1
    sizes = Counter(uf.find(i) for i in range(m))
    lh = len(sizes)
    connected = sum(n * (n - 1) // 2 for n in sizes.values())
    # a call from i to this class's name N joins i to every method named N:
    # N's group is joined the first time N is called, so each call then
    # needs one union with the group's first member (a no-op when that is i)
    by_name: dict[str, list[int]] = {}
    for i, meth in enumerate(info.regular_methods):
        by_name.setdefault(meth.name, []).append(i)
    joined: set[str] = set()
    for i, meth in enumerate(info.regular_methods):
        for inv in meth.invocations:
            group = by_name.get(inv.method_name) if inv.target_class == info.name else None
            if not group:
                continue
            if inv.method_name not in joined:
                joined.add(inv.method_name)
                for j in group[1:]:
                    uf.union(group[0], j)
            uf.union(i, group[0])
    usage = sum(len(touched) for touched in sets)  # each own attribute's access count, summed

    out: dict[str, int | float | UndefinedMetric] = {}
    if m >= 1:
        out.update(lcom_ck=max(p - q, 0), lcom_lh=lh, lcom_hm=uf.components())
    else:
        for variant in ("CK", "LH", "HM"):
            out[f"lcom_{variant.lower()}"] = UndefinedMetric(f"LCOM-{variant}", "class has no methods")
    if m >= 2:
        pairs = m * (m - 1) // 2
        out.update(tcc=q / pairs, lcc=connected / pairs, sim_cohesion=similarity / (m * (m - 1) / 2))
    else:
        out["tcc"] = out["lcc"] = UndefinedMetric("TCC/LCC", "needs at least 2 methods")
        out["sim_cohesion"] = UndefinedMetric("similarity cohesion", "needs at least 2 methods")
    if m < 2:
        out["lcom_hs"] = UndefinedMetric("LCOM-HS", "needs at least 2 methods")
    elif a < 1:
        out["lcom_hs"] = UndefinedMetric("LCOM-HS", "needs at least 1 attribute")
    else:
        out["lcom_hs"] = (m - usage / a) / (m - 1)
    if m >= 1 and a >= 1:
        out["coh"] = usage / (m * a)
    else:
        out["coh"] = UndefinedMetric("Coh", "needs methods and attributes")
    return out

