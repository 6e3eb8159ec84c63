"""System-level MOOD factors.

Hiding treats member visibility as a fraction of the system that cannot
see the member: private hides from everyone, public and package-default
hide from nobody, protected hides from everything but the declaring
class's descendants: (TC - 1 - |descendants|) / (TC - 1).

PF is undefined (None) for systems where no class with descendants
declares an overridable method.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ck import coupling_factor
from .errors import DegenerateSystem
from .model import SystemModel


@dataclass(frozen=True)
class MoodFactors:
    mhf: float
    ahf: float
    mif: float
    aif: float
    cf: float | None
    pf: float | None  # None: system without inheritance

    def as_percentages(self) -> dict[str, float | None]:
        """Table-style rendering: x100, one decimal."""
        out = {}
        for name in ("mhf", "ahf", "mif", "aif", "cf", "pf"):
            v = getattr(self, name)
            out[name.upper()] = round(v * 100, 1) if v is not None else None
        return out


def _hidden_fraction(visibility: str, tc: int, descendant_count: int) -> float:
    if visibility == "private":
        return 1.0
    if visibility == "protected":
        return (tc - 1 - descendant_count) / (tc - 1)
    return 0.0  # public and package-default are fully visible


def mood(model: SystemModel) -> MoodFactors:
    names = model.internal_class_names
    tc = len(names)
    if tc < 2:
        raise DegenerateSystem(f"MOOD factors need at least 2 classes, have {tc}")

    hidden_m = total_m = 0.0
    hidden_a = total_a = 0.0
    inherited_m = declared_m = 0
    inherited_a = declared_a = 0
    overrides = 0
    override_capacity = 0

    for c in names:
        info = model.get(c)
        row = model.hierarchy[c]
        desc = row.descendant_count
        methods = info.regular_methods
        for m in methods:
            total_m += 1
            hidden_m += _hidden_fraction(m.visibility, tc, desc)
        for a in info.attributes:
            total_a += 1
            hidden_a += _hidden_fraction(a.visibility, tc, desc)

        inherited_m += row.inherited_method_count
        declared_m += len(methods)
        inherited_a += row.inherited_attribute_count
        declared_a += len(info.attributes)
        # an override is a declared method with the signature of an
        # inheritable ancestor method; new methods can be overridden below
        overrides += row.override_count
        override_capacity += row.new_method_count * desc

    mhf = hidden_m / total_m if total_m else 0.0
    ahf = hidden_a / total_a if total_a else 0.0
    mif = inherited_m / (inherited_m + declared_m) if inherited_m + declared_m else 0.0
    aif = inherited_a / (inherited_a + declared_a) if inherited_a + declared_a else 0.0
    try:
        cf = coupling_factor(model)
    except DegenerateSystem:
        cf = None
    pf = overrides / override_capacity if override_capacity > 0 else None
    return MoodFactors(mhf=mhf, ahf=ahf, mif=mif, aif=aif, cf=cf, pf=pf)
