"""Bansiya-Davis design quality model: per-class design metrics, the
system property vector, and the six weighted quality indices plus TQI.

Index weights (verbatim, including the Understandability set that sums
to -0.99):

    Reusability       = -0.25*Coupling + 0.25*Cohesion + 0.5*Messaging + 0.5*DesignSize
    Flexibility       =  0.25*Encapsulation - 0.25*Coupling + 0.5*Composition + 0.5*Polymorphism
    Understandability = -0.33*Abstraction + 0.33*Encapsulation - 0.33*Coupling
                        + 0.33*Cohesion - 0.33*Polymorphism - 0.33*Complexity - 0.33*DesignSize
    Functionality     =  0.12*Cohesion + 0.22*Polymorphism + 0.22*Messaging
                        + 0.22*DesignSize + 0.22*Hierarchies
    Extendibility     =  0.5*Abstraction - 0.5*Coupling + 0.5*Inheritance + 0.5*Polymorphism
    Effectiveness     =  0.2*Abstraction + 0.2*Encapsulation + 0.2*Composition
                        + 0.2*Inheritance + 0.2*Polymorphism
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields

from .ck import ClassMetricsRecord
from .errors import EmptyModel, MissingProperty, UnknownClass
from .model import SystemModel

PROPERTY_NAMES = (
    "DesignSize", "Hierarchies", "Abstraction", "Encapsulation", "Coupling",
    "Cohesion", "Composition", "Inheritance", "Polymorphism", "Messaging", "Complexity",
)

INDEX_WEIGHTS: dict[str, dict[str, float]] = {
    "Reusability": {"Coupling": -0.25, "Cohesion": 0.25, "Messaging": 0.5, "DesignSize": 0.5},
    "Flexibility": {"Encapsulation": 0.25, "Coupling": -0.25, "Composition": 0.5, "Polymorphism": 0.5},
    "Understandability": {
        "Abstraction": -0.33, "Encapsulation": 0.33, "Coupling": -0.33, "Cohesion": 0.33,
        "Polymorphism": -0.33, "Complexity": -0.33, "DesignSize": -0.33,
    },
    "Functionality": {
        "Cohesion": 0.12, "Polymorphism": 0.22, "Messaging": 0.22,
        "DesignSize": 0.22, "Hierarchies": 0.22,
    },
    "Extendibility": {"Abstraction": 0.5, "Coupling": -0.5, "Inheritance": 0.5, "Polymorphism": 0.5},
    "Effectiveness": {
        "Abstraction": 0.2, "Encapsulation": 0.2, "Composition": 0.2,
        "Inheritance": 0.2, "Polymorphism": 0.2,
    },
}


@dataclass(frozen=True)
class ClassDesignMetrics:
    dam: float | None  # private+protected attributes / all attributes
    dcc: int           # distinct system classes related via attribute/parameter types
    cam: float | None  # parameter-type cohesion among methods
    moa: int           # attributes with system-class types
    mfa: float | None  # inherited / (inherited + declared) methods
    nop: int           # abstract (polymorphism-capable) methods
    cis: int           # public methods + public constructors
    nom: int           # declared methods


@dataclass(frozen=True)
class PropertyVector:
    DesignSize: float | None
    Hierarchies: float | None
    Abstraction: float | None
    Encapsulation: float | None
    Coupling: float | None
    Cohesion: float | None
    Composition: float | None
    Inheritance: float | None
    Polymorphism: float | None
    Messaging: float | None
    Complexity: float | None

    def as_dict(self) -> dict[str, float | None]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class QualityIndices:
    Reusability: float
    Flexibility: float
    Understandability: float
    Functionality: float
    Extendibility: float
    Effectiveness: float
    TQI: float

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def qmood_class_metrics(model: SystemModel, c: str) -> ClassDesignMetrics:
    info = model.get(c)
    if info.is_external:
        raise UnknownClass(c)

    attrs = info.attributes
    dam = None
    if attrs:
        dam = sum(1 for a in attrs if a.visibility in ("private", "protected")) / len(attrs)

    def is_system(t: str) -> bool:
        return t != c and t in model and not model.get(t).is_external

    related: set[str] = set()
    for a in attrs:
        if is_system(a.declared_type):
            related.add(a.declared_type)
    for m in info.regular_methods:
        for p in m.parameter_types:
            if is_system(p):
                related.add(p)
    dcc = len(related)

    methods = info.regular_methods
    param_sets = [frozenset(m.parameter_types) for m in methods]
    universe: set[str] = set()
    for s in param_sets:
        universe |= s
    cam = None
    if methods and universe:
        cam = sum(len(s) for s in param_sets) / (len(methods) * len(universe))

    moa = sum(1 for a in attrs if is_system(a.declared_type))

    inherited = model.hierarchy[c].inherited_method_count
    declared = len(methods)
    mfa = inherited / (inherited + declared) if inherited + declared > 0 else None

    nop = sum(1 for m in methods if m.is_abstract)
    cis = sum(1 for m in methods if m.visibility == "public") + sum(
        1 for m in info.constructors if m.visibility == "public"
    )
    return ClassDesignMetrics(
        dam=dam, dcc=dcc, cam=cam, moa=moa, mfa=mfa, nop=nop, cis=cis, nom=declared
    )


def qmood_system_metrics(model: SystemModel) -> tuple[int, int, float]:
    """(DSC, NOH, ANA): design size, hierarchies (roots with at least one
    descendant), average ancestor count."""
    names = model.internal_class_names
    if not names:
        raise EmptyModel("no classes in model")
    dsc = len(names)
    rows = [model.hierarchy[c] for c in names]
    noh = sum(1 for r in rows if r.ancestor_count == 0 and r.descendant_count)
    ana = sum(r.ancestor_count for r in rows) / dsc
    return dsc, noh, ana


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def property_vector(model: SystemModel, baseline: PropertyVector | None = None) -> PropertyVector:
    """Map system/class metrics onto the eleven design properties; divide
    componentwise by ``baseline`` when given (zero baseline -> None)."""
    per_class = [qmood_class_metrics(model, c) for c in model.internal_class_names]
    return design_properties(qmood_system_metrics(model), per_class, baseline)


def design_properties(
    system: tuple[int, int, float],
    per_class: Sequence[ClassDesignMetrics | ClassMetricsRecord],
    baseline: PropertyVector | None = None,
) -> PropertyVector:
    """``property_vector`` from metrics already computed: ``system`` is
    (DSC, NOH, ANA), ``per_class`` has one entry per internal class (a
    class record carries the same design-metric fields)."""
    dsc, noh, ana = system
    raw = {
        "DesignSize": float(dsc),
        "Hierarchies": float(noh),
        "Abstraction": ana,
        "Encapsulation": _mean([m.dam for m in per_class if m.dam is not None]),
        "Coupling": _mean([float(m.dcc) for m in per_class]),
        "Cohesion": _mean([m.cam for m in per_class if m.cam is not None]),
        "Composition": _mean([float(m.moa) for m in per_class]),
        "Inheritance": _mean([m.mfa for m in per_class if m.mfa is not None]),
        "Polymorphism": _mean([float(m.nop) for m in per_class]),
        "Messaging": _mean([float(m.cis) for m in per_class]),
        "Complexity": _mean([float(m.nom) for m in per_class]),
    }
    if baseline is not None:
        base = baseline.as_dict()
        for key, value in raw.items():
            b = base.get(key)
            if value is None or b is None or b == 0:
                raw[key] = None
            else:
                raw[key] = value / b
    return PropertyVector(**raw)


def quality_indices(p: PropertyVector) -> QualityIndices:
    values = p.as_dict()
    out: dict[str, float] = {}
    for index, weights in INDEX_WEIGHTS.items():
        total = 0.0
        for prop, w in weights.items():
            v = values[prop]
            if v is None:
                raise MissingProperty(prop, index)
            total += w * v
        out[index] = total
    tqi = sum(out.values())
    return QualityIndices(TQI=tqi, **out)
