"""History-based metrics.

Yesterday's Weather: per-class method-count change sums over a version
window, unweighted (ENOM), recency-weighted with 2^(i-k) (LENOM), and
earliness-weighted with 2^(k-i+1) (EENOM, exactly as published; the
weight grows with history length, which callers should know).

Code churn: Munson-style relative complexity. Modules are standardized
against a baseline build, scored on the baseline correlation matrix's
principal components (Kaiser rule: eigenvalue > 1), combined as
rho_i = sum_j lambda_j * d_ij, then linearly rescaled so the baseline
lands on mean 50, standard deviation 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import BadRange, BaselineMismatch, DegenerateBaseline
from .model import SystemModel

if TYPE_CHECKING:
    import numpy as np  # imported where used: only churn needs it, and it is slow to load


@dataclass(frozen=True)
class HistoryTimeline:
    """Ordered (version id, model) snapshots; classes matched by name."""

    versions: tuple[tuple[str, SystemModel], ...]

    def __post_init__(self):
        if len({v for v, _ in self.versions}) != len(self.versions):
            raise ValueError("duplicate version ids")

    def __len__(self) -> int:
        return len(self.versions)

    @property
    def version_ids(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.versions)

    def nom_series(self, class_name: str) -> list[int]:
        """Declared method count per version; absent class counts 0."""
        series = []
        for _, model in self.versions:
            if class_name in model:
                series.append(len(model.get(class_name).regular_methods))
            else:
                series.append(0)
        return series

    def all_class_names(self) -> tuple[str, ...]:
        names: set[str] = set()
        for _, model in self.versions:
            names.update(model.internal_class_names)
        return tuple(sorted(names))


def _check_window(n: int, j: int, k: int) -> None:
    if not (1 <= j < k <= n):
        raise BadRange(j, k)


def enom(h: HistoryTimeline, class_name: str, j: int, k: int) -> int:
    """Sum of |NOM_i - NOM_{i-1}| over versions j+1..k (1-based)."""
    _check_window(len(h), j, k)
    series = h.nom_series(class_name)
    return sum(abs(series[i] - series[i - 1]) for i in range(j, k))


def weighted_enom(h: HistoryTimeline, class_name: str, j: int, k: int, mode: str = "LATEST") -> float:
    """LATEST: weight 2^(i-k); EARLIEST: weight 2^(k-i+1)."""
    _check_window(len(h), j, k)
    series = h.nom_series(class_name)
    total = 0.0
    for i in range(j + 1, k + 1):
        change = abs(series[i - 1] - series[i - 2])
        if mode == "LATEST":
            total += change * 2.0 ** (i - k)
        elif mode == "EARLIEST":
            total += change * 2.0 ** (k - i + 1)
        else:
            raise ValueError(f"unknown mode: {mode}")
    return total


def yw_rank(h: HistoryTimeline, window: tuple[int, int] | None = None) -> list[tuple[str, float, int]]:
    """Classes ordered by descending LENOM (ties: ENOM, then name).
    Returns (name, lenom, enom) rows."""
    if len(h) < 2:
        raise BadRange(1, len(h))
    j, k = window if window is not None else (1, len(h))
    _check_window(len(h), j, k)
    rows = []
    for name in h.all_class_names():
        rows.append((name, weighted_enom(h, name, j, k, "LATEST"), enom(h, name, j, k)))
    rows.sort(key=lambda r: (-r[1], -r[2], r[0]))
    return rows


# ---------------------------------------------------------------------------
# Relative complexity / churn
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChurnBaseline:
    """Standardization and PCA parameters fitted on one build."""

    metric_names: tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray
    eigenvalues: np.ndarray  # retained, descending
    components: np.ndarray  # column j = eigenvector of eigenvalues[j]
    rho_mean: float
    rho_std: float


@dataclass(frozen=True)
class ChurnBuildRecord:
    build_id: str
    rho: dict[str, float]
    baseline_fingerprint: str = ""

    @property
    def mean_rho(self) -> float:
        return sum(self.rho.values()) / len(self.rho) if self.rho else 0.0

    @property
    def total(self) -> float:
        return sum(self.rho.values())


@dataclass(frozen=True)
class ChurnComparison:
    r_earlier: float  # common + removed modules
    r_later: float  # common + added modules
    removed: tuple[str, ...]  # MA
    added: tuple[str, ...]  # MB
    common: tuple[str, ...]  # MC
    verdict: str  # later-more-complex | earlier-more-complex | neutral


def _as_matrix(build: dict[str, dict[str, float]], metric_names: tuple[str, ...]) -> tuple[list[str], np.ndarray]:
    import numpy as np

    modules = sorted(build)
    rows = []
    for m in modules:
        try:
            rows.append([float(build[m][name]) for name in metric_names])
        except KeyError as exc:
            raise BaselineMismatch(f"module {m} lacks metric {exc.args[0]}") from None
    return modules, np.asarray(rows, dtype=float)


def fit_churn_baseline(build: dict[str, dict[str, float]], metric_names) -> ChurnBaseline:
    """Fit standardization and PCA on the designated baseline build.

    Raises DegenerateBaseline for zero-variance metrics, fewer modules than
    metrics, or a flat score vector that cannot be rescaled.
    """
    import numpy as np

    names = tuple(metric_names)
    modules, x = _as_matrix(build, names)
    n, p = x.shape
    if n < p:
        raise DegenerateBaseline(f"{n} modules for {p} metrics")
    means = x.mean(axis=0)
    stds = x.std(axis=0)  # population convention throughout
    flat = [names[i] for i in range(p) if stds[i] == 0.0]
    if flat:
        raise DegenerateBaseline(f"zero-variance metrics: {', '.join(flat)}")
    z = (x - means) / stds
    corr = (z.T @ z) / n
    eigvals, eigvecs = np.linalg.eigh(corr)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    keep = eigvals > 1.0  # Kaiser rule
    if not keep.any():
        keep = np.zeros_like(keep)
        keep[0] = True  # degenerate spread: keep the dominant component
    lam = eigvals[keep]
    comp = eigvecs[:, keep]
    comp = comp * np.sign(comp.sum(axis=0) + 1e-300)  # deterministic orientation
    raw = (z @ comp) @ lam
    rho_std = float(raw.std())
    if rho_std == 0.0:
        raise DegenerateBaseline("flat relative-complexity scores on baseline")
    return ChurnBaseline(
        metric_names=names,
        means=means,
        stds=stds,
        eigenvalues=lam,
        components=comp,
        rho_mean=float(raw.mean()),
        rho_std=rho_std,
    )


def relative_complexity(build: dict[str, dict[str, float]], baseline: ChurnBaseline) -> dict[str, float]:
    """Per-module rho on the baseline scale (baseline mean 50, stddev 10)."""
    modules, x = _as_matrix(build, baseline.metric_names)
    z = (x - baseline.means) / baseline.stds
    raw = (z @ baseline.components) @ baseline.eigenvalues
    scaled = 50.0 + 10.0 * (raw - baseline.rho_mean) / baseline.rho_std
    return {m: float(v) for m, v in zip(modules, scaled)}


def baseline_fingerprint(baseline: ChurnBaseline) -> str:
    import hashlib

    import numpy as np

    h = hashlib.sha256()
    h.update(",".join(baseline.metric_names).encode())
    for arr in (baseline.means, baseline.stds, baseline.eigenvalues, baseline.components):
        h.update(np.asarray(arr).tobytes())
    return h.hexdigest()[:16]


def score_build(build_id: str, build: dict[str, dict[str, float]], baseline: ChurnBaseline) -> ChurnBuildRecord:
    return ChurnBuildRecord(
        build_id=build_id,
        rho=relative_complexity(build, baseline),
        baseline_fingerprint=baseline_fingerprint(baseline),
    )


def churn_compare(earlier: ChurnBuildRecord, later: ChurnBuildRecord) -> ChurnComparison:
    """R1 = common + removed, R2 = common + added; the later build is the
    more complex one iff R2 > R1.  Both records must be scored against the
    same baseline."""
    if earlier.baseline_fingerprint != later.baseline_fingerprint:
        raise BaselineMismatch(
            f"{earlier.build_id} and {later.build_id} scored against different baselines"
        )
    early_mods = set(earlier.rho)
    late_mods = set(later.rho)
    common = tuple(sorted(early_mods & late_mods))
    removed = tuple(sorted(early_mods - late_mods))
    added = tuple(sorted(late_mods - early_mods))
    r1 = sum(earlier.rho[m] for m in common) + sum(earlier.rho[m] for m in removed)
    r2 = sum(later.rho[m] for m in common) + sum(later.rho[m] for m in added)
    if r2 > r1:
        verdict = "later-more-complex"
    elif r2 < r1:
        verdict = "earlier-more-complex"
    else:
        verdict = "neutral"
    return ChurnComparison(
        r_earlier=r1, r_later=r2, removed=removed, added=added, common=common, verdict=verdict
    )
