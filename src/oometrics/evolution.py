"""History-based metrics.

Yesterday's Weather: per-class method-count change sums over a version
window, unweighted (ENOM), recency-weighted with 2^(i-k) (LENOM), and
earliness-weighted with 2^(k-i+1) (EENOM, exactly as published; the
weight grows with history length, which callers should know).

Code churn: Munson-style relative complexity. Modules are standardized
against a baseline build, scored on the baseline correlation matrix's
principal components (Kaiser rule: eigenvalue > 1), combined as
rho_i = sum_j lambda_j * d_ij, then linearly rescaled so the baseline
lands on mean 50, standard deviation 10.  The correlation matrix is p x p
for p churn metrics (at most the 13 class mnemonics), so its eigenproblem
is solved in plain Python by cyclic Jacobi rotations, with sums taken by
``math.fsum``.
"""

from __future__ import annotations

import hashlib
import math
import operator
import struct
from dataclasses import dataclass

from .errors import BadRange, BaselineMismatch, DegenerateBaseline


#: version id -> {class: regular-method count}, in version order; classes
#: matched by name
History = dict[str, dict[str, int]]


def _nom_series(h: History, class_name: str) -> list[int]:
    """Declared method count per version; absent class counts 0."""
    return [counts.get(class_name, 0) for counts in h.values()]


def _check_window(n: int, j: int, k: int) -> None:
    if not (1 <= j < k <= n):
        raise BadRange(j, k)


def enom(h: History, class_name: str, j: int, k: int) -> int:
    """Sum of |NOM_i - NOM_{i-1}| over versions j+1..k (1-based)."""
    _check_window(len(h), j, k)
    series = _nom_series(h, class_name)
    return sum(abs(series[i] - series[i - 1]) for i in range(j, k))


def weighted_enom(h: History, class_name: str, j: int, k: int, mode: str = "LATEST") -> float:
    """LATEST: weight 2^(i-k); EARLIEST: weight 2^(k-i+1)."""
    _check_window(len(h), j, k)
    series = _nom_series(h, class_name)
    if mode not in ("LATEST", "EARLIEST"):
        raise ValueError(f"unknown mode: {mode}")
    exponent = (lambda i: i - k) if mode == "LATEST" else (lambda i: k - i + 1)
    return sum(abs(series[i - 1] - series[i - 2]) * 2.0 ** exponent(i) for i in range(j + 1, k + 1))


def yw_rank(h: History, window: tuple[int, int] | None = None) -> list[tuple[str, float, int]]:
    """Classes ordered by descending LENOM (ties: ENOM, then name).
    Returns (name, lenom, enom) rows."""
    if len(h) < 2:
        raise BadRange(1, len(h))
    j, k = window if window is not None else (1, len(h))
    _check_window(len(h), j, k)
    names = {name for counts in h.values() for name in counts}
    rows = [(name, weighted_enom(h, name, j, k, "LATEST"), enom(h, name, j, k)) for name in names]
    rows.sort(key=lambda r: (-r[1], -r[2], r[0]))
    return rows


# ---------------------------------------------------------------------------
# Relative complexity / churn
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChurnBaseline:
    """Standardization and PCA parameters fitted on one build."""

    metric_names: tuple[str, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]
    eigenvalues: tuple[float, ...]  # retained, descending
    components: tuple[tuple[float, ...], ...]  # components[j] = eigenvector of eigenvalues[j]
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


@dataclass(frozen=True)
class ChurnComparison:
    r_earlier: float  # common + removed modules
    r_later: float  # common + added modules
    removed: tuple[str, ...]  # MA
    added: tuple[str, ...]  # MB
    common: tuple[str, ...]  # MC
    verdict: str  # later-more-complex | earlier-more-complex | neutral


def _as_matrix(build: dict[str, dict[str, float]], metric_names: tuple[str, ...]) -> tuple[list[str], list[tuple]]:
    modules = sorted(build)
    rows = []
    for m in modules:
        try:
            rows.append(tuple(float(build[m][name]) for name in metric_names))
        except KeyError as exc:
            raise BaselineMismatch(f"module {m} lacks metric {exc.args[0]}") from None
    return modules, rows


def _mean_std(values) -> tuple[float, float]:
    """Mean and population standard deviation."""
    mean = math.fsum(values) / len(values)
    return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))


def _standardized(rows, means, stds) -> list[list[float]]:
    return [[(x - m) / s for x, m, s in zip(row, means, stds)] for row in rows]


def _scores(z, eigenvalues, components) -> list[float]:
    """Raw relative complexity of each standardized row: sum_j lambda_j * d_ij,
    where d_ij is the row's score on component j."""
    return [
        math.fsum(lam * math.fsum(map(operator.mul, row, c)) for lam, c in zip(eigenvalues, components))
        for row in z
    ]


def _eigh(a: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues of the symmetric matrix ``a`` and their unit eigenvectors
    (``vectors[j]`` belongs to ``values[j]``), by cyclic Jacobi rotations
    that run until no off-diagonal entry is left that the diagonal can feel."""
    n = len(a)
    a = [list(row) for row in a]
    vectors = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(100):
        if not any(a[p][q] for p in range(n) for q in range(p + 1, n)):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = 100.0 * abs(a[p][q])
                if abs(a[p][p]) + g != abs(a[p][p]) or abs(a[q][q]) + g != abs(a[q][q]):
                    theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
                    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                    c = 1.0 / math.hypot(t, 1.0)
                    s = t * c
                    for row in a:  # a J, then J^T (a J); the eigenvector rows take J^T as well
                        row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
                    for m in (a, vectors):
                        rp, rq = m[p], m[q]
                        m[p], m[q] = [c * x - s * y for x, y in zip(rp, rq)], [s * x + c * y for x, y in zip(rp, rq)]
                a[p][q] = a[q][p] = 0.0
    return [a[i][i] for i in range(n)], vectors


def fit_churn_baseline(build: dict[str, dict[str, float]], metric_names) -> ChurnBaseline:
    """Fit standardization and PCA on the designated baseline build.

    Raises DegenerateBaseline for zero-variance metrics, fewer modules than
    metrics, or a flat score vector that cannot be rescaled.  When retained
    eigenvalues repeat, their eigenvectors are any basis of a shared
    subspace, so the components, and with them rho, are not defined.
    """
    names = tuple(metric_names)
    _, rows = _as_matrix(build, names)
    n, p = len(rows), len(names)
    if n < p:
        raise DegenerateBaseline(f"{n} modules for {p} metrics")
    means, stds = zip(*map(_mean_std, zip(*rows)))  # population convention throughout
    flat = [name for name, s in zip(names, stds) if s == 0.0]
    if flat:
        raise DegenerateBaseline(f"zero-variance metrics: {', '.join(flat)}")
    z = _standardized(rows, means, stds)
    columns = list(zip(*z))
    values, vectors = _eigh([[math.fsum(map(operator.mul, a, b)) / n for b in columns] for a in columns])
    order = sorted(range(p), key=values.__getitem__, reverse=True)
    keep = [j for j in order if values[j] > 1.0] or order[:1]  # Kaiser rule, else the dominant component
    eigenvalues = tuple(values[j] for j in keep)
    # deterministic orientation: each component's entries sum to >= 0
    components = tuple(tuple(-x if sum(vectors[j]) + 1e-300 < 0 else x for x in vectors[j]) for j in keep)
    rho_mean, rho_std = _mean_std(_scores(z, eigenvalues, components))
    if rho_std == 0.0:
        raise DegenerateBaseline("flat relative-complexity scores on baseline")
    return ChurnBaseline(names, means, stds, eigenvalues, components, rho_mean, rho_std)


def relative_complexity(build: dict[str, dict[str, float]], baseline: ChurnBaseline) -> dict[str, float]:
    """Per-module rho on the baseline scale (baseline mean 50, stddev 10)."""
    b = baseline
    modules, rows = _as_matrix(build, b.metric_names)
    raw = _scores(_standardized(rows, b.means, b.stds), b.eigenvalues, b.components)
    return {m: 50.0 + 10.0 * (r - b.rho_mean) / b.rho_std for m, r in zip(modules, raw)}


def baseline_fingerprint(baseline: ChurnBaseline) -> str:
    h = hashlib.sha256(",".join(baseline.metric_names).encode())
    for values in (baseline.means, baseline.stds, baseline.eigenvalues, *baseline.components):
        h.update(struct.pack(f"{len(values)}d", *values))
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
