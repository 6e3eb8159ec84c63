"""Evolution metrics: change sums, Yesterday's Weather ranking, and the
relative-complexity churn pipeline against a hand-rolled eigensolver and
against the numpy fit it replaced."""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from oometrics import evolution
from oometrics.errors import BadRange, BaselineMismatch, DegenerateBaseline
from oometrics.evolution import (
    ChurnBuildRecord,
    HistoryTimeline,
    churn_compare,
    enom,
    fit_churn_baseline,
    relative_complexity,
    score_build,
    weighted_enom,
    yw_rank,
)


def _history(series_by_class):
    n = len(next(iter(series_by_class.values())))
    return HistoryTimeline(tuple(
        (f"v{i + 1}", {c: s[i] for c, s in series_by_class.items()}) for i in range(n)
    ))


def test_enom_hand_case():
    h = _history({"C": [5, 7, 6, 6]})
    assert enom(h, "C", 1, 4) == 3  # |7-5| + |6-7| + |6-6|


def test_enom_constant_zero():
    h = _history({"C": [4, 4, 4]})
    assert enom(h, "C", 1, 3) == 0


def test_enom_single_jump():
    h = _history({"C": [2, 9]})
    assert enom(h, "C", 1, 2) == 7


def test_enom_bad_window():
    h = _history({"C": [1, 2, 3]})
    with pytest.raises(BadRange):
        enom(h, "C", 2, 2)
    with pytest.raises(BadRange):
        enom(h, "C", 0, 3)
    with pytest.raises(BadRange):
        enom(h, "C", 1, 9)


def test_enom_absent_class_counts_zero_methods():
    h = _history({"C": [3, 3]})
    assert enom(h, "Ghost", 1, 2) == 0


def test_enom_telescoping():
    rng = random.Random(14)
    for _ in range(50):
        n = rng.randrange(4, 9)
        series = [rng.randrange(0, 12) for _ in range(n)]
        h = _history({"C": series})
        j, k = 1, n
        m = rng.randrange(j + 1, k)
        assert enom(h, "C", j, k) == enom(h, "C", j, m) + enom(h, "C", m, k)


def test_lenom_unit_weight_at_latest_step():
    h = _history({"C": [5, 5, 5, 9]})  # single change of 4 at i == k
    assert weighted_enom(h, "C", 1, 4, "LATEST") == 4.0


def test_lenom_early_change_decays():
    h = _history({"C": [5, 9, 9, 9]})  # change of 4 at i == 2, k == 4
    assert weighted_enom(h, "C", 1, 4, "LATEST") == pytest.approx(4 * 2.0 ** -2)


def test_eenom_hand_case_printed_weights():
    h = _history({"C": [5, 7, 6, 6]})
    # 2*2^(4-2+1) + 1*2^(4-3+1) + 0 = 16 + 4
    assert weighted_enom(h, "C", 1, 4, "EARLIEST") == 20.0


def test_eenom_single_change_exact_weight():
    rng = random.Random(33)
    for _ in range(30):
        n = rng.randrange(3, 8)
        i = rng.randrange(2, n + 1)
        series = [3] * n
        for idx in range(i - 1, n):
            series[idx] = 5
        h = _history({"C": series})
        assert weighted_enom(h, "C", 1, n, "EARLIEST") == 2 * 2.0 ** (n - i + 1)


def test_lenom_never_exceeds_enom():
    rng = random.Random(44)
    for _ in range(50):
        n = rng.randrange(2, 9)
        series = [rng.randrange(0, 9) for _ in range(n)]
        h = _history({"C": series})
        assert weighted_enom(h, "C", 1, n, "LATEST") <= enom(h, "C", 1, n) + 1e-12


def test_yw_rank_recent_changer_first():
    h = _history({
        "Early": [1, 5, 5, 5],
        "Late": [5, 5, 5, 9],
    })
    rows = yw_rank(h)
    assert rows[0][0] == "Late"


def test_yw_rank_all_unchanged_name_order():
    h = _history({"B": [2, 2], "A": [1, 1], "C": [3, 3]})
    rows = yw_rank(h)
    assert [r[0] for r in rows] == ["A", "B", "C"]
    assert all(r[1] == 0 for r in rows)


def test_yw_rank_matches_recompute_sort():
    rng = random.Random(50)
    for _ in range(20):
        n = rng.randrange(2, 7)
        series = {f"K{i}": [rng.randrange(0, 9) for _ in range(n)] for i in range(6)}
        h = _history(series)
        rows = yw_rank(h)
        expected = sorted(
            (
                (name, weighted_enom(h, name, 1, n, "LATEST"), enom(h, name, 1, n))
                for name in series
            ),
            key=lambda r: (-r[1], -r[2], r[0]),
        )
        assert rows == expected


# ---------------------------------------------------------------------------
# relative complexity
# ---------------------------------------------------------------------------

METRICS = ("a", "b", "c")


def _random_build(rng, n_modules=12, correlated=True):
    build = {}
    for i in range(n_modules):
        base = rng.uniform(0, 100)
        row = {}
        for j, name in enumerate(METRICS):
            if correlated:
                row[name] = base * (j + 1) + rng.uniform(-10, 10)
            else:
                row[name] = rng.uniform(0, 100)
        build[f"M{i}"] = row
    return build


def test_baseline_build_rescales_to_50_10():
    rng = random.Random(60)
    build = _random_build(rng)
    baseline = fit_churn_baseline(build, METRICS)
    rho = relative_complexity(build, baseline)
    values = np.array(list(rho.values()))
    assert values.mean() == pytest.approx(50.0, abs=1e-6)
    assert values.std() == pytest.approx(10.0, abs=1e-6)


def _jacobi_eig(a, sweeps=100):
    """Independent symmetric eigensolver: cyclic Jacobi rotations."""
    a = [row[:] for row in a]
    n = len(a)
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for _ in range(sweeps):
        off = sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j)
        if off < 1e-24:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p][q]) < 1e-18:
                    continue
                theta = (a[q][q] - a[p][p]) / (2 * a[p][q])
                t = (1 if theta >= 0 else -1) / (abs(theta) + math.sqrt(theta * theta + 1))
                c = 1 / math.sqrt(t * t + 1)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
                for k in range(n):
                    vkp, vkq = v[k][p], v[k][q]
                    v[k][p] = c * vkp - s * vkq
                    v[k][q] = s * vkp + c * vkq
    eigvals = [a[i][i] for i in range(n)]
    return eigvals, v


def _rho_oracle(build, baseline_build, metric_names):
    """Full independent pipeline: standardize, correlation, Jacobi eigen,
    Kaiser retention, weighted scores, 50/10 rescale."""
    mods_b = sorted(baseline_build)
    xb = [[float(baseline_build[m][k]) for k in metric_names] for m in mods_b]
    n = len(xb)
    p = len(metric_names)
    means = [sum(r[j] for r in xb) / n for j in range(p)]
    stds = [
        math.sqrt(sum((r[j] - means[j]) ** 2 for r in xb) / n) for j in range(p)
    ]
    zb = [[(r[j] - means[j]) / stds[j] for j in range(p)] for r in xb]
    corr = [
        [sum(zb[i][a] * zb[i][b] for i in range(n)) / n for b in range(p)]
        for a in range(p)
    ]
    eigvals, eigvecs = _jacobi_eig(corr)
    order = sorted(range(p), key=lambda j: -eigvals[j])
    keep = [j for j in order if eigvals[j] > 1.0] or [order[0]]
    lam = [eigvals[j] for j in keep]
    comp = [[eigvecs[i][j] for j in keep] for i in range(p)]
    # deterministic orientation: column sums positive
    for col in range(len(keep)):
        s = sum(comp[i][col] for i in range(p))
        if s < 0:
            for i in range(p):
                comp[i][col] = -comp[i][col]

    def raw_scores(build):
        mods = sorted(build)
        out = {}
        for m in mods:
            z = [(float(build[m][k]) - means[j]) / stds[j] for j, k in enumerate(metric_names)]
            score = 0.0
            for col in range(len(keep)):
                d = sum(z[i] * comp[i][col] for i in range(p))
                score += lam[col] * d
            out[m] = score
        return out

    base_raw = raw_scores(baseline_build)
    bvals = list(base_raw.values())
    bmean = sum(bvals) / len(bvals)
    bstd = math.sqrt(sum((v - bmean) ** 2 for v in bvals) / len(bvals))
    scores = raw_scores(build)
    return {m: 50.0 + 10.0 * (v - bmean) / bstd for m, v in scores.items()}


def test_rho_matches_independent_eigen_pipeline():
    rng = random.Random(61)
    for _ in range(10):
        baseline_build = _random_build(rng)
        other = _random_build(rng)
        baseline = fit_churn_baseline(baseline_build, METRICS)
        got = relative_complexity(other, baseline)
        want = _rho_oracle(other, baseline_build, METRICS)
        for m in got:
            assert got[m] == pytest.approx(want[m], abs=1e-6)


def test_single_component_ordering_matches_score():
    rng = random.Random(62)
    build = _random_build(rng, correlated=True)
    baseline = fit_churn_baseline(build, METRICS)
    if len(baseline.eigenvalues) == 1:
        rho = relative_complexity(build, baseline)
        mods = sorted(build)
        scores = {
            m: sum((build[m][k] - mu) / sd * c
                   for k, mu, sd, c in zip(METRICS, baseline.means, baseline.stds, baseline.components[0]))
            for m in mods
        }
        order_rho = sorted(mods, key=lambda m: rho[m])
        order_score = sorted(mods, key=lambda m: scores[m])
        assert order_rho == order_score


def test_affine_rescaling_of_inputs_is_absorbed():
    rng = random.Random(63)
    baseline_build = _random_build(rng)
    other = _random_build(rng)
    baseline1 = fit_churn_baseline(baseline_build, METRICS)
    rho1 = relative_complexity(other, baseline1)

    def rescale(build):
        return {
            m: {"a": 3.0 * v["a"] + 17.0, "b": v["b"], "c": 0.5 * v["c"] - 2.0}
            for m, v in build.items()
        }

    baseline2 = fit_churn_baseline(rescale(baseline_build), METRICS)
    rho2 = relative_complexity(rescale(other), baseline2)
    for m in rho1:
        assert rho1[m] == pytest.approx(rho2[m], abs=1e-6)


def test_degenerate_baselines():
    flat = {f"M{i}": {"a": 1.0, "b": float(i), "c": float(i * 2)} for i in range(6)}
    with pytest.raises(DegenerateBaseline):
        fit_churn_baseline(flat, METRICS)
    tiny = {"M0": {"a": 1.0, "b": 2.0, "c": 3.0}, "M1": {"a": 2.0, "b": 1.0, "c": 0.0}}
    with pytest.raises(DegenerateBaseline):
        fit_churn_baseline(tiny, METRICS)


def test_flat_scores_are_degenerate(monkeypatch):
    # the dominant component's scores vary whenever the metrics do, so only
    # an eigensolver that returned a null vector flattens them
    monkeypatch.setattr(evolution, "_eigh", lambda a: ([2.0] + [0.0] * (len(a) - 1), [[0.0] * len(a) for _ in a]))
    with pytest.raises(DegenerateBaseline, match="flat"):
        fit_churn_baseline(_random_build(random.Random(64)), METRICS)


def test_degenerate_spread_keeps_the_dominant_component():
    # uncorrelated unit columns: the correlation matrix is the identity, so
    # no eigenvalue exceeds 1 and the Kaiser rule alone would keep nothing
    build = {f"M{i}": {"a": a, "b": b} for i, (a, b) in enumerate([(1, 1), (1, -1), (-1, 1), (-1, -1)])}
    baseline = fit_churn_baseline(build, ("a", "b"))
    assert baseline.eigenvalues == (1.0,)
    assert baseline.rho_std == 1.0
    assert sorted(relative_complexity(build, baseline).values()) == [40.0, 40.0, 60.0, 60.0]


def _numpy_fit(build, metric_names):
    """The numpy fit the pipeline once ran: standardize, correlation matrix,
    ``eigh``, Kaiser rule, column-sum orientation, raw score mean and spread."""
    modules = sorted(build)
    x = np.asarray([[float(build[m][k]) for k in metric_names] for m in modules])
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    z = (x - means) / stds
    corr = (z.T @ z) / len(modules)
    eigvals, eigvecs = np.linalg.eigh(corr)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    keep = eigvals > 1.0
    if not keep.any():
        keep = np.zeros_like(keep)
        keep[0] = True
    lam = eigvals[keep]
    comp = eigvecs[:, keep]
    comp = comp * np.sign(comp.sum(axis=0) + 1e-300)
    raw = (z @ comp) @ lam
    return SimpleNamespace(means=means, stds=stds, all_eigenvalues=eigvals, eigenvalues=lam, components=comp,
                           rho_mean=float(raw.mean()), rho_std=float(raw.std()))


def _numpy_rho(build, fit, metric_names):
    modules = sorted(build)
    x = np.asarray([[float(build[m][k]) for k in metric_names] for m in modules])
    raw = (((x - fit.means) / fit.stds) @ fit.components) @ fit.eigenvalues
    return dict(zip(modules, 50.0 + 10.0 * (raw - fit.rho_mean) / fit.rho_std))


def _well_posed(fit):
    """Every retained eigenvalue set apart from its successor and from the
    Kaiser cut, and every component's sign fixed by a clear column sum: only
    then is the fit defined beyond rounding."""
    vals = fit.all_eigenvalues
    k = len(fit.eigenvalues)
    return (
        all(vals[j] - vals[j + 1] > 1e-3 for j in range(min(k, len(vals) - 1)))
        and all(abs(v - 1.0) > 1e-6 for v in vals)
        and all(abs(s) > 1e-6 for s in fit.components.sum(axis=0))
    )


def test_fit_matches_numpy_oracle_on_random_builds():
    rng = random.Random(65)
    checked = 0
    for case in range(300):
        p = 2 + case % 12
        n = rng.randrange(p, 4 * p + 8)
        names = tuple(f"k{j}" for j in range(p))
        correlated = case // 12 % 2 == 0
        loadings = [[rng.uniform(-3, 3) for _ in range(2)] for _ in range(p)]
        scales = [(10 ** rng.uniform(0, 3), rng.uniform(-50, 50)) for _ in range(p)]
        build = {}
        for i in range(n):
            factors = (rng.gauss(0, 1), rng.gauss(0, 1))
            row = {}
            for j, name in enumerate(names):
                signal = sum(l * f for l, f in zip(loadings[j], factors)) if correlated else 0.0
                row[name] = scales[j][0] * (signal + rng.gauss(0, 1)) + scales[j][1]
            build[f"M{i}"] = row
        want = _numpy_fit(build, names)
        if not _well_posed(want):
            continue
        checked += 1
        got = fit_churn_baseline(build, names)
        assert got.eigenvalues == pytest.approx(list(want.eigenvalues), rel=1e-12, abs=0)
        assert got.rho_std == pytest.approx(want.rho_std, rel=1e-12, abs=0)
        # zero in exact arithmetic (the standardized columns are centred), so
        # it is held to the scale of the scores
        assert abs(got.rho_mean - want.rho_mean) <= 1e-12 * want.rho_std
        want_rho = _numpy_rho(build, want, names)
        for m, rho in relative_complexity(build, got).items():
            assert rho == pytest.approx(want_rho[m], rel=1e-12, abs=0)
    assert checked >= 200


# ---------------------------------------------------------------------------
# churn comparison
# ---------------------------------------------------------------------------


def test_identical_builds_neutral():
    rng = random.Random(70)
    build = _random_build(rng)
    baseline = fit_churn_baseline(build, METRICS)
    a = score_build("b1", build, baseline)
    b = score_build("b2", build, baseline)
    cmp_result = churn_compare(a, b)
    assert cmp_result.r_earlier == pytest.approx(cmp_result.r_later)
    assert cmp_result.verdict == "neutral"


def test_added_module_makes_later_more_complex():
    rng = random.Random(71)
    build = _random_build(rng)
    baseline = fit_churn_baseline(build, METRICS)
    earlier = score_build("early", build, baseline)
    later_build = dict(build)
    later_build["Mnew"] = {"a": 500.0, "b": 900.0, "c": 1500.0}
    later = score_build("late", later_build, baseline)
    cmp_result = churn_compare(earlier, later)
    assert cmp_result.added == ("Mnew",)
    assert cmp_result.r_later == pytest.approx(
        cmp_result.r_earlier + later.rho["Mnew"]
    )
    assert cmp_result.verdict == "later-more-complex"


def test_removing_heaviest_module_reduces_r():
    rng = random.Random(72)
    build = _random_build(rng)
    baseline = fit_churn_baseline(build, METRICS)
    earlier = score_build("early", build, baseline)
    heaviest = max(earlier.rho, key=earlier.rho.get)
    later_build = {m: v for m, v in build.items() if m != heaviest}
    later = score_build("late", later_build, baseline)
    cmp_result = churn_compare(earlier, later)
    if earlier.rho[heaviest] > 0:
        assert cmp_result.r_later < cmp_result.r_earlier
        assert cmp_result.verdict == "earlier-more-complex"
    assert cmp_result.removed == (heaviest,)


def test_baseline_mismatch_detected():
    rng = random.Random(73)
    b1 = _random_build(rng)
    b2 = _random_build(rng)
    base1 = fit_churn_baseline(b1, METRICS)
    base2 = fit_churn_baseline(b2, METRICS)
    with pytest.raises(BaselineMismatch):
        churn_compare(score_build("a", b1, base1), score_build("b", b1, base2))


def test_partitions_cover_both_builds():
    a = ChurnBuildRecord("a", {"x": 1.0, "y": 2.0}, baseline_fingerprint="f")
    b = ChurnBuildRecord("b", {"y": 2.0, "z": 3.0}, baseline_fingerprint="f")
    cmp_result = churn_compare(a, b)
    assert set(cmp_result.common) | set(cmp_result.removed) == set(a.rho)
    assert set(cmp_result.common) | set(cmp_result.added) == set(b.rho)
    assert not set(cmp_result.removed) & set(cmp_result.added)
