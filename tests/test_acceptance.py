"""Reference acceptance suite.

Every criterion prints one [PASS]/[FAIL] line per sub-check (run with -s to
see them on success). Desk-scale runs use 1000 replications (500 for the
Student-t robustness checks); tolerances follow the reference tables' three
Monte Carlo standard errors at that replication count.

Known state: the published NIID levels of the rescaled-range and FA(1)
statistics, and the published HR mean at alpha=2, are not the expectations
of the documented procedure. Those checks compare against a level computed
here from a closed form, never from a run of the program, and print the
measured, closed-form and published values:

- RRA means and cutoff (criteria 1-3): the OLS slope of ln E[R/S]_n on ln n
  over the README grid, with the Anis-Lloyd E[R/S]_n, is 0.5949 at T=1000
  and 0.5821 at T=2000 (published 0.613 and 0.595; measured 0.5939 and
  0.5819). The 0.05 cutoff keeps the published cutoff-minus-mean gap of
  0.033, and the ARFIMA means keep the published increments over the
  T=2000 null mean.
- FA(1) mean and cutoff (criteria 1-2): a second-order expansion of
  E ln S_q(n) from exact Gaussian absolute and bivariate moments, pushed
  through the fixed-effects fit, gives 0.4748 at T=1000 (published 0.454;
  measured 0.4734). The cutoff keeps the published offset of 0.101.
- HR mean at alpha=2 (criterion 6): the exact Gaussian order-statistic
  integral with m = 0.05*T = 100 gives 0.1587 (published 0.199; measured
  0.1589). The same integral for Hill gives 0.2118, the published 0.212.

Criterion 4's two fractionally-integrated power cells (ARFIMA H=.58 with
RRA and FA(1); measured 0.868 and 0.443 against 0.912 and 0.496) keep their
published bounds and fail. A common shift of null and alternative leaves
power unchanged, so the level evidence above does not explain them, and no
document settles the spread of the T=2000 null that would.
"""
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

from selfaffine.analysis import (
    FILTERED,
    UNFILTERED,
    VERDICT_LRD,
    VERDICT_NIID,
    AnalyzeConfig,
    analyze_index,
    classify_source,
    report_csv_rows,
)
from selfaffine.methods import estimate_point
from selfaffine.montecarlo import critical_values, power_function, run_replications
from selfaffine.scaling import (
    Q_GRIDS,
    _fa_points,
    _fa_slopes,
    _partition_errors,
    partition_function,
    rs_statistic,
    time_scale_grid,
)
from selfaffine.simulate import (
    arfima_acf,
    arfima_spec,
    generate,
    lstable_spec,
    lstable_spec_for_hurst,
    niid_spec,
    student_t_spec,
)
from selfaffine.timeseries import PriceSeries, ReturnsSeries

DATA = Path(__file__).parent / "data"
REPS = 1000

# Published reference values of the checks that now assert closed-form levels.
PUB_RRA_MEAN_T1000 = 0.613
PUB_RRA_MEAN_T2000 = 0.595
PUB_RRA_CUTOFF_T1000 = 0.646
PUB_ARFIMA_RRA_MEANS = (0.619, 0.643, 0.667)  # d = 0.04, 0.08, 0.12
PUB_FA1_MEAN_T1000 = 0.454
PUB_FA1_CUTOFF_T1000 = 0.555
PUB_HR_MEAN_ALPHA2 = 0.199
PUB_HILL_MEAN_ALPHA2 = 0.212


def rra_null_level(T):
    """OLS slope of ln E[R/S]_n on ln n over the README scale grid.

    E[R/S]_n for n iid Gaussian observations is the expectation of Anis and
    Lloyd (1976, Biometrika 63, 111-116)

        E[R/S]_n = Gamma((n-1)/2) / (sqrt(pi) Gamma(n/2))
                   * sum_{i=1}^{n-1} sqrt((n-i)/i),

    with S the standard deviation about the block mean, divisor n. It is the
    same for every block, so it is also the expectation of the two-pass
    average. The gap between E ln and ln E of that average is not modelled.
    """
    scales = time_scale_grid(T)
    rs = [math.exp(special.gammaln((n - 1) / 2) - special.gammaln(n / 2))
          / math.sqrt(math.pi) * np.sum(np.sqrt((n - np.arange(1, n)) / np.arange(1, n)))
          for n in scales]
    x = np.log(scales) - np.log(scales).mean()
    return float(x @ np.log(rs) / (x @ x))


def _abs_moment(q):
    """Gaussian absolute moment E|Z|^q = 2^(q/2) Gamma((q+1)/2) / sqrt(pi)."""
    return 2.0 ** (q / 2) * math.exp(special.gammaln((q + 1) / 2)) / math.sqrt(math.pi)


def _expected_log_partition(T, n, q):
    """Second-order expansion E ln S ~ ln E S - Var S / (2 (E S)^2).

    With unit-variance NIID returns the block increments are sqrt(n)|Z|, so
    S_q(n) = 0.5 n^(q/2) sum over both passes of |Z_m|^q. Blocks within a
    pass are independent. A first-pass block and a second-pass block that
    share k observations are bivariate normal with rho = k/n, and

        E|X|^q |Y|^q = (2^q / pi) Gamma((q+1)/2)^2 2F1(-q/2, -q/2; 1/2; rho^2)

    (the bivariate normal absolute product moment, Kamat 1953, Biometrika 40)
    gives their covariance. First-pass block i overlaps second-pass blocks
    i-1 and i only, so the cross-pass sum is O(M). When T = M*n the second
    pass is the first (rho = 1 on the diagonal, 0 off it), which the same
    sum covers.
    """
    M = T // n
    L = T - M * n
    mq = _abs_moment(q)
    block_var = _abs_moment(2 * q) - mq * mq
    starts = np.arange(M) * n
    cross = 0.0
    for shift in (0, 1):  # second-pass blocks i and i-1
        first = starts[shift:]
        second = L + starts[: M - shift]
        overlap = np.minimum(first, second) + n - np.maximum(first, second)
        rho = overlap / n
        cross += float(np.sum(special.hyp2f1(-q / 2, -q / 2, 0.5, rho * rho) - 1.0)) * mq * mq
    mean = M * mq  # E S / n^(q/2)
    var = 0.25 * (2 * M * block_var + 2 * cross)  # Var S / n^q
    return 0.5 * q * math.log(n) + math.log(mean) - var / (2 * mean * mean)


def fa1_null_level(T):
    """Fixed-effects FA(1) slope fitted to the expanded E ln S_q(n).

    The fit is linear in ln S, so this is the expectation of the estimator
    up to the error of the second-order expansion.
    """
    scales = time_scale_grid(T)
    q = Q_GRIDS["fa1"]
    lnn = np.log(scales)
    lnS = np.array([[_expected_log_partition(T, n, qk) for n in scales] for qk in q])
    Y = lnS + lnn[None, :]
    X = q[:, None] * lnn[None, :]
    Yd = Y - Y.mean(axis=1, keepdims=True)
    Xd = X - X.mean(axis=1, keepdims=True)
    return float(np.sum(Xd * Yd) / np.sum(Xd * Xd))


def gaussian_log_order_stat(T, k):
    """E ln X_(k) for the k-th largest of T iid N(0, 1) draws.

    Integrates ln x against the density of the k-th largest order statistic
    (David and Nagaraja, Order Statistics, 3rd ed., 2003, ch. 2)

        f_(k)(x) = T! / ((k-1)! (T-k)!) Phi(x)^(T-k) (1 - Phi(x))^(k-1) phi(x)

    over x > 0. The tail estimators need X_(k) > 0, and at T = 2000 with
    k <= 100 the probability of X_(k) <= 0 is below 1e-300.
    """
    log_c = special.gammaln(T + 1) - special.gammaln(k) - special.gammaln(T - k + 1)

    def integrand(x):
        return math.log(x) * math.exp(log_c + (T - k) * special.log_ndtr(x)
                                      + (k - 1) * special.log_ndtr(-x)
                                      - 0.5 * x * x - 0.5 * math.log(2 * math.pi))

    return integrate.quad(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12,
                          limit=200)[0]


def hr_null_level(T):
    """E[(ln X_(1) - ln X_(m)) / ln m] for Gaussian returns, m = 0.05*T."""
    m = int(0.05 * T)
    return (gaussian_log_order_stat(T, 1) - gaussian_log_order_stat(T, m)) / math.log(m)


def hill_null_level(T):
    """E[mean_{i<m} ln X_(i) - ln X_(m)] for Gaussian returns, m = 0.05*T."""
    m = int(0.05 * T)
    logs = [gaussian_log_order_stat(T, k) for k in range(1, m + 1)]
    return float(np.mean(logs[:-1])) - logs[-1]


class Checker:
    def __init__(self, title):
        self.title = title
        self.fails = []
        print(f"--- {title} ---")

    def check(self, name, ok, detail=""):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
        if not ok:
            self.fails.append(f"{name} ({detail})" if detail else name)

    def within(self, name, got, target, tol):
        self.check(name, abs(got - target) <= tol,
                   f"got {got:.4f}, want {target:.3f} +- {tol:.3f}")

    def against(self, name, got, reference, published, tol):
        """Check got against a closed-form reference; print the published value."""
        self.check(name, abs(got - reference) <= tol,
                   f"got {got:.4f}, closed-form {reference:.4f} +- {tol:.3f}, "
                   f"published {published:.3f}")

    def finish(self):
        assert not self.fails, f"{self.title}: " + "; ".join(self.fails)


@pytest.fixture(scope="module")
def mc():
    cache = {}

    def sample(method, spec, seed, reps=REPS):
        key = (method, spec, seed, reps)
        if key not in cache:
            cache[key] = run_replications(spec, method, reps, seed)
        return cache[key]

    return sample


def mean_sd(sample):
    return sample.mean, sample.sd


def test_criterion_1_null_means_and_sds(mc):
    c = Checker("criterion 1: NIID estimator means and sds")
    m, s = mean_sd(mc("rra", niid_spec(1000), 101))
    c.against("RRA mean, T=1000", m, rra_null_level(1000), PUB_RRA_MEAN_T1000, 0.002)
    c.within("RRA sd, T=1000", s, 0.020, 0.003)
    m, s = mean_sd(mc("fa1", niid_spec(1000), 101))
    c.against("FA(1) mean, T=1000", m, fa1_null_level(1000), PUB_FA1_MEAN_T1000, 0.006)
    c.within("FA(1) sd, T=1000", s, 0.062, 0.008)
    m, _ = mean_sd(mc("rra", niid_spec(2000), 102))
    c.against("RRA mean, T=2000", m, rra_null_level(2000), PUB_RRA_MEAN_T2000, 0.002)
    c.finish()


def test_criterion_2_null_cutoffs(mc):
    """Cutoffs sit at the closed-form null level plus the published
    cutoff-minus-mean offset, which a shift in level leaves unchanged."""
    c = Checker("criterion 2: NIID 0.05 critical values at T=1000")
    rra = critical_values(mc("rra", niid_spec(1000), 101))
    c.against("RRA 0.05 cutoff", rra.cutoff(0.05),
              rra_null_level(1000) + PUB_RRA_CUTOFF_T1000 - PUB_RRA_MEAN_T1000,
              PUB_RRA_CUTOFF_T1000, 0.004)
    fa1 = critical_values(mc("fa1", niid_spec(1000), 101))
    c.against("FA(1) 0.05 cutoff", fa1.cutoff(0.05),
              fa1_null_level(1000) + PUB_FA1_CUTOFF_T1000 - PUB_FA1_MEAN_T1000,
              PUB_FA1_CUTOFF_T1000, 0.008)
    c.finish()


def test_criterion_3_diagnostic_signatures(mc):
    """The ARFIMA RRA means are checked against the closed-form T=2000 null
    level plus the published increments over the published null mean. This
    assumes the published table is shifted by the same amount under the null
    and under ARFIMA."""
    c = Checker("criterion 3: bias signatures across true H at T=2000")
    arf = [mean_sd(mc("rra", arfima_spec(d, 2000), 103))[0]
           for d in (0.04, 0.08, 0.12)]
    c.check("ARFIMA RRA means increase in H", arf[0] < arf[1] < arf[2],
            "->".join(f"{v:.4f}" for v in arf))
    null_level = rra_null_level(2000)
    for got, pub in zip(arf, PUB_ARFIMA_RRA_MEANS):
        c.against("ARFIMA RRA mean", got, null_level + pub - PUB_RRA_MEAN_T2000,
                  pub, 0.003)
    lst_rra = [mean_sd(mc("rra", lstable_spec_for_hurst(h, 2000), 104))[0]
               for h in (0.54, 0.58, 0.62)]
    c.check("L-stable RRA means DEcrease in H",
            lst_rra[0] > lst_rra[1] > lst_rra[2],
            "->".join(f"{v:.4f}" for v in lst_rra))
    lst_fa1 = [mean_sd(mc("fa1", lstable_spec_for_hurst(h, 2000), 104))[0]
               for h in (0.54, 0.58, 0.62)]
    c.check("L-stable FA(1) means INcrease in H",
            lst_fa1[0] < lst_fa1[1] < lst_fa1[2],
            "->".join(f"{v:.4f}" for v in lst_fa1))
    for got, want in zip(lst_fa1, (0.513, 0.550, 0.586)):
        c.within("L-stable FA(1) mean", got, want, 0.006)
    c.finish()


def test_criterion_4_power(mc):
    c = Checker("criterion 4: power at level 0.05, T=2000")
    tables = {m: critical_values(mc(m, niid_spec(2000), 102))
              for m in ("rra", "fa1", "fa2", "fa3")}

    p = power_function(arfima_spec(0.08, 2000), "rra", tables["rra"],
                       REPS, 105).rejection_rate
    c.within("ARFIMA H=.58 RRA power", p, 0.912, 0.03)
    p = power_function(arfima_spec(0.08, 2000), "fa1", tables["fa1"],
                       REPS, 105).rejection_rate
    c.within("ARFIMA H=.58 FA(1) power", p, 0.496, 0.05)

    lst62 = lstable_spec_for_hurst(0.62, 2000)
    p = power_function(lst62, "rra", tables["rra"], REPS, 106).rejection_rate
    c.check("L-stable H=.62 RRA power collapse", p <= 0.02, f"rate {p:.3f}")
    p = power_function(lst62, "fa1", tables["fa1"], REPS, 106).rejection_rate
    c.within("L-stable H=.62 FA(1) power", p, 0.644, 0.05)

    # method ordering under ARFIMA H=.62, allowing 3 binomial SEs of slack
    # on each comparison
    slack = 3.0 * math.sqrt(0.25 / REPS)
    rates = {}
    for m in ("rra", "fa2", "fa3"):
        sample = mc(m, arfima_spec(0.12, 2000), 107)
        rates[m] = float(np.mean(sample.sample > tables[m].cutoff(0.05)))
    c.check("power ordering RRA > FA(3)", rates["rra"] > rates["fa3"] - slack,
            f"rra {rates['rra']:.3f} vs fa3 {rates['fa3']:.3f}")
    c.check("power ordering FA(3) >= FA(2)", rates["fa3"] >= rates["fa2"] - slack,
            f"fa3 {rates['fa3']:.3f} vs fa2 {rates['fa2']:.3f}")
    c.check("power ordering FA(2) > chance", rates["fa2"] > 0.05 + slack,
            f"fa2 {rates['fa2']:.3f}")

    # rejection rates must be non-decreasing in the true H (same slack)
    for m in ("rra", "fa1"):
        cut = tables[m].cutoff(0.05)
        curve = [float(np.mean(mc(m, arfima_spec(d, 2000), 103).sample > cut))
                 for d in (0.04, 0.08, 0.12)]
        monotone = all(b >= a - slack for a, b in zip(curve, curve[1:]))
        c.check(f"{m} power is monotone in H",
                monotone, "->".join(f"{v:.3f}" for v in curve))
    c.finish()


def test_criterion_5_log_periodogram_bias(mc):
    c = Checker("criterion 5: GPH and Robinson means at T=5000")
    gph_refs = (0.000, 0.040, 0.081, 0.122)
    rob_refs = (0.000, 0.038, 0.075, 0.112)
    for d, g_ref, r_ref in zip((0.0, 0.04, 0.08, 0.12), gph_refs, rob_refs):
        spec = arfima_spec(d, 5000)
        g, _ = mean_sd(mc("gph", spec, 108))
        c.within(f"GPH mean at d={d}", g, g_ref, 0.009)
        r, _ = mean_sd(mc("robinson", spec, 108))
        c.within(f"Robinson mean at d={d}", r, r_ref, 0.002)
    c.finish()


def test_criterion_6_tail_estimators(mc):
    c = Checker("criterion 6: tail estimator means at T=2000")
    gauss = lstable_spec(2.0, 2000)
    m, _ = mean_sd(mc("hill", gauss, 109))
    c.within("Hill mean, alpha=2", m, PUB_HILL_MEAN_ALPHA2, 0.002)
    # the order-statistic integral reproduces the published Hill cell, so the
    # published table used the documented m = 0.05*T
    c.within("closed-form Hill level, alpha=2", hill_null_level(2000),
             PUB_HILL_MEAN_ALPHA2, 0.002)
    m, _ = mean_sd(mc("pickands", gauss, 109))
    c.within("Pickands mean, alpha=2", m, -0.279, 0.017)
    m, _ = mean_sd(mc("hr", gauss, 109))
    c.against("HR mean, alpha=2", m, hr_null_level(2000), PUB_HR_MEAN_ALPHA2, 0.002)
    m, _ = mean_sd(mc("hill", lstable_spec_for_hurst(0.62, 2000), 110))
    c.within("Hill mean, alpha=1/0.62", m, 0.498, 0.006)
    c.finish()


def test_criterion_7_student_t_robustness(mc):
    c = Checker("criterion 7: Student-t robustness at T=5000, NIID cutoffs")
    hill_cut = critical_values(mc("hill", niid_spec(5000), 111)).cutoff(0.05)
    fa1_cut = critical_values(mc("fa1", niid_spec(5000), 111)).cutoff(0.05)
    refs = {10: (0.978, 0.03), 20: (0.599, 0.07)}
    for df, (ref, tol) in refs.items():
        hill = mc("hill", student_t_spec(df, 5000), 112, reps=500)
        rate = float(np.mean(hill.sample > hill_cut))
        c.within(f"Hill-test rejection rate, t(df={df})", rate, ref, tol)
        fa1 = mc("fa1", student_t_spec(df, 5000), 112, reps=500)
        rate = float(np.mean(fa1.sample > fa1_cut))
        c.within(f"FA(1)-test rejection rate, t(df={df})", rate, 0.05, 0.03)
    c.finish()


def test_criterion_8_property_suite(mc):
    c = Checker("criterion 8: property suite")

    serial = run_replications(niid_spec(256), "hill", 16, 777, workers=1)
    parallel = run_replications(niid_spec(256), "hill", 16, 777, workers=2)
    c.check("determinism across worker counts", serial == parallel)

    same = np.array_equal(generate(arfima_spec(0.0, 400, seed=5)).values,
                          generate(niid_spec(400, seed=5)).values)
    c.check("ARFIMA d=0 identical to NIID stream", same)

    d, reps = 0.2, 20
    rhos = []
    for s in range(reps):
        z = generate(arfima_spec(d, 100000, seed=900 + s)).values
        dev = z - z.mean()
        rhos.append(float((dev[:-1] @ dev[1:]) / (dev @ dev)))
    se = np.std(rhos, ddof=1) / math.sqrt(reps)
    c.check("ARFIMA lag-1 autocorrelation matches d/(1-d)",
            abs(np.mean(rhos) - d / (1 - d)) < 3 * se,
            f"mean {np.mean(rhos):.4f} vs {d / (1 - d):.4f} (3se {3 * se:.4f})")

    from scipy import stats
    passes = sum(
        stats.kstest(generate(lstable_spec(2.0, 10000, seed=s)).values,
                     "norm", args=(0.0, math.sqrt(2.0)))[0] < 1.63 / 100.0
        for s in range(40))
    c.check("CMS alpha=2 KS pass rate >= 95%", passes >= 38, f"{passes}/40")

    c.check("R/S matches the hand-computed fixture",
            abs(rs_statistic(ReturnsSeries([1.0, 2.0, 1.0, 2.0]), 2) - 1.0) < 1e-12)
    c.check("partition function matches the hand-computed fixture",
            abs(partition_function(ReturnsSeries([0.7] * 4), 2, 2.0) - 2 * 1.4 ** 2) < 1e-12)

    rng = np.random.default_rng(4)
    z = rng.standard_normal(600)
    r, rt = ReturnsSeries(z), ReturnsSeries(-1.7 * z + 0.4)
    c.check("RRA affine invariance",
            abs(estimate_point("rra", r) - estimate_point("rra", rt)) < 1e-9)
    c.check("FA scale invariance",
            abs(estimate_point("fa1", r)
                - estimate_point("fa1", ReturnsSeries(3.0 * z))) < 1e-9)
    rp = ReturnsSeries(np.abs(z) + 0.1)
    rps = ReturnsSeries(5.0 * (np.abs(z) + 0.1))
    for tm in ("hill", "hr"):
        c.check(f"{tm} scale invariance",
                abs(estimate_point(tm, rp) - estimate_point(tm, rps)) < 1e-9)
    c.check("pickands affine invariance",
            abs(estimate_point("pickands", r)
                - estimate_point("pickands", ReturnsSeries(2.0 * z + 9.0))) < 1e-9)

    # scales dividing T keep the block count exact, making the fit exact
    scales, q = (8, 16, 32, 64), Q_GRIDS["fa1"]
    lnS = _fa_points(np.full((1, 1024), 0.25), q, scales)
    trend = _fa_slopes(lnS, q, np.log(scales))[0]
    c.check("deterministic trend gives FA Hurst exponent 1",
            not _partition_errors(lnS, scales) and abs(trend - 1.0) < 1e-9,
            f"H = {trend:.12f}")

    null_table = critical_values(mc("rra", niid_spec(1000), 101))
    size = power_function(niid_spec(1000), "rra", null_table, 400, 113,
                          level=0.05).rejection_rate
    c.check("test size matches the level under the null",
            abs(size - 0.05) <= 3 * math.sqrt(0.05 * 0.95 / 400),
            f"size {size:.3f}")
    c.finish()


def test_criterion_9_pipeline_layout_and_closed_loop():
    c = Checker("criterion 9: analyze pipeline layout and closed loop")

    # golden report layout on the committed fixture
    from selfaffine.timeseries import read_prices_csv
    prices = read_prices_csv(DATA / "prices_demo.csv")
    report = analyze_index(prices, AnalyzeConfig(reps=120, seed=7,
                                                 series_id="prices_demo"))
    rows = report_csv_rows(report)
    golden = (DATA / "golden_report.csv").read_text().strip().split("\n")
    got = [",".join(r) for r in rows]
    c.check("report CSV layout matches the golden file",
            got == [line.rstrip("\r") for line in golden])
    c.check("report has one row per (method, variant) cell", len(rows) == 13)

    # closed loop: strong long memory must be flagged on both variants; a
    # small max_lag keeps the AR filter from absorbing the fractional signal
    rng_returns = generate(arfima_spec(0.3, 1000, seed=31)).values * 0.01
    lrd_prices = PriceSeries(100.0 * np.exp(np.concatenate([[0.0],
                                                            np.cumsum(rng_returns)])))
    lrd_report = analyze_index(lrd_prices, AnalyzeConfig(reps=150, seed=9,
                                                         max_lag=2,
                                                         series_id="lrd"))
    fa1_u = lrd_report.cell("fa1", UNFILTERED)
    fa1_f = lrd_report.cell("fa1", FILTERED)
    c.check("FA(1) rejects on unfiltered simulated long-memory returns",
            fa1_u.reject_at(0.05), f"est {fa1_u.estimate:.3f}")
    c.check("FA(1) rejects on filtered simulated long-memory returns",
            fa1_f.reject_at(0.05), f"est {fa1_f.estimate:.3f}")
    c.check("long-memory input classified as long-range dependent",
            classify_source(lrd_report).verdict == VERDICT_LRD)

    # closed loop: a null input on a representative seed stays unflagged
    null_returns = generate(niid_spec(500, seed=17)).values * 0.01
    null_prices = PriceSeries(100.0 * np.exp(np.concatenate([[0.0],
                                                             np.cumsum(null_returns)])))
    null_report = analyze_index(null_prices, AnalyzeConfig(reps=150, seed=9,
                                                           series_id="null"))
    c.check("NIID input classified as consistent with NIID",
            classify_source(null_report).verdict == VERDICT_NIID,
            classify_source(null_report).verdict)
    c.finish()
