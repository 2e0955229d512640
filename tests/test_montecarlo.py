import math

import numpy as np
import pytest

from logigof import montecarlo
from logigof.estimation import Method
from logigof.logistic_core import DomainError, RngStream, sample_from_generator
from logigof.montecarlo import (AlternativeSpec, McConfig, McError, StatSpec,
                                calibrate, local_power_curve,
                                power_study, pvalue_simulated, rows_to_csv,
                                rows_to_text, simulate_statistics)

ALL_SPECS = [StatSpec("T", 3), StatSpec("T", 4), StatSpec("T", 5),
             StatSpec("S"), StatSpec("R", 1), StatSpec("R", 2), StatSpec("R", 3),
             StatSpec("KS"), StatSpec("CM"), StatSpec("AD"), StatSpec("WA")]


# ---------------------------------------------------------------------------
# alternatives


def test_alternative_parse_label_round_trip():
    labels = ["logistic", "normal", "t(2)", "cauchy", "laplace",
              "lognormal(1)", "gamma(1)", "uniform(-1.5,2)", "beta(2,2)",
              "chisquare(2)", "mixture(0.2,cauchy)",
              "mixture(0.5,lognormal(1))"]
    for label in labels:
        spec = AlternativeSpec.parse(label)
        assert spec.label() == label
        assert AlternativeSpec.parse(spec.label()) == spec


def test_alternative_parse_aliases_and_errors():
    assert AlternativeSpec.parse("chi2(2)") == AlternativeSpec.chisquare(2)
    assert AlternativeSpec.parse("LN(1.5)") == AlternativeSpec.lognormal(1.5)
    assert AlternativeSpec.parse("uniform") == AlternativeSpec.uniform()
    with pytest.raises(DomainError):
        AlternativeSpec.parse("weibull(2)")
    with pytest.raises(DomainError):
        AlternativeSpec.parse("mixture(0.5)")
    with pytest.raises(DomainError):
        AlternativeSpec.parse("t()")
    with pytest.raises(DomainError):
        AlternativeSpec.mixture(1.5, AlternativeSpec.cauchy())
    with pytest.raises(DomainError):
        AlternativeSpec.mixture(
            0.5, AlternativeSpec.mixture(0.5, AlternativeSpec.cauchy()))
    # A kind takes no parameters (its defaults) or all of them, all finite.
    for bad in ("normal(5)", "cauchy(2,3)", "laplace(9)", "mixture(0.5,normal(3))",
                "t(nan)", "gamma(inf)", "lognormal(nan)", "beta(nan,2)",
                "chisquare(inf)", "logistic(0,nan)", "uniform(1)"):
        with pytest.raises(DomainError):
            AlternativeSpec.parse(bad)
    # The Python constructors follow the same rule as the text form.
    assert AlternativeSpec.uniform() == AlternativeSpec.parse("uniform")
    assert AlternativeSpec.logistic() == AlternativeSpec.parse("logistic")
    assert AlternativeSpec.logistic(2.0, 1.0) == AlternativeSpec.parse("logistic(2,1)")
    for make, params in ((AlternativeSpec.uniform, (1.0,)),
                         (AlternativeSpec.logistic, (2.0,)),
                         (AlternativeSpec.uniform, (-1.0, 0.0, 1.0))):
        with pytest.raises(DomainError):
            make(*params)


# The first three draws of one alternative per kind at RngStream(20260815, 0),
# recorded before the alternatives were described by one table.
FIRST_DRAWS = {
    "logistic": [-0.0856681010297522, -2.2889616923026224, -1.638654658360554],
    "logistic(0.5,2)": [0.3286637979404956, -4.077923384605245, -2.777309316721108],
    "normal": [-0.8042761698852922, -0.8395378920963805, -0.5910747545504402],
    "t(3)": [-1.4299690227144095, -0.31840284310695544, -0.6792481840359835],
    "cauchy": [0.9579986531363849, 1.7155790029258637, -0.20669276174253892],
    "laplace": [-0.04375114806637907, -1.6923708803732624, -1.123018471822695],
    "lognormal(1)": [0.44741165941418265, 0.4319100663756674, 0.5537318389991287],
    "gamma(2)": [0.8290451975340771, 1.014124566944001, 2.3555361947084625],
    "uniform": [-0.07414541108831085, -1.4132104462007706, -1.1686208924594372],
    "beta(2,3)": [0.31376323235587034, 0.5974448060627842, 0.47742289998014864],
    "chisquare(2)": [1.3043048363719614, 0.2550019552331843, 0.8151767949262108],
    "mixture(0.3,cauchy)": [-0.876028166841306, 0.2829741733131006, 0.7691862451332059],
}


@pytest.mark.parametrize("label", FIRST_DRAWS)
def test_every_alternative_kind_round_trips_and_keeps_its_stream(label):
    spec = AlternativeSpec.parse(label)
    assert spec.label() == label
    assert AlternativeSpec.parse(spec.label()) == spec
    np.testing.assert_array_equal(spec.sample(3, RngStream(20260815, 0)),
                                  FIRST_DRAWS[label])


def test_default_uniform_is_variance_one():
    u = AlternativeSpec.uniform()
    assert u.mean() == pytest.approx(0.0, abs=1e-12)
    assert u.std() == pytest.approx(1.0, rel=1e-12)


def test_alternative_sampling_matches_distributions():
    stream = RngStream(1000)
    n = 100_000
    x = AlternativeSpec.gamma(2.0).sample(n, stream)
    assert x.mean() == pytest.approx(2.0, rel=0.02)
    assert x.var() == pytest.approx(2.0, rel=0.05)
    x = AlternativeSpec.lognormal(1.0).sample(n, stream)
    assert np.log(x).std() == pytest.approx(1.0, rel=0.02)


def test_mixture_zero_equals_base_stream_for_stream():
    stream = RngStream(7, 3)
    mix = AlternativeSpec.mixture(0.0, AlternativeSpec.cauchy())
    base = AlternativeSpec.logistic()
    np.testing.assert_array_equal(mix.sample(50, stream), base.sample(50, stream))


def test_mixture_one_equals_contaminant_stream_for_stream():
    stream = RngStream(7, 4)
    mix = AlternativeSpec.mixture(1.0, AlternativeSpec.cauchy())
    np.testing.assert_array_equal(
        mix.sample(50, stream), AlternativeSpec.cauchy().sample(50, stream))


def test_mixture_draws_compose_base_and_contaminant():
    stream = RngStream(11, 0)
    mix = AlternativeSpec.mixture(0.35, AlternativeSpec.cauchy())
    got = mix.sample(200, stream)
    gen = stream.generator()
    pick = gen.random(200)
    base = sample_from_generator(gen, 200)
    contaminated = np.random.Generator(np.random.Philox(
        key=np.array([11, 0], dtype=np.uint64)))
    # Rebuild through the public draw order: picks, base, then contaminant.
    gen2 = stream.generator()
    pick2 = gen2.random(200)
    base2 = sample_from_generator(gen2, 200)
    cont2 = gen2.standard_cauchy(200)
    expected = np.where(pick2 < 0.35, cont2, base2)
    np.testing.assert_array_equal(got, expected)
    assert 30 <= np.sum(pick < 0.35) <= 110


def test_mixture_moments():
    mix = AlternativeSpec.mixture(0.3, AlternativeSpec.gamma(2.0))
    assert mix.mean() == pytest.approx(0.3 * 2.0, rel=1e-12)
    second = 0.7 * math.pi**2 / 3.0 + 0.3 * (2.0 + 4.0)
    assert mix.std() == pytest.approx(math.sqrt(second - 0.6**2), rel=1e-12)
    x = np.linspace(-4, 8, 31)
    direct = (0.7 * np.exp(-x) / (1 + np.exp(-x))**2
              + 0.3 * np.where(x > 0, x * np.exp(-x), 0.0))
    np.testing.assert_allclose(mix.pdf(x), direct, rtol=1e-10, atol=1e-12)


def test_parametrized_logistic_alternative():
    alt = AlternativeSpec.parse("logistic(3,2.5)")
    assert alt.mean() == pytest.approx(3.0, rel=1e-12)
    assert alt.std() == pytest.approx(2.5 * math.pi / math.sqrt(3.0), rel=1e-12)
    x = alt.sample(50_000, RngStream(123))
    assert x.mean() == pytest.approx(3.0, abs=0.1)


# ---------------------------------------------------------------------------
# statistic specs


def test_stat_spec_parse_and_defaults():
    assert StatSpec.parse("T:4") == StatSpec("T", 4.0)
    assert StatSpec.parse("r:2") == StatSpec("R", 2)
    assert StatSpec.parse("ks") == StatSpec("KS")
    assert StatSpec("T").tuning == 3.0
    assert StatSpec("R").tuning == 1
    assert StatSpec("AD").tuning is None
    assert StatSpec("T", 4).label() == "T:4"
    assert StatSpec("CM").label() == "CM"


def test_stat_spec_validation():
    with pytest.raises(DomainError):
        StatSpec("XX")
    with pytest.raises(DomainError):
        StatSpec("T", -1.0)
    with pytest.raises(DomainError):
        StatSpec("KS", 2.0)


def test_stat_spec_rejects_fractional_orders():
    with pytest.raises(DomainError, match="integer"):
        StatSpec("R", 1.5)
    with pytest.raises(DomainError, match="integer"):
        StatSpec.parse("R:2.7")
    assert StatSpec("R", 2.0) == StatSpec.parse("R:2") == StatSpec("R", 2)


# ---------------------------------------------------------------------------
# engine behaviour


def test_simulation_is_chunk_layout_invariant():
    cfg1 = McConfig(reps=3000, seed=99, workers=1)
    cfg4 = McConfig(reps=3000, seed=99, workers=4)
    v1, f1 = simulate_statistics([StatSpec("T", 3), StatSpec("AD")], 30, cfg1)
    v4, f4 = simulate_statistics([StatSpec("T", 3), StatSpec("AD")], 30, cfg4)
    np.testing.assert_array_equal(v1, v4)
    assert f1 == f4 == 0


def test_simulation_rep_count_extension_is_prefix_stable():
    # Replication r depends only on (seed, r), so extending the run keeps
    # every earlier replication bit-identical.
    short, _ = simulate_statistics([StatSpec("S")], 20,
                                   McConfig(reps=500, seed=13, workers=1))
    longer, _ = simulate_statistics([StatSpec("S")], 20,
                                    McConfig(reps=1500, seed=13, workers=1))
    np.testing.assert_array_equal(short[0], longer[0, :500])


def test_calibrate_quantiles_and_rows():
    cfg = McConfig(reps=4000, seed=5, workers=1)
    table = calibrate([StatSpec("T", 3), StatSpec("KS")], 20,
                      [0.01, 0.05, 0.10, 0.5], cfg)
    for spec in (StatSpec("T", 3), StatSpec("KS")):
        assert table.get(spec, 0.01) >= table.get(spec, 0.05) \
            >= table.get(spec, 0.10) >= table.get(spec, 0.5)
    values, _ = simulate_statistics([StatSpec("T", 3)], 20, cfg)
    med = float(np.quantile(values[0], 0.5))
    assert table.get(StatSpec("T", 3), 0.5) == pytest.approx(med, rel=1e-12)
    assert len(table.rows) == 8
    assert {row.statistic for row in table.rows} == {"T", "KS"}
    assert all(row.mc_std_error > 0 for row in table.rows)


def test_calibrate_rejects_bad_alpha():
    cfg = McConfig(reps=100, seed=1, workers=1)
    with pytest.raises(DomainError):
        calibrate([StatSpec("KS")], 10, [0.0], cfg)
    with pytest.raises(DomainError):
        calibrate([StatSpec("KS")], 10, [1.0], cfg)


def test_mc_config_validation():
    with pytest.raises(DomainError):
        McConfig(reps=0, seed=1)
    with pytest.raises(DomainError):
        McConfig(reps=10, seed=-1)


def test_mc_config_rejects_negative_or_fractional_workers():
    with pytest.raises(DomainError, match="worker"):
        McConfig(reps=10, seed=1, workers=-3)
    with pytest.raises(DomainError, match="worker"):
        McConfig(reps=10, seed=1, workers=1.5)
    assert McConfig(reps=10, seed=1, workers=2).resolved_workers() == 2


def test_power_study_null_alternative_near_level():
    specs = [StatSpec("T", 3), StatSpec("CM")]
    table = calibrate(specs, 20, [0.05], McConfig(reps=20000, seed=50, workers=1))
    rows = power_study(specs, [AlternativeSpec.logistic()], 20,
                       McConfig(reps=5000, seed=51, workers=1), table)
    for row in rows:
        assert 3.5 <= row.value <= 6.5
        assert row.excluded_reps == 0


def test_power_study_orders_sensible_alternatives():
    specs = [StatSpec("T", 3)]
    table = calibrate(specs, 20, [0.05], McConfig(reps=20000, seed=60, workers=1))
    rows = power_study(specs, [AlternativeSpec.cauchy(),
                               AlternativeSpec.normal()], 20,
                       McConfig(reps=3000, seed=61, workers=1), table)
    by_alt = {row.key: row.value for row in rows}
    assert by_alt["cauchy"] > 50.0
    assert by_alt["normal"] < 15.0


def test_local_power_curve_keys_and_monotonicity():
    specs = [StatSpec("T", 3)]
    table = calibrate(specs, 20, [0.05], McConfig(reps=20000, seed=70, workers=1))
    rows = local_power_curve(AlternativeSpec.cauchy(), [0.0, 0.5, 1.0], specs,
                             20, McConfig(reps=4000, seed=71, workers=1), table)
    assert [row.key for row in rows] == [0.0, 0.5, 1.0]
    values = [row.value for row in rows]
    assert values[0] < 10.0
    assert values[0] < values[1] < values[2]


def test_pvalue_add_one_rule_bounds():
    cfg = McConfig(reps=400, seed=80, workers=1)
    assert pvalue_simulated("T", 3.0, 1e9, 15, cfg) == pytest.approx(1.0 / 401.0)
    assert pvalue_simulated("T", 3.0, -1e9, 15, cfg) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        pvalue_simulated("T", 3.0, math.inf, 15, cfg)


def test_systematic_failures_raise():
    # Draws from a chi-square with a tiny shape underflow to exact zero about
    # 70% of the time, so whole samples are frequently constant and the fits
    # degenerate; well over 0.1% of replications fail and the run must abort.
    flat = AlternativeSpec.chisquare(0.001)
    cfg = McConfig(reps=500, seed=90, workers=1)
    with pytest.raises(McError):
        simulate_statistics([StatSpec("KS")], 10, cfg, alternative=flat)


def test_ml_method_runs_in_engine():
    cfg = McConfig(reps=300, seed=95, workers=1, method=Method.MAX_LIKELIHOOD)
    values, failures = simulate_statistics([StatSpec("T", 3)], 20, cfg)
    assert failures == 0
    assert np.isfinite(values).all()


def test_overflowing_statistics_count_as_rejections():
    # One dominating outlier pushes the largest ML residual towards n, so at
    # n = 800 the span exceeds the exp range of the sinh-based statistics;
    # those replications must come back +inf (provably above any calibrated
    # threshold), not NaN, while the Gaussian-weighted statistic stays finite.
    wild = AlternativeSpec.mixture(0.3, AlternativeSpec.parse("lognormal(8)"))
    cfg = McConfig(reps=40, seed=96, workers=1, method=Method.MAX_LIKELIHOOD)
    values, failures = simulate_statistics(
        [StatSpec("S"), StatSpec("R", 1), StatSpec("T", 3)], 800, cfg,
        alternative=wild)
    assert failures == 0
    assert np.isinf(values[0]).any()
    assert np.isinf(values[1]).any()
    assert np.isfinite(values[2]).all()


# ---------------------------------------------------------------------------
# emitters


def test_rows_to_csv_format():
    cfg = McConfig(reps=1000, seed=8, workers=1)
    table = calibrate([StatSpec("T", 3), StatSpec("WA")], 12, [0.05], cfg)
    text = rows_to_csv(table.rows, key_name="alpha")
    lines = text.strip().split("\n")
    assert lines[0] == ("statistic,tuning,n,alpha,value,mc_std_error,"
                        "excluded_reps")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "T"
    assert first[1] == "3"
    assert first[2] == "12"
    assert first[3] == "0.05"
    assert len(first) == 7
    # Every float is rendered with at most 6 significant digits.
    assert all(len(cell.replace("-", "").replace(".", "").lstrip("0")) <= 6
               for cell in (first[4], first[5]))


def test_rows_to_text_rounding():
    cfg = McConfig(reps=500, seed=9, workers=1)
    table = calibrate([StatSpec("KS")], 12, [0.05], cfg)
    rows = power_study([StatSpec("KS")], [AlternativeSpec.cauchy()], 12,
                       McConfig(reps=200, seed=10, workers=1), table)
    text = rows_to_text(rows, key_name="alternative", round_percent=True)
    lines = text.strip().split("\n")
    assert lines[0].split()[:4] == ["statistic", "tuning", "n", "alternative"]
    cells = lines[1].split()
    value_cell = cells[cells.index("cauchy") + 1]
    assert value_cell.isdigit()


def test_default_workers_count_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv(montecarlo.WORKERS_ENV_VAR, raising=False)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 64)
    assert montecarlo.default_workers() == 3
    monkeypatch.delattr(montecarlo.os, "sched_getaffinity")
    assert montecarlo.default_workers() == 64
