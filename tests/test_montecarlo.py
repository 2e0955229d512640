import concurrent.futures
import hashlib
import math
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import process as futures_process
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from logigof import _kernels, alternatives, montecarlo
from logigof.estimation import Method
from logigof.logistic_core import DomainError, RngStream
from logigof.montecarlo import (AlternativeSpec, McConfig, McError, StatSpec,
                                calibrate, local_power_curve,
                                power_study, pvalues_simulated, rows_to_csv,
                                rows_to_text, simulate_statistics)
from oracles import draw_logistic
from proc_helpers import fresh_env, live_processes

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
    assert AlternativeSpec.parse("chi2(2)") == AlternativeSpec("chisquare", (2,))
    assert AlternativeSpec.parse("LN(1.5)") == AlternativeSpec("lognormal", (1.5,))
    assert AlternativeSpec.parse("uniform") == AlternativeSpec("uniform")
    with pytest.raises(DomainError):
        AlternativeSpec.parse("weibull(2)")
    with pytest.raises(DomainError):
        AlternativeSpec.parse("mixture(0.5)")
    with pytest.raises(DomainError):
        AlternativeSpec.parse("t()")
    with pytest.raises(DomainError):
        AlternativeSpec("mixture", p=1.5, contaminant=AlternativeSpec("cauchy"))
    with pytest.raises(DomainError):
        AlternativeSpec("mixture", p=0.5, contaminant=AlternativeSpec(
            "mixture", p=0.5, contaminant=AlternativeSpec("cauchy")))
    # A kind takes no parameters (its defaults) or all of them, all finite.
    for bad in ("normal(5)", "cauchy(2,3)", "laplace(9)", "mixture(0.5,normal(3))",
                "t(nan)", "gamma(inf)", "lognormal(nan)", "beta(nan,2)",
                "chisquare(inf)", "logistic(0,nan)", "uniform(1)",
                "uniform(-1e308,1e308)", "mixture(0.5,uniform(-1e308,1e308))",
                # An empty or non-numeric field is an error, not a field to skip.
                "uniform(-1,,1)", "logistic(,)", "t(2,)", "t(,2)", "logistic(0,1,)",
                "mixture(,cauchy)", "mixture(0.5,t(2,))", "t(two)"):
        with pytest.raises(DomainError):
            AlternativeSpec.parse(bad)
    assert AlternativeSpec.parse("logistic()") == AlternativeSpec.parse("logistic")
    # The constructor follows the same rule as the text form.
    assert AlternativeSpec("uniform") == AlternativeSpec.parse("uniform")
    assert AlternativeSpec("logistic") == AlternativeSpec.parse("logistic")
    assert AlternativeSpec("logistic", (2.0, 1.0)) == AlternativeSpec.parse("logistic(2,1)")
    for kind, params in (("uniform", (1.0,)), ("logistic", (2.0,)),
                         ("uniform", (-1.0, 0.0, 1.0))):
        with pytest.raises(DomainError):
            AlternativeSpec(kind, params)
    # A mixture needs a proportion in [0, 1] and an AlternativeSpec contaminant.
    cauchy = AlternativeSpec("cauchy")
    for fields in ({}, {"p": 0.5}, {"p": None, "contaminant": cauchy},
                   {"p": "0.5", "contaminant": cauchy}, {"p": 0.5, "contaminant": "cauchy"},
                   {"p": True, "contaminant": cauchy}, {"p": False, "contaminant": cauchy}):
        with pytest.raises(DomainError):
            AlternativeSpec("mixture", **fields)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(alternatives._KINDS)),
       values=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2),
       p=st.none() | st.floats(0.0, 1.0))
def test_every_label_parses_back(kind, values, p):
    # The label is the alternative column of power CSVs: a number that the
    # short form would round is written in full.
    params = values[:alternatives._KINDS[kind].arity]
    assume(alternatives._KINDS[kind].check(*params))
    spec = AlternativeSpec(kind, params)
    if p is not None:
        spec = AlternativeSpec("mixture", p=p, contaminant=spec)
    assert AlternativeSpec.parse(spec.label()) == spec


# For each kind with parameters, finite ones that its ``check`` rejects.
REJECTED = {"logistic": (0.0, -1.0), "t": (-1.0,), "lognormal": (0.0,), "gamma": (0.0,),
            "uniform": (2.0, 1.0), "beta": (1.0, 0.0), "chisquare": (-2.0,)}


@pytest.mark.parametrize("kind", alternatives._KINDS)
def test_every_kind_follows_the_construction_rule(kind):
    rules = alternatives._KINDS[kind]
    if rules.defaults is not None:
        assert AlternativeSpec(kind) == AlternativeSpec.parse(kind)
        assert AlternativeSpec(kind).params == rules.defaults
    else:
        for make in (AlternativeSpec, AlternativeSpec.parse):
            with pytest.raises(DomainError):
                make(kind)
    good = rules.defaults or (2.0,) * rules.arity
    assert AlternativeSpec(kind, good).params == good
    bad = [good + (1.0,)]
    for i in range(rules.arity):
        bad += [good[:i] + (v,) + good[i + 1:]
                for v in (math.nan, math.inf, -math.inf, True, np.True_,
                          str(good[i]), str(good[i]).encode())]
    if rules.arity:
        assert not rules.check(*REJECTED[kind])
        bad.append(REJECTED[kind])
    for params in bad:
        with pytest.raises(DomainError):
            AlternativeSpec(kind, params)


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


# Each kind drawn by numpy's public Generator samplers, written out here so
# that the block path is not checked against its own ``_KINDS`` fills.
PUBLIC_DRAWS = {
    "logistic": lambda gen, n, mu, sigma: draw_logistic(gen, n, mu, sigma),
    "normal": lambda gen, n: gen.standard_normal(n),
    "t": lambda gen, n, df: gen.standard_t(df, n),
    "cauchy": lambda gen, n: gen.standard_cauchy(n),
    "laplace": lambda gen, n: gen.laplace(0.0, 1.0, n),
    "lognormal": lambda gen, n, s: gen.lognormal(0.0, s, n),
    "gamma": lambda gen, n, k: gen.gamma(k, 1.0, n),
    "uniform": lambda gen, n, lo, hi: gen.uniform(lo, hi, n),
    "beta": lambda gen, n, a, b: gen.beta(a, b, n),
    "chisquare": lambda gen, n, df: gen.chisquare(df, n),
}


def test_the_public_draws_cover_every_kind():
    assert set(PUBLIC_DRAWS) == set(alternatives._KINDS)


def per_replication_sample(spec, n, stream):
    """One fresh Generator(Philox(key=[seed, r])) per replication, the way
    every sample was drawn before chunks were drawn as blocks: the oracle of
    the block path."""
    gen = np.random.Generator(np.random.Philox(
        key=np.array([stream.seed, stream.substream], dtype=np.uint64)))
    if spec.kind != "mixture":
        return PUBLIC_DRAWS[spec.kind](gen, n, *spec.params)
    c = spec.contaminant
    if spec.p == 0.0:
        return draw_logistic(gen, n)
    if spec.p == 1.0:
        return PUBLIC_DRAWS[c.kind](gen, n, *c.params)
    pick = gen.random(n)
    base = draw_logistic(gen, n)
    return np.where(pick < spec.p, PUBLIC_DRAWS[c.kind](gen, n, *c.params), base)


# lognormal(300) takes exp past 709, where numpy's complex exp rescales.
@pytest.mark.parametrize("label", [*FIRST_DRAWS, "mixture(0,cauchy)", "mixture(1,cauchy)",
                                   "gamma(0.3)", "lognormal(300)"])
def test_block_sample_equals_single_replication_draws(label):
    # k = 900 at n = 20 and 400 at n = 50 span two row blocks of the
    # logistic sampler.
    spec = AlternativeSpec.parse(label)
    for n, k in ((1, 40), (3, 40), (20, 900), (21, 40), (50, 400)):
        block = spec.sample(n, RngStream(20260815, 4096), reps=k)
        assert block.shape == (k, n)
        streams = [RngStream(20260815, 4096 + i) for i in range(k)]
        np.testing.assert_array_equal(block, [spec.sample(n, s) for s in streams])
        np.testing.assert_array_equal(block, [per_replication_sample(spec, n, s)
                                              for s in streams])


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: AlternativeSpec("bogus"), "unknown alternative kind: 'bogus'",
                 id="unknown-kind"),
    pytest.param(lambda: AlternativeSpec("logistic").sample(0, RngStream(1)),
                 "sample size must be at least 1", id="empty-sample"),
    pytest.param(lambda: AlternativeSpec.parse("t(2"), "cannot parse alternative: 't(2'",
                 id="unclosed-parenthesis")])
def test_alternative_spec_rejections_name_their_cause(make, message):
    with pytest.raises(DomainError) as caught:
        make()
    assert str(caught.value) == message


def test_block_sample_rejects_bad_replication_counts():
    # A block may end at the last substream, 2^64 - 1, and no later; n = 5
    # starts a mixture's contaminant inside a Philox block.
    for spec in (AlternativeSpec("logistic"), AlternativeSpec("t", (2,)),
                 AlternativeSpec("uniform", (-2.0, 5.0)),
                 AlternativeSpec("mixture", p=0.5, contaminant=AlternativeSpec("cauchy"))):
        for reps in (0, -1, 2.5, 3.0, "3"):
            with pytest.raises(DomainError, match="replication count"):
                spec.sample(5, RngStream(1), reps=reps)
        last = RngStream(5, 2**64 - 3)
        np.testing.assert_array_equal(
            spec.sample(5, last, reps=3)[2],
            per_replication_sample(spec, 5, RngStream(5, 2**64 - 1)))
        with pytest.raises(DomainError, match="substream"):
            spec.sample(5, last, reps=4)


WORD_SAMPLED = ["logistic", "logistic(1,2)", "uniform", "uniform(-2,5)",
                *(f"mixture({p},{c})" for p in (0.2, 0.5, 0.8)
                  for c in ("cauchy", "t(2)", "normal", "uniform"))]


@pytest.mark.parametrize("label", WORD_SAMPLED)
def test_rows_drawn_from_rekeyed_philox_equal_per_row_draws(label):
    # Every row is drawn from one Generator re-keyed to its substream: a
    # logistic or uniform row takes n raw words, and a mixture row its picks
    # and base from the first 2n, its contaminant continuing on it, inside a
    # Philox block when n is odd.  The block sizes span several row blocks
    # at n = 20, 50 and 64.  Logistic and uniform rows are also drawn at
    # the edges of both key words, up to the last substream index 2^64 - 1,
    # where n = 1 ... 5 covers partial Philox blocks.
    spec = AlternativeSpec.parse(label)
    cases = [(20260815, 4096, n, k) for n, k in ((20, 900), (21, 40), (22, 40), (23, 40),
                                                 (39, 40), (40, 40), (50, 400), (64, 300))]
    if spec.kind != "mixture":
        cases += [(seed, first, n, 8) for seed in (0, 1, 2**64 - 1, 2**32 - 1, 2**63)
                  for first in (0, 2**64 - 8, 2**32 - 4) for n in (1, 2, 3, 4, 5)]
    for seed, first, n, k in cases:
        block = spec.sample(n, RngStream(seed, first), reps=k)
        for i, row in enumerate(block):
            np.testing.assert_array_equal(
                row, per_replication_sample(spec, n, RngStream(seed, first + i)))


# Every _KINDS kind as a contaminant; lognormal(300) takes exp past 709.
@pytest.mark.parametrize("contaminant", ["cauchy", "lognormal(1)", "gamma(0.5)",
                                         "chisquare(3)", "normal", "logistic(1,2)", "laplace",
                                         "beta(2,2)", "lognormal(300)", "t(2)", "uniform"])
def test_contaminants_filled_in_place_start_inside_a_philox_block(contaminant):
    # A row's contaminant draw continues on the Generator that gave its 2n
    # pick and base words; at odd n its first word is the third of a Philox
    # block, which the Generator holds in its buffer.
    spec = AlternativeSpec("mixture", p=0.4, contaminant=AlternativeSpec.parse(contaminant))
    for n in (1, 3, 20, 21, 23):
        block = spec.sample(n, RngStream(77, 2**40), reps=60)
        np.testing.assert_array_equal(
            block, [per_replication_sample(spec, n, RngStream(77, 2**40 + i)) for i in range(60)])


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_mixture_shortcuts_draw_the_base_or_the_contaminant_alone(p):
    mix = AlternativeSpec("mixture", p=p, contaminant=AlternativeSpec("uniform", (-2.0, 5.0)))
    alone = mix.contaminant if p else AlternativeSpec("logistic")
    for n in (20, 21):
        block = mix.sample(n, RngStream(3, 10), reps=50)
        for i, row in enumerate(block):
            np.testing.assert_array_equal(row, per_replication_sample(alone, n,
                                                                      RngStream(3, 10 + i)))


def test_default_uniform_is_variance_one():
    u = AlternativeSpec("uniform")
    assert u.mean() == pytest.approx(0.0, abs=1e-12)
    assert u.std() == pytest.approx(1.0, rel=1e-12)


def test_alternative_sampling_matches_distributions():
    stream = RngStream(1000)
    n = 100_000
    x = AlternativeSpec("gamma", (2.0,)).sample(n, stream)
    assert x.mean() == pytest.approx(2.0, rel=0.02)
    assert x.var() == pytest.approx(2.0, rel=0.05)
    x = AlternativeSpec("lognormal", (1.0,)).sample(n, stream)
    assert np.log(x).std() == pytest.approx(1.0, rel=0.02)


def test_mixture_zero_equals_base_stream_for_stream():
    stream = RngStream(7, 3)
    mix = AlternativeSpec("mixture", p=0.0, contaminant=AlternativeSpec("cauchy"))
    base = AlternativeSpec("logistic")
    np.testing.assert_array_equal(mix.sample(50, stream), base.sample(50, stream))


def test_mixture_one_equals_contaminant_stream_for_stream():
    stream = RngStream(7, 4)
    mix = AlternativeSpec("mixture", p=1.0, contaminant=AlternativeSpec("cauchy"))
    np.testing.assert_array_equal(
        mix.sample(50, stream), AlternativeSpec("cauchy").sample(50, stream))


def test_mixture_draws_compose_base_and_contaminant():
    stream = RngStream(11, 0)
    mix = AlternativeSpec("mixture", p=0.35, contaminant=AlternativeSpec("cauchy"))
    got = mix.sample(200, stream)
    gen = stream.generator()
    pick = gen.random(200)
    base = draw_logistic(gen, 200)
    contaminated = np.random.Generator(np.random.Philox(
        key=np.array([11, 0], dtype=np.uint64)))
    # Rebuild through the public draw order: picks, base, then contaminant.
    gen2 = stream.generator()
    pick2 = gen2.random(200)
    base2 = draw_logistic(gen2, 200)
    cont2 = gen2.standard_cauchy(200)
    expected = np.where(pick2 < 0.35, cont2, base2)
    np.testing.assert_array_equal(got, expected)
    assert 30 <= np.sum(pick < 0.35) <= 110


def test_mixture_moments():
    mix = AlternativeSpec("mixture", p=0.3, contaminant=AlternativeSpec("gamma", (2.0,)))
    assert mix.mean() == pytest.approx(0.3 * 2.0, rel=1e-12)
    second = 0.7 * math.pi**2 / 3.0 + 0.3 * (2.0 + 4.0)
    assert mix.std() == pytest.approx(math.sqrt(second - 0.6**2), rel=1e-12)
    x = np.linspace(-4, 8, 31)
    direct = (0.7 * np.exp(-x) / (1 + np.exp(-x))**2
              + 0.3 * np.where(x > 0, x * np.exp(-x), 0.0))
    np.testing.assert_allclose(mix.pdf(x), direct, rtol=1e-10, atol=1e-12)
    # The density is 0 at +-inf, for a mixture as for its contaminant.
    ends = [-math.inf, 0.0, math.inf]
    np.testing.assert_array_equal(AlternativeSpec("laplace").pdf(ends), [0.0, 0.5, 0.0])
    np.testing.assert_allclose(AlternativeSpec.parse("mixture(0.3,laplace)").pdf(ends),
                               [0.0, 0.7 * 0.25 + 0.3 * 0.5, 0.0], rtol=1e-15)


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
    for sid, tuning in (("T", True), ("R", True), ("R", np.True_),
                        ("T", "4"), ("T", b"4"), ("R", "1")):
        with pytest.raises(DomainError, match="must be a number"):
            StatSpec(sid, tuning)
    with pytest.raises(DomainError, match="must be a number"):
        _kernels.compute_batch(np.zeros((1, 5)), [("T", "3")])


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


def test_chunk_memory_is_bounded_at_large_n():
    # Past n = 16384 a chunk holds at most 2^20 values per (rows, n) array.
    # At 64 rows per chunk this call peaked at 360 MB; it now keeps a few
    # 8 MB arrays.
    import tracemalloc

    n = 100_000
    assert montecarlo._chunk_reps(16384) == 64 and montecarlo._chunk_reps(n) == 10
    tracemalloc.start()
    try:
        values, _ = simulate_statistics([StatSpec("KS")], n, McConfig(reps=64, seed=3, workers=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(values).all()
    assert peak < 12 * 8 * (1 << 20)


def test_simulation_rep_count_extension_is_prefix_stable():
    # Replication r depends only on (seed, r), so extending the run keeps
    # every earlier replication bit-identical.
    short, _ = simulate_statistics([StatSpec("S")], 20,
                                   McConfig(reps=500, seed=13, workers=1))
    longer, _ = simulate_statistics([StatSpec("S")], 20,
                                    McConfig(reps=1500, seed=13, workers=1))
    np.testing.assert_array_equal(short[0], longer[0, :500])


# SHA-256 of the samples that simulate_statistics draws (n = 20, seed
# 20260815, 4100 replications: a full chunk and a partial one), of its EDF
# values and of its T values (in ALL_SPECS order), recorded with numpy 2.4.6
# on x86-64.  The samples and EDF digests are those of the engine when each
# replication built its own Generator; the T digest is that of T's spectral
# path, which T takes at n = 20 since it stopped summing pairs below n = 32.
# T, S and R are also held to the kernel tests' full-square reference: they
# are evaluated by quadrature, which agrees with it to rounding, not bit for
# bit.
ENGINE_SHA256 = {
    "logistic": ("1f2e5af0fd69218a966789aac4aab6497716e95a7023e6129bf1c6e6e70b30b6",
                 "c04614bbb818a324152dd2bfd84539aa1fa68da5013084786f248199d242f9d7",
                 "d78ab44fc898281ad33d53626dc325ca3e18078e7e7d65c528c30906de0bba23"),
    "t(2)": ("1169e04c4d5822cc4c95167bbc8b2956e8def8e4093bfa676d387bad49ce21f0",
             "67e6b0833bcd23d3a9bee67707bce995f025f62f6cc61a3732644c0d73e3157c",
             "a00ccb241c06df68424d5d1e309333057e84dd8649c96f591200c99d2d5edfba"),
    "mixture(0.3,cauchy)": (
        "57ac16c576d80ffd991c950ed3661305bf4690dab291c55f0205d86574044d64",
        "d38104c755ed6b42611cccc14d83e988a1fda767eeac3719959d4a17a0b3db40",
        "64a254cf1dd623093643f3c83cbd58e2286be50779b6b96a93a17c4191382fa6"),
}
SR_ROWS = [i for i, spec in enumerate(ALL_SPECS) if spec.stat_id in ("S", "R")]
T_ROWS = [i for i, spec in enumerate(ALL_SPECS) if spec.stat_id == "T"]
EDF_ROWS = [i for i, spec in enumerate(ALL_SPECS) if spec.stat_id in montecarlo._kernels.EDF_IDS]


# At n = 50 (1028 replications), the samples and, in one digest, the T and
# EDF values (every statistic but S and R), recorded with numpy 2.4.6 on
# x86-64 before T stacked its node blocks into one product per row.
ENGINE_SHA256_N50 = {
    "logistic": ("961b0691f2651c8d9039441d35bef18ac9e66554fbde84dca5b79904d3f45342",
                 "7539dd943b8c880c306b3dbf200c665ecd569f290bbd631008900ee0f360b337"),
    "t(2)": ("ac564e70d814b27874942a4200a383e00ca125ccdec11194ab06012f47f65536",
             "6eb2760aea330b5f4d8ff18ec0cea8aa1a981edf5dce578ff820446580db49ad"),
}


def _engine_run(label, n=20):
    """Samples and values of one full engine chunk and a partial one of 4."""
    alt = AlternativeSpec.parse(label)
    chunk = montecarlo._chunk_reps(n)
    x = np.concatenate([alt.sample(n, RngStream(20260815, lo), reps=hi - lo)
                        for lo, hi in ((0, chunk), (chunk, chunk + 4))])
    values, failures = simulate_statistics(
        ALL_SPECS, n, McConfig(reps=chunk + 4, seed=20260815, workers=1), alternative=alt)
    assert failures == 0
    return x, values


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize("label", ENGINE_SHA256)
def test_simulated_values_are_pinned(label):
    x, values = _engine_run(label)
    assert (_sha256(x), _sha256(values[EDF_ROWS]), _sha256(values[T_ROWS])) \
        == ENGINE_SHA256[label]


def _assert_matches_the_reference(label, spec_rows, n=20):
    """The values of ``spec_rows`` (indices into ALL_SPECS) on every 16th
    replication of the full chunk, and on the partial chunk, against the
    kernel tests' full-square reference."""
    from test_kernels import RTOL, reference

    x, values = _engine_run(label, n)
    chunk = montecarlo._chunk_reps(n)
    rows = [*range(0, chunk, 16), *range(chunk, chunk + 4)]
    y = montecarlo._kernels.moment_residuals_batch(x[rows])
    want = reference(y, [ALL_SPECS[i].key() for i in spec_rows])
    np.testing.assert_allclose(values[spec_rows][:, rows], want, rtol=RTOL, atol=0)


@pytest.mark.parametrize("label", ENGINE_SHA256)
def test_simulated_t_matches_the_reference(label):
    _assert_matches_the_reference(label, T_ROWS)


@pytest.mark.parametrize("label", ENGINE_SHA256)
def test_simulated_s_and_r_match_the_reference(label):
    _assert_matches_the_reference(label, SR_ROWS)


@pytest.mark.parametrize("label", ENGINE_SHA256_N50)
def test_simulated_values_are_pinned_at_n50(label):
    x, values = _engine_run(label, 50)
    assert montecarlo._chunk_reps(50) == 1024
    assert (_sha256(x), _sha256(np.delete(values, SR_ROWS, axis=0))) == ENGINE_SHA256_N50[label]


@pytest.mark.parametrize("label", ENGINE_SHA256_N50)
def test_simulated_s_and_r_match_the_reference_at_n50(label):
    _assert_matches_the_reference(label, SR_ROWS, 50)


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


def test_calibrate_without_a_valid_value_raises(monkeypatch):
    # A statistic that is NaN on every replication has no quantile.
    def nan_ks(y, specs):
        values = compute_batch(y, specs)
        values[[sid for sid, _ in specs].index("KS")] = np.nan
        return values

    compute_batch = montecarlo._kernels.compute_batch
    monkeypatch.setattr(montecarlo._kernels, "compute_batch", nan_ks)
    cfg = McConfig(reps=50, seed=5, workers=1)
    with pytest.raises(McError, match="KS has no valid value in 50 replications"):
        calibrate([StatSpec("T", 3), StatSpec("KS")], 20, [0.05], cfg)


@pytest.mark.parametrize("reps", [7, 2048])
def test_calibrate_quantiles_equal_one_call_per_level(monkeypatch, reps):
    # Each critical value and SE equals three scalar np.quantile calls on the
    # sorted valid values.  At reps = 7, 1 - alpha + h passes 1 and is clipped.
    values = np.random.default_rng(reps).logistic(size=(2, reps))
    values[1, ::3] = np.nan
    monkeypatch.setattr(montecarlo, "simulate_statistics", lambda *args: (values, 0))
    alphas = [0.01, 0.05, 0.1, 0.5]
    table = calibrate([StatSpec("T", 3), StatSpec("KS")], 20, alphas,
                      McConfig(reps=reps, seed=1, workers=1))
    rows = iter(table.rows)
    clipped = False
    for vals in values:
        valid = np.sort(vals[~np.isnan(vals)])
        for alpha in alphas:
            p = 1.0 - alpha
            half = math.sqrt(p * (1.0 - p) / valid.size)
            clipped |= p + half > 1.0
            lo = float(np.quantile(valid, max(p - half, 0.0)))
            hi = float(np.quantile(valid, min(p + half, 1.0)))
            row = next(rows)
            assert (row.key, row.excluded_reps) == (alpha, vals.size - valid.size)
            assert row.value == float(np.quantile(valid, p))
            assert row.mc_std_error == (hi - lo) / 2.0
    assert clipped == (reps == 7)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False) | st.sampled_from([0.0, 1.0, 2.0]),
                       min_size=1, max_size=60),
       probs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_quantiles_equal_numpy_linear_rule(values, probs):
    # Ties, infinities (whose differences are NaN) and p = 0 or 1 included;
    # a tie of 0.0 with -0.0 may take either sign, so there is no -0.0.
    values = np.array(values) + 0.0
    with np.errstate(all="ignore"):
        got, want = montecarlo._quantiles(values, probs), np.quantile(values, probs)
    assert got.tobytes() == want.tobytes()


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


def test_mc_config_rejects_fractional_seed_and_reps():
    # Both used to be accepted; a fractional reps then failed in range().
    for fields in ({"reps": 10, "seed": 1.5}, {"reps": 2.5, "seed": 1},
                   {"reps": 10.0, "seed": 1}, {"reps": 10, "seed": "1"}):
        with pytest.raises(DomainError, match="integer"):
            McConfig(**fields)
    cfg = McConfig(reps=np.int64(10), seed=np.uint64(3))
    assert cfg == McConfig(reps=10, seed=3) and type(cfg.seed) is int


def test_mc_config_rejects_negative_or_fractional_workers():
    with pytest.raises(DomainError, match="worker"):
        McConfig(reps=10, seed=1, workers=-3)
    for workers in (1.5, True, "2", 2**64):
        with pytest.raises(DomainError, match="worker"):
            McConfig(reps=10, seed=1, workers=workers)
    assert McConfig(reps=10, seed=1, workers=2).resolved_workers() == 2
    assert McConfig(reps=10, seed=1, workers=0).resolved_workers() == \
        montecarlo.default_workers()
    cfg = McConfig(reps=10, seed=1, workers=np.int64(2))
    assert cfg == McConfig(reps=10, seed=1, workers=2) and type(cfg.workers) is int


def test_power_study_null_alternative_near_level():
    specs = [StatSpec("T", 3), StatSpec("CM")]
    table = calibrate(specs, 20, [0.05], McConfig(reps=20000, seed=50, workers=1))
    rows = power_study(specs, [AlternativeSpec("logistic")], 20,
                       McConfig(reps=5000, seed=51, workers=1), table)
    for row in rows:
        assert 3.5 <= row.value <= 6.5
        assert row.excluded_reps == 0


def test_power_study_orders_sensible_alternatives():
    specs = [StatSpec("T", 3)]
    table = calibrate(specs, 20, [0.05], McConfig(reps=20000, seed=60, workers=1))
    rows = power_study(specs, [AlternativeSpec("cauchy"),
                               AlternativeSpec("normal")], 20,
                       McConfig(reps=3000, seed=61, workers=1), table)
    by_alt = {row.key: row.value for row in rows}
    assert by_alt["cauchy"] > 50.0
    assert by_alt["normal"] < 15.0


def test_local_power_curve_keys_and_monotonicity():
    specs = [StatSpec("T", 3)]
    table = calibrate(specs, 20, [0.05], McConfig(reps=20000, seed=70, workers=1))
    rows = local_power_curve(AlternativeSpec("cauchy"), [0.0, 0.5, 1.0], specs,
                             20, McConfig(reps=4000, seed=71, workers=1), table)
    assert [row.key for row in rows] == [0.0, 0.5, 1.0]
    values = [row.value for row in rows]
    assert values[0] < 10.0
    assert values[0] < values[1] < values[2]


def test_pvalue_add_one_rule_bounds():
    def pvalue(observed):
        outcome = SimpleNamespace(name="T", tuning=3.0, value=observed)
        return pvalues_simulated([outcome], 15, cfg)[0]

    cfg = McConfig(reps=400, seed=80, workers=1)
    assert pvalue(1e9) == pytest.approx(1.0 / 401.0)
    assert pvalue(-1e9) == pytest.approx(1.0)
    # A value that is not finite has no p-value; NaN compares false with
    # every simulated value, so it would read as the smallest, 1/401.
    for observed in (math.inf, math.nan):
        with pytest.raises(DomainError, match="finite"):
            pvalue(observed)


def test_systematic_failures_raise():
    # Draws from a chi-square with a tiny shape underflow to exact zero about
    # 70% of the time, so whole samples are frequently constant and the fits
    # degenerate; well over 0.1% of replications fail and the run must abort.
    flat = AlternativeSpec("chisquare", (0.001,))
    cfg = McConfig(reps=500, seed=90, workers=1)
    with pytest.raises(McError):
        simulate_statistics([StatSpec("KS")], 10, cfg, alternative=flat)


@pytest.mark.parametrize("n", [0, 1])
def test_simulation_rejects_samples_too_small_to_fit(monkeypatch, n):
    # Both fits need two observations; the run stops before any draw.
    def no_draws(*args, **kwargs):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(AlternativeSpec, "sample", no_draws)
    for method in Method:
        cfg = McConfig(reps=5000, seed=91, workers=1, method=method)
        with pytest.raises(DomainError, match="at least 2"):
            simulate_statistics([StatSpec("T", 3)], n, cfg)


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
    wild = AlternativeSpec("mixture", p=0.3, contaminant=AlternativeSpec.parse("lognormal(8)"))
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
    rows = power_study([StatSpec("KS")], [AlternativeSpec("cauchy")], 12,
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


# ---------------------------------------------------------------------------
# the worker pool

POOL_SPECS = [StatSpec("T", 3), StatSpec("KS")]
POOL_N = 30                                        # 1024-replication chunks
POOL_CFG = McConfig(reps=2048, seed=31, workers=2)  # two chunks


@pytest.fixture
def fresh_pool():
    montecarlo._drop_pool()
    yield
    montecarlo._drop_pool()


def count_pool_starts(monkeypatch) -> list:
    """Record each process pool constructed, as perfbench/run.py counts them."""
    starts = []
    original = futures_process.ProcessPoolExecutor.__init__

    def counting_init(self, *args, **kwargs):
        starts.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(futures_process.ProcessPoolExecutor, "__init__", counting_init)
    return starts


class StandInExecutor:
    """Runs the chunks in this process and records the pools asked for; a
    pool of more than a few workers fails the test before anything forks."""

    def __init__(self, max_workers, initializer=None, initargs=()):
        assert max_workers <= 4, f"asked for a pool of {max_workers} workers"
        self.max_workers = max_workers
        self.shut_down = False
        self.starts.append(self)

    def map(self, fn, tasks):
        return map(fn, tasks)

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()


@pytest.fixture
def stand_in_pools(fresh_pool, monkeypatch):
    monkeypatch.setattr(StandInExecutor, "starts", [], raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StandInExecutor)
    return StandInExecutor.starts


def test_successive_parallel_calls_share_one_pool(fresh_pool, monkeypatch):
    starts = count_pool_starts(monkeypatch)
    for label in ("logistic", "cauchy"):
        alt = AlternativeSpec.parse(label)
        serial, _ = simulate_statistics(POOL_SPECS, POOL_N, replace(POOL_CFG, workers=1), alt)
        parallel, _ = simulate_statistics(POOL_SPECS, POOL_N, POOL_CFG, alt)
        np.testing.assert_array_equal(parallel, serial)
    assert len(starts) == 1


def test_pool_size_is_capped_by_the_chunk_count(stand_in_pools):
    values, _ = simulate_statistics(POOL_SPECS, POOL_N, replace(POOL_CFG, workers=10**6))
    assert [pool.max_workers for pool in stand_in_pools] == [2]
    serial, _ = simulate_statistics(POOL_SPECS, POOL_N, replace(POOL_CFG, workers=1))
    np.testing.assert_array_equal(values, serial)


def test_a_call_that_needs_another_size_replaces_the_pool(stand_in_pools):
    three_chunks = replace(POOL_CFG, reps=3000, workers=3)
    for cfg in (POOL_CFG, POOL_CFG, three_chunks, three_chunks, POOL_CFG):
        simulate_statistics(POOL_SPECS, POOL_N, cfg)
    assert [pool.max_workers for pool in stand_in_pools] == [2, 3, 2]
    assert [pool.shut_down for pool in stand_in_pools] == [True, True, False]


def test_a_pool_between_the_chunk_count_and_the_worker_count_is_kept(stand_in_pools):
    three_chunks = replace(POOL_CFG, reps=3000, workers=3)
    for cfg in (three_chunks, replace(three_chunks, reps=2000)):
        simulate_statistics(POOL_SPECS, POOL_N, cfg)
    assert [pool.max_workers for pool in stand_in_pools] == [3]
    assert not stand_in_pools[0].shut_down


class KernelRejectedSpec:
    """A spec whose key the kernel rejects, so the error is raised in a worker."""

    def key(self):
        return ("T", -1.0)


def test_a_failing_chunk_raises_and_the_next_call_starts_a_new_pool(fresh_pool, monkeypatch):
    starts = count_pool_starts(monkeypatch)
    with pytest.raises(DomainError, match="positive"):
        simulate_statistics([KernelRejectedSpec()], POOL_N, POOL_CFG)
    values, _ = simulate_statistics(POOL_SPECS, POOL_N, POOL_CFG)
    serial, _ = simulate_statistics(POOL_SPECS, POOL_N, replace(POOL_CFG, workers=1))
    np.testing.assert_array_equal(values, serial)
    assert len(starts) == 2 and starts[0]._shutdown_thread


STREAM_SPECS = [StatSpec("T", 3), StatSpec("S"), StatSpec("R", 2), StatSpec("KS"), StatSpec("AD")]
STREAM_ALTERNATIVES = [AlternativeSpec.parse(label) for label in (
    "cauchy", "t(2)", "lognormal(1)", "gamma(1)", "uniform", "chisquare(2)")]


def _study_csvs(workers):
    """A power study (two chunks per alternative) and a local power curve
    (three per p) as CSV text."""
    t20 = calibrate(STREAM_SPECS, 20, [0.05], McConfig(reps=4100, seed=12, workers=workers))
    power = power_study(STREAM_SPECS, STREAM_ALTERNATIVES, 20,
                        McConfig(reps=4100, seed=13, workers=workers), t20)
    t30 = calibrate(STREAM_SPECS, 30, [0.05], McConfig(reps=2100, seed=14, workers=workers))
    local = local_power_curve(AlternativeSpec("cauchy"), [0.0, 0.2, 1.0], STREAM_SPECS, 30,
                              McConfig(reps=2100, seed=15, workers=workers), t30)
    return rows_to_csv(power, "alternative"), rows_to_csv(local, "p")


def test_one_chunk_stream_gives_the_csvs_of_one_call_per_alternative(fresh_pool):
    # SHA-256 of both CSVs when each alternative and each p made its own
    # simulate call (numpy 2.4.6, x86-64).
    want = ("8df3c963763eff2bba3a17f9ace1cecdb1a82280582cf4f2c690465b333b145a",
            "7e54b0934d55623fbd76a740345ec11dbc30ed698e9f0857976601796d8d0f6d")
    for workers in (1, 2):
        got = _study_csvs(workers)
        assert tuple(hashlib.sha256(text.encode()).hexdigest() for text in got) == want


def test_an_alternative_that_fails_mid_stream_raises_and_the_next_call_runs(fresh_pool):
    # The second of three alternatives, two chunks each, fails its fits.
    table = calibrate([StatSpec("KS")], 10, [0.05], McConfig(reps=100, seed=1, workers=1))
    alternatives = [AlternativeSpec.parse(label)
                    for label in ("cauchy", "chisquare(0.001)", "uniform")]
    cfg = McConfig(reps=8192, seed=16, workers=2)
    with pytest.raises(McError, match=r"^183 of 8192 replications failed to fit$"):
        power_study([StatSpec("KS")], alternatives, 10, cfg, table)
    kept = [alternatives[0], alternatives[2]]
    rows = power_study([StatSpec("KS")], kept, 10, cfg, table)
    assert rows == power_study([StatSpec("KS")], kept, 10, replace(cfg, workers=1), table)


def test_a_streamed_study_holds_no_more_than_one_alternative_at_a_time(fresh_pool):
    # Before the chunk stream this study peaked at 2.66 MB of traced
    # allocations in this process; results arriving ahead of their turn may
    # add at most two chunks' values to that.
    import tracemalloc

    table = calibrate(ALL_SPECS, 20, [0.05], McConfig(reps=8192, seed=5, workers=2))
    cfg = McConfig(reps=8192, seed=6, workers=2)
    power_study(ALL_SPECS, STREAM_ALTERNATIVES, 20, cfg, table)  # starts the pool untraced
    tracemalloc.start()
    try:
        power_study(ALL_SPECS, STREAM_ALTERNATIVES, 20, cfg, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.66e6 + 2 * len(ALL_SPECS) * 4096 * 8


def _faults_per_chunk(task, repeats):
    """Minor page faults of each of ``repeats`` runs of one chunk task."""
    import resource

    faults = []
    for _ in range(repeats):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        montecarlo._run_chunk(task)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return faults


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the worker heap settings are glibc's")
@pytest.mark.parametrize("n", [20, 50])
def test_warm_workers_do_not_fault_their_chunks_in_again(n):
    # Each chunk frees its arrays and the next allocates them again; with
    # glibc's defaults a 4096-row chunk at n = 20 faulted ~1380 pages in.
    keys = tuple(spec.key() for spec in ALL_SPECS)
    task = montecarlo._ChunkTask(1, 0, montecarlo._chunk_reps(n), n, keys,
                                 AlternativeSpec("cauchy"), Method.MOMENTS)
    with concurrent.futures.ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("spawn"),
            initializer=montecarlo._exit_with_parent, initargs=(os.getpid(),)) as pool:
        faults = pool.submit(_faults_per_chunk, task, 5).result(timeout=120)
    assert max(faults[2:]) < 50, faults


def test_a_worker_groups_rows_of_mixed_node_counts_without_numpy_ma():
    # np.unique would import numpy.ma, about 2 MB, into every worker.
    make_task = ("montecarlo._ChunkTask(1, 0, 4096, 12, (('T', 3.0), ('S', None), ('R', 1)), "
                 "AlternativeSpec('logistic'), Method.MOMENTS)")
    code = f"""
import concurrent.futures
from logigof import montecarlo
from logigof.estimation import Method
from logigof.montecarlo import AlternativeSpec
with concurrent.futures.ProcessPoolExecutor(1) as pool:
    pool.submit(montecarlo._run_chunk, {make_task}).result()
    print(pool.submit(eval, "'numpy.ma' in __import__('sys').modules").result())
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=fresh_env(), timeout=120)
    assert proc.returncode == 0 and proc.stdout.split() == ["False"], proc.stderr
    # S and R take that chunk's rows in groups of several node counts.
    task = eval(make_task)
    x = task.alternative.sample(task.n, RngStream(task.seed, 0), reps=task.rep_hi)
    y = np.sort(montecarlo._residuals_for_chunk(x, task.method)[0], axis=1)
    assert len(set(_kernels._sr_counts(y, [1]).tolist())) > 1


def _simulate_in_child(queue):
    queue.put(simulate_statistics(POOL_SPECS, POOL_N, POOL_CFG)[0])


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_a_multiprocessing_child_runs_a_parallel_call_and_exits(fresh_pool, start_method):
    # This process holds a live pool when the child starts.
    expected, _ = simulate_statistics(POOL_SPECS, POOL_N, POOL_CFG)
    ctx = multiprocessing.get_context(start_method)
    queue = ctx.Queue()
    child = ctx.Process(target=_simulate_in_child, args=(queue,))
    child.start()
    try:
        got = queue.get(timeout=120)
        child.join(timeout=30)
        assert not child.is_alive(), "the child did not exit"
    finally:
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    np.testing.assert_array_equal(got, expected)


def _result_of_child(start_method, target):
    """What ``target(queue)`` puts on the queue in a child of ``start_method``,
    which must then exit 0.  Every wait is bounded: a child that hangs is
    killed and fails the test."""
    ctx = multiprocessing.get_context(start_method)
    queue = ctx.Queue()
    child = ctx.Process(target=target, args=(queue,))
    child.start()
    try:
        got = queue.get(timeout=120)
        child.join(timeout=30)
        assert not child.is_alive(), "the child did not exit"
    finally:
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    return got


def test_a_child_forked_while_the_pool_lock_is_held_runs_on_a_pool_of_its_own(fresh_pool):
    # A streaming call holds the lock until its chunks are in.  A child
    # forked meanwhile gets the lock held, by a thread it does not have.
    serial, _ = simulate_statistics(POOL_SPECS, POOL_N, replace(POOL_CFG, workers=1))
    simulate_statistics(POOL_SPECS, POOL_N, POOL_CFG)          # this process holds a pool
    with montecarlo._pool_lock:
        got = _result_of_child("fork", _simulate_in_child)
    np.testing.assert_array_equal(got, serial)


def _count_pool_starts_in_child(queue):
    with pytest.MonkeyPatch.context() as patch:
        starts = count_pool_starts(patch)
        values = [simulate_statistics(POOL_SPECS, POOL_N, POOL_CFG)[0] for _ in range(2)]
    queue.put((len(starts), values))


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_a_multiprocessing_child_keeps_its_pool_between_calls(fresh_pool, start_method):
    starts, values = _result_of_child(start_method, _count_pool_starts_in_child)
    serial, _ = simulate_statistics(POOL_SPECS, POOL_N, replace(POOL_CFG, workers=1))
    assert starts == 1
    for got in values:
        np.testing.assert_array_equal(got, serial)


def test_calls_from_two_threads_take_turns_on_one_pool(fresh_pool, monkeypatch):
    starts = count_pool_starts(monkeypatch)
    alternatives = [AlternativeSpec.parse(label) for label in ("logistic", "cauchy")]
    both_running = threading.Barrier(2, timeout=60)

    def call(alt):
        both_running.wait()
        return simulate_statistics(POOL_SPECS, POOL_N, POOL_CFG, alt)[0]

    with concurrent.futures.ThreadPoolExecutor(2) as threads:
        got = list(threads.map(call, alternatives))
    assert len(starts) == 1
    for values, alt in zip(got, alternatives):
        serial, _ = simulate_statistics(POOL_SPECS, POOL_N, replace(POOL_CFG, workers=1), alt)
        np.testing.assert_array_equal(values, serial)


def test_a_process_that_holds_a_pool_exits_quietly():
    # Kept alive from sys, the module outlives concurrent.futures when the
    # interpreter tears its modules down, as it does under a test runner.
    code = """
import sys
from logigof import montecarlo as mc
sys.keep_alive = mc
mc.simulate_statistics([mc.StatSpec("KS")], 30, mc.McConfig(reps=2048, seed=1, workers=2))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=fresh_env(), timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
@pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"])
def test_workers_return_serial_values_and_exit_when_their_parent_is_killed(start_method):
    # Under forkserver the workers' parent is the fork server, which stays
    # up while they hold its pipe; once they exit, it and the resource
    # tracker follow, so the parent's whole session must empty.
    code = f"""
import multiprocessing, time
import numpy as np
from logigof.montecarlo import McConfig, StatSpec, simulate_statistics
multiprocessing.set_start_method({start_method!r})
specs = [StatSpec("T", 3), StatSpec("KS")]
parallel, _ = simulate_statistics(specs, 30, McConfig(reps=2048, seed=1, workers=2))
serial, _ = simulate_statistics(specs, 30, McConfig(reps=2048, seed=1, workers=1))
print(np.array_equal(parallel, serial), *(p.pid for p in multiprocessing.active_children()),
      flush=True)
time.sleep(600)
"""
    parent = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              text=True, env=fresh_env(), start_new_session=True)
    watchdog = threading.Timer(120, parent.kill)
    watchdog.start()
    try:
        equal, *pids = parent.stdout.readline().split() or ["no output"]
    finally:
        watchdog.cancel()
        parent.kill()
        parent.wait(timeout=30)
        parent.stdout.close()
    assert equal == "True" and len(pids) == 2

    def left():
        return [pid for pid, sid in live_processes().items() if sid == parent.pid]

    deadline = time.monotonic() + 5.0
    while left() and time.monotonic() < deadline:
        time.sleep(0.1)
    stayed = left()
    for pid in stayed:
        os.kill(pid, signal.SIGKILL)
    assert stayed == []
