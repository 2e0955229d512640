"""Alternative distributions for size and power studies: the table of kinds,
``AlternativeSpec``, and the chunked draw of the Monte Carlo engine.

An alternative is ``AlternativeSpec(kind, params)``, or a two-part mixture
``AlternativeSpec("mixture", p=p, contaminant=c)`` of the standard logistic
law and a contaminant; ``AlternativeSpec.parse`` reads the text form that
``label`` writes.

A Monte Carlo chunk draws all its samples in one
``AlternativeSpec.sample(..., reps=k)`` call.  Logistic and uniform samples,
one Philox word per value, are computed from the words of all substreams at
once (``logistic_core.philox_words``).  Every other draw keeps numpy's own
transforms: one Philox and one Generator serve the whole chunk, and before
each replication the Philox is re-keyed to the fresh state of
``Philox(key=[s, r])``.  A mixture row then takes its picks and its logistic
base from the first 2n raw words, and its contaminant's draw continues on
the same Generator.  Where numpy has an ``out=`` sampler the row is filled
in place, and the step that turns those values into the law's (a ratio, an
exp, a factor) runs once per block.  Either way replication r sees exactly
the stream of substream (s, r).

Only ``AlternativeSpec.pdf``, ``mean``, ``std`` and ``breaks`` use scipy:
they resolve the kind's ``scipy.stats`` law, importing scipy.stats on first
call.  They serve ``statistics.delta_alternative``; sampling, calibration,
power studies and p-values never import scipy.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import _kernels
from .logistic_core import (DomainError, RngStream, c_exp, fill_logistic, is_number,
                            philox_words, random_doubles, uint64_index)
from .logistic_core import pdf as logistic_pdf

SQRT3 = math.sqrt(3.0)


def _positive(*params) -> bool:
    return all(v > 0 for v in params)


class _Kind(NamedTuple):
    """One alternative family: its short names, its parameter count, the
    parameters its bare name means (None when all are required), the range
    rule in words and ``check`` testing it, how numpy's ``Generator`` draws
    it, its law (a function of the ``scipy.stats`` module and the parameters
    that returns the frozen distribution), the ``kinks`` inside its support
    where its density is not smooth, and, where that density can be infinite
    at the upper end hi of the support, ``mirror``: the parameters of hi - X.

    A draw is ``fill(gen, row, *params)``, which writes ``width`` values per
    observation into ``row`` in place, then, when ``finish`` is given,
    ``finish(block, *params)`` on the filled rows of a whole block at once.
    Each entry makes the same Generator calls, and the same arithmetic on
    their values, as numpy's sampler of that law, so the draws are its draws
    bit for bit.  ``_frozen_law`` alone calls ``law``, importing scipy.stats
    on first use."""

    aliases: str
    arity: int
    defaults: Optional[tuple]
    rule: str
    fill: Callable[..., object]
    law: Callable[..., object]
    check: Callable[..., bool] = _positive
    kinks: tuple = ()
    mirror: Optional[Callable[..., tuple]] = None
    width: int = 1
    finish: Optional[Callable[..., np.ndarray]] = None


_KINDS = {
    "logistic": _Kind("l", 2, (0.0, 1.0), "finite mu and sigma > 0",
                      lambda gen, row, mu, sigma: fill_logistic(
                          row, gen.bit_generator.random_raw(row.size), mu, sigma),
                      lambda st, mu, sigma: st.logistic(loc=mu, scale=sigma),
                      lambda mu, sigma: sigma > 0),
    "normal": _Kind("n gaussian", 0, (), "no parameters",
                    lambda gen, row: gen.standard_normal(out=row), lambda st: st.norm()),
    "t": _Kind("student studentt", 1, None, "finite df > 0",
               lambda gen, row, df: np.copyto(row, gen.standard_t(df, row.size)),
               lambda st, df: st.t(df)),
    # numpy's standard_cauchy is the ratio of two consecutive standard normals.
    "cauchy": _Kind("c", 0, (), "no parameters",
                    lambda gen, row: gen.standard_normal(out=row), lambda st: st.cauchy(),
                    width=2, finish=lambda z: z[:, 0::2] / z[:, 1::2]),
    "laplace": _Kind("lp", 0, (), "no parameters",
                     lambda gen, row: np.copyto(row, gen.laplace(0.0, 1.0, row.size)),
                     lambda st: st.laplace(), kinks=(0.0,)),
    # lognormal(0, s) is exp(0 + s z) and gamma(k, 1) is 1 * standard_gamma(k).
    "lognormal": _Kind("ln", 1, None, "finite log-scale s > 0",
                       lambda gen, row, s: gen.standard_normal(out=row),
                       lambda st, s: st.lognorm(s), finish=lambda z, s: c_exp(s * z)),
    "gamma": _Kind("", 1, None, "finite shape k > 0",
                   lambda gen, row, k: gen.standard_gamma(k, out=row),
                   lambda st, k: st.gamma(k)),
    "uniform": _Kind("u", 2, (-SQRT3, SQRT3), "finite lo < hi with a finite hi - lo",
                     lambda gen, row, lo, hi: np.copyto(row, gen.uniform(lo, hi, row.size)),
                     lambda st, lo, hi: st.uniform(lo, hi - lo),
                     lambda lo, hi: lo < hi and math.isfinite(hi - lo)),
    "beta": _Kind("b", 2, None, "finite shapes a, b > 0",
                  lambda gen, row, a, b: np.copyto(row, gen.beta(a, b, row.size)),
                  lambda st, a, b: st.beta(a, b), mirror=lambda a, b: (b, a)),
    # chisquare(df) is 2 * standard_gamma(df / 2).
    "chisquare": _Kind("chisq chi2", 1, None, "finite df > 0",
                       lambda gen, row, df: gen.standard_gamma(df / 2.0, out=row),
                       lambda st, df: st.chi2(df), finish=lambda x, df: 2.0 * x),
}
_NAMES = {alias: kind for kind, spec in _KINDS.items() for alias in (kind, *spec.aliases.split())}


def _philox_state(seed: int, substream: int) -> dict:
    """The fresh state of ``Philox(key=[seed, substream])``.  Built from
    plain ints, it is set about twice as fast as the arrays that ``state``
    returns."""
    return {"bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [seed, substream]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


@functools.lru_cache(maxsize=64)
def _frozen_law(kind: str, params: tuple):
    """The frozen ``scipy.stats`` law of ``kind`` at ``params``, built once:
    freezing one costs ~1 ms, and ``delta_alternative`` asks it for the
    density once per refinement level.  Imports scipy.stats on the first call."""
    import scipy.stats

    return _KINDS[kind].law(scipy.stats, *params)


@dataclass(frozen=True)
class AlternativeSpec:
    """A sampleable alternative distribution, possibly a two-part mixture.

    A kind takes either no parameters, meaning its defaults, or all of them,
    and every parameter must be a finite ``is_number``.  Mixtures draw each
    observation from the standard logistic base with probability 1 - p and
    from the contaminant with probability p; with p = 0 or 1 a mixture is
    the law it draws (``_drawn``) in its samples, density, moments, breaks.
    """

    kind: str
    params: tuple = ()
    p: Optional[float] = None
    contaminant: Optional["AlternativeSpec"] = None

    def __post_init__(self):
        if self.kind == "mixture":
            if not (is_number(self.p) and 0.0 <= self.p <= 1.0):
                raise DomainError(f"mixing proportion must lie in [0, 1], got {self.p!r}")
            if not isinstance(self.contaminant, AlternativeSpec):
                raise DomainError(f"a mixture needs an AlternativeSpec contaminant, "
                                  f"got {self.contaminant!r}")
            if self.contaminant.kind == "mixture":
                raise DomainError("nested mixtures are not supported")
            object.__setattr__(self, "p", float(self.p))
            return
        kind = _KINDS.get(self.kind)
        if kind is None:
            raise DomainError(f"unknown alternative kind: {self.kind!r}")
        params = (tuple(map(float, self.params)) or kind.defaults
                  if all(map(is_number, self.params)) else None)
        if (params is None or len(params) != kind.arity
                or not all(math.isfinite(v) for v in params) or not kind.check(*params)):
            raise DomainError(f"bad parameters {tuple(self.params)} for {self.kind}: it takes "
                              f"{kind.rule}{' or none' if kind.defaults else ''}")
        object.__setattr__(self, "params", params)

    def _drawn(self) -> "AlternativeSpec":
        """The spec itself, or the law that a mixture with p = 0 or 1 draws."""
        if self.kind == "mixture" and self.p in (0.0, 1.0):
            return self.contaminant if self.p else AlternativeSpec("logistic")
        return self

    # -- sampling ----------------------------------------------------------
    def sample(self, n: int, stream: RngStream, reps: Optional[int] = None) -> np.ndarray:
        """n iid draws, deterministic given the stream.

        With ``reps=k`` the result is a (k, n) block whose row i is exactly
        ``sample(n, RngStream(stream.seed, stream.substream + i))``: the
        kind's ``_KINDS`` draw on that substream's fresh Generator, or for a
        mixture its picks (``random``), its logistic base and its
        contaminant's draw, one Generator call each (p = 0 or 1 draws the
        ``_drawn`` law).  Logistic and uniform samples are computed for all
        rows at once from ``philox_words``.  The other kinds are drawn with numpy's own transforms from one
        Generator, re-keyed fresh to each row's substream; a mixture row
        takes its picks (words 0 .. n-1) and logistic base (words n .. 2n-1)
        as raw words of that Generator, and its contaminant's draw continues
        on it at word 2n.  Rows are drawn in blocks of at most
        ``_kernels._PAIR_BUDGET`` values, counting 2n per mixture row and
        ``width`` n per row of a kind.
        """
        if n < 1:
            raise DomainError("sample size must be at least 1")
        k = 1 if reps is None else uint64_index(reps, "replication count")
        if k < 1:
            raise DomainError("replication count must be at least 1")
        if stream.substream + k > 2**64:
            raise DomainError(f"{k} replications from substream {stream.substream} "
                              f"pass the last substream index, 2^64 - 1")
        spec = self._drawn()
        words = 2 * n if spec.kind == "mixture" else _KINDS[spec.kind].width * n
        gen = None if spec.kind in ("logistic", "uniform") else stream.generator()
        step = max(1, _kernels._PAIR_BUDGET // (-(-words // 4) * 4))
        x = np.empty((k, n))
        for lo in range(0, k, step):
            spec._fill(x[lo:lo + step], stream.seed, stream.substream + lo, gen)
        return x if reps is not None else x[0]

    def _fill(self, out: np.ndarray, seed: int, first: int, gen) -> None:
        """Fill row i of ``out`` from substream ``first + i`` of ``seed``;
        ``gen`` makes the draws that do not come from ``philox_words``."""
        rows, n = out.shape
        if self.kind == "logistic":
            fill_logistic(out, philox_words(seed, first, rows, n), *self.params)
            return
        if self.kind == "uniform":
            lo, hi = self.params
            out[:] = lo + (hi - lo) * random_doubles(philox_words(seed, first, rows, n))
            return
        mixture = self.kind == "mixture"
        spec = self.contaminant if mixture else self
        kind = _KINDS[spec.kind]
        fill, params, bitgen = kind.fill, spec.params, gen.bit_generator
        raw = out if kind.width == 1 and not mixture else np.empty((rows, kind.width * n))
        words = np.empty((rows, 2 * n), dtype=np.uint64) if mixture else None
        state = _philox_state(seed, first)
        key = state["state"]["key"]
        for i, row in enumerate(raw):
            key[1] = first + i
            bitgen.state = state
            if mixture:
                # The picks (words 0 .. n-1) and the logistic base (words
                # n .. 2n-1); the contaminant's draw follows at word 2n.
                words[i] = bitgen.random_raw(2 * n)
            fill(gen, row, *params)
        drawn = raw if kind.finish is None else kind.finish(raw, *params)
        if mixture:
            fill_logistic(out, words[:, n:])
            np.copyto(out, drawn, where=random_doubles(words[:, :n]) < self.p)
        elif drawn is not out:
            out[:] = drawn

    # -- density and moments (for the population discrepancy) ---------------
    def pdf(self, x, cut: float = 0.0):
        """The density at cut + x; at the upper end of a support whose kind
        has a ``mirror``, the mirrored law's at -x, which stays finite where
        cut + x rounds onto that end."""
        law = self._drawn()
        if law.kind == "mixture":
            return (1.0 - law.p) * logistic_pdf(np.add(cut, x)) \
                + law.p * law.contaminant.pdf(x, cut)
        frozen, mirror = _frozen_law(law.kind, law.params), _KINDS[law.kind].mirror
        if mirror is not None and cut == frozen.support()[1]:
            return _frozen_law(law.kind, mirror(*law.params)).pdf(np.negative(x))
        return frozen.pdf(np.add(cut, x))

    def mean(self) -> float:
        law = self._drawn()
        if law.kind == "mixture":
            return law.p * law.contaminant.mean()
        return float(_frozen_law(law.kind, law.params).mean())

    def std(self) -> float:
        law = self._drawn()
        if law.kind == "mixture":
            m_c = law.contaminant.mean()
            second = (1.0 - law.p) * (math.pi**2 / 3.0) \
                + law.p * (law.contaminant.std() ** 2 + m_c**2)
            return math.sqrt(second - law.mean() ** 2)
        return float(_frozen_law(law.kind, law.params).std())

    def breaks(self) -> tuple:
        """The points where the density is not smooth, in increasing order: the
        finite ends of the support and the kinks; a mixture has its contaminant's."""
        law = self._drawn()
        if law.kind == "mixture":
            return law.contaminant.breaks()
        ends = _frozen_law(law.kind, law.params).support()
        return tuple(sorted({*(float(v) for v in ends if math.isfinite(v)),
                             *_KINDS[law.kind].kinks}))

    # -- text form ---------------------------------------------------------
    def label(self) -> str:
        """The kind, with its parameters unless they are the defaults;
        ``parse`` reads it back to an equal spec."""
        if self.kind == "mixture":
            return f"mixture({self.p:g},{self.contaminant.label()})"
        if self.params == _KINDS[self.kind].defaults:
            return self.kind
        return f"{self.kind}({','.join(f'{v:g}' for v in self.params)})"

    @classmethod
    def parse(cls, text: str) -> "AlternativeSpec":
        """Parse labels like ``t(2)``, ``lognormal(1)`` or ``mixture(0.2,cauchy)``."""
        s = text.strip()
        m = re.fullmatch(r"([A-Za-z0-9_]+)\s*(?:\((.*)\))?", s)
        if not m:
            raise DomainError(f"cannot parse alternative: {text!r}")
        name = m.group(1).lower()
        raw_args = (m.group(2) or "").strip()

        def numbers(fields: str) -> tuple:
            # Every field must be a number: an empty one is an error, not a skip.
            try:
                return tuple(float(v) for v in fields.split(","))
            except ValueError:
                raise DomainError(f"bad number in alternative: {text!r}") from None

        if name == "mixture":
            if "," not in raw_args:
                raise DomainError("mixture needs a proportion and a contaminant")
            p_text, rest = raw_args.split(",", 1)
            return cls("mixture", p=numbers(p_text)[0], contaminant=cls.parse(rest))
        if name not in _NAMES:
            raise DomainError(f"unknown alternative name: {m.group(1)!r}")
        return cls(_NAMES[name], numbers(raw_args) if raw_args else ())
