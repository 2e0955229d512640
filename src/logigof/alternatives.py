"""Alternative distributions for size and power studies: the table of kinds,
``AlternativeSpec``, and the chunked draw of the Monte Carlo engine.

An alternative is ``AlternativeSpec(kind, params)``, or a two-part mixture
``AlternativeSpec("mixture", p=p, contaminant=c)`` of the standard logistic
law and a contaminant; ``AlternativeSpec.parse`` reads the text form that
``label`` writes.

A Monte Carlo chunk draws all its samples in one
``AlternativeSpec.sample(..., reps=k)`` call, on one Philox and Generator
for the whole chunk, the Philox re-keyed before each replication to the
fresh state of ``Philox(key=[s, r])``, so replication r sees exactly the
stream of substream (s, r).  A logistic or uniform row takes n raw words,
a mixture row takes its picks and logistic base from the first 2n raw
words and its contaminant's draw after them, and any other row takes
numpy's own transforms, filled in place where numpy has an ``out=``
sampler.  The step that turns words or values into the law's (an
inversion, a ratio, an exp, a factor) runs once per block.

Only ``AlternativeSpec.parts`` and what is built on it (``pdf``, ``mean``,
``std``, ``breaks``) use scipy.stats, importing it on first call.  They serve
``statistics.delta_alternative``; sampling, calibration, power studies and
p-values never import scipy.
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
                            random_doubles, uint64_index)

SQRT3 = math.sqrt(3.0)


def _positive(*params) -> bool:
    return all(v > 0 for v in params)


class _Kind(NamedTuple):
    """One alternative family: its short names, its parameter count, the
    parameters its bare name means (None when all are required), the range
    rule in words and ``check`` testing it, how numpy's ``Generator`` draws
    it, its law (a function of the ``scipy.stats`` module and the parameters
    that returns the frozen distribution), and the ``kinks`` inside its
    support where its density is not smooth.

    A draw is ``fill(gen, row, *params)``, which writes ``width`` values per
    observation into ``row`` in place, then, when ``finish`` is given,
    ``finish(block, *params)`` on the filled rows of a whole block at once.
    A kind drawn one raw word per value has no ``fill``: each row takes n
    raw words, and ``words(block, words, *params)`` fills the block from
    them.
    Each entry makes the same Generator calls, and the same arithmetic on
    their values, as numpy's sampler of that law, so the draws are its draws
    bit for bit.  ``_frozen_law`` alone calls ``law``, importing scipy.stats
    on first use."""

    aliases: str
    arity: int
    defaults: Optional[tuple]
    rule: str
    fill: Optional[Callable[..., object]]
    law: Callable[..., object]
    check: Callable[..., bool] = _positive
    kinks: tuple = ()
    width: int = 1
    finish: Optional[Callable[..., np.ndarray]] = None
    words: Optional[Callable[..., object]] = None


_KINDS = {
    "logistic": _Kind("l", 2, (0.0, 1.0), "finite mu and sigma > 0", None,
                      lambda st, mu, sigma: st.logistic(loc=mu, scale=sigma),
                      lambda mu, sigma: sigma > 0, words=fill_logistic),
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
                     None, lambda st, lo, hi: st.uniform(lo, hi - lo),
                     lambda lo, hi: lo < hi and math.isfinite(hi - lo),
                     words=lambda out, w, lo, hi: np.copyto(out, lo + (hi - lo)
                                                            * random_doubles(w))),
    "beta": _Kind("b", 2, None, "finite shapes a, b > 0",
                  lambda gen, row, a, b: np.copyto(row, gen.beta(a, b, row.size)),
                  lambda st, a, b: st.beta(a, b)),
    # chisquare(df) is 2 * standard_gamma(df / 2).
    "chisquare": _Kind("chisq chi2", 1, None, "finite df > 0",
                       lambda gen, row, df: gen.standard_gamma(df / 2.0, out=row),
                       lambda st, df: st.chi2(df), finish=lambda x, df: 2.0 * x),
}
_NAMES = {alias: kind for kind, spec in _KINDS.items() for alias in (kind, *spec.aliases.split())}


def _rekeyed(gen: np.random.Generator, seed: int, first: int, rows: int):
    """Yield each i < rows once ``gen``'s Philox is in the fresh state of
    ``Philox(key=[seed, first + i])``, which, built from plain ints, is set
    about twice as fast as the arrays that ``state`` returns."""
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": [seed, first]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    key = state["state"]["key"]
    for i in range(rows):
        key[1] = first + i
        gen.bit_generator.state = state
        yield i


@functools.lru_cache(maxsize=64)
def _frozen_law(kind: str, params: tuple):
    """The frozen ``scipy.stats`` law of ``kind`` at ``params``, built once:
    freezing one costs ~1 ms, and every call of ``parts`` asks for it.
    Imports scipy.stats on the first call."""
    import scipy.stats

    return _KINDS[kind].law(scipy.stats, *params)


@dataclass(frozen=True)
class AlternativeSpec:
    """A sampleable alternative distribution, possibly a two-part mixture.

    A kind takes either no parameters, meaning its defaults, or all of them,
    and every parameter must be a finite ``is_number``.  Mixtures draw each
    observation from the standard logistic base with probability 1 - p and
    from the contaminant with probability p; with p = 0 or 1 a mixture is
    the law it draws (``_drawn``) in its samples and its parts.
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
        ``_drawn`` law).  Every row is drawn from one Generator re-keyed
        fresh to its substream: 2n raw words (picks, then logistic base) and
        then the contaminant's draw for a mixture row, n raw words for a
        logistic or uniform row, numpy's own transforms for any other.  Words
        become values a block at a time.  Rows are drawn in blocks of at
        most ``_kernels._PAIR_BUDGET`` values, counting 2n per mixture row and
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
        gen = stream.generator()
        step = max(1, _kernels._PAIR_BUDGET // (-(-words // 4) * 4))
        x = np.empty((k, n))
        for lo in range(0, k, step):
            spec._fill(x[lo:lo + step], stream.seed, stream.substream + lo, gen)
        return x if reps is not None else x[0]

    def _fill(self, out: np.ndarray, seed: int, first: int, gen) -> None:
        """Fill row i of ``out`` from substream ``first + i`` of ``seed``,
        drawn by ``gen`` re-keyed to it."""
        rows, n = out.shape
        mixture = self.kind == "mixture"
        spec = self.contaminant if mixture else self
        kind, params = _KINDS[spec.kind], spec.params
        raw = out if kind.width == 1 and not mixture else np.empty((rows, kind.width * n))
        # A mixture's picks and logistic base come first, then a word kind's draw.
        head = 2 * n if mixture else 0
        take = head + (0 if kind.words is None else n)
        words = np.empty((rows, take), dtype=np.uint64)
        for i in _rekeyed(gen, seed, first, rows):
            if take:
                words[i] = gen.bit_generator.random_raw(take)
            if kind.words is None:
                kind.fill(gen, raw[i], *params)
        if kind.words is not None:
            kind.words(raw, words[:, head:], *params)
        drawn = raw if kind.finish is None else kind.finish(raw, *params)
        if mixture:
            fill_logistic(out, words[:, n:head])
            np.copyto(out, drawn, where=random_doubles(words[:, :n]) < self.p)
        elif drawn is not out:
            out[:] = drawn

    # -- parts, density and moments (for the population discrepancy) --------
    def parts(self) -> list:
        """(weight, frozen ``scipy.stats`` law, kinks) for each part of the law
        drawn: the law itself with weight 1, or a mixture's standard logistic
        base (1 - p) and its contaminant (p)."""
        law = self._drawn()
        pairs = ([(1.0 - law.p, AlternativeSpec("logistic")), (law.p, law.contaminant)]
                 if law.kind == "mixture" else [(1.0, law)])
        return [(w, _frozen_law(s.kind, s.params), _KINDS[s.kind].kinks) for w, s in pairs]

    def pdf(self, x):
        """The density at x, the weighted sum of the parts'."""
        return sum(w * law.pdf(x) for w, law, _ in self.parts())

    def mean(self) -> float:
        return sum(w * float(law.mean()) for w, law, _ in self.parts())

    def std(self) -> float:
        parts = self.parts()
        if len(parts) == 1:
            return float(parts[0][1].std())
        second = sum(w * float(law.var() + law.mean() ** 2) for w, law, _ in parts)
        return math.sqrt(second - self.mean() ** 2)

    def breaks(self) -> tuple:
        """The points where the density is not smooth, in increasing order: the
        finite ends of the supports and the kinks of the parts."""
        return tuple(sorted({float(v) for _, law, kinks in self.parts()
                             for v in (*law.support(), *kinks) if math.isfinite(v)}))

    # -- text form ---------------------------------------------------------
    def label(self) -> str:
        """The kind, with its parameters unless they are the defaults, each
        number in ``:g`` form unless that rounds it; ``parse`` reads it back
        to an equal spec."""
        def number(v):
            return f"{v:g}" if float(f"{v:g}") == v else repr(v)

        if self.kind == "mixture":
            return f"mixture({number(self.p)},{self.contaminant.label()})"
        if self.params == _KINDS[self.kind].defaults:
            return self.kind
        return f"{self.kind}({','.join(map(number, self.params))})"

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
