"""Seeded operation lists for the three benchmark workloads.

A workload replays one *pass*: a fixed list of ``cohstat`` argv lists, run
one after another like a researcher's parameter sweep.  Only the generated
argv reaches ``cohstat.cli.main``; the seed stays here.

The continuous parameters that set an op's cost (|alpha|, rates, counts,
trials) are stratified: one seeded point in each of as many equal strata
of the range as the pass has ops of that kind.  Two seeds give different
inputs with nearly the same cost distribution, which keeps the
run-to-run spread of the latency percentiles small.  Secondary parameters
that barely move the cost (phases, k, p, verify seeds) are plain uniform
draws.  Each pass holds the commands of the roadmap's fixed set
(``verify --check all``, ``infer poisson 0/200``, ``infer binomial 20/200``,
``family poisson 1000``, ``family binomial 2000``) that belong to it.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

# Distinct ops per pass: at least 100, so the p90 has ten ops beyond it,
# and few enough that one pass takes at most about 12 s on a 2-core box.
PASS_LENGTH = {"verify-mix": 100, "posterior-mix": 100, "family-mix": 200}


@dataclass(frozen=True)
class Op:
    """One CLI call: ``kind`` selects the output check, ``params`` feed it."""

    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)


def _strata(n: int, rng: random.Random) -> list[float]:
    """n points of [0, 1) in a seeded order, one in the middle half of each of n equal strata.

    Any two seeds give different points with the same quantiles, to within
    half a stratum, so the latency percentiles hardly move with the seed.
    """
    points = [(i + rng.uniform(0.25, 0.75)) / n for i in range(n)]
    rng.shuffle(points)
    return points


def _verify(*args: str) -> Op:
    return Op("verify", ("verify",) + args)


def _infer_poisson(n: int) -> Op:
    return Op("infer-poisson", ("infer", "poisson", "--observed", str(n)), {"n": n})


def _infer_binomial(n: int, k: int) -> Op:
    return Op("infer-binomial", ("infer", "binomial", "--n", str(n), "--k", str(k)), {"n": n, "k": k})


def _family_poisson(lam: float) -> Op:
    return Op("family-poisson", ("family", "poisson", "--lambda", repr(lam)), {"lam": lam})


def _family_binomial(n: int, p: float) -> Op:
    return Op("family-binomial", ("family", "binomial", "--n", str(n), "--p", repr(p)), {"n": n, "p": p})


def _interleave(counts: dict) -> list:
    """Each key ``counts[key]`` times, spread evenly through the list."""
    slots = [((i + 0.5) / n, key) for key, n in counts.items() for i in range(n)]
    return [key for _, key in sorted(slots)]


# (check, trunc) -> ops per cycle.  Costs on a 2-core box: bch 64, ladder
# 256 and gauss take 5-20 ms; bch 128 and translation 64 20-50 ms; ladder
# 512 and all 60-130 ms; translation 128 about 200 ms; bch 256 250-360 ms,
# rising with |alpha|.  The shares put the median inside the 20-50 ms band
# (ranks 38-62 %) and the p90 inside bch 256 (ranks 84-100 %), so neither
# percentile sits on a jump between bands.  The bands are those of the
# current linops.matrix_exponential: a change to it moves them, and the
# shares must then be checked again in a change of the benchmark's own.
_VERIFY_CYCLE = _interleave(
    {
        ("bch", 64): 6,
        ("ladder", 256): 5,
        ("gauss", None): 8,
        ("bch", 128): 6,
        ("translation", 64): 6,
        ("ladder", 512): 3,
        ("all", None): 6,
        ("translation", 128): 2,
        ("bch", 256): 8,
    }
)


def verify_mix(seed: int) -> list[Op]:
    """Residual checks; ``linops.matrix_exponential`` does most of the work.

    |alpha| is uniform in [0, 3].  The absolute bch residual grows roughly
    as exp(|alpha|^2): at |alpha| = 3 it is at most 7e-12 against the 1e-10
    threshold at truncations 64-256, and from about |alpha| = 3.5 on it
    fails (roadmap item 3), so no op of the workload fails.
    """
    rng = random.Random(seed)
    kinds = [_VERIFY_CYCLE[index % len(_VERIFY_CYCLE)] for index in range(PASS_LENGTH["verify-mix"])]
    radius = {trunc: iter(_strata(kinds.count(("bch", trunc)), rng)) for trunc in (64, 128, 256)}
    ops, anchored = [], False
    for check, trunc in kinds:
        args = ["--check", check]
        if check == "bch":
            alpha = 3.0 * next(radius[trunc]) * cmath.exp(2j * math.pi * rng.random())
            # "=" keeps argparse from reading a leading minus as a flag
            args.append(f"--alpha={alpha.real:.17g}{alpha.imag:+.17g}j")
        elif check == "all" and not anchored:
            anchored = True  # the roadmap's fixed command keeps the default seed
        elif check != "ladder":
            args += ["--seed", str(rng.randrange(2**31))]
        if trunc is not None:
            args += ["--trunc", str(trunc)]
        ops.append(_verify(*args))
    return ops


def posterior_mix(seed: int) -> list[Op]:
    """Half Gamma posteriors (n log-uniform in [0, 1000]), half Beta (n in [1, 200])."""
    rng = random.Random(seed)
    ops = [
        _infer_poisson(0),
        _infer_poisson(200),
        _infer_binomial(20, rng.randint(0, 20)),
        _infer_binomial(200, rng.randint(0, 200)),
    ]
    free = PASS_LENGTH["posterior-mix"] - len(ops)
    count, trials = iter(_strata((free + 1) // 2, rng)), iter(_strata(free // 2, rng))
    while len(ops) < PASS_LENGTH["posterior-mix"]:
        if len(ops) % 2 == 0:
            ops.append(_infer_poisson(int(1001.0 ** next(count)) - 1))
        else:
            n = 1 + int(200 * next(trials))
            ops.append(_infer_binomial(n, rng.randint(0, n)))
    return ops


def family_mix(seed: int) -> list[Op]:
    """Half Poisson tables (rate log-uniform in [0.01, 1e4]), half binomial (n log-uniform in [1, 1000]).

    The sampled n stop at 1000, so that no op of the workload fails.  The
    closed-form spin amplitudes lose unit norm roughly in proportion to n:
    the largest deviation over 4000 p is 7.2e-13 for n in [900, 1000],
    and from n = 1264 on some p pass the 1e-12 tolerance of ``VectorState``
    and the op exits 2; from n = 2054 on every p does, because
    sqrt C(n, n/2) overflows.  The roadmap's ``family binomial --n 2000``
    is in every pass with p = 0.5, where the deviation is 4.3e-13; it sets
    the RSS peak, so that does not hang on the sampled n.
    """
    rng = random.Random(seed)
    ops = [_family_poisson(1000.0), _family_binomial(2000, 0.5)]
    free = PASS_LENGTH["family-mix"] - len(ops)
    rate, trials = iter(_strata((free + 1) // 2, rng)), iter(_strata(free // 2, rng))
    while len(ops) < PASS_LENGTH["family-mix"]:
        if len(ops) % 2 == 0:
            ops.append(_family_poisson(0.01 * 10.0 ** (6.0 * next(rate))))
        else:
            ops.append(_family_binomial(int(1001.0 ** next(trials)), rng.random()))
    return ops


WORKLOADS = {"verify-mix": verify_mix, "posterior-mix": posterior_mix, "family-mix": family_mix}
