"""Benchmark inputs: germ descriptors, the curve-germ pool and kernel ideals.

Everything here is plain data built from the benchmark seed; nothing
imports the engine. Each germ carries the facts the output checks need
(paper values for the running surface, branch data for the curves), so
the checks never consult the engine's own answers.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field


def Z(rank: int) -> dict:
    return {"rank": rank, "torsion": []}


@dataclass(frozen=True)
class Branch:
    """One irreducible plane-curve branch through 0 and its closed-form data.

    ``mult`` is the multiplicity at 0, ``eta`` the intersection number
    (branch . V(f))_0 when the branch is not inside V(f); ``conormal``
    is the conormal ideal of a branch inside V(f) (a coordinate line).
    """

    poly: str
    mult: int
    eta: int
    in_vf: bool = False
    conormal: tuple = ()


@dataclass
class Germ:
    name: str
    kind: str  # "surface" | "curve"
    descriptor: dict
    branches: list = field(default_factory=list)

    @property
    def m(self) -> int:
        return sum(b.mult for b in self.branches)

    @property
    def m_sub(self) -> int:
        return sum(b.mult for b in self.branches if b.in_vf)

    @property
    def eta(self) -> int:
        return sum(b.eta for b in self.branches if not b.in_vf)


def surface_germ() -> Germ:
    """V(y) union V(y^2-x^3-t^2 x^2) in (t, x, y), f = x, L = t."""
    strata = [
        ("S1", ["y"], 2, 1),
        ("S2", ["y^2-x^3-t^2*x^2"], 2, 1),
        ("S3", ["x", "y"], 1, 2),
        ("S4", ["x+t^2", "y"], 1, 1),
        ("S0", ["t", "x", "y"], 0, 2),
    ]
    desc = {
        "ambient": {"n": 2, "coords": ["t", "x", "y"]},
        "strata": [
            {"name": n, "ideal": gens, "dim": d, "morse": {"0": Z(r)}}
            for n, gens, d, r in strata
        ],
        "f": "x",
        "L": "t",
        "seed": 12345,
    }
    return Germ("surface", "surface", desc)


def curve_germ(name: str, coords: list, branches: list, f: str, L: str) -> Germ:
    """Union of branches with the 1-shifted constant sheaf: Morse Z^(m-1) at 0."""
    m = sum(b.mult for b in branches)
    strata = [
        {"name": f"b{i}", "ideal": [b.poly], "dim": 1, "morse": {"0": Z(1)}}
        for i, b in enumerate(branches)
    ]
    strata.append({"name": "origin", "ideal": ["x", "y"], "dim": 0, "morse": {"0": Z(m - 1)}})
    desc = {
        "ambient": {"n": 1, "coords": list(coords)},
        "strata": strata,
        "f": f,
        "L": L,
        "seed": 1,
    }
    return Germ(name, "curve", desc, list(branches))


def cusp_line_germ() -> Germ:
    return curve_germ(
        "cusp-line", ["x", "y"],
        [Branch("y^2-x^3", 2, 3), Branch("y", 1, 0, True, ("y", "w0"))],
        "y", "x",
    )


def tangent_triple_germ() -> Germ:
    return curve_germ(
        "tangent-triple", ["x", "y"],
        [Branch("y", 1, 0, True, ("y", "w0")), Branch("y-x^2", 1, 2), Branch("y+x^2", 1, 2)],
        "y", "x",
    )


# Branch shapes of the curve family, f = x, coordinates (y, x): the one
# branch inside V(x) is the y-axis, so y comes first (isolating order).
# (template, multiplicity, (branch . V(x))_0, inside V(x))
_SHAPES = [
    ("y", 1, 1, False),
    ("y-{a}*x^2", 1, 1, False),
    ("y-{a}*x^3", 1, 1, False),
    ("y^2-{a}*x^3", 2, 2, False),
    ("y^3-{a}*x^2", 2, 3, False),
    ("x-{a}*y^2", 1, 2, False),
    ("x-{a}*y^3", 1, 3, False),
    ("x", 1, 0, True),
]

POOL_SEED = 20240809
POOL_SIZES = (2, 3, 4)  # branches per germ; one stratum of the pool each
POOL_PER_SIZE = 8


def _signed(c: int) -> str:
    return f"+{c}" if c > 0 else f"-{-c}"


def curve_pool() -> list:
    """The curve family: POOL_PER_SIZE germs for each branch count.

    Fixed by POOL_SEED, so the sizing table below stays valid; the run
    seed draws the engine seeds.
    """
    rng = random.Random(POOL_SEED)
    pool = []
    for size in POOL_SIZES:
        for _ in range(POOL_PER_SIZE):
            branches = []
            for i in sorted(rng.sample(range(len(_SHAPES)), size)):
                template, mult, eta, in_vf = _SHAPES[i]
                a = rng.choice([1, 2, 3, -1, -2, -3])
                poly = template.replace("-{a}", _signed(-a)) if "{a}" in template else template
                branches.append(Branch(poly, mult, eta, in_vf, ("x", "w0") if in_vf else ()))
            c = rng.choice([1, 2, 3, 4, 5, -1, -2, -3, -4, -5])
            name = f"curve{len(pool):02d}"
            pool.append(curve_germ(name, ["y", "x"], branches, "x", f"x{_signed(c)}*y"))
    return pool


# Engine seeds the workloads draw from (the CLI --seed of each problem).
ENGINE_SEEDS = tuple(range(1, 9))
# The running surface runs with fixed engine seeds: its time depends on the
# seed (seed 7 takes the local_degree loop further, about 1.4x seed 1), and
# in the blow-up workload, where one surface problem outweighs a dozen curve
# problems, a drawn pair moved problems_per_s by up to 20% between runs.
SURFACE_PIPELINE_SEEDS = (1, 7)
SURFACE_BLOWUP_SEEDS = (1,)

# (germ, engine seed) pairs left out of every workload, as printed by
# size.py. See README.md.
# One of their problems outlasts a run (the slow local_degree path):
# vanishing --route both takes over 15 s, against 2 s at most elsewhere.
SLOW = frozenset({
    ("curve04", 6), ("curve05", 6), ("curve12", 8), ("curve17", 8), ("curve18", 7),
    ("curve19", 8),
})
# The engine gives a seed-dependent wrong answer, named in a FOUND entry of
# CHANGES.md. A pair comes back into the workloads once its fault is fixed.
WRONG_ANSWER = frozenset({
    ("curve01", 7),  # vanishing --route pidelta: CC 3[V(x, y)], closed form 2
})
SKIPPED = SLOW | WRONG_ANSWER


PIPELINE_COMMANDS = (
    ("gecc",),
    ("conormal",),
    ("polar",),
    ("nearby",),
    ("shriek",),
    ("check",),
    ("vanishing", "--route", "pidelta"),
)
BLOWUP_COMMAND = ("vanishing", "--route", "both")

# The pipeline takes the first germs of each branch count; the blow-up
# route takes the whole pool. Fixing the germs keeps the make-up of a
# round the same for every seed; the seed draws the engine seeds.
PIPELINE_GERMS_PER_SIZE = 2
PIPELINE_SEEDS = 2
# Blow-up curve problems are few and take 0.1-0.9 s each, and the median
# of so few moved by up to 19% between runs with two engine seeds per germ.
BLOWUP_SEEDS = 3


@dataclass(frozen=True)
class Job:
    germ: str
    command: tuple
    engine_seed: int


def _first(pool: list, per_size: int) -> list:
    return [g for s in range(0, len(pool), POOL_PER_SIZE) for g in pool[s:s + per_size]]


def _jobs(rng: random.Random, germs: list, commands, per_germ: int, surface_seeds) -> list:
    jobs = []
    for g in germs:
        seeds = surface_seeds if g.kind == "surface" else rng.sample(
            [s for s in ENGINE_SEEDS if (g.name, s) not in SKIPPED], per_germ)
        for cmd in commands:
            jobs += [Job(g.name, cmd, s) for s in seeds]
    return jobs


def pipeline_batch(seed: int) -> tuple:
    """(germs by name, jobs) for one round of the pipeline workload."""
    germs = [surface_germ(), cusp_line_germ(), tangent_triple_germ()]
    germs += _first(curve_pool(), PIPELINE_GERMS_PER_SIZE)
    jobs = _jobs(random.Random(seed), germs, PIPELINE_COMMANDS, PIPELINE_SEEDS,
                 SURFACE_PIPELINE_SEEDS)
    return {g.name: g for g in germs}, jobs


def blowup_batch(seed: int) -> tuple:
    """(germs by name, jobs) for one round of the blow-up workload."""
    germs = [surface_germ()] + curve_pool()
    jobs = _jobs(random.Random(seed), germs, [BLOWUP_COMMAND], BLOWUP_SEEDS,
                 SURFACE_BLOWUP_SEEDS)
    return {g.name: g for g in germs}, jobs


# ---------------------------------------------------------------------------
# kernel workload: seeded random ideals in Q[x, y, z]

KERNEL_VARS = ("x", "y", "z")
KERNEL_PATTERNS = 30
KERNEL_DRAWS = 2
KERNEL_TERMS = 6
_MONOMIALS = {
    d: [e for e in itertools.product(range(d + 1), repeat=3) if sum(e) <= d] for d in (1, 2)
}


def kernel_patterns() -> list:
    """Supports of (I, h, J): three quadrics with KERNEL_TERMS terms, linear h and J.

    Fixed by POOL_SEED, so every seed meets ideals of the same shapes and
    the cost of a round depends little on the seed.
    """
    rng = random.Random(POOL_SEED)
    return [
        (
            [rng.sample(_MONOMIALS[2], KERNEL_TERMS) for _ in range(3)],
            rng.sample(_MONOMIALS[1], 2),
            rng.sample(_MONOMIALS[1], 2),
        )
        for _ in range(KERNEL_PATTERNS)
    ]


def _poly(rng: random.Random, support: list) -> str:
    out = []
    for e in support:
        c = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
        mono = "*".join(f"{v}^{k}" for v, k in zip(KERNEL_VARS, e) if k)
        out.append(f"{c}*{mono}" if mono else str(c))
    return " + ".join(out).replace("+ -", "- ")


def kernel_batch(seed: int) -> list:
    """Problems {I, h, J} with seeded coefficients on the fixed supports."""
    rng = random.Random(seed)
    return [
        {"I": [_poly(rng, s) for s in I], "h": _poly(rng, h), "J": [_poly(rng, J)]}
        for _ in range(KERNEL_DRAWS)
        for I, h, J in kernel_patterns()
    ]
