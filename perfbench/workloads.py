"""Seeded request generator for the four benchmark workloads.

Each workload is a fixed list of slots: the family, route, variant and
tolerance of every request, and the range of every parameter, are part of
the benchmark.  The seed only places each parameter inside its range.
Parameters that drive the cost of a request (N, the scale alpha, widths,
coefficients and exponents of quadrature integrands) sit on a fixed
stratified design and the seed jitters them inside their stratum, so the
work in one pass over the pool is nearly the same for every seed.  The
others (angles, most coefficients) are drawn uniformly from their range.

A pool item is a plain dict.  ``kind == "run"`` items are the arguments of
one ``finsum.cli.run`` call; every other kind names a public library
function that the worker calls with a scalar-only closure built from
``fn``.  Every item also carries ``expr``, the summand or integrand as text
in the finsum grammar, which is all the referee reads.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("quad-heavy", "spike-catalog", "eval-all", "scalar-closure")

VARIANTS = ("standard", "alternating", "shifted", "shifted-alternating",
            "exp-factor", "exp-factor-alternating")
TOLS = (1e-8, 1e-10, 1e-12)

# jitter of a cost-driving parameter, as a share of its stratum
_STRATUM_JITTER = 0.25
# jitter of a secondary design parameter, as a share of its whole range
_DESIGN_JITTER = 0.05
# additive sequences that spread secondary parameters evenly over the slots
_SPREAD = (0.6180339887498949, 0.4142135623730951, 0.7320508075688772,
           0.2360679774997898)
# effective angles closer than this to a resonance 2*pi*m are out of scope
_THETA_EDGE = 0.1
_NEAR_RESONANT = 0.05


def _num(x: float) -> str:
    """A literal the program parses back to exactly this double."""
    return repr(float(x))


def _unit(rng: random.Random, q: float, width: float) -> float:
    return min(1.0, max(0.0, q + width * (rng.random() - 0.5)))


def _span(lo: float, hi: float, u: float, log: bool) -> float:
    if log:
        return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    return lo + u * (hi - lo)


def _sized(rng, lo, hi, stratum, strata):
    """An integer size, log-uniform over [lo, hi] by stratified design."""
    q = (stratum + 0.5) / strata
    return max(lo, min(hi, round(_span(lo, hi, _unit(rng, q, _STRATUM_JITTER / strata), True))))


def _designed(rng, lo, hi, slot, dim, log=False, digits=4):
    """A secondary cost-driving parameter, evenly spread over the slots."""
    q = (0.5 + slot * _SPREAD[dim]) % 1.0
    return round(_span(lo, hi, _unit(rng, q, _DESIGN_JITTER), log), digits)


def _free(rng, lo, hi, digits=4):
    return round(rng.uniform(lo, hi), digits)


def _angle(rng, alpha: float, near_resonant: bool) -> float:
    """theta with theta*alpha inside (0.1, 2*pi - 0.1), optionally near its edges."""
    lo, hi = _THETA_EDGE, 2.0 * math.pi - _THETA_EDGE
    if near_resonant:
        phi = (lo + rng.uniform(0, _NEAR_RESONANT) if rng.random() < 0.5
               else hi - rng.uniform(0, _NEAR_RESONANT))
    else:
        phi = rng.uniform(lo + _NEAR_RESONANT, hi - _NEAR_RESONANT)
    theta = round(phi / alpha, 6)
    # rounding may push the effective angle just outside the range
    while not lo < theta * alpha < hi:
        theta = round(theta + (1e-6 if theta * alpha <= lo else -1e-6), 6)
    return theta


def _run_item(family, expr, n, method, alpha=1.0, variant="standard",
              beta=0.0, tol=1e-10):
    if variant in ("alternating", "shifted-alternating", "exp-factor-alternating"):
        n += n % 2
    return {"kind": "run", "family": family, "expr": expr, "n": n,
            "method": method, "alpha": alpha, "variant": variant,
            "beta": beta, "tol": tol}


# -- quad-heavy ----------------------------------------------------------------

# (method, family); a third of the slots are fourier, so the median request
# is a laplace one and the slowest tenth are large-N fourier ones
_QH_ORDER = (("fourier", "lorentz"), ("laplace", "power"), ("laplace", "lorentz"),
             ("fourier", "gauss"), ("laplace", "power+lorentz"), ("laplace", "power"),
             ("fourier", "lorentz+gauss"), ("laplace", "lorentz"),
             ("laplace", "power+lorentz"))
_QH_BLOCKS = 8
# the known budget defect: at tol 1e-12 some laplace requests exhaust the
# 10^6-node quadrature budget and come back non-converged after 6-9 s.  Which
# parameters do so is erratic, so seeded slots ask laplace for at most 1e-10,
# and this reproducer runs once per run, untimed: its record counts, while
# its single long, noisy latency would swamp the throughput of the pool.
PINNED_BUDGET = dict(_run_item("power+lorentz", "1.6568/k^3.1948+1.6568/(k^2+7.8613)",
                               210, "laplace", 0.569, "exp-factor-alternating", 0.5,
                               1e-12), untimed=True)
_LAPLACE_TOLS = (1e-8, 1e-10)


def _quad_heavy(rng):
    slots = len(_QH_ORDER) * _QH_BLOCKS
    items = []
    laplace = 0
    for block in range(_QH_BLOCKS):
        for j, (method, family) in enumerate(_QH_ORDER):
            i = block * len(_QH_ORDER) + j
            # a fixed permutation of the size strata, so that the variant
            # and tolerance of a slot are not tied to its size
            n = _sized(rng, 10, 400, (7 * i) % slots, slots)
            alpha = _designed(rng, 0.5, 2.0, i, 0, log=True)
            width = _designed(rng, 0.5, 3.0, i, 1, log=True)
            c = _designed(rng, 0.5, 2.0, i, 2)
            s = _designed(rng, 1.2, 3.5, i, 3)
            terms = {
                "power": f"{_num(c)}/k^{_num(s)}",
                "lorentz": f"{_num(c)}/(k^2+{_num(round(width * width, 4))})",
                "gauss": f"{_num(c)}*exp(-{_num(round(0.25 * width, 4))}*k^2)",
            }
            expr = "+".join(terms[part] for part in family.split("+"))
            if method == "fourier":
                items.append(_run_item(family, expr, n, method, alpha,
                                       tol=TOLS[(i // 3 + block) % len(TOLS)]))
                continue
            variant = VARIANTS[laplace % len(VARIANTS)]
            beta = 0.0 if variant in ("standard", "alternating") else _free(rng, 0.1, 1.0)
            items.append(_run_item(family, expr, n, method, alpha, variant, beta,
                                   _LAPLACE_TOLS[(laplace // 6) % len(_LAPLACE_TOLS)]))
            laplace += 1
    return items + [dict(PINNED_BUDGET)]


# -- spike-catalog ---------------------------------------------------------------

# (family, routes); every summand here is a finite spike kernel or a catalog
# identity, so no quadrature runs
_SC_ORDER = (("sin", ("laplace", "closed-form")),
             ("cos", ("laplace", "closed-form")),
             ("k-cos", ("laplace", "closed-form")),
             ("exp-cos", ("laplace", "closed-form")),
             ("exp", ("laplace", "closed-form")),
             ("k-pow", ("laplace",)),
             ("power", ("closed-form",)))
_SC_BLOCKS = 8
# the known estimate defect: the oracle and the laplace route both claim
# less error than they make on this summand
PINNED_DEFECT = ("k-cos", "k*cos(2.2*k)", 30)


def _spike_catalog(rng):
    slots = len(_SC_ORDER) * _SC_BLOCKS
    family, expr, n = PINNED_DEFECT
    items = [_run_item(family, expr, n, m) for m in ("laplace", "closed-form")]
    for block in range(_SC_BLOCKS):
        for j, (family, routes) in enumerate(_SC_ORDER):
            i = block * len(_SC_ORDER) + j
            n = _sized(rng, 1, 100_000, i, slots)
            alpha = _free(rng, 0.5, 2.0)
            c = _free(rng, 0.5, 2.0)
            a = _free(rng, 0.05, 1.5)
            theta = _angle(rng, alpha, near_resonant=block % 4 == 0)
            expr = {
                "sin": f"{_num(c)}*sin({_num(theta)}*k)",
                "cos": f"{_num(c)}*cos({_num(theta)}*k)",
                "k-cos": f"k*cos({_num(theta)}*k)",
                "exp-cos": f"exp(-{_num(a)}*k)*cos({_num(theta)}*k)",
                "exp": f"{_num(c)}*exp(-{_num(a)}*k)",
                "k-pow": f"{_num(c)}*k^{block % 4 + 1}",
                "power": f"{_num(c)}/k^{_num(_free(rng, 1.1, 4.0))}",
            }[family]
            items.extend(_run_item(family, expr, n, m, alpha) for m in routes)
    return items


# -- eval-all --------------------------------------------------------------------

# light: the decaying `finsum bench` families, the quick ones twice per cycle
# so that the median request is one of them rather than the boundary with the
# fourier-bound ones.  heavy: the oscillating bench families, summands no
# route table covers and non-decaying ones; each sends telescope to its term
# cap, and one heavy slot in six puts the 90th percentile inside that group.
_EA_LIGHT = ("1/k", "1/k^2", "exp", "lorentz", "1/k", "1/k^2", "exp", "gauss")
_EA_HEAVY = ("sin", "k-cos", "k^2", "cos", "log", "sqrt")
_EA_LIGHT_PER_HEAVY = 5


def _eval_all(rng):
    slots = len(_EA_HEAVY) * (_EA_LIGHT_PER_HEAVY + 1)
    items = []
    light = 0
    for i in range(slots):
        n = _sized(rng, 8, 100, (5 * i) % slots, slots)
        c = _designed(rng, 0.5, 2.0, i, 2)
        a = _designed(rng, 0.3, 1.5, i, 1)
        if i % (_EA_LIGHT_PER_HEAVY + 1) == _EA_LIGHT_PER_HEAVY:
            family = _EA_HEAVY[i // (_EA_LIGHT_PER_HEAVY + 1)]
            theta = _angle(rng, 1.0, near_resonant=False)
            expr = {
                "sin": f"{_num(c)}*sin({_num(theta)}*k)",
                "k-cos": f"k*cos({_num(theta)}*k)",
                "k^2": f"{_num(c)}*k^2",
                "cos": f"{_num(c)}*cos({_num(theta)}*k)",
                "log": f"{_num(c)}*log(k)",
                "sqrt": f"{_num(c)}*sqrt(k)",
            }[family]
        else:
            family = _EA_LIGHT[light % len(_EA_LIGHT)]
            light += 1
            expr = {
                "1/k": f"{_num(c)}/k",
                "1/k^2": f"{_num(c)}/k^2",
                "lorentz": f"{_num(c)}/(k^2+{_num(round(a * a, 4))})",
                "exp": f"{_num(c)}*exp(-{_num(a)}*k)",
                "gauss": f"{_num(c)}*exp(-{_num(a)}*k^2)",
            }[family]
        items.append(_run_item(family, expr, n, "all"))
    return items


# -- scalar-closure ----------------------------------------------------------------

# closures built from these reject arrays and jets, so every layer below
# takes its per-element path
_CLOSURE_TEXT = {
    "lorentz": "{c}/(k^2+{a2})",
    "exp-cos": "{c}*exp(-{a}*k)*cos({theta}*k)",
    "power": "{c}*k^(-{s})",
    "exp": "{c}*exp(-{a}*k)",
    "inv-square": "{c}/(k+{a})^2",
}
# telescoping_sum gets the Lorentzian only: without jets its tail falls back
# to extrapolation, whose cost on power laws swings 30x with N and s
_SCL_ORDER = (("direct_sum", "power"), ("telescoping_sum", "lorentz"),
              ("em_sum", "exp"), ("integrate_finite", "exp-cos"),
              ("integrate_semi_infinite", "lorentz"),
              ("direct_sum", "exp-cos"), ("telescoping_sum", "lorentz"),
              ("em_sum", "inv-square"), ("integrate_finite", "lorentz"),
              ("integrate_semi_infinite", "exp-cos"))
_SCL_BLOCKS = 5


def _closure(rng, name, slot):
    fn = {"name": name, "c": _free(rng, 0.5, 2.0),
          "a": _designed(rng, 0.3, 1.5, slot, 2),
          "theta": _free(rng, 0.5, 3.0), "s": _free(rng, 2.0, 3.5)}
    fn["a2"] = round(fn["a"] * fn["a"], 4)
    text = _CLOSURE_TEXT[name].format(**{k: _num(v) for k, v in fn.items()
                                         if k != "name"})
    return fn, text


def _scalar_closure(rng):
    per_kind = _SCL_BLOCKS * len(_SCL_ORDER) // len({kind for kind, _ in _SCL_ORDER})
    seen: dict[str, int] = {}
    items = []
    for block in range(_SCL_BLOCKS):
        for j, (kind, family) in enumerate(_SCL_ORDER):
            i = block * len(_SCL_ORDER) + j
            rank = seen.get(kind, 0)
            seen[kind] = rank + 1
            fn, text = _closure(rng, family, i)
            item = {"kind": kind, "family": family, "fn": fn, "expr": text,
                    "tol": 1e-10}
            if kind == "direct_sum":
                variant = ("standard", "alternating", "exp-factor", "shifted")[rank % 4]
                n = _sized(rng, 10, 10_000, rank, per_kind)
                item.update(n=n + n % 2, alpha=_free(rng, 0.5, 2.0),
                            variant=variant,
                            beta=0.0 if variant in ("standard", "alternating")
                            else _free(rng, 0.1, 1.0))
            elif kind == "telescoping_sum":
                item["n"] = _sized(rng, 10, 1000, rank, per_kind)
            elif kind == "em_sum":
                h = (1.0, 0.5, 0.25)[rank % 3]
                m = _sized(rng, 10, 200, rank, per_kind)
                lo = _free(rng, 0.0, 2.0, digits=2)
                item.update(lo=lo, hi=lo + m * h, m=m, tol=1e-12)
            elif kind == "integrate_finite":
                item.update(lo=0.0, hi=_designed(rng, 1.0, 20.0, i, 3, log=True))
            items.append(item)
    return items


_GENERATORS = {"quad-heavy": _quad_heavy, "spike-catalog": _spike_catalog,
               "eval-all": _eval_all, "scalar-closure": _scalar_closure}


def generate(workload: str, seed: int) -> list[dict]:
    """The request pool of one workload; the same seed gives the same pool."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def mix(items: list[dict]) -> dict:
    """The seed-independent shape of a pool: counts per (kind, family, route)."""
    out: dict[str, int] = {}
    for it in items:
        key = f"{it['kind']}:{it['family']}:{it.get('method', '')}:{it.get('variant', '')}"
        out[key] = out.get(key, 0) + 1
    return out


def size_range(items: list[dict]) -> tuple[int, int]:
    sizes = [it["n"] if "n" in it else it["m"] for it in items if "n" in it or "m" in it]
    return min(sizes), max(sizes)


def check_generator(workload: str, seed: int, fresh_seed: int) -> list[str]:
    """Problems with the generator, as messages; empty when it behaves.

    The same seed must give identical pools, and a seed far from any used
    while the benchmark was written must give the same mix and a size range
    inside the workload's bounds.
    """
    problems = []
    pool = generate(workload, seed)
    if pool != generate(workload, seed):
        problems.append(f"{workload}: seed {seed} gave two different pools")
    other = generate(workload, fresh_seed)
    if mix(other) != mix(pool):
        problems.append(f"{workload}: seed {fresh_seed} changed the family mix")
    lo, hi = SIZE_BOUNDS[workload]
    for s, p in ((seed, pool), (fresh_seed, other)):
        got = size_range(p)
        if not (lo <= got[0] and got[1] <= hi):
            problems.append(f"{workload}: seed {s} sizes {got} leave [{lo}, {hi}]")
    return problems


SIZE_BOUNDS = {"quad-heavy": (10, 402), "spike-catalog": (1, 100_000),
               "eval-all": (8, 100), "scalar-closure": (10, 10_000)}
