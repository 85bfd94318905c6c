"""The benchmark's workloads: fixed lists of CLI argument vectors.

Each workload loads some layers of willmorelab and leaves others nearly
idle, so that an optimisation of one layer shows on one workload and is
predicted not to move another:

* ``quadrature`` -- exact jets and the shape pipeline over large node
  arrays. The second-derivative jet of ``willmore-torus:2,4`` at 28^4
  nodes is 450 MiB, above four times the 105 MiB L3 of the 2-vCPU Xeon
  the sizes were chosen on; ``pinch veronese`` at 256^2 keeps a 10 MiB
  jet that fits in cache. tensors, linalg and optimize stay idle.
* ``conformal-suites`` -- everything cache-sized. The conformal part
  reaches the immersion layer differently: finite-difference jets
  through Moebius evaluators, the codimension-1 sign gauge, the periodic
  Laplace-Beltrami operator and pole redraws. The suites part is
  per-call Python overhead on tiny matrices in tensors, linalg, cli and
  optimize, with no grid at all.

The two cache-sized parts share one workload because, run alone on a
shared 2-vCPU host, the Python-bound suites part was not steady: the
medians of three sets of ten 30 s runs moved from 2.07 s to 2.73 s.

The workload seed drives ``conformal-test --seed`` and
``matrix-props --seed``; ``quadrature`` is seed-free.
"""

from __future__ import annotations

# (example id, chart dimension n, top resolution): resolution^n nodes.
QUADRATURE_ENERGIES = (
    ("willmore-torus:2,4", 4, 28),
    ("willmore-torus:1,3", 3, 40),
    ("product-spheres:2,2,1", 5, 9),
)
PINCH_RESOLUTION = 256

CONFORMAL_CASES = (
    ("clifford-torus:1,2", 128),
    ("veronese", 64),
)
CONFORMAL_MAPS = 10
SURFACE_RESOLUTION = 256

SUITE_TRIALS = 1000
# Every 1 <= m < n <= 12 whose balanced radius sqrt((n - m)/n) lies in
# the torus family's default radius window (0.05, 0.95). The CLI exits
# 2 on (1, 11) and (1, 12), whose balanced radii are 0.953 and 0.957.
OPTIMIZE_PAIRS = tuple(
    (m, n) for n in range(2, 13) for m in range(1, n) if (n - m) / n < 0.95**2
)
# Isoparametric Euler-Lagrange checks. Clifford tori are critical only
# when balanced (n = 2m); every Willmore torus is.
ISO_IDS = tuple(
    f"willmore-torus:{m},{n}" for n in range(2, 9) for m in range(1, n)
) + tuple(f"clifford-torus:{m},{2 * m}" for m in range(1, 5))


def quadrature(seed: int) -> list[list[str]]:
    del seed
    commands = [
        ["energy", ident, "--resolution", str(res), "--assert"]
        for ident, _, res in QUADRATURE_ENERGIES
    ]
    commands.append(["pinch", "veronese", "--resolution", str(PINCH_RESOLUTION), "--assert"])
    return commands


def _conformal(seed: int) -> list[list[str]]:
    commands = [
        ["conformal-test", ident, "--maps", str(CONFORMAL_MAPS),
         "--resolution", str(res), "--seed", str(seed), "--assert"]
        for ident, res in CONFORMAL_CASES
    ]
    commands.append(["el-check", "clifford-torus:1,2", "--surface",
                     "--resolution", str(SURFACE_RESOLUTION), "--assert"])
    return commands


def _suites(seed: int) -> list[list[str]]:
    commands = [["matrix-props", "--trials", str(SUITE_TRIALS), "--seed", str(seed)]]
    commands.extend(["optimize", str(m), str(n), "--assert"] for m, n in OPTIMIZE_PAIRS)
    commands.extend(["el-check", ident, "--assert"] for ident in ISO_IDS)
    return commands


def conformal_suites(seed: int) -> list[list[str]]:
    return _conformal(seed) + _suites(seed)


# Warm-up sizes: small enough to cost about a second, large enough to
# run every code path (and lazy NumPy set-up) that a timed pass runs.
_WARMUP_CAPS = {"--resolution": 16, "--trials": 10, "--maps": 2}


def warmup(commands: list[list[str]]) -> list[list[str]]:
    """The same commands with their sizes capped, for the untimed warm-up."""
    capped = []
    for argv in commands:
        argv = list(argv)
        for i, token in enumerate(argv[:-1]):
            if token in _WARMUP_CAPS:
                argv[i + 1] = str(min(int(argv[i + 1]), _WARMUP_CAPS[token]))
        capped.append(argv)
    return capped


WORKLOADS = {
    "quadrature": quadrature,
    "conformal-suites": conformal_suites,
}


def _energy_levels(top: int) -> list[int]:
    # Mirrors the CLI's convergence table: top/4, top/2 and top, at least 8.
    return sorted({max(8, top // 4), max(8, top // 2), top})


def input_size(name: str) -> dict:
    """The fixed work a workload requests, as its stated input size."""
    if name == "quadrature":
        nodes = {
            f"energy {ident}": sum(r**n for r in _energy_levels(res))
            for ident, n, res in QUADRATURE_ENERGIES
        }
        nodes["pinch veronese"] = PINCH_RESOLUTION ** 2
        return {"quadrature_nodes": nodes, "total_nodes": sum(nodes.values())}
    if name == "conformal-suites":
        return {
            "maps_per_case": CONFORMAL_MAPS,
            "grid_nodes": {ident: res ** 2 for ident, res in CONFORMAL_CASES},
            "surface_nodes": SURFACE_RESOLUTION ** 2,
            "matrix_props_trials": SUITE_TRIALS,
            "optimize_pairs": len(OPTIMIZE_PAIRS),
            "isoparametric_checks": len(ISO_IDS),
        }
    raise KeyError(name)
