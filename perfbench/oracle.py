"""Closed-form checks of every CLI command the benchmark runs.

Each command's JSON is compared with a reference that does not come
from quadrature:

* energies: ``optimize.family_energy`` at the torus radius, the
  product formula (n p)^(n/2) prod Vol(S^m_i) a_i^m_i for products of
  spheres, and 8 pi for the Veronese surface;
* pinching integrals: energy * (C - rho^2), which is 0 at the threshold;
* conformal drift, surface and isoparametric residuals, and the
  randomized-suite residuals: 0;
* the critical radius: the balanced radius sqrt((n - m)/n).

A check passes when its error is within the tolerance the CLI documents
for that command. Its agreement in digits is -log10(error / scale),
capped at 16.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from willmorelab.optimize import TorusFamily, family_energy

MAX_DIGITS = 16.0

# Tolerances the CLI documents (its --assert defaults and suite floors).
ENERGY_RTOL = 1e-6
PINCH_TOL = 1e-8
EL_TOL = 1e-10
CONFORMAL_TOL = 1e-3
RADIUS_TOL = 1e-6
OPTIMIZE_ENERGY_RTOL = 1e-8
SUITE_RESIDUAL_TOL = {"trace_split": 1e-12, "witness_recovery": 1e-10}


@dataclass(frozen=True)
class Check:
    """One comparison of a reported value with its reference."""

    label: str
    error: float
    scale: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.error <= self.tol  # False for NaN

    @property
    def digits(self) -> float:
        rel = self.error / self.scale
        if not math.isfinite(rel):
            return 0.0
        if rel <= 10.0 ** -MAX_DIGITS:
            return MAX_DIGITS
        return min(MAX_DIGITS, -math.log10(rel))


def _sphere_volume(k: int) -> float:
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def reference(example_id: str) -> tuple[int, int, float, float]:
    """(n, p, rho^2, energy) of a catalog example in closed form."""
    name, _, arg = example_id.partition(":")
    if name in ("willmore-torus", "clifford-torus"):
        m, n = (int(s) for s in arg.split(","))
        fam = TorusFamily(m, n)
        r = fam.balanced_radius if name == "willmore-torus" else math.sqrt(m / n)
        return n, 1, float(n), family_energy(fam, r)
    if name == "product-spheres":
        ms = [int(s) for s in arg.split(",")]
        n, p = sum(ms), len(ms) - 1
        volume = math.prod(
            _sphere_volume(m) * math.sqrt((n - m) / (n * p)) ** m for m in ms
        )
        return n, p, float(n * p), (n * p) ** (n / 2.0) * volume
    if example_id == "veronese":
        return 2, 2, 4.0 / 3.0, 8.0 * math.pi
    raise ValueError(f"no closed form for {example_id!r}")


def _flag(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _energy_check(label: str, value: float, example_id: str) -> Check:
    _, _, _, energy = reference(example_id)
    return Check(label, abs(value - energy), energy, ENERGY_RTOL * energy)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def evaluate(argv: list[str], text: str) -> list[Check]:
    """Checks of one command's JSON output.

    Raises ValueError when the output is malformed or states a failed
    verdict, so the caller counts the command as failed.
    """
    payload = json.loads(text)
    command = argv[0]
    if command == "energy":
        ident = argv[1]
        _require(payload["id"] == ident, "wrong id")
        return [_energy_check(f"energy {ident}", payload["value"], ident)]
    if command == "pinch":
        ident = argv[1]
        mode = _flag(argv, "--mode", "simons")
        n, p, rho_sq, energy = reference(ident)
        threshold = n / (2.0 - 1.0 / p) if mode == "simons" else 2.0 * n / 3.0
        expected = energy * (threshold - rho_sq)
        return [Check(f"pinch {ident}", abs(payload["value"] - expected),
                      energy * threshold, PINCH_TOL)]
    if command == "el-check":
        ident = argv[1]
        _require(payload["willmore"] is True, "not reported as Willmore")
        key = "max_residual" if "--surface" in argv else "norm"
        return [Check(f"el-check {payload['mode']} {ident}", abs(payload[key]), 1.0, EL_TOL)]
    if command == "conformal-test":
        ident = argv[1]
        maps = int(_flag(argv, "--maps", "10"))
        _require(len(payload["maps"]) == maps, "fewer maps than requested")
        return [
            _energy_check(f"conformal base {ident}", payload["base"], ident),
            Check(f"conformal drift {ident}", abs(payload["max_drift"]), 1.0, CONFORMAL_TOL),
        ]
    if command == "optimize":
        m, n = int(argv[1]), int(argv[2])
        fam = TorusFamily(m, n)
        balanced = math.sqrt((n - m) / n)
        energy = family_energy(fam, balanced)
        return [
            Check(f"optimize {m} {n} radius", abs(payload["critical_radius"] - balanced),
                  balanced, RADIUS_TOL),
            Check(f"optimize {m} {n} energy", abs(payload["energy"] - energy),
                  energy, OPTIMIZE_ENERGY_RTOL * energy),
        ]
    if command == "matrix-props":
        trials = int(_flag(argv, "--trials", "1000"))
        _require(payload["violations"] == 0, f"{payload['violations']} violations")
        checks = []
        for suite in payload["suites"]:
            _require(suite["violations"] == 0, f"violations in {suite['name']}")
            # The CLI caps the witness suite at 1000 trials.
            expected = min(trials, 1000) if suite["name"] == "witness_recovery" else trials
            _require(suite["trials"] == expected, f"wrong trial count in {suite['name']}")
            if suite["name"] in SUITE_RESIDUAL_TOL:
                checks.append(Check(f"matrix-props {suite['name']}",
                                    abs(suite["max_residual"]), 1.0,
                                    SUITE_RESIDUAL_TOL[suite["name"]]))
        return checks
    raise ValueError(f"no oracle for command {command!r}")


class Checker:
    """Scores every command run in a benchmark process.

    A command fails when it raises, exits nonzero, prints output the
    oracle rejects, misses a tolerance, or prints output that is not
    byte-identical to its first run in this process.
    """

    def __init__(self) -> None:
        self._first: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.digits = MAX_DIGITS
        self.worst = ""
        self.failures: list[str] = []

    def record(self, index: int, argv: list[str], code: int, text: str,
               error: BaseException | None = None) -> bool:
        """Score one run of command ``index``; returns True when it passed."""
        self.attempted += 1
        problems = []
        if error is not None:
            problems.append(f"raised {error!r}")
        elif code != 0:
            problems.append(f"exit code {code}")
        else:
            try:
                checks = evaluate(argv, text)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"bad output: {exc}")
                checks = []
            for check in checks:
                if check.digits < self.digits:
                    self.digits, self.worst = check.digits, check.label
                if not check.ok:
                    problems.append(f"{check.label}: error {check.error:.3e} > {check.tol:.1e}")
        if self._first.setdefault(index, text) != text:
            problems.append("output differs from the first run")
        if problems:
            self.failed += 1
            self.failures.append(" ".join(argv) + ": " + "; ".join(problems))
        return not problems
