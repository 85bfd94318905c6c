"""Command-line front end.

Every subcommand prints one JSON document to stdout (or a CSV table
with --format csv) and exits 0 when all requested checks pass, 1 when a
mathematical assertion fails (a residual that should vanish does not,
an inequality is violated), and 2 on usage errors such as unknown
example ids. When the reader of stdout goes away early (``| head``) the
command ends quietly with exit code 141, as a shell reports a process
that a broken pipe ends. Commands that produce tables (energy
convergence, surface residual grids, optimizer profiles, property-suite
summaries) also write them as CSV to --out when given. Each command hands :func:`_emit`
its payload and a function that yields its table's rows, and the table is
built only for --format csv or --out: JSON output never pays for it.

Randomized suites derive one child stream per trial from (seed, trial
index), so identical seeds give byte-identical output regardless of how
trials might be scheduled. :func:`run_suite` makes per trial only the
generator calls of that trial's stream, in index order; everything
derived from the raw draws (symmetric matrices, trace-free families,
symmetric tensors, trace splits, equality pairs) is built once per group
of same-shaped trials, checked in one array call.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Optional

import numpy as np

from .catalog import catalog_ids, resolve
from .grids import QuadratureGrid
from .immersion import mobius_apply, random_mobius
from .optimize import (
    TorusFamily,
    _check_samples,
    family_energy,
    family_profile,
    find_critical_radius,
    second_difference,
)
from .tensors import (
    SymTensor3,
    _symmetric_from_unit,
    _trace_free_from_unit,
    _unit_box,
    canonical_pair,
    check_chern_inequality,
    check_li_inequality,
    equality_witness,
    f_tensor_decompose,
    # Not called here: perfbench's tracer patches these two cli names.
    random_symmetric,
    random_trace_free_family,
    trial_rng,
    trial_rngs,
)
from .willmore import (
    conformal_trials,
    el_residual_isoparametric,
    el_residual_surface,
    pinching_integral,
    pinching_threshold,
    willmore_energy,
)

__all__ = ["main", "build_parser", "run_suite", "RunConfig"]

_SLACK_FLOOR = -1e-10
_RESIDUAL_TOL = {"trace_split": 1e-12, "witness_recovery": 1e-10}
_WITNESS_TRIALS = 1000
# Trials drawn before their groups are checked; bounds the memory of the
# stacked draws at any trial count.
_SUITE_CHUNK = 4096
# Exit code when the reader of stdout goes away: 128 + SIGPIPE, what a
# shell reports for a process that a broken pipe ends.
_EXIT_BROKEN_PIPE = 141


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Validated knob set shared by the subcommands."""

    example_id: Optional[str]
    resolution: int
    seed: int
    trials: int
    tolerance: float

    def __post_init__(self) -> None:
        if self.resolution < 8:
            raise UsageError("resolution must be at least 8")
        if self.trials < 1:
            raise UsageError("trials must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise UsageError("seed must fit in 64 unsigned bits")
        if not 0.0 < self.tolerance < np.inf:
            raise UsageError("tolerance must be positive and finite")


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        example_id=getattr(args, "example_id", None),
        resolution=getattr(args, "resolution", 64),
        seed=getattr(args, "seed", 0),
        trials=getattr(args, "trials", 1000),
        tolerance=getattr(args, "tolerance", 1e-8),
    )


def _emit(args: argparse.Namespace, payload: dict, rows: Callable[[], Iterable[list]]) -> None:
    """Print the payload, or the CSV table whose rows ``rows()`` yields.

    The table is built only to be printed (--format csv) or written
    (--out), one row at a time into one text. Both happen before
    anything is printed, so a failure while building the table leaves
    stdout empty, and a path that cannot be written is a usage error.
    """
    out = getattr(args, "out", None)
    text = _csv_text(rows()) if args.format == "csv" or out else None
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out}: {exc.strerror}") from exc
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text, end="")


def _csv_text(rows: Iterable[list]) -> str:
    text = io.StringIO()
    for row in rows:
        text.write(",".join(_cell(v) for v in row) + "\n")
    return text.getvalue()


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fail(message: str) -> int:
    print(f"assertion failed: {message}", file=sys.stderr)
    return 1


def _cmd_catalog(args: argparse.Namespace) -> int:
    ids = catalog_ids()
    payload = {"command": "catalog", "ids": ids}
    _emit(args, payload, lambda: chain([["id"]], ([i] for i in ids)))
    return 0


def _parse_point(text: str, expected: int) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse point {text!r}") from exc
    if len(values) != expected:
        raise UsageError(f"point needs {expected} coordinates, got {len(values)}")
    if not np.all(np.isfinite(values)):
        raise UsageError(f"point coordinates must be finite, got {text!r}")
    return np.array(values)


def _cmd_shape(args: argparse.Namespace) -> int:
    config = _config_from(args)
    entry = resolve(config.example_id)
    patch = entry.patch
    if args.point is None:
        point = patch.safe_center()
    else:
        point = _parse_point(args.point, patch.n)
    sd = patch.exact_shape(point)
    payload = {"id": entry.example_id, "point": [float(v) for v in point]}
    payload.update(sd.to_json_dict())

    def rows():
        yield from [["key", "value"], ["n", sd.n], ["p", sd.p], ["H", sd.mean_norm],
                    ["S", sd.S], ["rho_sq", sd.rho_sq]]
        for a, mat in enumerate(sd.second_fundamental.matrices):
            for (i, j), v in np.ndenumerate(mat.data):
                yield [f"h[{a}][{i}][{j}]", float(v)]

    _emit(args, payload, rows)
    return 0


def _energy_resolutions(top: int) -> list[int]:
    levels = sorted({max(8, top // 4), max(8, top // 2), top})
    return levels


def _cmd_energy(args: argparse.Namespace) -> int:
    config = _config_from(args)
    entry = resolve(config.example_id)
    patch = entry.patch
    levels = _energy_resolutions(config.resolution)
    odd = [res for res in levels if res % 2]
    if patch.fold_axes and odd:
        # Checked here, not by the grid, so that the message names the level.
        raise UsageError(
            f"convergence level {odd[0]} of --resolution {config.resolution} (levels "
            f"{', '.join(map(str, levels))}) is an odd node count on axis {patch.fold_axes[0]}: "
            f"{patch.name} folds at the midpoint of that axis, where an odd count puts a "
            "node; use a multiple of 8, which makes every level even"
        )
    if args.check and len(levels) < 2:
        raise UsageError(
            "--assert compares the two finest convergence levels; "
            "use --resolution 9 or more"
        )
    grids = [QuadratureGrid.for_patch(patch, res) for res in levels]
    table = [(res, willmore_energy(patch, grid)) for res, grid in zip(levels, grids)]
    value = table[-1][1]
    payload = {
        "id": entry.example_id,
        "grid": [config.resolution] * patch.n,
        "value": value,
        "mode": "energy",
        "convergence": [{"resolution": r, "value": v} for r, v in table],
    }
    _emit(args, payload, lambda: chain([["resolution", "value"]], table))
    if args.check:
        drift = abs(table[-1][1] - table[-2][1])
        scale = max(1.0, abs(value))
        if drift > config.tolerance * scale:
            return _fail(
                f"energy drift {drift:.3e} between the two finest grids exceeds "
                f"{config.tolerance:.1e} x {scale:.6g}"
            )
    return 0


def _cmd_el_check(args: argparse.Namespace) -> int:
    config = _config_from(args)
    entry = resolve(config.example_id)
    if args.surface:
        grid = QuadratureGrid.for_patch(entry.patch, config.resolution)
        res = el_residual_surface(entry.patch, grid)
        flat_ok = res.max_norm <= config.tolerance
        payload = {
            "id": entry.example_id,
            "mode": "surface",
            "grid": list(grid.counts),
            "max_residual": res.max_norm,
            "willmore": bool(flat_ok),
        }
        _emit(args, payload, lambda: chain([["i", "j", "residual"]], (
            [i, j, float(v)] for (i, j), v in np.ndenumerate(res.values)
        )))
        if args.check and not flat_ok:
            return _fail(
                f"surface residual {res.max_norm:.3e} exceeds {config.tolerance:.1e}"
            )
        return 0
    residual = el_residual_isoparametric(entry.spec)
    is_willmore = residual.norm <= config.tolerance
    payload = {
        "id": entry.example_id,
        "mode": "isoparametric",
        "values": [float(v) for v in residual.values],
        "norm": residual.norm,
        "scale": residual.scale,
        "willmore": bool(is_willmore),
    }
    _emit(args, payload, lambda: chain([["alpha", "residual"]], (
        [a, float(v)] for a, v in enumerate(residual.values)
    ), [["norm", residual.norm]]))
    if args.check and not is_willmore:
        return _fail(f"residual norm {residual.norm:.3e} exceeds {config.tolerance:.1e}")
    return 0


def _cmd_pinch(args: argparse.Namespace) -> int:
    config = _config_from(args)
    entry = resolve(config.example_id)
    patch = entry.patch
    grid = QuadratureGrid.for_patch(patch, config.resolution)
    value = pinching_integral(patch, grid, mode=args.mode)
    payload = {
        "id": entry.example_id,
        "grid": list(grid.counts),
        "value": value,
        "mode": args.mode,
        "threshold": pinching_threshold(patch.n, patch.p, args.mode),
    }
    _emit(args, payload, lambda: [["key", "value"], ["value", value], ["mode", args.mode]])
    if args.check and value > config.tolerance:
        return _fail(
            f"pinching integral {value:.3e} is positive beyond {config.tolerance:.1e}"
        )
    return 0


def _draw_trial(name: str, rng: np.random.Generator):
    """Group key and raw draws of one trial, in the stream's fixed draw order.

    Only the generator calls run per trial; :func:`_check_group` turns a
    group's raw draws into matrices and tensors. A (k, n, n) draw takes
    the stream of k (n, n) draws, and one size-2 draw that of two scalar
    draws.
    """
    if name == "commutator_bound":
        n = int(rng.integers(2, 7))
        return n, (rng.random((2, n, n)),)
    if name == "witness_recovery":
        n = int(rng.integers(2, 7))
        return n, (rng.uniform(0.2, 2.0, size=2), rng.normal(size=(n, n)))
    n = int(rng.integers(2, 6))
    p = int(rng.integers(1, 4))
    shape = (p, n, n, n) if name == "trace_split" else (p, n, n)
    return (n, p), (rng.random(shape),)


def _check_group(name: str, stacks: list[np.ndarray]) -> np.ndarray:
    """Slack or residual of every trial in one group of stacked draws.

    The raw draws become matrices by the steps of ``random_symmetric``
    and ``random_trace_free_family``, applied to the whole group.
    """
    if name == "commutator_bound":
        pairs = _symmetric_from_unit(stacks[0])
        return check_chern_inequality(pairs[:, 0], pairs[:, 1])
    if name == "family_bound":
        return check_li_inequality(_trace_free_from_unit(stacks[0]))
    if name == "witness_recovery":
        # Conjugate (lam A0, mu B0) by the Q factor of each trial's draw.
        scales, draws = stacks
        a0, b0 = canonical_pair(draws.shape[-1])
        q, _ = np.linalg.qr(draws)
        qt = np.swapaxes(q, -1, -2)
        a = q @ (scales[:, 0, None, None] * a0.data) @ qt
        b = q @ (scales[:, 1, None, None] * b0.data) @ qt
        return equality_witness(a, b)[3]
    p, n = stacks[0].shape[1:3]
    tensor = SymTensor3(n, p, _unit_box(stacks[0]))
    _, _, residual = f_tensor_decompose(tensor)
    return residual / (1.0 + tensor.norm_sq())


def run_suite(name: str, trials: int, seed: int) -> dict:
    """Summary of one randomized suite over ``trials`` seeded trials.

    ``commutator_bound`` and ``family_bound`` report the smallest slack
    of the pair and family bounds; ``trace_split`` the largest scaled
    residual of the 3-tensor trace split, and ``witness_recovery`` the
    largest reconstruction residual of conjugated equality pairs.
    Trial t draws from a generator equal to ``trial_rng(seed, t)``;
    :func:`trial_rngs` builds each chunk's generators from one
    vectorized seed hash, in trial order.
    """
    if name not in ("commutator_bound", "family_bound", "trace_split", "witness_recovery"):
        raise ValueError(f"unknown suite {name!r}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    values = []
    for start in range(0, trials, _SUITE_CHUNK):
        groups: dict = {}
        for rng in trial_rngs(seed, range(start, min(start + _SUITE_CHUNK, trials))):
            key, arrays = _draw_trial(name, rng)
            groups.setdefault(key, []).append(arrays)
        for group in groups.values():
            values.append(_check_group(name, [np.stack(col) for col in zip(*group)]))
    values = np.concatenate(values)
    if name in _RESIDUAL_TOL:
        key, worst = "max_residual", float(values.max())
        violations = np.count_nonzero(values > _RESIDUAL_TOL[name])
    else:
        key, worst = "min_slack", float(values.min())
        violations = np.count_nonzero(values < _SLACK_FLOOR)
    return {"name": name, "trials": trials, key: worst, "violations": int(violations)}


def _cmd_matrix_props(args: argparse.Namespace) -> int:
    config = _config_from(args)
    trials = config.trials
    suites = [
        run_suite("commutator_bound", trials, config.seed),
        run_suite("family_bound", trials, config.seed),
        run_suite("trace_split", trials, config.seed),
        run_suite("witness_recovery", min(trials, _WITNESS_TRIALS), config.seed),
    ]
    total_violations = sum(s["violations"] for s in suites)
    payload = {
        "command": "matrix-props",
        "seed": config.seed,
        "trials": trials,
        "suites": suites,
        "violations": total_violations,
    }

    def rows():
        yield ["suite", "trials", "worst", "violations"]
        for s in suites:
            worst = s.get("min_slack", s.get("max_residual"))
            yield [s["name"], s["trials"], float(worst), s["violations"]]

    _emit(args, payload, rows)
    if total_violations:
        return _fail(f"{total_violations} randomized trials violated a bound")
    return 0


def _cmd_conformal_test(args: argparse.Namespace) -> int:
    config = _config_from(args)
    if args.maps < 0:
        raise UsageError("maps must be nonnegative")
    if args.check and args.maps == 0:
        raise UsageError("--assert needs at least one conformal map; use --maps 1 or more")
    entry = resolve(config.example_id)
    patch = entry.patch
    grid = QuadratureGrid.for_patch(patch, config.resolution)
    base = willmore_energy(patch, grid)
    # Drift relative to the base energy, absolute below 1: the energies of
    # umbilic charts are roundoff, and relative to them so is everything.
    scale = max(1.0, abs(base))
    trials = conformal_trials(
        patch, grid, args.maps, config.seed,
        trial_rng=trial_rng, random_mobius=random_mobius, mobius_apply=mobius_apply,
    )
    reports = [
        {"trial": trial, "value": value, "drift": abs(value - base) / scale}
        for trial, value in trials
    ]
    max_drift = max((r["drift"] for r in reports), default=0.0)
    payload = {
        "id": entry.example_id,
        "grid": list(grid.counts),
        "base": base,
        "maps": reports,
        "max_drift": max_drift,
        "mode": "conformal",
    }
    _emit(args, payload, lambda: chain([["map", "energy", "drift"], ["base", base, 0.0]], (
        [r["trial"], r["value"], r["drift"]] for r in reports
    )))
    if len(reports) < args.maps:
        print("error: could not draw enough pole-safe maps", file=sys.stderr)
        return 2
    if args.check and max_drift > config.tolerance:
        return _fail(f"energy drift {max_drift:.3e} exceeds {config.tolerance:.1e}")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    config = _config_from(args)
    fam = TorusFamily(args.m, args.n)
    radius = find_critical_radius(fam)
    balanced = fam.balanced_radius
    payload = {
        "m": fam.m,
        "n": fam.n,
        "critical_radius": radius,
        "balanced_radius": balanced,
        "difference": abs(radius - balanced),
        "energy": family_energy(fam, radius),
        "second_difference": second_difference(fam, radius),
        "mode": "optimize",
    }
    # family_profile checks this too, but JSON output never calls it.
    _check_samples(args.samples)
    _emit(args, payload, lambda: chain([["r", "energy", "derivative"]], (
        [float(r), float(w), float(dw)] for r, w, dw in family_profile(fam, samples=args.samples)
    )))
    if args.check and abs(radius - balanced) > config.tolerance:
        return _fail(
            f"critical radius {radius!r} differs from the balanced radius "
            f"{balanced!r} by more than {config.tolerance:.1e}"
        )
    return 0


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json",
                     help="stdout payload format")
    sub.add_argument("--out", default=None,
                     help="also write the command's CSV table to this path")


def _add_check_flags(sub: argparse.ArgumentParser, tolerance: float, bound: str) -> None:
    sub.add_argument("--tolerance", type=float, default=tolerance,
                     help=f"--assert bound on {bound} (default %(default)s)")
    sub.add_argument("--assert", dest="check", action="store_true",
                     help="turn expected-value checks into exit-code failures")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="willmorelab",
        description="Numerical laboratory for curvature functionals of "
        "submanifolds of the round sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser("catalog", help="list example ids")
    p_catalog.set_defaults(handler=_cmd_catalog)
    _add_output_flags(p_catalog)

    p_shape = sub.add_parser("shape", help="shape data at a chart point")
    p_shape.set_defaults(handler=_cmd_shape)
    p_shape.add_argument("example_id")
    p_shape.add_argument("--point", default=None,
                         help="comma-separated chart coordinates")
    _add_output_flags(p_shape)

    p_energy = sub.add_parser("energy", help="bending energy with a convergence table")
    p_energy.set_defaults(handler=_cmd_energy)
    p_energy.add_argument("example_id")
    p_energy.add_argument("--resolution", type=int, default=128)
    _add_check_flags(p_energy, 1e-6, "the drift of the two finest levels over max(1, |value|)")
    _add_output_flags(p_energy)

    p_el = sub.add_parser("el-check", help="critical-point residual")
    p_el.set_defaults(handler=_cmd_el_check)
    p_el.add_argument("example_id")
    p_el.add_argument("--surface", action="store_true",
                      help="pointwise surface residual on a periodic grid "
                      "instead of the constant-shape residual")
    p_el.add_argument("--resolution", type=int, default=64)
    _add_check_flags(p_el, 1e-10, "the residual")
    _add_output_flags(p_el)

    p_pinch = sub.add_parser("pinch", help="threshold-weighted pinching integral")
    p_pinch.set_defaults(handler=_cmd_pinch)
    p_pinch.add_argument("example_id")
    p_pinch.add_argument("--mode", choices=("simons", "li"), default="simons")
    p_pinch.add_argument("--resolution", type=int, default=64)
    _add_check_flags(p_pinch, 1e-8, "the integral")
    _add_output_flags(p_pinch)

    p_props = sub.add_parser("matrix-props", help="randomized inequality suites")
    p_props.set_defaults(handler=_cmd_matrix_props)
    p_props.add_argument("--trials", type=int, default=1000)
    p_props.add_argument("--seed", type=int, default=0)
    _add_output_flags(p_props)

    p_conf = sub.add_parser("conformal-test",
                            help="energy drift under random conformal maps")
    p_conf.set_defaults(handler=_cmd_conformal_test)
    p_conf.add_argument("example_id")
    p_conf.add_argument("--maps", type=int, default=10)
    p_conf.add_argument("--resolution", type=int, default=128)
    p_conf.add_argument("--seed", type=int, default=0)
    _add_check_flags(p_conf, 1e-3, "the energy drift over max(1, |base|)")
    _add_output_flags(p_conf)

    p_opt = sub.add_parser("optimize", help="critical radius of the torus family")
    p_opt.set_defaults(handler=_cmd_optimize)
    p_opt.add_argument("m", type=int)
    p_opt.add_argument("n", type=int)
    p_opt.add_argument("--samples", type=int, default=200,
                       help="rows in the CSV profile")
    _add_check_flags(p_opt, 1e-6, "|critical - balanced radius|")
    _add_output_flags(p_opt)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call, not at import, and reused: building the
    # tree costs more than many commands, and parsing leaves it unchanged.
    return build_parser()


def _drop_stdout() -> None:
    """Point the stdout descriptor at devnull, when stdout has one.

    After the reader of a pipe has gone, the interpreter's last flush of
    stdout would fail again. A stdout without a descriptor (a StringIO,
    as when ``main`` runs in-process) is left alone.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early (``| head``): nothing left to say.
        _drop_stdout()
        return _EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
