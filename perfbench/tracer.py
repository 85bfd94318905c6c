"""Outside-in tracing of willmorelab's layers.

Nothing in the library is instrumented. :func:`install` replaces the
public names where ``cli``, ``willmore`` and ``immersion`` look them up
with timing wrappers, wraps the ``exact_jet`` and ``evaluator`` of every
patch that ``resolve`` returns and the evaluator of every patch that
``mobius_apply`` returns, and wraps ``SymmetricMatrix`` construction and
``jacobi_eigen``. :meth:`Tracer.uninstall` puts every original back.

Each span records its caller's span name, so time is aggregated per
(parent, name) pair in memory: calls, total seconds and self seconds
(the span minus the time its child spans cover). Counts are exact.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import defaultdict

import numpy as np

from willmorelab import catalog, cli, grids, immersion, linalg, optimize, tensors, willmore

# Per-layer metrics derived from one traced pass, with their units.
LAYER_METRICS = {
    "cli.self_s": "s",
    "grids.build_s": "s",
    "grids.nodes": "count",
    "catalog.resolve_s": "s",
    "catalog.jet_s": "s",
    "catalog.jet_points": "count",
    "catalog.jet_peak_mb": "MiB",
    "catalog.eval_s": "s",
    "catalog.eval_points": "count",
    "immersion.shape_batch_s": "s",
    "immersion.shape_batch_calls": "count",
    "immersion.shape_batch_points": "count",
    "immersion.mobius_s": "s",
    "immersion.mobius_accept_ratio": "ratio",
    "immersion.laplace_s": "s",
    "willmore.energy_s": "s",
    "willmore.pinch_s": "s",
    "willmore.surface_s": "s",
    "willmore.iso_s": "s",
    "tensors.draw_s": "s",
    "tensors.check_s": "s",
    "tensors.calls": "count",
    "linalg.sym_s": "s",
    "linalg.sym_count": "count",
    "linalg.eigen_s": "s",
    "linalg.eigen_calls": "count",
    "optimize.radius_s": "s",
    "optimize.profile_s": "s",
    "optimize.energy_evals": "count",
}


def _rows(points) -> int:
    """Number of chart points in an (..., n) array."""
    return int(np.prod(np.shape(points)[:-1]))


class Tracer:
    """In-memory span and counter aggregation for one process."""

    def __init__(self) -> None:
        self.spans: dict[tuple[str, str], list] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, before=None, after=None):
        """Time ``fn`` as span ``name``.

        ``before(args)`` runs ahead of the call, for counting;
        ``after(result, args)`` runs after a call that returned and gives
        the value handed back to the caller.
        """
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                parent = stack[-1][0] if stack else ""
                if stack:
                    stack[-1][1] += elapsed
                record = spans.get((parent, name))
                if record is None:
                    record = spans[(parent, name)] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            return result if after is None else after(result, args)

        return traced

    def counter(self, name, fn):
        """Count calls of ``fn`` without timing them."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def drain(self):
        """Return (spans, counts, peaks) gathered so far and start afresh."""
        taken = (self.spans.copy(), dict(self.counts), dict(self.peaks))
        self.spans.clear()
        self.counts.clear()
        self.peaks.clear()
        return taken


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of willmorelab for ``tracer``."""
    t = tracer
    counts = t.counts
    peaks = t.peaks

    def count_rows(key, position):
        def before(args):
            counts[key] += _rows(args[position])
        return before

    def record_jet(jet, args):
        peaks["catalog.jet_peak_mb"] = max(
            peaks["catalog.jet_peak_mb"], max(np.asarray(a).nbytes for a in jet) / 2**20
        )
        return jet

    def traced_patch(patch):
        fields = {"evaluator": t.wrap("catalog.eval", patch.evaluator,
                                      before=count_rows("catalog.eval_points", 0))}
        if patch.exact_jet is not None:
            fields["exact_jet"] = t.wrap("catalog.jet", patch.exact_jet,
                                         before=count_rows("catalog.jet_points", 0),
                                         after=record_jet)
        return dataclasses.replace(patch, **fields)

    def traced_entry(entry, args):
        return dataclasses.replace(entry, patch=traced_patch(entry.patch))

    def traced_image(patch, args):
        return dataclasses.replace(patch, evaluator=t.wrap("immersion.mobius", patch.evaluator))

    def count_accepted(value, args):
        # The CLI keeps a map once the energy of its image is computed.
        if args[0].name.startswith("mobius"):
            counts["immersion.mobius_accepted"] += 1
        return value

    def count_new_nodes(args):
        grid = args[0]
        if "_points" not in grid.__dict__:
            counts["grids.nodes"] += grid.node_total

    def count_draw(args):
        counts["immersion.mobius_draws"] += 1

    # cli -> catalog
    t.patch(cli, "resolve", t.wrap("catalog.resolve", cli.resolve, after=traced_entry))

    # grids: building a grid and materialising its nodes and weights
    grid_cls = grids.QuadratureGrid
    for_patch = grid_cls.__dict__["for_patch"].__func__
    t.patch(grid_cls, "for_patch", classmethod(t.wrap("grids.build", for_patch)))
    t.patch(grid_cls, "points", t.wrap("grids.build", grid_cls.points, before=count_new_nodes))
    t.patch(grid_cls, "weights", t.wrap("grids.build", grid_cls.weights))

    # cli -> willmore
    t.patch(cli, "willmore_energy",
            t.wrap("willmore.energy", cli.willmore_energy, after=count_accepted))
    t.patch(cli, "pinching_integral", t.wrap("willmore.pinch", cli.pinching_integral))
    t.patch(cli, "el_residual_surface", t.wrap("willmore.surface", cli.el_residual_surface))
    t.patch(cli, "el_residual_isoparametric",
            t.wrap("willmore.iso", cli.el_residual_isoparametric))

    # willmore and immersion -> the shape pipeline
    for owner in (willmore, immersion):
        t.patch(owner, "shape_batch",
                t.wrap("immersion.shape_batch", owner.shape_batch,
                       before=count_rows("immersion.shape_batch_points", 1)))
    t.patch(willmore, "laplace_beltrami", t.wrap("immersion.laplace", willmore.laplace_beltrami))

    # cli -> conformal maps
    t.patch(cli, "random_mobius", t.wrap("immersion.mobius", cli.random_mobius, before=count_draw))
    t.patch(cli, "mobius_apply", t.wrap("immersion.mobius", cli.mobius_apply, after=traced_image))

    # cli -> tensors
    for attr in ("trial_rng", "random_symmetric", "random_trace_free_family",
                 "SymTensor3", "canonical_pair"):
        t.patch(cli, attr, t.wrap("tensors.draw", getattr(cli, attr)))
    for attr in ("check_chern_inequality", "check_li_inequality",
                 "f_tensor_decompose", "equality_witness"):
        t.patch(cli, attr, t.wrap("tensors.check", getattr(cli, attr)))

    # linalg, wherever it is reached from
    sym = linalg.SymmetricMatrix
    t.patch(sym, "__post_init__", t.wrap("linalg.sym", sym.__post_init__))
    for owner in (linalg, tensors, catalog):
        t.patch(owner, "jacobi_eigen", t.wrap("linalg.eigen", owner.jacobi_eigen))

    # cli -> optimize
    t.patch(cli, "find_critical_radius", t.wrap("optimize.radius", cli.find_critical_radius))
    for attr in ("family_profile", "second_difference"):
        t.patch(cli, attr, t.wrap("optimize.profile", getattr(cli, attr)))
    t.patch(cli, "family_energy",
            t.wrap("optimize.profile", t.counter("optimize.energy_evals", cli.family_energy)))
    t.patch(optimize, "family_energy", t.counter("optimize.energy_evals", optimize.family_energy))


def layer_metrics(spans, counts, peaks) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (_, name), (n, _, self_s) in spans.items():
        own[name] += self_s
        calls[name] += n
    draws = counts.get("immersion.mobius_draws", 0)
    return {
        "cli.self_s": own["cli"],
        "grids.build_s": own["grids.build"],
        "grids.nodes": counts.get("grids.nodes", 0),
        "catalog.resolve_s": own["catalog.resolve"],
        "catalog.jet_s": own["catalog.jet"],
        "catalog.jet_points": counts.get("catalog.jet_points", 0),
        "catalog.jet_peak_mb": peaks.get("catalog.jet_peak_mb", 0.0),
        "catalog.eval_s": own["catalog.eval"],
        "catalog.eval_points": counts.get("catalog.eval_points", 0),
        "immersion.shape_batch_s": own["immersion.shape_batch"],
        "immersion.shape_batch_calls": calls["immersion.shape_batch"],
        "immersion.shape_batch_points": counts.get("immersion.shape_batch_points", 0),
        "immersion.mobius_s": own["immersion.mobius"],
        "immersion.mobius_accept_ratio": (
            counts.get("immersion.mobius_accepted", 0) / draws if draws else 0.0
        ),
        "immersion.laplace_s": own["immersion.laplace"],
        "willmore.energy_s": own["willmore.energy"],
        "willmore.pinch_s": own["willmore.pinch"],
        "willmore.surface_s": own["willmore.surface"],
        "willmore.iso_s": own["willmore.iso"],
        "tensors.draw_s": own["tensors.draw"],
        "tensors.check_s": own["tensors.check"],
        "tensors.calls": calls["tensors.draw"] + calls["tensors.check"],
        "linalg.sym_s": own["linalg.sym"],
        "linalg.sym_count": calls["linalg.sym"],
        "linalg.eigen_s": own["linalg.eigen"],
        "linalg.eigen_calls": calls["linalg.eigen"],
        "optimize.radius_s": own["optimize.radius"],
        "optimize.profile_s": own["optimize.profile"],
        "optimize.energy_evals": counts.get("optimize.energy_evals", 0),
    }
