"""Synthetic proliferating-cell populations for benchmark corpora.

Cells move in 3-D by run-and-tumble (straight runs at constant speed broken
by short random reorientation bursts), grow from a gamma-distributed initial
radius to twice that radius over a gamma-distributed lifespan, and divide at
the end of life unless the population limit has been reached, in which case
they die. Each track is a T x 23 feature matrix: seven motion/growth columns
plus sixteen uniform-noise columns that carry no class signal.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_NOISE = 16
FEATURE_NAMES = ("dx", "dy", "dz", "speed", "turn_angle", "radius", "radius_rate") + tuple(
    f"noise{i:02d}" for i in range(N_NOISE)
)

# The model's fixed values: lifespans are Gamma(50, 10) samples, initial radii
# Gamma(200, 0.05). Runs and tumbles last exponentially many samples with the
# given means; a run steps RUN_SPEED along one random direction, a tumble
# jitters isotropically at TUMBLE_STEP_SCALE times the run speed.
LIFESPAN_SHAPE, LIFESPAN_SCALE = 50.0, 10.0
R0_SHAPE, R0_SCALE = 200.0, 0.05
RUN_SPEED = 1.0
RUN_DURATION_MEAN = 10.0
TUMBLE_DURATION_MEAN = 2.0
TUMBLE_STEP_SCALE = 0.2
# A T x 23 float64 track of 2**20 samples is 184 MiB, under ingest's 2**28 bytes.
MAX_TRACK_LEN = 2**20


@dataclass(frozen=True)
class CellModelParams:
    """The settings of one simulated population.

    ``upsilon`` is the growth exponent of ``cell_radius``. Each track has
    between ``track_len_range`` samples, inclusive; ``population_limit``
    defaults to the requested cell count when unset.
    """

    upsilon: float
    population_limit: int | None = None
    track_len_range: tuple[int, int] = (228, 280)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.upsilon < math.inf:
            raise ValueError(f"upsilon must be positive and finite, got {self.upsilon}")
        if self.population_limit is not None and self.population_limit < 1:
            raise ValueError(f"population_limit must be >= 1, got {self.population_limit}")
        lo, hi = self.track_len_range
        if not 2 <= lo <= hi <= MAX_TRACK_LEN:
            raise ValueError(
                f"track_len_range must satisfy 2 <= lo <= hi <= {MAX_TRACK_LEN}, got {lo} {hi}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        """The manifest's ``params``: these settings and the model's fixed values."""
        return {
            "upsilon": self.upsilon,
            "lifespan_shape": LIFESPAN_SHAPE,
            "lifespan_scale": LIFESPAN_SCALE,
            "r0_shape": R0_SHAPE,
            "r0_scale": R0_SCALE,
            "population_limit": self.population_limit,
            "run_speed": RUN_SPEED,
            "run_duration_mean": RUN_DURATION_MEAN,
            "tumble_duration_mean": TUMBLE_DURATION_MEAN,
            "tumble_step_scale": TUMBLE_STEP_SCALE,
            "track_len_range": list(self.track_len_range),
            "seed": self.seed,
        }


@dataclass(frozen=True, eq=False)
class CellTrack:
    index: int
    birth_time: float
    lifespan: float
    fate: str  # "divided" | "apoptosis"
    features: np.ndarray  # (T, 23)


def cell_radius(t: float | np.ndarray, t0: float, r0: float, lifespan: float, upsilon: float):
    """Radius at time t (a float or an array) of a cell born at t0; doubles by the end of life.

    A sample time ``t0 + lifespan * i / (T - 1)`` can round up to 3 ulps past
    the end of life, so the end is checked with a slack of 4 ulps.
    """
    end = t0 + lifespan
    if not np.all((t0 <= t) & (t <= end + 4 * np.spacing(abs(end)))):
        raise ValueError(f"t={t} outside the cell's lifespan [{t0}, {end}]")
    return r0 + r0 * ((t - t0) / lifespan) ** upsilon


def _cell_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _unit_vector(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            return v / norm


def _run_and_tumble(
    rng: np.random.Generator,
    n_steps: int,
    run_mean: float,
    tumble_mean: float,
    speed: float,
    jitter: float,
) -> np.ndarray:
    """Positions over n_steps samples from the origin; see the model's fixed values.

    Bit-identical to stepping one sample at a time (``cur = cur + step``):
    a segment of ``k = min(length, samples left)`` samples draws its tumble
    jitter as one ``rng.normal(size=(k, 3))``, the same normals in the same
    order as k draws of size 3, and ``np.cumsum`` adds the steps sequentially
    from the zero first row, exactly as the running sum does.
    """
    steps = np.zeros((n_steps, 3))
    i = 1
    while i < n_steps:
        run_len = max(1, int(round(rng.exponential(run_mean))))
        direction = _unit_vector(rng)
        k = min(run_len, n_steps - i)
        steps[i : i + k] = speed * direction
        i += k
        if i >= n_steps:
            break
        tumble_len = max(1, int(round(rng.exponential(tumble_mean))))
        k = min(tumble_len, n_steps - i)
        steps[i : i + k] = speed * jitter * rng.normal(size=(k, 3))
        i += k
    return np.cumsum(steps, axis=0)


def _turn_angles(deltas: np.ndarray) -> np.ndarray:
    """Angle between consecutive displacements; 0 at t < 2 or where either is ~zero.

    Bit-identical to taking ``np.dot`` and ``np.linalg.norm`` row by row:
    the stacked ``(T,1,3) @ (T,3,1)`` products call the same BLAS dot on the
    same rows (a sum of products or ``einsum`` adds in another order and
    changes last bits), and clip and arccos act elementwise.
    """
    rows, cols = deltas[:, None, :], deltas[:, :, None]
    norms = np.sqrt((rows @ cols).ravel())
    dots = (rows[1:-1] @ cols[2:]).ravel()
    na, nb = norms[1:-1], norms[2:]
    moving = (na > 1e-12) & (nb > 1e-12)
    angles = np.zeros(len(deltas))
    cosines = np.clip(dots[moving] / (na[moving] * nb[moving]), -1.0, 1.0)
    angles[2:][moving] = np.arccos(cosines)
    return angles


def _make_features(
    rng: np.random.Generator, t0: float, lifespan: float, r0: float, p: CellModelParams
) -> np.ndarray:
    lo, hi = p.track_len_range
    n_steps = int(rng.integers(lo, hi + 1))
    # upsilon enters only the deterministic radius computation below, so the
    # noise columns are byte-identical across growth exponents for one seed.
    pos = _run_and_tumble(
        rng, n_steps, RUN_DURATION_MEAN, TUMBLE_DURATION_MEAN, RUN_SPEED, TUMBLE_STEP_SCALE
    )
    noise = rng.random((n_steps, N_NOISE))
    deltas = np.diff(pos, axis=0, prepend=pos[:1])
    speed = np.linalg.norm(deltas, axis=1)
    turn = _turn_angles(deltas)
    times = t0 + lifespan * np.arange(n_steps) / (n_steps - 1)
    radius = cell_radius(times, t0, r0, lifespan, p.upsilon)
    radius_rate = np.diff(radius, prepend=radius[:1])
    modeled = np.column_stack([deltas, speed, turn, radius, radius_rate])
    return np.column_stack([modeled, noise])


def simulate_population(params: CellModelParams, n_cells: int) -> list[CellTrack]:
    """The first ``n_cells`` cells of a lineage, in the order they were born.

    Division spawns two children at the parent's death time; once creating
    two more cells would exceed the population limit, dying cells apoptose
    instead. If a lineage burns out before reaching the requested count, a
    fresh root is seeded at the current simulation time. The simulation
    stops once each of the first ``n_cells`` cells has divided or died.
    Every cell draws from its own substream keyed by (seed, index), so
    output is reproducible and independent of evaluation order.
    """
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    limit = params.population_limit if params.population_limit is not None else n_cells
    tracks: list[CellTrack] = []
    # A living cell is (death time, index, birth time, lifespan, features);
    # indices are unique, so the heap never compares past them.
    alive: list[tuple[float, int, float, float, np.ndarray]] = []
    created = 0
    now = 0.0

    def spawn(t0: float) -> None:
        nonlocal created
        rng = _cell_rng(params.seed, created)
        lifespan = float(rng.gamma(LIFESPAN_SHAPE, LIFESPAN_SCALE))
        r0 = float(rng.gamma(R0_SHAPE, R0_SCALE))
        features = _make_features(rng, t0, lifespan, r0, params)
        heapq.heappush(alive, (t0 + lifespan, created, t0, lifespan, features))
        created += 1

    while len(tracks) < n_cells:
        if not alive:
            spawn(now)  # lineage extinct before reaching the requested count
            continue
        now, index, t0, lifespan, features = heapq.heappop(alive)
        divides = created + 2 <= limit
        if index < n_cells:
            fate = "divided" if divides else "apoptosis"
            tracks.append(CellTrack(index, t0, lifespan, fate, features))
        if divides:
            spawn(now)
            spawn(now)
    return sorted(tracks, key=lambda track: track.index)


def write_population(
    tracks: list[CellTrack], out_dir: str | Path, params: CellModelParams
) -> dict:
    """One CSV per cell plus a manifest; returns the manifest dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = ",".join(FEATURE_NAMES)
    cells = []
    for track in tracks:
        filename = f"cell_{track.index:04d}.csv"
        np.savetxt(
            out / filename, track.features, fmt="%.6f", delimiter=",", header=header, comments=""
        )
        cells.append(
            {
                "index": track.index,
                "file": filename,
                "birth_time": track.birth_time,
                "lifespan": track.lifespan,
                "fate": track.fate,
                "length": int(track.features.shape[0]),
            }
        )
    manifest = {
        "params": params.to_dict(),
        "n_cells": len(tracks),
        "feature_names": list(FEATURE_NAMES),
        "cells": cells,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest
