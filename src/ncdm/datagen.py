"""Synthetic proliferating-cell populations for benchmark corpora.

Cells move in 3-D by run-and-tumble (straight runs at constant speed broken
by short random reorientation bursts), grow from a gamma-distributed initial
radius to twice that radius over a gamma-distributed lifespan, and divide at
the end of life unless the population limit has been reached, in which case
they die. Each track is a T x 23 feature matrix: seven motion/growth columns
plus sixteen uniform-noise columns that carry no class signal.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FEATURE_NAMES = (
    "dx",
    "dy",
    "dz",
    "speed",
    "turn_angle",
    "radius",
    "radius_rate",
) + tuple(f"noise{i:02d}" for i in range(16))

N_FEATURES = len(FEATURE_NAMES)  # 23
N_NOISE = 16


@dataclass(frozen=True)
class CellModelParams:
    """Model constants; lifespans are Gamma(50, 10), initial radii Gamma(200, 0.05).

    ``upsilon`` is the growth exponent: the radius is
    r0 + r0 * ((t - t0) / lifespan) ** upsilon, doubling at end of life.
    Kinematics are expressed in samples: run/tumble durations are exponential
    with the given means, runs advance ``run_speed`` per sample along a fixed
    random direction, tumbles jitter isotropically at ``tumble_step_scale``
    times the run speed. ``population_limit`` defaults to the requested cell
    count when unset.
    """

    upsilon: float
    lifespan_shape: float = 50.0
    lifespan_scale: float = 10.0
    r0_shape: float = 200.0
    r0_scale: float = 0.05
    population_limit: int | None = None
    run_speed: float = 1.0
    run_duration_mean: float = 10.0
    tumble_duration_mean: float = 2.0
    tumble_step_scale: float = 0.2
    track_len_range: tuple[int, int] = (228, 280)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("lifespan_shape", "lifespan_scale", "r0_shape", "r0_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.upsilon <= 0:
            raise ValueError("upsilon must be > 0")
        lo, hi = self.track_len_range
        if not 2 <= lo <= hi:
            raise ValueError("track_len_range must satisfy 2 <= lo <= hi")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["track_len_range"] = list(self.track_len_range)
        return d


@dataclass(frozen=True, eq=False)
class CellTrack:
    index: int
    birth_time: float
    lifespan: float
    fate: str  # "divided" | "apoptosis"
    features: np.ndarray  # (T, 23)


def cell_radius(t: float, t0: float, r0: float, lifespan: float, upsilon: float) -> float:
    """Radius at time t of a cell born at t0; doubles by the end of its lifespan."""
    if not t0 <= t <= t0 + lifespan:
        raise ValueError(
            f"t={t} outside the cell's lifespan [{t0}, {t0 + lifespan}]"
        )
    return r0 + r0 * ((t - t0) / lifespan) ** upsilon


def _cell_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _unit_vector(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            return v / norm


def _run_and_tumble(rng: np.random.Generator, n_steps: int, p: CellModelParams) -> np.ndarray:
    """Positions over n_steps samples, starting at the origin.

    Bit-identical to stepping one sample at a time (``cur = cur + step``):
    a segment of ``k = min(length, samples left)`` samples draws its tumble
    jitter as one ``rng.normal(size=(k, 3))``, the same normals in the same
    order as k draws of size 3, and ``np.cumsum`` adds the steps sequentially
    from the zero first row, exactly as the running sum does.
    """
    steps = np.zeros((n_steps, 3))
    i = 1
    while i < n_steps:
        run_len = max(1, int(round(rng.exponential(p.run_duration_mean))))
        direction = _unit_vector(rng)
        k = min(run_len, n_steps - i)
        steps[i : i + k] = p.run_speed * direction
        i += k
        if i >= n_steps:
            break
        tumble_len = max(1, int(round(rng.exponential(p.tumble_duration_mean))))
        k = min(tumble_len, n_steps - i)
        steps[i : i + k] = p.run_speed * p.tumble_step_scale * rng.normal(size=(k, 3))
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
    pos = _run_and_tumble(rng, n_steps, p)
    noise = rng.random((n_steps, N_NOISE))
    deltas = np.diff(pos, axis=0, prepend=pos[:1])
    speed = np.linalg.norm(deltas, axis=1)
    turn = _turn_angles(deltas)
    times = t0 + lifespan * np.arange(n_steps) / (n_steps - 1)
    radius = r0 + r0 * ((times - t0) / lifespan) ** p.upsilon
    radius_rate = np.diff(radius, prepend=radius[:1])
    modeled = np.column_stack([deltas, speed, turn, radius, radius_rate])
    return np.column_stack([modeled, noise])


def simulate_population(params: CellModelParams, n_cells: int) -> list[CellTrack]:
    """Simulate a lineage until at least ``n_cells`` tracks exist.

    Division spawns two children at the parent's death time; once creating
    two more cells would exceed the population limit, dying cells apoptose
    instead. If a lineage burns out before reaching the requested count, a
    fresh root is seeded at the current simulation time. Every cell draws
    from its own substream keyed by (seed, index), so output is reproducible
    and independent of evaluation order.
    """
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    limit = params.population_limit if params.population_limit is not None else n_cells
    if limit < 1:
        raise ValueError("population_limit must be >= 1")

    births: dict[int, float] = {}
    lifespans: dict[int, float] = {}
    features: dict[int, np.ndarray] = {}
    fates: dict[int, str] = {}
    created = 0
    now = 0.0
    queue: list[tuple[float, int]] = []

    def spawn(t0: float) -> None:
        nonlocal created
        index = created
        created += 1
        rng = _cell_rng(params.seed, index)
        lifespan = float(rng.gamma(params.lifespan_shape, params.lifespan_scale))
        r0 = float(rng.gamma(params.r0_shape, params.r0_scale))
        births[index] = t0
        lifespans[index] = lifespan
        features[index] = _make_features(rng, t0, lifespan, r0, params)
        heapq.heappush(queue, (t0 + lifespan, index))

    spawn(0.0)
    while created < n_cells or queue:
        if not queue:
            spawn(now)  # lineage extinct before reaching the requested count
            continue
        death_time, index = heapq.heappop(queue)
        now = death_time
        if created + 2 <= limit:
            fates[index] = "divided"
            spawn(death_time)
            spawn(death_time)
        else:
            fates[index] = "apoptosis"

    return [
        CellTrack(
            index=i,
            birth_time=births[i],
            lifespan=lifespans[i],
            fate=fates[i],
            features=features[i],
        )
        for i in range(min(created, n_cells))
    ]


def write_population(
    tracks: list[CellTrack], out_dir: str | Path, params: CellModelParams
) -> dict:
    """One CSV per cell plus a manifest; returns the manifest dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = []
    for track in tracks:
        filename = f"cell_{track.index:04d}.csv"
        header = ",".join(FEATURE_NAMES)
        np.savetxt(
            out / filename,
            track.features,
            fmt="%.6f",
            delimiter=",",
            header=header,
            comments="",
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
