"""Discrete environment: maps, cases, local observations, communication graph.

Coordinate convention: x grows rightward, y grows downward. Cells are (x, y)
integer pairs. Actions are indexed (idle, up, left, down, right) with unit
offsets (0,0), (0,-1), (-1,0), (0,+1), (+1,0).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleCase, OutOfBounds

Cell = tuple[int, int]

ACTION_NAMES = ("idle", "up", "left", "down", "right")
ACTION_OFFSETS = ((0, 0), (0, -1), (-1, 0), (0, 1), (1, 0))
NUM_ACTIONS = len(ACTION_OFFSETS)
IDLE = 0

# reverse lookup used when turning expert paths into action labels
OFFSET_TO_ACTION = {off: i for i, off in enumerate(ACTION_OFFSETS)}

DEFAULT_FOV_RADIUS = 4
DEFAULT_COMM_RADIUS = 5.0

# bounded retry budget for rejection sampling in generate_case
_CASE_RETRIES = 2000


@dataclass(frozen=True)
class GridMap:
    """Static occupancy world of width x height cells."""

    width: int
    height: int
    obstacles: frozenset[Cell]
    density: float = 0.0
    seed: int | None = None

    def in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def is_free(self, cell: Cell) -> bool:
        return self.in_bounds(cell) and cell not in self.obstacles

    def free_cells(self) -> list[Cell]:
        """All free cells in row-major (y, then x) order."""
        return [
            (x, y)
            for y in range(self.height)
            for x in range(self.width)
            if (x, y) not in self.obstacles
        ]

    def neighbors(self, cell: Cell) -> list[Cell]:
        """Free 4-connected neighbors of a free cell."""
        x, y = cell
        out = []
        for dx, dy in ((0, -1), (-1, 0), (0, 1), (1, 0)):
            nxt = (x + dx, y + dy)
            if self.is_free(nxt):
                out.append(nxt)
        return out


@dataclass(frozen=True)
class Case:
    """One problem instance: per-robot start and goal cells on a map."""

    map_id: str
    starts: tuple[Cell, ...]
    goals: tuple[Cell, ...]

    @property
    def num_robots(self) -> int:
        return len(self.starts)


@dataclass(frozen=True)
class LocalObservation:
    """3-channel binary window centered on one robot.

    Channel 0: obstacles (cells beyond the map border count as obstacles).
    Channel 1: goal position, clamped componentwise into the window.
    Channel 2: self at the center plus any other robot inside the window.
    """

    channels: np.ndarray
    fov_radius: int

    @property
    def window(self) -> int:
        return 2 * self.fov_radius + 1


@dataclass(frozen=True)
class Gso:
    """Normalized communication adjacency over the team at one instant."""

    matrix: np.ndarray
    comm_radius: float


@dataclass(frozen=True)
class DensitySpec:
    """Effective density beta = (robots + obstacles) / area for an instance."""

    num_robots: int
    obstacle_density: float
    width: int
    height: int

    @property
    def num_obstacles(self) -> int:
        return math.floor(self.obstacle_density * self.width * self.height)

    @property
    def effective_density(self) -> float:
        area = self.width * self.height
        return (self.num_robots + self.num_obstacles) / area

    def scaled_to(self, num_robots: int) -> "DensitySpec":
        """Square world for a new team size holding effective density fixed.

        Picks the side length whose realized beta is closest to this spec's;
        the residual is bounded by the 1/(W*H) obstacle-count rounding.
        """
        beta = self.effective_density
        rho = self.obstacle_density
        if beta <= rho:
            raise ValueError("effective density must exceed obstacle density")
        side = math.sqrt(num_robots / (beta - rho))
        best = None
        for cand in {max(2, math.floor(side)), math.ceil(side)}:
            spec = DensitySpec(num_robots, rho, cand, cand)
            err = abs(spec.effective_density - beta)
            if best is None or err < best[0]:
                best = (err, spec)
        return best[1]


def generate_map(width: int, height: int, density: float, seed: int) -> GridMap:
    """Random map with floor(density * area) obstacles, uniform without replacement."""
    if width < 2 or height < 2:
        raise ValueError("map must be at least 2x2")
    if not 0.0 <= density < 1.0:
        raise ValueError("density must lie in [0, 1)")
    area = width * height
    n_obs = math.floor(density * area)
    rng = np.random.default_rng(seed)
    picks = rng.choice(area, size=n_obs, replace=False) if n_obs else []
    obstacles = frozenset((int(i) % width, int(i) // width) for i in picks)
    return GridMap(width, height, obstacles, density=density, seed=seed)


def _reachable(grid: GridMap, start: Cell, goal: Cell) -> bool:
    """4-connected reachability on free cells, ignoring other robots."""
    if start == goal:
        return True
    seen = {start}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        for nxt in grid.neighbors(cell):
            if nxt == goal:
                return True
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def generate_case(
    grid: GridMap, num_robots: int, seed: int, map_id: str = "map"
) -> Case:
    """Random case: distinct free starts and goals, start != goal per robot,
    every goal reachable from its start. Raises InfeasibleCase when rejection
    sampling exhausts its retry budget (or capacity is impossible outright).
    """
    free = grid.free_cells()
    if num_robots < 1:
        raise ValueError("need at least one robot")
    if num_robots > len(free):
        raise InfeasibleCase(
            f"{num_robots} robots but only {len(free)} free cells"
        )
    rng = np.random.default_rng(seed)
    for _ in range(_CASE_RETRIES):
        start_idx = rng.choice(len(free), size=num_robots, replace=False)
        goal_idx = rng.choice(len(free), size=num_robots, replace=False)
        starts = tuple(free[i] for i in start_idx)
        goals = tuple(free[i] for i in goal_idx)
        if any(s == g for s, g in zip(starts, goals)):
            continue
        if all(_reachable(grid, s, g) for s, g in zip(starts, goals)):
            return Case(map_id=map_id, starts=starts, goals=goals)
    raise InfeasibleCase(
        f"no valid assignment found after {_CASE_RETRIES} attempts"
    )


def build_local_observation(
    grid: GridMap,
    positions: list[Cell] | tuple[Cell, ...],
    goals: list[Cell] | tuple[Cell, ...],
    robot: int,
    fov_radius: int = DEFAULT_FOV_RADIUS,
) -> LocalObservation:
    """Egocentric 3-channel window for one robot (see LocalObservation)."""
    r = fov_radius
    w = 2 * r + 1
    channels = np.zeros((3, w, w), dtype=np.float64)
    x0, y0 = positions[robot]

    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            cell = (x0 + dx, y0 + dy)
            if not grid.in_bounds(cell) or cell in grid.obstacles:
                channels[0, dy + r, dx + r] = 1.0

    gx, gy = goals[robot]
    rel_x = min(max(gx - x0, -r), r)
    rel_y = min(max(gy - y0, -r), r)
    channels[1, rel_y + r, rel_x + r] = 1.0

    channels[2, r, r] = 1.0
    for j, (px, py) in enumerate(positions):
        if j == robot:
            continue
        dx, dy = px - x0, py - y0
        if abs(dx) <= r and abs(dy) <= r:
            channels[2, dy + r, dx + r] = 1.0

    return LocalObservation(channels=channels, fov_radius=r)


def team_observations(
    grid: GridMap,
    positions,
    goals,
    fov_radius: int = DEFAULT_FOV_RADIUS,
) -> np.ndarray:
    """Stacked observation tensor (N, 3, window, window) for the whole team."""
    obs = [
        build_local_observation(grid, positions, goals, i, fov_radius).channels
        for i in range(len(positions))
    ]
    return np.stack(obs, axis=0)


def build_gso(positions, comm_radius: float = DEFAULT_COMM_RADIUS) -> Gso:
    """Communication matrix: binary adjacency on the Euclidean distance rule,
    divided by its largest-magnitude eigenvalue when any edge exists."""
    n = len(positions)
    if n < 1:
        raise ValueError("need at least one robot")
    mat = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        xi, yi = positions[i]
        for j in range(i + 1, n):
            xj, yj = positions[j]
            if math.hypot(xi - xj, yi - yj) <= comm_radius:
                mat[i, j] = 1.0
                mat[j, i] = 1.0
    if mat.any():
        lam = np.abs(np.linalg.eigvalsh(mat)).max()
        mat = mat / lam
    return Gso(matrix=mat, comm_radius=comm_radius)


def step_positions(grid: GridMap, positions, actions) -> list[Cell]:
    """Apply one action per robot; no legality checks beyond map bounds."""
    out = []
    for (x, y), a in zip(positions, actions):
        dx, dy = ACTION_OFFSETS[a]
        nxt = (x + dx, y + dy)
        if not grid.in_bounds(nxt):
            raise OutOfBounds(
                f"action {ACTION_NAMES[a]} moves {(x, y)} off the map"
            )
        out.append(nxt)
    return out
