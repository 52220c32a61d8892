"""Discrete environment: maps, cases, team observations, communication graph.

Coordinate convention: x grows rightward, y grows downward. Cells are (x, y)
integer pairs. Actions are indexed (idle, up, left, down, right) with unit
offsets (0,0), (0,-1), (-1,0), (0,+1), (+1,0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

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
    """Static occupancy world of width x height cells.

    Lookup tables derived from the obstacles are built on first use and kept
    on the instance. They take no part in equality, hashing, repr or pickling,
    so a map's tables live and die with the map.
    """

    width: int
    height: int
    obstacles: frozenset[Cell]
    density: float = 0.0
    seed: int | None = None

    def __getstate__(self):
        # pickles carry the fields only; the receiving process rebuilds tables
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def successors(self) -> dict[Cell, tuple[Cell, ...]]:
        """Free cell -> the free cells one action away, in ACTION_OFFSETS order.

        Idle comes first, so every entry starts with the cell itself. Keys
        run in row-major (y, then x) order.
        """
        cells = [
            (x, y)
            for y in range(self.height)
            for x in range(self.width)
            if (x, y) not in self.obstacles
        ]
        # successor tuples hold the key objects, so each cell is stored once
        free = {cell: cell for cell in cells}
        return {
            cell: tuple(
                nxt
                for nxt in [free.get((cell[0] + dx, cell[1] + dy)) for dx, dy in ACTION_OFFSETS]
                if nxt is not None
            )
            for cell in free
        }

    @cached_property
    def components(self) -> np.ndarray:
        """Read-only (height, width) int32 array: [y, x] holds the label of
        the 4-connected free region holding cell (x, y), -1 on obstacles.

        Two free cells are connected exactly when their labels are equal.
        """
        successors = self.successors
        labels = np.full((self.height, self.width), -1, dtype=np.int32)
        region = 0
        for root in successors:
            if labels[root[1], root[0]] >= 0:
                continue
            labels[root[1], root[0]] = region
            stack = [root]
            while stack:
                for x, y in successors[stack.pop()]:
                    if labels[y, x] < 0:
                        labels[y, x] = region
                        stack.append((x, y))
            region += 1
        labels.setflags(write=False)
        return labels

    @cached_property
    def _padded(self) -> dict[int, np.ndarray]:
        return {}

    def in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def is_free(self, cell: Cell) -> bool:
        return cell in self.successors

    def free_cells(self) -> list[Cell]:
        """All free cells in row-major (y, then x) order."""
        return list(self.successors)

    def padded_occupancy(self, radius: int) -> np.ndarray:
        """Read-only uint8 obstacle array (1 on an obstacle) with a
        `radius`-cell border of obstacles.

        Cell (x, y) sits at [y + radius, x + radius]. Built once per radius.
        """
        padded = self._padded.get(radius)
        if padded is None:
            r = radius
            padded = np.ones((self.height + 2 * r, self.width + 2 * r), dtype=np.uint8)
            padded[r : r + self.height, r : r + self.width] = 0
            if self.obstacles:
                ox, oy = np.array(list(self.obstacles)).T
                padded[oy + r, ox + r] = 1
            padded.setflags(write=False)
            self._padded[radius] = padded
        return padded


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
class Gso:
    """Normalized communication adjacency over a team at one instant, (N, N),
    or over a stack of such teams, (..., N, N)."""

    matrix: np.ndarray


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
    comp = grid.components
    rng = np.random.default_rng(seed)
    for _ in range(_CASE_RETRIES):
        start_idx = rng.choice(len(free), size=num_robots, replace=False)
        goal_idx = rng.choice(len(free), size=num_robots, replace=False)
        starts = tuple(free[i] for i in start_idx)
        goals = tuple(free[i] for i in goal_idx)
        if any(s == g for s, g in zip(starts, goals)):
            continue
        if all(comp[s[1], s[0]] == comp[g[1], g[0]] for s, g in zip(starts, goals)):
            return Case(map_id=map_id, starts=starts, goals=goals)
    raise InfeasibleCase(
        f"no valid assignment found after {_CASE_RETRIES} attempts"
    )


def team_observations(
    grid: GridMap,
    positions,
    goals,
    fov_radius: int = DEFAULT_FOV_RADIUS,
) -> np.ndarray:
    """Egocentric 3-channel uint8 0/1 windows (..., N, 3, W, W), W = 2 *
    fov_radius + 1.

    positions is one team of N cells, (N, 2), or a stack of teams on one
    map, (..., N, 2); goals is (N, 2), shared by every team in the stack,
    or (..., N, 2), one row per team. Robots see only their own team, so a
    stack gives exactly the windows of one call per team.

    Channel 0: obstacles (cells beyond the map border count as obstacles).
    Channel 1: goal position, clamped componentwise into the window.
    Channel 2: self at the center plus any other robot inside the window.
    Positions must be cells of the map.
    """
    r = fov_radius
    w = 2 * r + 1
    pos = np.asarray(positions, dtype=np.int64)
    goal = np.asarray(goals, dtype=np.int64)
    n = pos.shape[-2]
    # every robot of every team is one row of the flat (R, 3, W, W) result
    flat = pos.reshape(-1, 2)
    rows = len(flat)
    # cell (x, y) sits at padded[y + r, x + r], so window row i of a robot at
    # (x0, y0) is padded row y0 + i
    padded = grid.padded_occupancy(r)
    offs = np.arange(w)
    obs = np.zeros((rows, 3, w, w), dtype=np.uint8)
    obs[:, 0] = padded[
        flat[:, 1, None, None] + offs[:, None], flat[:, 0, None, None] + offs
    ]
    rel = (np.clip(goal - pos, -r, r) + r).reshape(-1, 2)
    obs[np.arange(rows), 1, rel[:, 1], rel[:, 0]] = 1
    # row k * N + i holds the offset of teammate j seen from robot i of team
    # k; the diagonal puts self at the center
    teams = pos.reshape(-1, n, 2)
    delta = (teams[:, None, :, :] - teams[:, :, None, :]).reshape(rows, n, 2)
    seer, seen = np.nonzero((np.abs(delta) <= r).all(axis=-1))
    obs[seer, 2, delta[seer, seen, 1] + r, delta[seer, seen, 0] + r] = 1
    return obs.reshape(pos.shape[:-1] + (3, w, w))


def build_gso(positions, comm_radius: float = DEFAULT_COMM_RADIUS) -> Gso:
    """Communication matrices (..., N, N) of one team, (N, 2), or a stack of
    teams, (..., N, 2): binary adjacency on the Euclidean distance rule, each
    team's divided by its own largest-magnitude eigenvalue when it has any
    edge. A stack gives exactly the matrices of one call per team."""
    pos = np.asarray(positions, dtype=np.int64)
    if pos.ndim < 2 or pos.shape[-2] < 1:
        raise ValueError("need at least one robot")
    n = pos.shape[-2]
    delta = pos[..., :, None, :] - pos[..., None, :, :]
    # sqrt of the exact integer sum is correctly rounded; np.hypot is not, and
    # at e.g. (17, 27) it lands on the other side of a radius of that length
    dist = np.sqrt((delta * delta).sum(axis=-1))
    mat = (dist <= comm_radius).astype(np.float64)
    # views: zeroing each diagonal and scaling the stack change mat
    stack = mat.reshape(-1, n, n)
    stack.reshape(-1, n * n)[:, :: n + 1] = 0.0
    linked = stack.any(axis=(1, 2))
    # an edge-free team is divided by 1, which keeps its zeros as they are
    lam = np.ones(len(stack))
    lam[linked] = np.abs(np.linalg.eigvalsh(stack[linked])).max(axis=-1)
    stack /= lam[:, None, None]
    return Gso(matrix=mat)


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
