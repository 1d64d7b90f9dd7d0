"""Structural causal models: simulation, densities, interventions, counterfactuals.

Mechanisms are restricted to additive-noise forms (linear-Gaussian by default,
an optional tabulated nonlinear conditioner) plus deterministic point-mass
assignments used for hard interventions.  This keeps abduction exact and all
conditional densities closed-form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AbductionError,
    CapacityError,
    CycleError,
    UnsupportedDensityError,
)
from .rng import spawn

_LOG_2PI = float(np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph given as one parent set per node.

    By default nodes are in partial topological order (every parent index is
    smaller than its child), which is the convention used throughout the
    latent-variable experiments.  ``ordered=False`` lifts that restriction
    (needed when enumerating all labeled DAGs) and validates acyclicity
    explicitly, by peeling off sources over parent-set bitmasks; a graph
    with a directed cycle raises :class:`CycleError`.
    """

    n: int
    parents: tuple
    ordered: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        parents = tuple(tuple(sorted(int(p) for p in ps)) for ps in self.parents)
        object.__setattr__(self, "parents", parents)
        if len(parents) != self.n:
            raise ValueError("need one parent set per node")
        for i, ps in enumerate(parents):
            if len(set(ps)) != len(ps):
                raise ValueError(f"duplicate parent in node {i}")
            for p in ps:
                if not 0 <= p < self.n:
                    raise ValueError(f"node {i} has out-of-range parent {p}")
                if p == i:
                    raise CycleError(f"node {i} lists itself as parent")
                if self.ordered and p > i:
                    raise ValueError(
                        f"ordered graph requires parent < child, got {p} -> {i}"
                    )
        # ordered graphs are acyclic by construction; otherwise peel off the
        # sources (nodes without a parent left) until no node is left, or
        # none is a source
        if not self.ordered:
            masks = []
            for ps in parents:
                mask = 0
                for p in ps:
                    mask |= 1 << p
                masks.append(mask)
            left = (1 << self.n) - 1
            while left:
                sources = 0
                for i, mask in enumerate(masks):
                    if not mask & left:
                        sources |= 1 << i
                sources &= left
                if not sources:
                    raise CycleError("graph contains a directed cycle")
                left ^= sources

    def topological_order(self) -> list:
        """Kahn's algorithm; raises :class:`CycleError` on a cycle."""
        indeg = [len(ps) for ps in self.parents]
        children = self.children()
        frontier = sorted(i for i in range(self.n) if indeg[i] == 0)
        order = []
        while frontier:
            i = frontier.pop(0)
            order.append(i)
            for c in children[i]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    frontier.append(c)
            frontier.sort()
        if len(order) != self.n:
            raise CycleError("graph contains a directed cycle")
        return order

    def children(self) -> list:
        out = [[] for _ in range(self.n)]
        for i, ps in enumerate(self.parents):
            for p in ps:
                out[p].append(i)
        return out

    def edges(self) -> list:
        return [(p, i) for i, ps in enumerate(self.parents) for p in ps]

    def n_edges(self) -> int:
        return sum(len(ps) for ps in self.parents)

    def ancestors(self, nodes) -> set:
        seen = set()
        stack = list(nodes)
        while stack:
            i = stack.pop()
            for p in self.parents[i]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return seen

    def to_dict(self) -> dict:
        return {"n": self.n, "parents": [list(p) for p in self.parents],
                "ordered": self.ordered}

    @staticmethod
    def from_dict(d: dict) -> "Dag":
        return Dag(int(d["n"]), tuple(tuple(p) for p in d["parents"]),
                   bool(d.get("ordered", True)))


def d_separated(dag: Dag, i: int, j: int, given) -> bool:
    """Standard d-separation between single nodes ``i`` and ``j`` given a set.

    Uses the reachability formulation: ``i`` and ``j`` are d-separated iff no
    active trail connects them.
    """
    cond = frozenset(int(s) for s in given)
    if i == j:
        raise ValueError("d-separation needs two distinct nodes")
    if i in cond or j in cond:
        raise ValueError("query nodes must not be part of the conditioning set")
    anc_cond = dag.ancestors(cond) | cond
    children = dag.children()

    # walk trails (node, direction) where direction 'up' means we arrived
    # from a child (moving against edges), 'down' means from a parent.
    visited = set()
    stack = [(i, "up")]
    while stack:
        node, direction = stack.pop()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node == j and node not in cond:
            return False
        if direction == "up" and node not in cond:
            for p in dag.parents[node]:
                stack.append((p, "up"))
            for c in children[node]:
                stack.append((c, "down"))
        elif direction == "down":
            if node not in cond:
                for c in children[node]:
                    stack.append((c, "down"))
            if node in anc_cond:  # collider (or its descendant) is activated
                for p in dag.parents[node]:
                    stack.append((p, "up"))
    return True


def enumerate_dags(n: int) -> list:
    """All labeled DAGs on ``n`` nodes (``n <= 4``), in unordered mode.

    Every directed edge set is one boolean adjacency matrix, in
    ``itertools.product`` order over the ordered node pairs; the nilpotent
    (acyclic) ones are kept.  Each node's parent set is read off its matrix
    column as a bitmask and mapped through a table of the ``2**n`` parent
    tuples.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > 4:
        raise CapacityError(
            f"refusing to enumerate DAGs for n={n}; the count grows "
            "super-exponentially (hard limit n=4)"
        )
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    # matrix t holds t's binary digits, the first pair's most significant:
    # the order of itertools.product((0, 1), repeat=len(pairs))
    codes = np.arange(2 ** len(pairs))
    adj = np.zeros((len(codes), n, n), dtype=bool)
    for j, (a, b) in enumerate(pairs):
        adj[:, a, b] = (codes >> (len(pairs) - 1 - j)) & 1
    # a graph is acyclic iff its adjacency matrix is nilpotent: A^n = 0
    walks = adj
    for _ in range(n - 1):
        walks = walks @ adj
    acyclic = adj[~walks.any(axis=(1, 2))]
    # bit a of masks[t, b] flags edge a -> b: node b's parent set as a bitmask
    masks = (acyclic << np.arange(n)[:, None]).sum(axis=1).tolist()
    parent_sets = [tuple(a for a in range(n) if s >> a & 1) for s in range(2 ** n)]
    return [Dag(n, tuple(parent_sets[s] for s in row), ordered=False)
            for row in masks]


# ---------------------------------------------------------------------------
# mechanisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mechanism:
    """Additive-noise assignment ``v := loc(parents) + sigma * eps``.

    kind:
      * ``"linear-gaussian"``   loc = w . pa + b, eps ~ N(0,1), sigma > 0
      * ``"tabulated"``         loc = spline(w . pa + b), monotone-cubic
                                interpolation through ``(grid, values)``,
                                eps ~ N(0,1), sigma > 0
      * ``"point-mass"``        loc = w . pa + b, no noise (sigma = 0);
                                used for hard interventions and sigma->0
                                limits, density evaluation is refused
    """

    kind: str
    weights: tuple = ()
    bias: float = 0.0
    sigma: float = 1.0
    grid: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "bias", float(self.bias))
        object.__setattr__(self, "sigma", float(self.sigma))
        if self.kind not in ("linear-gaussian", "tabulated", "point-mass"):
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        if self.kind == "point-mass":
            object.__setattr__(self, "sigma", 0.0)
        elif self.sigma <= 0:
            raise ValueError("stochastic mechanisms need sigma > 0")
        if self.kind == "tabulated":
            g = np.asarray(self.grid, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if g.ndim != 1 or g.size < 4 or g.shape != v.shape:
                raise ValueError("tabulated mechanism needs matching grid/values, >= 4 knots")
            if np.any(np.diff(g) <= 0):
                raise ValueError("tabulated grid must be strictly increasing")
            object.__setattr__(self, "grid", tuple(float(x) for x in g))
            object.__setattr__(self, "values", tuple(float(x) for x in v))

    # -- helpers ------------------------------------------------------------

    @property
    def stochastic(self) -> bool:
        return self.kind != "point-mass"

    @property
    def n_parents(self) -> int:
        return len(self.weights)

    def _spline(self):
        from scipy.interpolate import PchipInterpolator  # only splines need it
        return PchipInterpolator(np.asarray(self.grid), np.asarray(self.values),
                                 extrapolate=True)

    def loc(self, pa: np.ndarray) -> np.ndarray:
        """Location given parent values of shape ``(m, n_parents)``."""
        pa = np.asarray(pa, dtype=float)
        if pa.ndim != 2 or pa.shape[1] != self.n_parents:
            raise ValueError(
                f"expected parent block of width {self.n_parents}, got {pa.shape}"
            )
        lin = pa @ np.asarray(self.weights) + self.bias if self.n_parents else \
            np.full(pa.shape[0], self.bias)
        if self.kind == "tabulated":
            return self._spline()(lin)
        return lin

    def sample(self, pa: np.ndarray, eps: np.ndarray) -> np.ndarray:
        return self.loc(pa) + self.sigma * np.asarray(eps, dtype=float)

    def log_density(self, v: np.ndarray, pa: np.ndarray) -> np.ndarray:
        if not self.stochastic:
            raise UnsupportedDensityError(
                "point-mass mechanism has no density; refusing to approximate"
            )
        z = (np.asarray(v, dtype=float) - self.loc(pa)) / self.sigma
        return -0.5 * (z * z + _LOG_2PI) - np.log(self.sigma)

    def abduct(self, v: np.ndarray, pa: np.ndarray, atol: float = 1e-9) -> np.ndarray:
        """Recover the exogenous noise from observed values (exact)."""
        resid = np.asarray(v, dtype=float) - self.loc(pa)
        if not self.stochastic:
            if np.any(np.abs(resid) > atol):
                raise AbductionError(
                    "evidence is inconsistent with a deterministic mechanism"
                )
            return np.zeros_like(resid)
        return resid / self.sigma

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "weights": list(self.weights), "bias": self.bias}
        if self.stochastic:
            d["sigma"] = self.sigma
        if self.kind == "tabulated":
            d["grid"] = list(self.grid)
            d["values"] = list(self.values)
        return d

    @staticmethod
    def from_dict(d: dict) -> "Mechanism":
        return Mechanism(
            kind=d["kind"],
            weights=tuple(d.get("weights", ())),
            bias=d.get("bias", 0.0),
            sigma=d.get("sigma", 1.0 if d["kind"] != "point-mass" else 0.0),
            grid=tuple(d.get("grid", ())),
            values=tuple(d.get("values", ())),
        )


def linear_gaussian(weights=(), bias=0.0, sigma=1.0) -> Mechanism:
    return Mechanism("linear-gaussian", tuple(weights), bias, sigma)


def point_mass(value: float = 0.0, weights=()) -> Mechanism:
    return Mechanism("point-mass", tuple(weights), value)


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scm:
    """A DAG plus one mechanism per node; exogenous noises are iid N(0,1)."""

    dag: Dag
    mechanisms: tuple

    def __post_init__(self):
        object.__setattr__(self, "mechanisms", tuple(self.mechanisms))
        if len(self.mechanisms) != self.dag.n:
            raise ValueError("need one mechanism per node")
        for i, mech in enumerate(self.mechanisms):
            if mech.n_parents != len(self.dag.parents[i]):
                raise ValueError(
                    f"node {i}: mechanism expects {mech.n_parents} parents, "
                    f"graph provides {len(self.dag.parents[i])}"
                )

    @property
    def n(self) -> int:
        return self.dag.n

    def node_log_density(self, i: int, v_i, pa_values) -> np.ndarray:
        """Conditional log-density of node ``i`` at ``v_i`` given parent values."""
        v_i = np.atleast_1d(np.asarray(v_i, dtype=float))
        if self.mechanisms[i].n_parents == 0:
            pa = np.zeros((v_i.shape[0], 0))
        else:
            pa = np.asarray(pa_values, dtype=float)
            if pa.ndim == 1:
                pa = pa[:, None]
        return self.mechanisms[i].log_density(v_i, pa)

    def sample_joint(self, count, seed):
        return ancestral_sample(self, count, seed)

    def all_linear_gaussian(self) -> bool:
        return all(m.kind == "linear-gaussian" for m in self.mechanisms)

    def gaussian_moments(self):
        """Mean and covariance of ``P_V`` for linear(-Gaussian) mechanisms.

        Solves the reduced form v = (I - W)^(-1) (b + D eps).  Point-mass
        mechanisms participate with sigma = 0.
        """
        n = self.n
        W = np.zeros((n, n))
        b = np.zeros(n)
        D = np.zeros(n)
        for i, mech in enumerate(self.mechanisms):
            if mech.kind == "tabulated":
                raise ValueError("closed-form moments need linear mechanisms")
            for p, w in zip(self.dag.parents[i], mech.weights):
                W[i, p] = w
            b[i] = mech.bias
            D[i] = mech.sigma
        A = np.linalg.inv(np.eye(n) - W)
        mean = A @ b
        cov = A @ np.diag(D**2) @ A.T
        return mean, cov

    def to_dict(self) -> dict:
        return {"dag": self.dag.to_dict(),
                "mechanisms": [m.to_dict() for m in self.mechanisms]}

    @staticmethod
    def from_dict(d: dict) -> "Scm":
        return Scm(Dag.from_dict(d["dag"]),
                   tuple(Mechanism.from_dict(m) for m in d["mechanisms"]))


@dataclass(frozen=True)
class InterventionSpec:
    """Replacement mechanisms for a set of target nodes.

    ``new_parents[k]`` declares the parent set of ``replacements[k]``; perfect
    interventions are exactly those with an empty parent set (graph surgery).
    """

    targets: tuple = ()
    replacements: tuple = ()
    new_parents: tuple = ()

    def __post_init__(self):
        targets = tuple(int(t) for t in self.targets)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "replacements", tuple(self.replacements))
        object.__setattr__(
            self, "new_parents",
            tuple(tuple(int(p) for p in ps) for ps in self.new_parents),
        )
        if len(set(targets)) != len(targets):
            raise ValueError("intervention targets must be distinct")
        if not (len(targets) == len(self.replacements) == len(self.new_parents)):
            raise ValueError("targets, replacements and new_parents must align")
        for t, mech, ps in zip(targets, self.replacements, self.new_parents):
            if mech.n_parents != len(ps):
                raise ValueError(
                    f"target {t}: replacement expects {mech.n_parents} parents, "
                    f"spec declares {len(ps)}"
                )
            if t in ps:
                raise CycleError(f"target {t} cannot be its own parent")

    @property
    def perfect(self) -> tuple:
        return tuple(len(ps) == 0 for ps in self.new_parents)

    def to_dict(self) -> dict:
        return {
            "targets": list(self.targets),
            "replacements": [m.to_dict() for m in self.replacements],
            "new_parents": [list(p) for p in self.new_parents],
        }

    @staticmethod
    def from_dict(d: dict) -> "InterventionSpec":
        return InterventionSpec(
            tuple(d["targets"]),
            tuple(Mechanism.from_dict(m) for m in d["replacements"]),
            tuple(tuple(p) for p in d["new_parents"]),
        )


def do(node: int, value: float) -> InterventionSpec:
    """Hard intervention ``do(V_node = value)``."""
    return InterventionSpec((node,), (point_mass(value),), ((),))


def perfect_intervention(node: int, mechanism: Mechanism) -> InterventionSpec:
    if mechanism.n_parents:
        raise ValueError("a perfect intervention mechanism must be parentless")
    return InterventionSpec((node,), (mechanism,), ((),))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def ancestral_sample(scm: Scm, count: int, seed: int,
                     return_noise: bool = False):
    """Draw ``count`` iid rows from ``P_V`` in topological order."""
    if count < 1:
        raise ValueError("count must be positive")
    rng = spawn(seed, "ancestral")
    eps = rng.standard_normal((count, scm.n))
    v = np.empty((count, scm.n))
    for i in scm.dag.topological_order():
        pa = v[:, scm.dag.parents[i]]
        v[:, i] = scm.mechanisms[i].sample(pa, eps[:, i])
        if not np.all(np.isfinite(v[:, i])):
            raise FloatingPointError(
                f"non-finite output at node {i} during ancestral sampling"
            )
    if return_noise:
        return v, eps
    return v


def log_density(scm: Scm, v) -> np.ndarray:
    """Joint log-density via the causal Markov factorization.

    Accepts a single vector or a matrix of rows; returns a scalar or a vector.
    """
    arr = np.asarray(v, dtype=float)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.shape[1] != scm.n:
        raise ValueError(f"expected vectors of length {scm.n}")
    total = np.zeros(arr.shape[0])
    for i in range(scm.n):
        pa = arr[:, scm.dag.parents[i]]
        total += scm.mechanisms[i].log_density(arr[:, i], pa)
    return float(total[0]) if single else total


def apply_intervention(scm: Scm, spec: InterventionSpec) -> Scm:
    """Replace the targeted mechanisms; everything else is shared unchanged."""
    for t in spec.targets:
        if not 0 <= t < scm.n:
            raise ValueError(f"intervention target {t} out of range")
    parents = list(scm.dag.parents)
    mechanisms = list(scm.mechanisms)
    for t, mech, ps in zip(spec.targets, spec.replacements, spec.new_parents):
        parents[t] = ps
        mechanisms[t] = mech
    ordered = scm.dag.ordered and all(
        p < i for i, ps in enumerate(parents) for p in ps
    )
    dag = Dag(scm.n, tuple(parents), ordered=ordered)  # raises CycleError
    return Scm(dag, tuple(mechanisms))


def counterfactual(scm: Scm, evidence, spec: InterventionSpec) -> np.ndarray:
    """Abduction-action-prediction for a fully observed evidence vector."""
    ev = np.asarray(evidence, dtype=float)
    if ev.shape != (scm.n,):
        raise ValueError(f"evidence must be a full vector of length {scm.n}")
    row = ev[None, :]
    eps = np.empty(scm.n)
    for i in range(scm.n):
        pa = row[:, scm.dag.parents[i]]
        eps[i] = scm.mechanisms[i].abduct(ev[i:i + 1], pa)[0]
    twin = apply_intervention(scm, spec)
    out = np.empty(scm.n)
    for i in twin.dag.topological_order():
        pa = out[list(twin.dag.parents[i])][None, :]
        out[i] = twin.mechanisms[i].sample(pa, eps[i])[0]
    return out


# ---------------------------------------------------------------------------
# multi-environment container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvData:
    """One environment: the intervention that produced it plus its samples."""

    spec: InterventionSpec
    x: np.ndarray
    v: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        if self.x.ndim != 2:
            raise ValueError("x must be a (rows, d) matrix")
        if self.v is not None:
            object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
            if self.v.shape[0] != self.x.shape[0]:
                raise ValueError("latent sidecar row count mismatch")


@dataclass(frozen=True)
class DatasetMeta:
    """Ground-truth generative description carried as a dataset sidecar."""

    scm: Scm | None = None
    mixing: dict | None = None
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MultiEnvDataset:
    envs: tuple
    seed: int
    meta: DatasetMeta | None = None

    def __post_init__(self):
        object.__setattr__(self, "envs", tuple(self.envs))
        if not self.envs:
            raise ValueError("dataset needs at least one environment")
        d = self.envs[0].x.shape[1]
        for env in self.envs:
            if env.x.shape[1] != d:
                raise ValueError("environments disagree on observation dimension")
        dims = {env.v.shape[1] for env in self.envs if env.v is not None}
        if len(dims) > 1:
            raise ValueError("environments disagree on latent dimension")

    @property
    def d(self) -> int:
        return self.envs[0].x.shape[1]

    @property
    def has_ground_truth(self) -> bool:
        return self.meta is not None and self.meta.scm is not None
