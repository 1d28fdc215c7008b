"""Strang split-step evolution with conservation monitoring and orbit tracking.

One step is a half linear substep (exact Fourier multiplier exp(-i|k|^2 dt/4)),
the exact nonlinear phase rotation (|u| is pointwise invariant under the
nonlinear subflow), and another half linear substep.  ``SplitStep`` is the one
implementation of that step, and ``evolve`` is the one caller of its loop,
which fuses adjacent half substeps; sampling synchronizes on a copy, so
recorded states are genuine full-step states.

The kernel builds the half and full propagators once per run and transforms
the state in place with ``numpy.fft`` (``out=`` the state itself).  The
nonlinear rotation writes cos and sin of the phase into the real and
imaginary parts of one preallocated complex buffer (bitwise equal to
``exp(-i dt rate)``), and a synchronized record state is formed in that same
buffer, so a run holds the state, one buffer and the two propagators between
steps.  A record's one forward transform, taken by ``observables``, goes into
one more array the run owns, and the orbit distance reads it there.  The
pseudo-conformal functional is algebra on a record's observables and takes no
transform of its own.

The transforms run on the calling thread: ``numpy.fft`` has no worker pool,
so there is no knob for one.  None is missed: with a pooled pocketfft
backend on a shared 2-vCPU host (n = 256, 400 steps), two workers cost more
than one in both wall and CPU time: 5.9-8.8 ms against 3.6-4.1 ms of wall
time per step, and 4.5-4.8 ms against 3.6-4.0 ms of CPU time per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.fft import fftn, ifftn

from . import grid as _grid
from .errors import (
    BlowUpDetected,
    ConfigError,
    ConservationError,
    InsufficientSamples,
    NonFiniteField,
)
from .groundstate import RadialProfile, check_radial_box, embed_radial, find_ground_state
from .model import (
    Family,
    ModelParams,
    Observables,
    h1_apriori_bound,
    nonlinear_phase_rate,
    observables,
)

MASS_DRIFT_TOL = 1e-11
H1_BOUND_SLACK = 1e-6
BLOWUP_CEILING = 1e6


@dataclass
class GroundStateInit:
    omega: float
    center: tuple[float, ...] | None = None
    boost: tuple[float, ...] | None = None


@dataclass
class GaussianInit:
    amplitude: float = 1.0
    width: float = 1.0
    center: tuple[float, ...] | None = None
    boost: tuple[float, ...] | None = None

    def __post_init__(self):
        # the profile divides by 2 width^2: a subnormal one overflows the quotient
        if not (self.width > 0 and np.finfo(float).tiny <= 2.0 * self.width * self.width < math.inf):
            raise ValueError(f"gaussian width {self.width} needs 2 width^2 to be a normal float")


@dataclass
class SnapshotInit:
    path: str


PERTURBATION_KINDS = ("gaussian_bump", "fourier_mode")


@dataclass
class Perturbation:
    """Seed disturbance scaled to an exact H1 size delta.

    kind "gaussian_bump" multiplies the state by (1 + eps exp(-|x-c|^2/w^2));
    kind "fourier_mode" adds a single periodic Fourier mode.  With
    ``renormalize`` the perturbed state is rescaled back to the original mass.
    """

    kind: str
    delta: float
    center: tuple[float, ...] | None = None
    width: float = 2.0
    mode: tuple[int, ...] | None = None
    renormalize: bool = False

    def __post_init__(self):
        if self.kind not in PERTURBATION_KINDS:
            raise ValueError(f"perturbation kind {self.kind!r} is not one of {PERTURBATION_KINDS}")
        for name, value in (("delta", self.delta), ("width", self.width)):
            if not value > 0:
                raise ValueError(f"perturbation {name} must be positive, got {value}")

    def check_grid(self, grid: _grid.Grid):
        """ValueError if the Fourier mode is not resolved on ``grid``.

        A mode component m with |m| > n/2 aliases to m mod n, whose |k| is
        smaller, so the wave would fall short of its H1 size delta.
        """
        if self.kind == "fourier_mode" and any(abs(m) > grid.n // 2 for m in self.mode or ()):
            raise ValueError(f"perturbation mode {self.mode} aliases on an n = {grid.n} grid: "
                             f"each component must lie in [-{grid.n // 2}, {grid.n // 2}]")


@dataclass
class EvolutionConfig:
    """One evolution, checked against every rule on its inputs when it is built.

    Every run checks mass conservation at each record, and the log families
    their a-priori H1 bound too; there is no switch for either.
    """

    model: ModelParams
    grid: _grid.Grid
    dt: float
    t_final: float
    initial: object
    sample_every: int = 1
    perturbation: Perturbation | None = None
    track_orbit: bool = False
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        g, init = self.grid, self.initial
        self.model.check_grid(g)
        if not 0 < self.dt <= 1e-2 + 1e-15:
            raise ValueError("dt must lie in (0, 1e-2] for accuracy")
        if not self.t_final > 0:
            raise ValueError("t_final must be positive")
        if self.sample_every < 1:
            raise ValueError("sample_every must be a positive integer")
        snapshot_steps(self.snapshot_times, self.dt, self.t_final)
        if not isinstance(init, (_grid.ComplexField, GroundStateInit, GaussianInit, SnapshotInit)):
            raise ValueError(f"unrecognized initial data descriptor: {init!r}")
        if isinstance(init, _grid.ComplexField) and init.grid != g:
            raise ValueError(f"the initial field lies on {init.grid}, not on the configured {g}")
        if isinstance(init, GroundStateInit):
            self.model.with_omega(init.omega)  # OmegaOutOfWindow outside the model's window
            check_radial_box(init.omega, "initial.omega")
        for name in ("initial", "perturbation"):
            section = getattr(self, name)
            for f in fields(section) if section is not None else ():
                value = getattr(section, f.name)
                if isinstance(value, tuple) and len(value) != g.dim:
                    raise ValueError(f"{name}.{f.name} has {len(value)} entries, "
                                     f"not grid.dim {g.dim}")
        if self.perturbation is not None:
            self.perturbation.check_grid(g)
        if self.track_orbit and not isinstance(init, GroundStateInit):
            raise ValueError("orbit tracking needs ground_state initial data")


@dataclass
class Trajectory:
    times: list[float] = field(default_factory=list)
    samples: list[Observables] = field(default_factory=list)
    orbit_distances: list[float] | None = None
    snapshots: dict[float, _grid.ComplexField] = field(default_factory=dict)  # by requested time
    h1_bound: float | None = None

    @property
    def mass_drift(self) -> float:
        m0 = self.samples[0].mass
        return max(abs(s.mass - m0) for s in self.samples) / max(abs(m0), 1e-300)

    @property
    def energy_drift(self) -> float:
        s0 = self.samples[0]
        scale = max(abs(s0.energy), s0.kinetic + abs(s0.potential), 1e-300)
        return max(abs(s.energy - s0.energy) for s in self.samples) / scale

    @property
    def momentum_drift(self) -> float:
        p0 = np.asarray(self.samples[0].momentum)
        scale = max(float(np.linalg.norm(p0)), math.sqrt(self.samples[0].mass), 1e-300)
        return max(
            float(np.linalg.norm(np.asarray(s.momentum) - p0)) for s in self.samples
        ) / scale


class SplitStep:
    """Strang split-step propagator of one model on one grid with time step dt."""

    def __init__(self, grid: _grid.Grid, model: ModelParams, dt: float):
        self.model = model
        self.dt = dt
        self.half = np.exp(-0.25j * dt * grid.k2)
        self.full = np.exp(-0.5j * dt * grid.k2)
        self.buffer = np.empty(grid.shape, dtype=complex)

    def _linear(self, v: np.ndarray, propagator: np.ndarray) -> np.ndarray:
        """Fourier multiplier substep in place; returns v."""
        fftn(v, out=v)
        v *= propagator
        return ifftn(v, out=v)

    def _rotate(self, v: np.ndarray) -> None:
        """Exact nonlinear subflow over dt, in place: v *= exp(-i dt rate(|v|^2))."""
        angle = -self.dt * nonlinear_phase_rate(np.abs(v) ** 2, self.model)
        np.cos(angle, out=self.buffer.real)
        np.sin(angle, out=self.buffer.imag)
        v *= self.buffer

    def run(self, values: np.ndarray, n_steps: int, sampled):
        """Advance ``values`` by n_steps steps, yielding (step, full-step state).

        The final step is always yielded, together with every earlier step for
        which ``sampled(step)`` holds.  ``values`` is overwritten.  A state
        yielded before the final step lives in ``self.buffer`` and is valid
        only until the loop resumes; the final state lives in the storage of
        ``values`` and is not touched again.
        """
        v = self._linear(values, self.half)  # staggered state
        for step in range(1, n_steps + 1):
            self._rotate(v)
            if step == n_steps:
                yield step, self._linear(v, self.half)
                return
            if sampled(step):
                self.buffer[...] = v
                yield step, self._linear(self.buffer, self.half)
            v = self._linear(v, self.full)


def _lattice_step(t: float, dt: float, what: str) -> int:
    """The step index n with n dt = t; ValueError if t is off the dt lattice."""
    step = int(round(t / dt))
    if abs(step * dt - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"{what} must be an integer multiple of dt, got {t} with dt={dt}")
    return step


def snapshot_steps(times, dt: float, t_final: float) -> dict[int, float]:
    """Step index -> requested time for each snapshot time.

    ValueError if a time is off the dt lattice, lies outside [0, t_final], or
    names the same step as another time.
    """
    n_steps = _lattice_step(t_final, dt, "t_final")
    steps: dict[int, float] = {}
    for t in times:
        step = _lattice_step(t, dt, "snapshot time")
        if not 0 <= step <= n_steps:
            raise ValueError(f"snapshot time {t} lies outside [0, t_final={t_final}]")
        if step in steps:
            raise ValueError(f"snapshot times {steps[step]} and {t} name the same step")
        steps[step] = t
    return steps


def build_initial(config: EvolutionConfig) -> tuple[_grid.ComplexField, RadialProfile | None]:
    """The initial field, and the ground state solved for ``GroundStateInit`` data (else None)."""
    init = config.initial
    g = config.grid
    profile = None
    if isinstance(init, _grid.ComplexField):
        fld = init.copy()
    elif isinstance(init, GroundStateInit):
        profile = find_ground_state(config.model.with_omega(init.omega))
        fld = embed_radial(profile, g, center=init.center)
    elif isinstance(init, GaussianInit):
        r2 = _grid.squared_distance(g, init.center)
        fld = _grid.ComplexField(g, init.amplitude * np.exp(-r2 / (2.0 * init.width ** 2)))
    else:  # SnapshotInit: EvolutionConfig admits no other kind
        from .snapshots import read_snapshot

        fld, _meta = read_snapshot(init.path)
        if fld.grid != g:
            raise ValueError(f"the snapshot field lies on {fld.grid}, not on the configured {g}")

    boost = getattr(init, "boost", None)
    if boost:
        phase = sum(v * x for v, x in zip(boost, g.along_axes(g.axis)))
        fld = _grid.ComplexField(g, fld.values * np.exp(1j * phase))
    if config.perturbation is not None:
        fld = apply_perturbation(fld, config.perturbation)
    fld.check_finite()
    return fld, profile


def apply_perturbation(field: _grid.ComplexField, pert: Perturbation) -> _grid.ComplexField:
    g = field.grid
    pert.check_grid(g)
    if pert.kind == "gaussian_bump":
        bump = np.exp(-_grid.squared_distance(g, pert.center) / pert.width ** 2)
        direction = _grid.ComplexField(g, field.values * bump)
        size = _grid.h1_norm(direction)
        if size == 0.0:
            raise ValueError("bump perturbation vanishes on this state")
        out = field.values * (1.0 + (pert.delta / size) * bump)
    else:  # fourier_mode
        mode = pert.mode or (1,) * g.dim
        k = tuple(math.pi / g.half_width * m for m in mode)
        wave = np.exp(1j * sum(ki * x for ki, x in zip(k, g.along_axes(g.axis))))
        norm = math.sqrt((2.0 * g.half_width) ** g.dim * (1.0 + sum(ki ** 2 for ki in k)))
        out = field.values + (pert.delta / norm) * wave
    result = _grid.ComplexField(g, out)
    if pert.renormalize:
        m0 = _grid.integrate(g, np.abs(field.values) ** 2)
        m1 = _grid.integrate(g, np.abs(result.values) ** 2)
        result = _grid.ComplexField(g, result.values * math.sqrt(m0 / m1))
    return result


def pc_functional(obs: Observables, t: float) -> float:
    """(1/2)||(x + i t grad) u||^2 + t^2 int V(|u|^2) = V/2 - t D + t^2 E of a record at time t.

    V is the variance and D the dilation of ``obs``: expanding the square leaves
    (1/2)||x u||^2 - t sum_j int x_j Im(conj(u) d_j u) + (t^2/2)||grad u||^2.
    """
    return 0.5 * obs.variance - t * obs.dilation + t * t * obs.energy


def evolve(config: EvolutionConfig) -> Trajectory:
    """Run the split-step loop, recording observables every ``sample_every`` steps."""
    model = config.model
    g = config.grid
    dt = config.dt
    n_steps = _lattice_step(config.t_final, dt, "t_final")
    snapshots = snapshot_steps(config.snapshot_times, dt, config.t_final)

    u, profile = build_initial(config)
    traj = Trajectory()
    if config.track_orbit:  # EvolutionConfig admits it only with ground_state initial data
        traj.orbit_distances = []
        reference_hat = reference_spectrum(profile, g)

    spectrum = np.empty(g.shape, dtype=complex)
    obs0 = observables(u, model, spectrum)
    traj.h1_bound = bound = h1_apriori_bound(obs0, model)
    # mass conservation caps ||grad u||^2 at 2 kmax^2 M on the grid, so a
    # fixed 1e6 is unreachable on desk grids; scale the proxy to the run.
    # Collapse drives the norm to ~0.1-0.2 of the cap before aliasing
    # saturates it, while bounded runs stay under the a-priori level.
    kmax2 = float(np.max(g.k2))
    threshold = min(BLOWUP_CEILING, 0.1 * kmax2 * obs0.mass)
    if 2.0 * obs0.kinetic > threshold:
        raise ConfigError(f"the initial data cross the collapse threshold before any step: "
                          f"||grad u||^2 = {2.0 * obs0.kinetic:.3e} > {threshold:.3e}; resolve "
                          f"them with grid.n and grid.half_width, or change the initial section")

    def record(step: int, values: np.ndarray):
        t = step * dt
        fld = _grid.ComplexField(g, values)
        try:
            obs = observables(fld, model, spectrum)
        except NonFiniteField:
            raise NonFiniteField(f"non-finite field at t={t}") from None
        # ``spectrum`` now holds the record state's transform, the only one a record takes
        traj.times.append(t)
        traj.samples.append(obs)
        if config.track_orbit:
            dist, _, _ = orbit_distance(spectrum, reference_hat, g)
            traj.orbit_distances.append(dist)
        if step in snapshots:
            traj.snapshots[snapshots[step]] = fld.copy()
        gradsq = 2.0 * obs.kinetic
        if gradsq > threshold:
            raise BlowUpDetected(
                f"||grad u||^2 = {gradsq:.3e} crossed {threshold:.3e} at t={t}",
                time=t,
                trajectory=traj,
            )
        drift = abs(obs.mass - obs0.mass) / max(abs(obs0.mass), 1e-300)
        if drift > MASS_DRIFT_TOL:
            raise ConservationError(f"mass drift {drift:.3e} at t={t}")
        if obs.kinetic > bound + H1_BOUND_SLACK:
            raise ConservationError(f"kinetic energy {obs.kinetic:.6e} broke the a-priori bound "
                                    f"{bound:.6e} at t={t}")

    record(0, u.values)

    def sampled(step):
        return step % config.sample_every == 0 or step in snapshots

    for step, values in SplitStep(g, model, dt).run(u.values, n_steps, sampled):
        record(step, values)
    return traj


def orbit_distance(
    u_hat: np.ndarray, p_hat: np.ndarray, g: _grid.Grid
) -> tuple[float, float, tuple[float, ...]]:
    """min over (theta, y) of the H1 distance from u to e^{i theta} phi(. - y) on ``g``.

    ``u_hat`` and ``p_hat`` are the forward transforms of u and of phi embedded
    on the grid (``reference_spectrum``); neither is modified.

    The shift is searched by spectral cross-correlation of the H1 pairing,
    refined by one quadratic interpolation per axis; the optimal phase is the
    argument of the pairing.  The reported distance is the H1 norm of the
    difference spectrum u_hat - e^{i theta} e^{-i k.y} phi_hat (Parseval), a
    direct difference, so exact orbit members return ~1e-14, not the
    half-precision left by cancelling near-equal norms.
    """
    weight = 1.0 + g.k2
    # |C(y)| with C(y) = <u, phi(.-y)>_H1 up to a positive factor, for every
    # grid shift y, via one inverse FFT
    corr = u_hat * np.conj(p_hat) * weight
    corr_abs = np.abs(ifftn(corr, out=corr))
    best = np.unravel_index(int(np.argmax(corr_abs)), corr_abs.shape)

    shift_idx = []
    for axis, idx in enumerate(best):
        m1, c0, p1 = (corr_abs[best[:axis] + ((idx + s) % g.n,) + best[axis + 1:]]
                      for s in (-1, 0, 1))
        denom = m1 - 2.0 * c0 + p1
        frac = 0.0 if denom == 0.0 else 0.5 * (m1 - p1) / denom
        frac = min(max(frac, -0.5), 0.5)
        shift_idx.append(idx + frac)

    def wrap(s):  # a shift of s samples as a displacement in [-L, L)
        return ((s * g.dx + g.half_width) % (2.0 * g.half_width)) - g.half_width

    def distance_at(yvec):
        shifted_hat = p_hat.copy()
        for k, yj in zip(g.along_axes(g.k), yvec):
            shifted_hat *= np.exp(-1j * k * yj)
        # the H1 pairing <u, phi(.-y)> up to a positive factor
        theta = float(np.angle(np.sum(u_hat * np.conj(shifted_hat) * weight)))
        shifted_hat *= -np.exp(1j * theta)
        shifted_hat += u_hat
        return _grid.spectral_h1_norm(g, shifted_hat), theta

    y, y_grid = tuple(wrap(s) for s in shift_idx), tuple(wrap(i) for i in best)
    d_refined, theta_refined = distance_at(y)
    d_grid, theta_grid = distance_at(y_grid)
    if d_grid <= d_refined:
        return d_grid, theta_grid, y_grid
    return d_refined, theta_refined, y


def reference_spectrum(profile: RadialProfile, g: _grid.Grid) -> np.ndarray:
    """The forward transform of ``profile`` embedded on ``g``, made in the embedding's array."""
    values = embed_radial(profile, g).values
    return fftn(values, out=values)


def pc_values(traj: Trajectory) -> np.ndarray:
    """The pseudo-conformal functional at every record of ``traj``."""
    return np.asarray([pc_functional(s, t) for t, s in zip(traj.times, traj.samples)])


def pseudoconformal_residual(traj: Trajectory, model: ModelParams) -> float:
    """Max discrepancy of the family's pc law (``pc_identity_rhs``) at interior samples."""
    if len(traj.samples) < 3:
        raise InsufficientSamples("need >= 3 uniformly spaced pc samples")
    t = np.asarray(traj.times)
    pc = pc_values(traj)
    steps = np.diff(t)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise InsufficientSamples("pc samples must be uniformly spaced")
    h = float(steps[0])
    lhs = (pc[2:] - pc[:-2]) / (2.0 * h)
    rhs = pc_identity_rhs(traj, model)[1:-1]
    scale = max(float(np.max(np.abs(pc))), 1.0)
    return float(np.max(np.abs(lhs - rhs))) / scale


def pc_identity_rhs(traj: Trajectory, model: ModelParams) -> np.ndarray:
    """d/dt pc at every sample, structurally exact 0.0 at t=0: -lam t int |u|^4 for the 2D
    cubic-log family, 0 for the L2-critical pure cubic; the 1D quintic-log law needs
    int |u|^6, which a record does not take (UnsupportedFamily).
    """
    model.require_family(Family.CUBIC_LOG_2D, Family.PURE_CUBIC_2D, what="the pc law of a record")
    lam = 0.0 if model.family.log_power is None else model.lam
    # 0.0 - x, not -x: +0.0 at t = 0 and for the pure cubic, bitwise -x elsewhere
    return 0.0 - lam * np.asarray(traj.times) * np.asarray([s.quartic for s in traj.samples])
