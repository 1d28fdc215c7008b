"""Radial solitary-wave profiles by shooting, their certificates, and sweeps.

The stationary profile solves, radially,

    phi'' + (d-1)/r phi' = 2 omega phi + 2 phi * rate(phi^2),

integrated from phi(0) = b, phi'(0) = 0.  The amplitude b is bisected between
the positive zero of G (too little potential energy to reach zero at infinity)
and the largest admissible amplitude (the stationary point of g), classifying
each trajectory as overshoot / undershoot.  The integrator is a scalar
adaptive Dormand-Prince 5(4) pair: generic library steppers spend two orders
of magnitude more time per step than this loop, which matters for the small
frequency sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.interpolate import CubicHermiteSpline
from scipy.integrate import simpson

from . import grid as _grid
from .errors import (
    BracketFailure,
    GridTooSmall,
    IntegratorFailure,
    NonPositiveB,
    ConservationError,
)
from .model import (
    Family,
    ModelParams,
    Observables,
    _DENSITY_CLAMP,
    _density_log,
    amplitude_roots,
    positive_G_zero,
    potential_G,
    stationary_amplitude,
)

# DP5 tolerances of every shot, and the node count of a returned profile
_RTOL, _ATOL = 1e-12, 1e-14
_N_NODES = 3201


class ShotClass(Enum):
    OVERSHOOT = "overshoot"
    UNDERSHOOT = "undershoot"
    CONVERGED = "converged"


@dataclass
class ShotResult:
    classification: ShotClass
    r_stop: float
    phi_stop: float
    dphi_stop: float
    r: np.ndarray | None = None
    phi: np.ndarray | None = None
    dphi: np.ndarray | None = None


@dataclass
class RadialProfile:
    model: ModelParams
    r_nodes: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    tail_rate: float
    tail_coeff: float
    center_value: float
    residuals: tuple[float, float, float] | None = None

    @property
    def r_cut(self) -> float:
        return float(self.r_nodes[-1])

    def __call__(self, r):
        """Evaluate phi at arbitrary radii (spline inside, exponential tail beyond)."""
        r = np.asarray(r, dtype=float)
        spline = CubicHermiteSpline(self.r_nodes, self.values, self.derivs)
        inside = r <= self.r_cut
        out = np.empty_like(r)
        out[inside] = spline(r[inside])
        out[~inside] = self.tail_coeff * np.exp(-self.tail_rate * r[~inside])
        return out


@dataclass
class UniquenessCertificate:
    u1: float
    alpha: float
    sqrt_z_omega: float
    gtilde_monotone_ok: bool
    G_positive_on_interval_ok: bool
    s_prime_negative_ok: bool
    samples: int

    @property
    def all_ok(self) -> bool:
        return (
            self.gtilde_monotone_ok
            and self.G_positive_on_interval_ok
            and self.s_prime_negative_ok
        )


# ---------------------------------------------------------------------------
# scalar Dormand-Prince 5(4) with classification events
# ---------------------------------------------------------------------------

_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (
    19372.0 / 6561.0,
    -25360.0 / 2187.0,
    64448.0 / 6561.0,
    -212.0 / 729.0,
)
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = (
    35.0 / 384.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)


# A scalar copy of model.nonlinear_phase_rate: the array call makes a solve ~5x slower.
# Every scalar is a Python float: numpy scalars would slow the DP5 loop.
def _make_rhs(model: ModelParams):
    omega = model.require_omega()
    lam = float(model.lam)
    dim = model.dim
    dm1 = dim - 1
    fam = model.family
    log = math.log

    if fam is Family.CUBIC_LOG_2D:

        def force(p):
            pp = p * p
            if pp > _DENSITY_CLAMP:
                return 2.0 * (omega * p + lam * p * pp * log(pp))
            return 2.0 * omega * p

    elif fam is Family.QUINTIC_LOG_1D:

        def force(p):
            pp = p * p
            if pp > _DENSITY_CLAMP:
                return 2.0 * (omega * p + lam * p * pp * pp * log(pp))
            return 2.0 * omega * p

    else:

        def force(p):
            return 2.0 * (omega * p - lam * p * p * p)

    def rhs(r, p, q):
        f = force(p)
        if r > 0.0:
            return q, f - dm1 * q / r
        return q, f / dim

    return rhs


def _integrate_radial(model, b, store):
    """March the radial ODE from r=0 out to ``default_r_max`` and classify the trajectory.

    Returns (classification, rs, ps, qs); the lists are populated only when
    ``store`` is true (plus always the final point).
    """
    rhs = _make_rhs(model)
    omega = model.require_omega()
    r_max = default_r_max(omega)
    rtol, atol = _RTOL, _ATOL  # locals: the step loop is hot
    r, p, q = 0.0, float(b), 0.0
    k1p, k1q = rhs(r, p, q)
    h = min(1e-3 / math.sqrt(2.0 * abs(omega) + abs(k1q / max(b, 1e-300)) + 1e-12), 0.01)
    rs, ps, qs = [0.0], [float(b)], [0.0]
    conv = 1e-12
    cls = None
    while True:
        if r >= r_max:
            cls = ShotClass.CONVERGED if p < 1e-6 * max(b, 1.0) else ShotClass.UNDERSHOOT
            break
        if h > r_max - r:
            h = r_max - r
        if h < 1e-14 * max(1.0, r):
            raise IntegratorFailure(f"step size underflow at r={r}")

        k2p, k2q = rhs(r + _C2 * h, p + h * _A21 * k1p, q + h * _A21 * k1q)
        k3p, k3q = rhs(
            r + _C3 * h,
            p + h * (_A31 * k1p + _A32 * k2p),
            q + h * (_A31 * k1q + _A32 * k2q),
        )
        k4p, k4q = rhs(
            r + _C4 * h,
            p + h * (_A41 * k1p + _A42 * k2p + _A43 * k3p),
            q + h * (_A41 * k1q + _A42 * k2q + _A43 * k3q),
        )
        k5p, k5q = rhs(
            r + _C5 * h,
            p + h * (_A51 * k1p + _A52 * k2p + _A53 * k3p + _A54 * k4p),
            q + h * (_A51 * k1q + _A52 * k2q + _A53 * k3q + _A54 * k4q),
        )
        k6p, k6q = rhs(
            r + h,
            p + h * (_A61 * k1p + _A62 * k2p + _A63 * k3p + _A64 * k4p + _A65 * k5p),
            q + h * (_A61 * k1q + _A62 * k2q + _A63 * k3q + _A64 * k4q + _A65 * k5q),
        )
        pn = p + h * (_B1 * k1p + _B3 * k3p + _B4 * k4p + _B5 * k5p + _B6 * k6p)
        qn = q + h * (_B1 * k1q + _B3 * k3q + _B4 * k4q + _B5 * k5q + _B6 * k6q)
        k7p, k7q = rhs(r + h, pn, qn)

        ep = h * (
            _E1 * k1p + _E3 * k3p + _E4 * k4p + _E5 * k5p + _E6 * k6p + _E7 * k7p
        )
        eq = h * (
            _E1 * k1q + _E3 * k3q + _E4 * k4q + _E5 * k5q + _E6 * k6q + _E7 * k7q
        )
        scp = atol + rtol * max(abs(p), abs(pn))
        scq = atol + rtol * max(abs(q), abs(qn))
        err = math.sqrt(0.5 * ((ep / scp) ** 2 + (eq / scq) ** 2))

        if err <= 1.0:
            r += h
            p, q = pn, qn
            k1p, k1q = k7p, k7q
            if store:
                rs.append(r)
                ps.append(p)
                qs.append(q)
            if p <= 0.0:
                cls = ShotClass.OVERSHOOT
                break
            if q > 0.0:
                cls = ShotClass.UNDERSHOOT
                break
            if p < conv and abs(q) < conv:
                cls = ShotClass.CONVERGED
                break
        if err == 0.0:
            fac = 5.0
        else:
            fac = min(5.0, max(0.2, 0.9 * err ** -0.2))
        h *= fac
    if not store:
        rs, ps, qs = [r], [p], [q]
    elif rs[-1] != r:
        rs.append(r)
        ps.append(p)
        qs.append(q)
    return cls, rs, ps, qs


def default_r_max(omega: float) -> float:
    """40 e-foldings of the linearized tail decay rate sqrt(2 omega)."""
    return 40.0 / math.sqrt(2.0 * omega)


def shoot(model: ModelParams, b: float = 1.0, store: bool = False) -> ShotResult:
    """Integrate one trajectory at ``model.omega`` out to ``default_r_max`` and classify it."""
    if b <= 0:
        raise NonPositiveB(f"initial amplitude must be positive, got {b}")
    cls, rs, ps, qs = _integrate_radial(model, b, store)
    result = ShotResult(cls, rs[-1], ps[-1], qs[-1])
    if store:
        result.r = np.asarray(rs)
        result.phi = np.asarray(ps)
        result.dphi = np.asarray(qs)
    return result


def _classify(model, b):
    return _integrate_radial(model, b, False)[0]


def find_ground_state(model: ModelParams, tol: float = 1e-7) -> RadialProfile:
    """Bisect the shooting amplitude and return the certified profile at ``model.omega``.

    ``tol`` is the relative bracket width target; the returned profile passes
    the Pohozaev certification at 10*tol (self-checked).  Bisection always
    refines to at least width max(tol*b, 1e-14), so requesting a loose tol
    does not degrade the profile itself.
    """
    if not 1e-13 <= tol <= 1e-2:
        raise ValueError("tol must lie in [1e-13, 1e-2]")
    omega = model.require_omega()
    lo = positive_G_zero(model)
    hi = 2.0 * lo
    if model.family is not Family.PURE_CUBIC_2D:
        # Just below the stationary point of g: that point is an exact equilibrium
        # of the radial ODE, so its classification flips on the rounding of the
        # root; every amplitude strictly below it (and above the profile's) overshoots.
        hi = stationary_amplitude(model) * (1.0 - 1e-9)
    if model.family is Family.QUINTIC_LOG_1D:
        # in 1D the G-zero is the exact amplitude; start the bracket below it
        lo *= 0.95

    # One classification per endpoint: a misclassified one fails, no search.
    if _classify(model, lo) is not ShotClass.UNDERSHOOT:
        raise BracketFailure(f"no undershooting amplitude found: {lo} does not undershoot")
    if _classify(model, hi) is not ShotClass.OVERSHOOT:
        raise BracketFailure(f"no overshooting amplitude found: {hi} does not overshoot")

    # Refine to float exhaustion: every extra bit of b pushes the radius where
    # the unstable mode takes over further out, buying clean tail decades.
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        cls = _classify(model, mid)
        if cls is ShotClass.OVERSHOOT:
            hi = mid
        elif cls is ShotClass.UNDERSHOOT:
            lo = mid
        else:
            lo = hi = mid
            break

    b = 0.5 * (lo + hi)
    _, rs, ps, qs = _integrate_radial(model, b, True)
    rs = np.asarray(rs)
    ps = np.asarray(ps)
    qs = np.asarray(qs)

    positive = ps > 0.0
    if not positive.all():
        stop = int(np.argmin(positive))  # first nonpositive sample
        rs, ps, qs = rs[:stop], ps[:stop], qs[:stop]
    # Departure radius: turnaround (undershoot side) or the zero crossing.
    # Salvage only what lies a fixed margin of linear e-foldings before it;
    # beyond that the growing mode contaminates the samples.
    kappa = math.sqrt(2.0 * omega)
    r_depart = float(rs[int(np.argmin(ps))])
    r_cut_target = r_depart - 3.0 / kappa
    usable = np.nonzero(rs <= r_cut_target)[0]
    if usable.size < 16:
        raise BracketFailure("trajectory never resolved a decaying tail")
    i_cut = int(usable[-1])
    if ps[i_cut] > 1e-3 * b or ps[i_cut] <= 0.0:
        raise BracketFailure("tail not resolved below 1e-3 of the peak amplitude")

    spline = CubicHermiteSpline(rs[: i_cut + 1], ps[: i_cut + 1], qs[: i_cut + 1])
    r_nodes = np.linspace(0.0, float(rs[i_cut]), _N_NODES)
    values = spline(r_nodes)
    derivs = spline.derivative()(r_nodes)
    values[0] = b
    derivs[0] = 0.0

    window = (rs[: i_cut + 1] >= rs[i_cut] - 2.5 * math.log(10.0) / kappa) & (
        ps[: i_cut + 1] > 0.0
    )
    if int(window.sum()) < 6:
        raise BracketFailure("too few samples in the tail decades for a rate fit")
    slope = np.polyfit(rs[: i_cut + 1][window], np.log(ps[: i_cut + 1][window]), 1)[0]
    tail_rate = -float(slope)
    if tail_rate <= 0:
        raise BracketFailure("fitted tail rate is not positive")
    tail_coeff = float(values[-1] * math.exp(tail_rate * r_nodes[-1]))

    profile = RadialProfile(
        model=model,
        r_nodes=r_nodes,
        values=values,
        derivs=derivs,
        tail_rate=tail_rate,
        tail_coeff=tail_coeff,
        center_value=b,
    )
    res = pohozaev_residuals(profile)
    profile.residuals = res
    if max(abs(x) for x in res) > 10.0 * tol:
        raise IntegratorFailure(
            f"pohozaev certification failed: residuals {res} exceed {10 * tol}"
        )
    return profile


# ---------------------------------------------------------------------------
# certification quadratures
# ---------------------------------------------------------------------------


def _tail_T(a: float, r0: float, m: int) -> float:
    """int_{r0}^inf r^m e^{-a r} dr for m in {0,1,2,3}."""
    e = math.exp(-a * r0)
    if m == 0:
        return e / a
    if m == 1:
        return e * (r0 / a + 1.0 / a ** 2)
    if m == 2:
        return e * (r0 ** 2 / a + 2.0 * r0 / a ** 2 + 2.0 / a ** 3)
    return e * (r0 ** 3 / a + 3.0 * r0 ** 2 / a ** 2 + 6.0 * r0 / a ** 3 + 6.0 / a ** 4)


def _radial_integrals(profile: RadialProfile) -> dict:
    """All certification integrals over R^d: sampled Simpson + analytic tails."""
    model = profile.model
    r = profile.r_nodes
    phi = profile.values
    dphi = profile.derivs
    dim = model.dim
    C = profile.tail_coeff
    d = profile.tail_rate
    r0 = profile.r_cut

    if dim == 2:
        w = 2.0 * math.pi * r

        def tail(n, m=0):
            # int (C e^{-d r})^n r^m weight over the tail
            return 2.0 * math.pi * C ** n * _tail_T(n * d, r0, m + 1)

    else:
        w = np.full_like(r, 2.0)  # even extension to the full line

        def tail(n, m=0):
            return 2.0 * C ** n * _tail_T(n * d, r0, m)

    rho = phi * phi
    lnrho = _density_log(rho)
    lnC2 = math.log(C * C) if C > 0 else 0.0

    def I(samples):
        return float(simpson(samples * w, x=r))

    mass = I(rho) + tail(2)
    grad2 = I(dphi * dphi) + d * d * tail(2)
    quartic = I(rho * rho) + tail(4)
    # int phi^n ln phi^2 tail: (C e^{-dr})^n (ln C^2 - 2 d r)
    log_quartic = I(rho * rho * lnrho) + lnC2 * tail(4) - 2.0 * d * tail(4, m=1)
    sextic = I(rho ** 3) + tail(6)
    log_sextic = I(rho ** 3 * lnrho) + lnC2 * tail(6) - 2.0 * d * tail(6, m=1)

    lam = model.lam
    if model.family is Family.CUBIC_LOG_2D:
        nl = lam * log_quartic
        pd = 0.5 * lam * (log_quartic - 0.5 * quartic)
    elif model.family is Family.QUINTIC_LOG_1D:
        nl = lam * log_sextic
        pd = (lam / 3.0) * (log_sextic - sextic / 3.0)
    else:
        nl = -lam * quartic
        pd = -0.5 * lam * quartic

    return {
        "mass": mass,
        "grad2": grad2,
        "quartic": quartic,
        "sextic": sextic,
        "log_quartic": log_quartic,
        "log_sextic": log_sextic,
        "nl": nl,  # int phi^2 rate(phi^2) = int N(phi) phi
        "pd": pd,  # int V(phi^2)
    }


def pohozaev_residuals(profile: RadialProfile) -> tuple[float, float, float]:
    """Normalized residuals of the stationary integral identities.

    2D families: (multiply-by-phi, dilation, V = int G = 0).  The 1D family
    has no dilation identity; r2 and rV are both the first-integral identity
    (1/2) int phi'^2 + int G = 0 there.
    """
    model, omega = profile.model, profile.model.omega
    if profile.values.size == 0 or not np.any(profile.values):
        return (0.0, 0.0, 0.0)
    ints = _radial_integrals(profile)
    M, K2, nl, pd = ints["mass"], ints["grad2"], ints["nl"], ints["pd"]
    GV = -omega * M - pd  # int G(phi) = -omega M - int V(phi^2)

    def norm(value, *terms):
        scale = max(max(abs(t) for t in terms), 1e-300)
        return value / scale

    r1 = norm(0.5 * K2 + nl + omega * M, 0.5 * K2, nl, omega * M)
    if model.dim == 2:
        # r1_raw + 2 GV reduces to the dilation identity (phi2)
        r2 = norm(0.5 * K2 + nl + omega * M + 2.0 * GV, 0.5 * K2, omega * M, GV)
        rV = norm(GV, omega * M, pd)
    else:
        r2 = norm(0.5 * K2 + GV, 0.5 * K2, GV)
        rV = r2
    return (r1, r2, rV)


def radial_observables(profile: RadialProfile) -> Observables:
    """Mass/energy/action of a radial profile by the certification quadrature."""
    ints = _radial_integrals(profile)
    kinetic = 0.5 * ints["grad2"]
    energy = kinetic + ints["pd"]
    return Observables(
        mass=ints["mass"],
        energy=energy,
        momentum=(0.0,) * profile.model.dim,
        kinetic=kinetic,
        potential=ints["pd"],
        quartic=ints["quartic"],
        action=energy + profile.model.omega * ints["mass"],
    )


# ---------------------------------------------------------------------------
# uniqueness certificate
# ---------------------------------------------------------------------------


def uniqueness_certificate(model: ModelParams, samples: int = 10_000) -> UniquenessCertificate:
    """The three sign conditions of the uniqueness proof at ``model.omega``, sampled.

    2D cubic-log family only.
    """
    omega, lam = model.require_omega(), model.lam
    wl = omega / lam
    zstar = math.exp(-0.25)

    u1 = positive_G_zero(model)
    alpha, sqz = amplitude_roots(model)

    def gtilde(z):
        return z * z * 0.25 - z * z * np.log(z) - wl

    mids = (np.arange(samples) + 0.5) / samples
    z_inc = mids * zstar
    z_dec = zstar + mids * (2.0 - zstar)
    monotone = bool(
        np.all(np.diff(gtilde(z_inc)) > 0.0) and np.all(np.diff(gtilde(z_dec)) < 0.0)
    )

    z_mid = u1 + mids * (sqz - u1)
    g_positive = bool(np.all(potential_G(z_mid, model) > 0.0))

    sign_expr = 4.0 * lam * z_mid ** 3 * (
        2.0 * omega * (1.0 + np.log(z_mid)) - lam * z_mid ** 2
    )
    s_prime_negative = bool(np.all(sign_expr < 0.0))

    return UniquenessCertificate(
        u1=u1,
        alpha=alpha,
        sqrt_z_omega=sqz,
        gtilde_monotone_ok=monotone,
        G_positive_on_interval_ok=g_positive,
        s_prime_negative_ok=s_prime_negative,
        samples=samples,
    )


# ---------------------------------------------------------------------------
# small-frequency mass sweep
# ---------------------------------------------------------------------------


@dataclass
class MassSweepRow:
    omega: float
    mass: float
    ratio: float      # mass * sqrt(ln(1/omega)) / mass_Q
    ratio_log: float  # mass * ln(1/omega) / mass_Q; the rescaling that is
    #                   actually unitary against the cubic reference


def townes_mass(lam: float, tol: float = 1e-9) -> float:
    """Mass of the cubic reference ground state Q at coupling lam (omega = 1)."""
    model = ModelParams(Family.PURE_CUBIC_2D, lam, omega=1.0)
    profile = find_ground_state(model, tol=tol)
    return radial_observables(profile).mass


def mass_asymptotics_sweep(
    lam: float, omega_list, tol: float = 1e-9
) -> tuple[list[MassSweepRow], float]:
    """Ground-state masses along a decreasing omega list, against M(Q)/sqrt(ln(1/w))."""
    mass_Q = townes_mass(lam, tol=tol)
    rows = []
    for omega in omega_list:
        profile = find_ground_state(ModelParams(Family.CUBIC_LOG_2D, lam, omega), tol=tol)
        mass = radial_observables(profile).mass
        L = math.log(1.0 / omega)
        rows.append(
            MassSweepRow(
                omega=float(omega),
                mass=mass,
                ratio=mass * math.sqrt(L) / mass_Q,
                ratio_log=mass * L / mass_Q,
            )
        )
    masses = [row.mass for row in rows]
    if len(masses) > 1 and all(a > b for a, b in zip(omega_list, list(omega_list)[1:])):
        if not all(a > b for a, b in zip(masses, masses[1:])):
            raise ConservationError("masses failed to decrease along decreasing omega")
    return rows, mass_Q


# ---------------------------------------------------------------------------
# embedding profiles into periodic grids
# ---------------------------------------------------------------------------


def embed_radial(
    profile: RadialProfile,
    grid: _grid.Grid,
    center=None,
    phase: float = 0.0,
) -> _grid.ComplexField:
    """phi(|x - center|) on the grid with the exponential tail, times e^{i phase}.

    The grid must keep the boundary amplitude below 1e-3 of the peak; the
    documented 1e-8 mass agreement additionally needs the stronger margin
    half_width >= last node + 5/tail_rate.
    """
    dim = profile.model.dim
    if grid.dim != dim:
        raise GridTooSmall(f"profile is {dim}D but grid is {grid.dim}D")
    if center is None:
        center = (0.0,) * dim
    center = tuple(float(c) for c in center)
    margin = grid.half_width - max(abs(c) for c in center)
    if margin <= 0:
        raise GridTooSmall("center lies outside the grid")
    edge = profile.tail_coeff * math.exp(-profile.tail_rate * margin)
    if margin < profile.r_cut:
        edge = max(edge, float(profile(np.asarray([margin]))[0]))
    if edge > 1e-3 * profile.center_value:
        raise GridTooSmall(
            f"boundary amplitude {edge:.3e} exceeds 1e-3 of the peak "
            f"{profile.center_value:.3e}; enlarge the box"
        )
    xs = _grid.coordinates(grid)
    r = np.sqrt(sum((x - c) ** 2 for x, c in zip(xs, center)))
    vals = profile(r) * complex(math.cos(phase), math.sin(phase))
    return _grid.ComplexField(grid, vals)
