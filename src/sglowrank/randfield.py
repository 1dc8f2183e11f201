"""Karhunen-Loeve expansion of an exponentially correlated random field.

The field on a rectangle D = [x_lo, x_hi] x [y_lo, y_hi] is

    a(x, xi) = a0 + sigma * sum_i sqrt(lambda_i) a_i(x) xi_i,

where (lambda_i, a_i) are eigenpairs of the separable covariance kernel

    C(x, y) = sigma^2 exp(-|x1 - y1|/c - |x2 - y2|/c).

Separability means every 2D eigenfunction is a product of 1D eigenfunctions
of the kernel exp(-|s - t|/c) on an interval, and every 2D eigenvalue is a
product of 1D eigenvalues.  On an interval of length L recentred to
[-L/2, L/2] the 1D eigenpairs are available in closed form: even (cosine)
modes have frequencies theta solving

    1/c - theta * tan(theta * L / 2) = 0,

odd (sine) modes have frequencies theta* solving

    theta* + (1/c) * tan(theta* * L / 2) = 0,

and both families share the eigenvalue formula

    lambda = 2 c / (1 + c^2 theta^2).

All construction here is exact up to root-finding tolerance; no spatial grid
is involved.  M is pinned or is the smallest count that captures CAPTURE of
the variance.  The package reads a mode only through its per-axis factors
(``mode_factors``, which ``fem`` evaluates at Gauss points); the pointwise
evaluators the test suite checks against live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExponentialCovariance",
    "Eigenpair1D",
    "KLMode",
    "KLExpansion",
    "solve_1d_eigenproblem",
    "build_kl",
    "mode_factors",
    "max_theta_and_halfwave",
]

#: relative bisection tolerance for transcendental roots
ROOT_RTOL = 1e-13
#: absolute shrink applied to root brackets to stay clear of tan singularities
BRACKET_SHRINK = 1e-9
#: most 1D eigenpairs per axis ``build_kl`` computes
MAX_1D_MODES = 512
#: share of the field variance ``build_kl`` keeps when no mode count is pinned
CAPTURE = 0.95


@dataclass(frozen=True)
class ExponentialCovariance:
    """Separable exponential covariance on an axis-aligned rectangle."""

    sigma: float
    corr_len: float
    domain: tuple[float, float, float, float]  # (x_lo, x_hi, y_lo, y_hi)

    def __post_init__(self):
        x_lo, x_hi, y_lo, y_hi = self.domain
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.corr_len <= 0:
            raise ValueError(f"corr_len must be > 0, got {self.corr_len}")
        if not (x_hi > x_lo and y_hi > y_lo):
            raise ValueError(f"degenerate domain {self.domain}")

    @property
    def lengths(self) -> tuple[float, float]:
        x_lo, x_hi, y_lo, y_hi = self.domain
        return (x_hi - x_lo, y_hi - y_lo)

    @property
    def midpoints(self) -> tuple[float, float]:
        x_lo, x_hi, y_lo, y_hi = self.domain
        return (0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi))


@dataclass(frozen=True)
class Eigenpair1D:
    """One eigenpair of exp(-|s-t|/c) on an interval recentred to [-L/2, L/2].

    ``parity`` is the parity of the eigenfunction: "even" for cosine modes,
    "odd" for sine modes.  ``norm_const`` makes the eigenfunction have unit
    L2 norm on the interval.
    """

    theta: float
    lam: float
    parity: str  # "even" (cosine) or "odd" (sine)
    norm_const: float

    def evaluate(self, s):
        """Eigenfunction value at recentred coordinate(s) s in [-L/2, L/2]."""
        s = np.asarray(s, dtype=float)
        if self.parity == "even":
            return self.norm_const * np.cos(self.theta * s)
        return self.norm_const * np.sin(self.theta * s)


@dataclass(frozen=True)
class KLMode:
    """A 2D mode: product of one eigenpair per axis."""

    lam: float
    pair_x: Eigenpair1D
    pair_y: Eigenpair1D


@dataclass(frozen=True)
class KLExpansion:
    """Truncated KL expansion, modes sorted by decreasing eigenvalue."""

    mean_a0: float
    cov: ExponentialCovariance
    modes: tuple[KLMode, ...]
    capture_ratio: float

    @property
    def num_modes(self) -> int:
        return len(self.modes)


def _bisect(f, lo, hi, index, family):
    """Bisection on a bracket known to change sign; relative tol ROOT_RTOL."""
    flo = f(lo)
    fhi = f(hi)
    if not np.isfinite(flo) or not np.isfinite(fhi) or flo * fhi > 0:
        raise ArithmeticError(
            f"root bracket {index} of the {family} family does not change sign "
            f"on ({lo:.6g}, {hi:.6g})"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo <= ROOT_RTOL * hi:
            break
    return 0.5 * (lo + hi)


def solve_1d_eigenproblem(cov: ExponentialCovariance, axis: int, count: int) -> list[Eigenpair1D]:
    """First ``count`` eigenpairs of the 1D kernel along ``axis`` (0 or 1).

    Roots are found by bisection on brackets that exclude the tangent
    singularities; the two parity families interleave, so sorting the union
    by decreasing eigenvalue alternates cosine and sine modes.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    L = cov.lengths[axis]
    c = cov.corr_len
    half = 0.5 * L
    n_per_family = count // 2 + 1

    pairs = []
    for k in range(1, n_per_family + 1):
        # cosine (even-parity) root in (2(k-1)pi/L, (2k-1)pi/L)
        lo = 2.0 * (k - 1) * math.pi / L + BRACKET_SHRINK
        hi = (2.0 * k - 1.0) * math.pi / L - BRACKET_SHRINK
        theta = _bisect(lambda t: 1.0 / c - t * math.tan(t * half), lo, hi, k, "even")
        lam = 2.0 * c / (1.0 + (c * theta) ** 2)
        # ||cos(theta s)||^2 = L/2 + sin(theta L)/(2 theta)
        h = 1.0 / math.sqrt(half + math.sin(2.0 * theta * half) / (2.0 * theta))
        pairs.append(Eigenpair1D(theta, lam, "even", h))

        # sine (odd-parity) root in ((2k-1)pi/L, 2k pi/L)
        lo = (2.0 * k - 1.0) * math.pi / L + BRACKET_SHRINK
        hi = 2.0 * k * math.pi / L - BRACKET_SHRINK
        theta = _bisect(lambda t: t + (1.0 / c) * math.tan(t * half), lo, hi, k, "odd")
        lam = 2.0 * c / (1.0 + (c * theta) ** 2)
        h = 1.0 / math.sqrt(half - math.sin(2.0 * theta * half) / (2.0 * theta))
        pairs.append(Eigenpair1D(theta, lam, "odd", h))

    pairs.sort(key=lambda p: -p.lam)
    return pairs[:count]


def _sorted_product_modes(cov: ExponentialCovariance, n1d: int) -> list[KLMode]:
    ex = solve_1d_eigenproblem(cov, 0, n1d)
    ey = solve_1d_eigenproblem(cov, 1, n1d)
    modes = [KLMode(px.lam * py.lam, px, py) for px in ex for py in ey]
    # stable sort keeps the (i, j) enumeration order inside degenerate groups
    modes.sort(key=lambda m: -m.lam)
    return modes


def build_kl(cov: ExponentialCovariance, mean_a0: float, num_modes: int | None = None) -> KLExpansion:
    """Build the truncated expansion with ``num_modes`` modes or by variance capture.

    Without ``num_modes``, M is the smallest count whose eigenvalue sum
    reaches CAPTURE times the total variance per unit sigma^2, which for
    this kernel equals the domain area |D| (the kernel trace).  With
    ``num_modes``, M is pinned and the attained capture ratio is recorded.
    At most MAX_1D_MODES eigenpairs per axis are computed.
    """
    if num_modes is not None and num_modes < 1:
        raise ValueError(f"num_modes must be >= 1, got {num_modes}")

    Lx, Ly = cov.lengths
    total = Lx * Ly

    n1d = 16
    while True:
        # the sorted n1d x n1d product list agrees with the sorted full
        # product set on its first n1d entries, so a selection of at most
        # n1d modes is exact
        modes = _sorted_product_modes(cov, n1d)
        if num_modes is not None:
            M = num_modes
        else:
            cum = np.cumsum([m.lam for m in modes]) / total
            M = int(np.searchsorted(cum, CAPTURE)) + 1
        if M <= n1d:
            sel = modes[:M]
            ratio = sum(m.lam for m in sel) / total
            return KLExpansion(mean_a0, cov, tuple(sel), ratio)
        if n1d >= MAX_1D_MODES:
            target = f"{num_modes} modes" if num_modes is not None else f"{CAPTURE:.0%} capture"
            raise ValueError(f"{target} not reachable with {MAX_1D_MODES} 1D modes per axis")
        n1d *= 2


def mode_factors(kl: KLExpansion, index: int, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis factors of the coefficient function of xi_index.

    The mode at (x, y) is the product of the two returned arrays:
    sigma*sqrt(lambda)*a_x(x - m_x) at the x values and a_y(y - m_y) at the y
    values, with (m_x, m_y) the domain midpoint.
    """
    mx, my = kl.cov.midpoints
    mode = kl.modes[index]
    fx = kl.cov.sigma * math.sqrt(mode.lam) * mode.pair_x.evaluate(np.asarray(x, dtype=float) - mx)
    return fx, mode.pair_y.evaluate(np.asarray(y, dtype=float) - my)


def max_theta_and_halfwave(kl: KLExpansion) -> tuple[float, float]:
    """Largest transcendental root among retained modes and pi over it."""
    theta_max = max(max(m.pair_x.theta, m.pair_y.theta) for m in kl.modes)
    return theta_max, math.pi / theta_max
