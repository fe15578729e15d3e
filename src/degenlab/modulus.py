"""Constructive modulus-of-continuity pipeline.

The gradient modulus for the degenerate transmission equation is built in
four steps, each exposed as one operation:

1.  ``choose_scale``:  pick the base radius r and first amplitude mu_1
    from the compactness constant C and Hoelder budget alpha_0 via the
    balance 2 C r^{1+alpha_0} = mu_1 r, then set theta = r / mu_1 < 1.
2.  ``rescale_sequence``:  given the driving sequence a_k (how large a
    gradient the k-th modulus level theta^k tolerates; see
    ``laws.a_sequence``), build dividers c_k -> 0 with max c_k <= 1/eps,
    eps = 1/(1+delta), such that the divided sequence keeps, up to a
    (1 +- delta) factor, the ell^1 norm of the original:
        eps (1 - delta/2) ||a|| <= || a/c || <= eps (1 + delta) ||a||.
    The dividers are a decreasing profile times one scale factor, clamped
    at 1/eps; the factor that puts ||a/c|| at eps (1 + delta/2) ||a|| has
    a closed form, so this step searches nothing.
3.  ``mu_recursion``:  run the amplitude recursion.  With tau_{k-1} the
    product of all previous amplitudes, the k-th amplitude for phase law
    sigma_i is the smallest mu >= mu*_{k-1} with

        g_i(mu) = (mu tau_{k-1} / r^k) sigma_i(mu tau_{k-1} c_k) >= 1,

    i.e. mu_k^i = mu*_{k-1} when the inequality already holds there
    ("hold" branch) and otherwise the unique root of g_i(mu) = 1 above
    mu*_{k-1} ("root" branch; g_i is strictly increasing with g_i(0)=0,
    so the root can only lie above a point where g_i < 1).  Consequently
    (mu*_k) is nondecreasing, which is exactly what makes the root-step
    bound tau_k <= max_i sigma_i^{-1}(theta^k) / c_k provable:
    tau_k >= mu_1^k gives sigma_i(tau_k c_k) = r^k / tau_k <= theta^k.

    The roots come in closed form.  With t = mu tau_{k-1} c_k the
    condition g_i(mu) >= 1 reads

        h_i(t) = t sigma_i(t) >= c_k r^k

    (sigma_i frozen past t_max, see ``laws``), free of the recursion.  So
    one root search (``laws.flip_doubles``) gives every t*_k of both laws
    at once, the smallest double with h_i(t) >= c_k r^k, comparing log t +
    log sigma_i(t) with log c_k + k log r: c_k r^k itself underflows near
    k = 230 at r = 1/16.  The search shares each law's samples among all
    k, interpolates in log t and calls each distinct law a handful of
    times (``SequenceTable.root_evaluations``: 13 to 15 on the benchmark's
    law pairs at K = 256); equal laws are searched once.  The recursion
    is then a scalar pass without law calls: mu = t*_k / (tau_{k-1} c_k)
    is held at mu*_{k-1} when mu <= mu*_{k-1}, capped at 1 when mu > 1,
    and otherwise taken as the root.  Each label comes from that one
    comparison, so a root is strictly above mu*_{k-1} and mu* is
    nondecreasing even at near-ties, not only up to rounding.
4.  ``assemble_omega``:  omega(t) sums the amplitude products tau_n from
    the scale index of t up to the truncation K, plus a certified bound
    on the dropped tail.

Scale indexing: a radius t corresponds to scale n(t) = floor(log t /
log r) clamped to [1, K+1]; t in (r^{n+1}, r^n] belongs to level n.  (An
index map with 1/t in place of log t / log r would spread dyadic radii
over exponentially many levels and destroy the algebraic decay the
construction produces; the logarithmic map inverts t = r^n, the meaning
of "scale n" everywhere else in the pipeline.)

Truncation tail: past K the root-branch values are dominated by
b_k = a_k / c_k and a hold run keeps the constant factor mu*_K, so the
tail is estimated by

    tail = tau_K mu*_K / (1 - mu*_K) + b_K q / (1 - q),

where q is the largest recent ratio of the b_k, accepted only when q < 1
and the driving sequence a_k shows a nonincreasing ratio trend (the same
kind of certificate ``laws.dini_sum`` uses).  Sequences that fail this
test raise UncertifiableTailError: enlarge K or fix the law.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, NumericError, UncertifiableTailError
from .laws import DegeneracyLaw, a_sequence, flip_doubles

REL_TOL = 1e-12
TAIL_MARGIN = 1e-3
TAIL_TREND_SLACK = 1e-4
TAIL_PROBE = 8
R_CAP = 1.0 / 16.0
C_FLOOR = 0.5


@dataclass(frozen=True)
class ScaleSchedule:
    """Base radius r, first amplitude mu_1 and their ratio theta = r/mu_1."""

    C: float
    alpha0: float
    r: float
    mu1: float
    theta: float

    def __post_init__(self):
        if not (self.C > 0.0):
            raise DomainError("ScaleSchedule: C must be positive")
        if not (0.0 < self.alpha0 <= 1.0):
            raise DomainError("ScaleSchedule: alpha0 must lie in (0, 1]")
        lhs = 2.0 * self.C * self.r ** (1.0 + self.alpha0)
        rhs = self.mu1 * self.r
        if abs(lhs - rhs) > REL_TOL * max(abs(lhs), abs(rhs)):
            raise DomainError("ScaleSchedule: 2 C r^(1+alpha0) = mu1 r violated")
        if not (0.0 < self.r < self.mu1 < 1.0):
            raise DomainError("ScaleSchedule: need 0 < r < mu1 < 1")
        if abs(self.theta - self.r / self.mu1) > REL_TOL * self.theta:
            raise DomainError("ScaleSchedule: theta != r / mu1")
        if not (0.0 < self.theta < 1.0):
            raise DomainError("ScaleSchedule: theta must lie in (0, 1)")


@dataclass(frozen=True)
class SequenceTable:
    """All sequences of the recursion, indexed k = 1..K.

    branch1/branch2 record, per step and per phase law, whether the
    amplitude was held at the previous value ("hold"), solved from
    g_i(mu) = 1 ("root"), or pinned at 1 because g_i(1) < 1 ("cap"; the
    product tau then stalls for that step).  Step 1 is the seed
    mu*_1 = mu_1 ("seed").  root_evaluations counts the calls of each
    law the root search made (0 for a table not built by the recursion).
    """

    schedule: ScaleSchedule
    K: int
    a: tuple
    c: tuple
    mu1: tuple
    mu2: tuple
    mu_star: tuple
    tau: tuple
    branch1: tuple
    branch2: tuple
    root_evaluations: int = 0

    def __post_init__(self):
        K = self.K
        seqs = (self.a, self.c, self.mu1, self.mu2, self.mu_star, self.tau,
                self.branch1, self.branch2)
        if K < 1 or any(len(s) != K for s in seqs):
            raise DomainError("SequenceTable: all sequences must have length K >= 1")
        names = ("a", "c", "mu1", "mu2", "mu_star", "tau")
        seqs = np.array([getattr(self, name) for name in names], dtype=float)
        bad = ~np.all((seqs > 0.0) & (seqs < math.inf), axis=1)  # NaN is bad too
        if bad.any():
            raise DomainError(f"SequenceTable: {names[bad.argmax()]} must be positive and finite")
        _, _, mu1, mu2, mu_star, tau = seqs
        if np.any(mu_star != np.maximum(mu1, mu2)):
            raise DomainError("SequenceTable: mu_star != max(mu1, mu2)")
        prod = np.concatenate(([1.0], tau[:-1])) * mu_star
        if np.any(np.abs(tau - prod) > REL_TOL * prod):
            raise DomainError("SequenceTable: tau is not the running product")

    def branch_counts(self) -> dict:
        """Per law, the number of steps labelled hold, root and cap."""
        return {law: {b: labels.count(b) for b in ("hold", "root", "cap")}
                for law, labels in (("sigma_plus", self.branch1), ("sigma_minus", self.branch2))}

    def columns(self):
        """k, a_k, c_k, mu1_k, mu2_k, mu_star_k, tau_k for CSV export."""
        return (range(1, self.K + 1), self.a, self.c, self.mu1, self.mu2,
                self.mu_star, self.tau)


@dataclass(frozen=True)
class Modulus:
    """Evaluable modulus omega(t) = sum_{i=n(t)}^{K} tau_i + tail_bound."""

    r: float
    K: int
    tau: tuple
    tail_bound: float
    suffix: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.r < 1.0):
            raise DomainError("Modulus: r must lie in (0, 1)")
        if self.K != len(self.tau) or self.K < 1:
            raise DomainError("Modulus: tau must have length K >= 1")
        if not (self.tail_bound >= 0.0 and math.isfinite(self.tail_bound)):
            raise DomainError("Modulus: tail_bound must be finite and >= 0")
        # suffix[n] = sum_{i >= n+1} tau_i + tail, so omega at level n+1.
        suf = np.concatenate(
            [np.cumsum(np.asarray(self.tau, dtype=float)[::-1])[::-1],
             [0.0]]
        ) + self.tail_bound
        object.__setattr__(self, "suffix", tuple(suf.tolist()))

    def level(self, t):
        """Scale index of radius t: floor(log t / log r) clamped to [1, K+1]."""
        t = np.asarray(t, dtype=float)
        if not np.all((t >= 0.0) & (t <= 1.0)):  # NaN fails too
            raise DomainError("Modulus: evaluate on t in [0, 1]")
        with np.errstate(divide="ignore"):
            raw = np.floor(np.log(np.where(t > 0.0, t, 1.0)) / math.log(self.r))
        return np.clip(raw, 1, self.K + 1).astype(int)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        n = self.level(t_arr)
        out = np.asarray(np.take(self.suffix, n - 1), dtype=float)
        out = np.where(t_arr == 0.0, 0.0, out)
        if np.ndim(t) == 0:
            return float(out)
        return out


def choose_scale(C: float, alpha0: float) -> ScaleSchedule:
    """Solve 2 C r^(1+alpha0) = mu_1 r with r capped at 1/16.

    r < mu_1 needs C > r^(1 - alpha0) / 2, a bound that binds only at the
    cap r = 1/16, where it is below 1/2 for alpha0 < 1 and equal to 1/2
    at alpha0 = 1.  So C below 1/2 is clamped up to 1/2 (with a warning)
    where that keeps r < mu_1, and a C that the clamp cannot save is a
    DomainError, raised before any warning.  Large C or small alpha0
    underflow r; a schedule whose balance cannot be checked in normal
    doubles is a DomainError too.
    """
    if not (C > 0.0) or not math.isfinite(C):
        raise DomainError("choose_scale: C must be positive and finite")
    if not (0.0 < alpha0 <= 1.0):
        raise DomainError("choose_scale: alpha0 must lie in (0, 1]")
    clamped = max(C, C_FLOOR)
    r = min((4.0 * clamped) ** (-1.0 / alpha0), R_CAP)
    mu1 = 2.0 * clamped * r**alpha0
    if not min(r, mu1 * r, 2.0 * clamped * r ** (1.0 + alpha0)) >= sys.float_info.min:
        raise DomainError(
            f"choose_scale: C={C:g} with alpha0={alpha0:g} gives r = (4C)^(-1/alpha0) = {r:g}, "
            f"too small for both sides of 2 C r^(1+alpha0) = mu1 r to be normal doubles"
        )
    if not r < mu1:
        raise DomainError(
            f"choose_scale: C={C:g} with alpha0={alpha0:g} leaves mu1 <= r; r < mu1 needs "
            f"C > r^(1 - alpha0) / 2 = {r ** (1.0 - alpha0) / 2.0:g} at r = {r:g}"
        )
    if C < C_FLOOR:
        warnings.warn(
            f"choose_scale: C={C} below {C_FLOOR}; clamped up to keep r < mu1",
            stacklevel=2,
        )
        C = clamped
    theta = r / mu1
    return ScaleSchedule(C=C, alpha0=alpha0, r=r, mu1=mu1, theta=theta)


def rescale_sequence(a, delta: float):
    """Dividers c_k -> 0 keeping the ell^1 norm of a/c within the window.

    c is built from square-rooted suffix sums, base_k = sqrt(R_k / R_1)
    with R_k = sum_{i>=k} a_i (division by sqrt of the tail preserves
    summability), then c_k = min(s base_k, 1/eps) with eps = 1/(1+delta)
    and the one factor s that places ||a/c|| at eps (1 + delta/2) ||a||.
    base decreases, so the clamped entries are a prefix k < m, and there
    ||a/c|| = eps A_m + B_m / s with A_m = sum_{k<m} a_k and
    B_m = sum_{k>=m} a_k / base_k.  At s = 1 / (eps base_m), where entry
    m reaches the clamp, ||a/c|| = eps (A_m + base_m B_m), which falls as
    m grows; so m counts the k where that exceeds the target, and s solves
    the linear equation of that m.
    """
    a = np.asarray(list(a), dtype=float)
    if a.size == 0:
        raise DomainError("rescale_sequence: sequence must be non-empty")
    if not np.all(np.isfinite(a)) or np.any(a <= 0.0):
        raise DomainError("rescale_sequence: entries must be positive and finite")
    if not (0.0 < delta < 0.25):
        raise DomainError("rescale_sequence: delta must lie in (0, 1/4)")
    eps = 1.0 / (1.0 + delta)
    norm = float(a.sum())
    goal = (1.0 + 0.5 * delta) * norm  # the target ||a/c|| / eps
    suffix = np.cumsum(a[::-1])[::-1]
    base = np.sqrt(suffix / suffix[0])
    A = np.concatenate(([0.0], np.cumsum(a)[:-1]))
    B = np.cumsum((a / base)[::-1])[::-1]
    # the last entry counts only by rounding: A + base B = ||a|| there
    m = min(int(np.count_nonzero(A + base * B > goal)), a.size - 1)
    s = B[m] / (eps * (goal - A[m]))
    c = np.minimum(s * base, 1.0 / eps)

    got = float(np.sum(a / c))
    lo_bound = eps * (1.0 - 0.5 * delta) * norm
    hi_bound = eps * (1.0 + delta) * norm
    if not (lo_bound <= got <= hi_bound):
        raise NumericError(
            f"rescale_sequence: ||a/c||={got} missed window [{lo_bound}, {hi_bound}]"
        )
    return c.tolist()


def _root_scales(laws, c, log_targets):
    """Every t*_k of each law: the smallest double t with h(t) >= c_k r^k.

    h(t) = t sigma(t), sigma frozen past t_max as ``laws`` states, is
    compared in logs (log sigma = -inf where sigma underflows reads as
    "below").  Where h stays below the target on (0, c_k), t*_k = c_k,
    which the recursion reads as a cap: mu = c_k / (tau_{k-1} c_k) > 1
    because tau_{k-1} <= mu_1 < 1.  Equal laws are searched once, and the
    distinct ones in one stacked call.
    Returns (one list of t*_k per law, the same list for equal laws; the
    calls of each law).
    """

    def log_h(law):
        return lambda t: np.log(t) + np.log(law(t))

    distinct = [law for i, law in enumerate(laws) if law not in laws[:i]]
    targets = np.broadcast_to(log_targets, (len(distinct), len(c)))
    _, t_star, rounds = flip_doubles([log_h(law) for law in distinct], targets, c)
    rows = t_star.tolist()
    return [rows[distinct.index(law)] for law in laws], rounds


def _amplitude(mu_root, mu_prev):
    """(mu_k, branch) from the root mu_root and the previous mu*_{k-1}."""
    if mu_root <= mu_prev:
        return mu_prev, "hold"
    if mu_root > 1.0:
        return 1.0, "cap"
    return mu_root, "root"


def mu_recursion(schedule: ScaleSchedule, laws, a, c) -> SequenceTable:
    """Run the amplitude recursion for K = len(a) steps; see the module docstring.

    ``a`` is the driving sequence ``laws.a_sequence`` gave the caller; it
    is recorded in the table, not recomputed.
    """
    law1, law2 = laws
    if not isinstance(law1, DegeneracyLaw) or not isinstance(law2, DegeneracyLaw):
        raise ConfigError("mu_recursion: laws must be a pair of degeneracy laws")
    a = [float(v) for v in a]
    K = len(a)
    if K < 1:
        raise DomainError("mu_recursion: K must be at least 1")
    c = [float(v) for v in c]
    if len(c) < K:
        raise ConfigError(f"mu_recursion: need {K} dividers, got {len(c)}")
    c_arr = np.asarray(c)
    if not np.all((c_arr > 0.0) & (c_arr < math.inf)):  # NaN fails too
        raise DomainError("mu_recursion: dividers must be positive and finite")

    c_arr = c_arr[:K]
    log_targets = np.log(c_arr) + np.arange(1, K + 1) * math.log(schedule.r)
    roots, root_evaluations = _root_scales((law1, law2), c_arr, log_targets)

    t1, t2 = roots
    ms = tau_k = schedule.mu1
    mu_a, mu_b, mu_star, tau = [ms], [ms], [ms], [ms]
    br1, br2 = ["seed"], ["seed"]
    for k in range(1, K):
        scale = tau_k * c[k]
        m1, b1 = _amplitude(t1[k] / scale, ms)
        m2, b2 = (m1, b1) if t2 is t1 else _amplitude(t2[k] / scale, ms)
        ms = max(m1, m2)
        tau_k = tau_k * ms
        mu_a.append(m1)
        mu_b.append(m2)
        mu_star.append(ms)
        tau.append(tau_k)
        br1.append(b1)
        br2.append(b2)

    return SequenceTable(
        schedule=schedule,
        K=K,
        a=tuple(a),
        c=tuple(c[:K]),
        mu1=tuple(mu_a),
        mu2=tuple(mu_b),
        mu_star=tuple(mu_star),
        tau=tuple(tau),
        branch1=tuple(br1),
        branch2=tuple(br2),
        root_evaluations=root_evaluations,
    )


def certified_tail(table: SequenceTable) -> float:
    """Geometric bound on sum_{k>K} tau_k; see the module docstring.

    Raises UncertifiableTailError when the comparison sequence b = a/c
    does not show a certified geometric decay over the last probe window
    or when mu*_K has already hit 1 (a stalled product cannot be summed).
    """
    K = table.K
    a = np.asarray(table.a, dtype=float)
    b = a / np.asarray(table.c, dtype=float)
    mu_last = table.mu_star[-1]
    if mu_last >= 1.0:
        raise UncertifiableTailError(
            "certified_tail: mu* reached 1; increase K or check the laws", table
        )
    lo = max(0, K - TAIL_PROBE - 1)
    if K - lo < 2:
        raise UncertifiableTailError("certified_tail: need K >= 2 for a ratio probe",
                                     table)
    # Decay evidence lives in the driving sequence a; the dividers c end
    # with a truncated suffix sum that only inflates the last few ratios
    # of b (conservatively for the bound below), so the trend is probed
    # on a and the worst-case ratio q on b.
    a_ratios = a[lo + 1:] / a[lo:-1]
    trend_ok = np.all(np.diff(a_ratios) <= TAIL_TREND_SLACK * a_ratios[:-1])
    ratios = b[lo + 1:] / b[lo:-1]
    q = float(np.max(ratios))
    if not trend_ok or q > 1.0 - TAIL_MARGIN:
        raise UncertifiableTailError(
            f"certified_tail: comparison ratios not certifiably geometric "
            f"(max ratio {q:.6g}); increase K", table
        )
    hold_part = table.tau[-1] * mu_last / (1.0 - mu_last)
    root_part = float(b[-1]) * q / (1.0 - q)
    return hold_part + root_part


def assemble_omega(table: SequenceTable) -> Modulus:
    """Certified evaluable modulus from a finished sequence table."""
    tail = certified_tail(table)
    return Modulus(r=table.schedule.r, K=table.K, tau=table.tau, tail_bound=tail)


def build_modulus(law1, law2, C: float, alpha0: float, delta: float,
                  K: int = 256):
    """Whole pipeline: schedule, dividers, recursion, modulus.

    Returns (schedule, table, modulus).
    """
    schedule = choose_scale(C, alpha0)
    a = a_sequence(law1, law2, schedule.theta, K)
    positive = [v for v in a if v > 0.0]
    if len(positive) < len(a):
        # theta^k can underflow sigma^{-1} to zero; truncate to the
        # positive prefix (the dropped levels contribute nothing).
        K = len(positive)
        if K < 2:
            raise UncertifiableTailError(
                "build_modulus: driving sequence underflows immediately"
            )
        a = positive
    c = rescale_sequence(a, delta)
    table = mu_recursion(schedule, (law1, law2), a, c)
    modulus = assemble_omega(table)
    return schedule, table, modulus
