"""The engine's uplink UOP against the analysis, an oracle that shares no code with it.

With one QoS rate ``R`` and ``f = 2^(2R)``, every uplink power under channel
pairing depends only on the user's own gain: ``c * Pz / h^2``, where ``c``
is ``f`` for an OPA far user, ``f (1 + f)`` for an OPA near user, ``f^2``
for both OMA members and ``f`` for the unpaired (strongest) user. A user
is out when that power exceeds the cap, i.e. when ``h < sqrt(c Pz / cap)``.
Channel pairing puts the i-th smallest gain in a fixed role, so the user at
sorted position ``i`` is out with probability ``P(Bin(n, F(t_i)) >= i)``,
where ``F`` is the one-user gain CDF: users are i.i.d. with ``l`` uniform in
``[l_min, l_max]`` and ``r`` uniform in ``[0, r_max]``, and the gain
``C l^(m+1) / (l^2 + r^2)^((m+3)/2)`` falls with ``r``, so ``F`` is a
one-dimensional integral over ``l``.
"""

import math

import numpy as np
import pytest

from lifi_noma import ScenarioConfig, Strategy, run_uop_sweep

RATE = 2.0
CAPS = (0.02, 0.05, 0.2, 0.5)
TRIALS = 20_000
SEED = 31  # fixed before the comparison was first run


def gain_cdf(config: ScenarioConfig, t: float) -> float:
    """``P(h < t)`` for one user: a trapezoid over ``l`` of the share of ``r``
    beyond ``min(rho(l), l tan(FOV), r_max)``."""
    tan_fov, exponent, constant = config.front_end.gain_terms  # exponent is m + 1
    l = np.linspace(config.l_min, config.l_max, 4001)
    rho = np.sqrt(np.maximum(0.0, (constant * l ** exponent / t) ** (2.0 / (exponent + 2.0))
                             - l * l))
    below = 1.0 - np.minimum(np.minimum(rho, l * tan_fov), config.r_max) / config.r_max
    area = np.sum((below[1:] + below[:-1]) * np.diff(l)) / 2.0
    return float(area / (config.l_max - config.l_min))


def at_least(n: int, q: float, i: int) -> float:
    """``P(Bin(n, q) >= i)``."""
    return sum(math.comb(n, k) * q ** k * (1.0 - q) ** (n - k) for k in range(i, n + 1))


def analytic_uop_ul(config: ScenarioConfig, strategy: Strategy, cap: float) -> float:
    n, f = config.num_users, 2.0 ** (2.0 * RATE)
    half = n // 2
    far, near = (f, f * (1.0 + f)) if strategy is Strategy.OPA else (f * f, f * f)
    demands = [far] * half + [near] * half + [f] * (n % 2)  # by ascending gain
    return sum(at_least(n, gain_cdf(config, math.sqrt(c * config.noise_power / cap)), i)
               for i, c in enumerate(demands, start=1)) / n


@pytest.mark.parametrize("num_users", [16, 5])
def test_uplink_uop_matches_the_order_statistics(num_users):
    config = ScenarioConfig(
        num_users=num_users, trials=TRIALS, seed=SEED, qos_set=(RATE,),
        strategies=(Strategy.OPA, Strategy.OMA), pairings=("channel",),
        uop_sweep_link="ul", uop_sweep_grid=CAPS)
    # the default optics keep every user inside the FOV: no infeasible pair
    tan_fov = config.front_end.gain_terms[0]
    assert config.r_max < config.l_min * tan_fov
    for summary, cap in zip(run_uop_sweep(config), CAPS):
        for strategy in config.strategies:
            p = analytic_uop_ul(config, strategy, cap)
            got = summary.cells[(strategy.value, "channel")].mean_uop_ul
            # a per-trial UOP lies in [0, 1] with mean p: its variance is at most p (1 - p)
            bound = 4.0 * math.sqrt(p * (1.0 - p) / TRIALS) + 1e-9
            assert abs(got - p) <= bound, (strategy, cap, got, p, bound)
