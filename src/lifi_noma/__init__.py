"""Energy-efficiency simulator for NOMA-based bidirectional LiFi attocells.

One ceiling access point serves many IoT devices over a visible-light
downlink and an infrared uplink. The package models the LOS optical
channel, computes QoS-guaranteed minimum-power allocations under NOMA
(optimal closed form plus the GRPA/NGDPA channel-based baselines) and OMA,
pairs users by channel gain, QoS or adaptively, and estimates energy
efficiency and per-link user outage probabilities with a deterministic,
seeded Monte Carlo engine.

Quick start::

    from lifi_noma import ScenarioConfig, run_campaign

    config = ScenarioConfig(num_users=16, trials=1000, seed=7,
                            qos_set=(1.0, 2.0, 3.0, 4.0))
    summary = run_campaign(config)

The ``lifi-noma`` command-line tool drives the same engine from scenario
files and writes CSV results; see the README.
"""

__version__ = "0.1.0"

from .allocation import (
    InfeasibleAllocationError,
    PowerLimits,
    QosRates,
    Strategy,
    UserPair,
    allocate,
    channel_based_allocation,
    oma_allocation,
    opa_set,
    single_user_allocation,
)
from .channel import (
    NoiseModel,
    OpticalFrontEnd,
    UserPosition,
    channel_gain,
)
from .metrics import (
    LinkOutage,
    downlink_uop,
    uplink_uop,
)
from .pairing import (
    adaptive_pairing,
    pair_by_channel,
    pair_by_qos,
)
from .simulation import (
    CampaignSummary,
    CellResult,
    CellSummary,
    ScenarioConfig,
    ScenarioValidationError,
    UserNode,
    evaluate_population,
    run_campaign,
    run_trial,
    run_uop_sweep,
    sample_users,
    two_user_sweep,
)

__all__ = [
    "__version__",
    # channel
    "OpticalFrontEnd",
    "UserPosition",
    "NoiseModel",
    "channel_gain",
    # allocation
    "Strategy",
    "QosRates",
    "UserPair",
    "PowerLimits",
    "InfeasibleAllocationError",
    "opa_set",
    "channel_based_allocation",
    "oma_allocation",
    "single_user_allocation",
    "allocate",
    # pairing
    "pair_by_channel",
    "pair_by_qos",
    "adaptive_pairing",
    # metrics
    "LinkOutage",
    "downlink_uop",
    "uplink_uop",
    # simulation
    "UserNode",
    "ScenarioConfig",
    "ScenarioValidationError",
    "CellResult",
    "CellSummary",
    "CampaignSummary",
    "sample_users",
    "evaluate_population",
    "run_trial",
    "run_campaign",
    "run_uop_sweep",
    "two_user_sweep",
]
