"""Network substrate: fair lossy channels, baselines and the anonymous
completely connected topology (paper §II)."""

from .channel import Channel, ChannelStats, LossyChannel
from .delay import (
    DelayModel,
    DelaySpec,
    ExponentialDelay,
    FixedDelay,
    UniformDelay,
)
from .fair_lossy import (
    DEFAULT_FAIRNESS_BOUND,
    FairLossyChannel,
    FairLossyChannelFactory,
)
from .loss import (
    AdversarialFiniteLoss,
    BernoulliLoss,
    DropFirstK,
    GilbertElliottLoss,
    LossModel,
    LossSpec,
    NoLoss,
    PartitionLoss,
)
from .network import Network
from .reliable import (
    QuasiReliableChannel,
    QuasiReliableChannelFactory,
    ReliableChannel,
    ReliableChannelFactory,
)

__all__ = [
    "AdversarialFiniteLoss",
    "BernoulliLoss",
    "Channel",
    "ChannelStats",
    "DEFAULT_FAIRNESS_BOUND",
    "DelayModel",
    "DelaySpec",
    "DropFirstK",
    "ExponentialDelay",
    "FairLossyChannel",
    "FairLossyChannelFactory",
    "FixedDelay",
    "GilbertElliottLoss",
    "LossModel",
    "LossSpec",
    "LossyChannel",
    "Network",
    "NoLoss",
    "PartitionLoss",
    "QuasiReliableChannel",
    "QuasiReliableChannelFactory",
    "ReliableChannel",
    "ReliableChannelFactory",
    "UniformDelay",
]
