"""Broadcast erasure channel description.

One sender, ``n`` receivers. Each transmitted packet is erased at receiver i
independently with probability ``erasures[i]``, independently across slots.
"""

from dataclasses import dataclass

from .errors import ConfigError


def check_receivers(n_receivers: int):
    """A channel has at least one receiver."""
    if not n_receivers >= 1:
        raise ConfigError(f"receivers must be >= 1, got {n_receivers}")


@dataclass(frozen=True)
class ChannelModel:
    """Per-receiver erasure probabilities of a broadcast channel."""

    erasures: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "erasures", tuple(float(e) for e in self.erasures))
        check_receivers(len(self.erasures))
        for i, e in enumerate(self.erasures):
            if not 0.0 <= e <= 1.0:
                raise ConfigError(f"erasure probability {e} of receiver {i} outside [0, 1]")

    @classmethod
    def homogeneous(cls, erasure: float, n_receivers: int) -> "ChannelModel":
        """Channel with ``n_receivers`` identical erasure probabilities."""
        check_receivers(n_receivers)
        return cls((float(erasure),) * n_receivers)

    @property
    def n_receivers(self) -> int:
        return len(self.erasures)

    def worst_erasure(self) -> float:
        return max(self.erasures)
