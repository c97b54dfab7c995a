"""Exception types shared across the package, and the float check of the
config classes."""

import dataclasses


class DMFNetError(Exception):
    """Base class for package errors."""


class ConfigError(DMFNetError, ValueError):
    """Invalid configuration (group divisibility, bad ranges, unknown modes)."""


class ShapeError(DMFNetError, ValueError):
    """Array shape violates an operation's contract."""


class CheckpointError(DMFNetError, ValueError):
    """Malformed or mismatched checkpoint file."""


class DataError(DMFNetError, ValueError):
    """Missing or corrupt case files, illegal label values."""


class GradientError(DMFNetError, RuntimeError):
    """Non-finite gradient encountered by the optimizer."""


class TrainingDiverged(DMFNetError, RuntimeError):
    """Loss became non-finite during training."""

    def __init__(self, step, last_finite_loss):
        self.step = step
        self.last_finite_loss = last_finite_loss
        super().__init__(
            f"loss became non-finite at step {step}; last finite loss was {last_finite_loss}"
        )


def hold_floats(cfg):
    """Store each field of the frozen dataclass ``cfg`` whose default is a float as a
    float; a value that no float can hold (a string, or an int beyond the float range)
    is a ConfigError."""
    for f in dataclasses.fields(cfg):
        if not isinstance(f.default, float):
            continue
        value = getattr(cfg, f.name)
        try:
            held = float(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{f.name} needs a number a float can hold, got {value!r}") from None
        object.__setattr__(cfg, f.name, held)
