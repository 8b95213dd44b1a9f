"""Built-in experiment functions addressable from the CLI by name."""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["BuiltinFunction", "BUILTINS", "get_builtin"]

# the two-level step signal (the `step-25-255` builtin and the denoising
# ground truth): STEP_LOW up to x = STEP_JUMP_AT inclusive, STEP_HIGH after
STEP_LOW, STEP_HIGH, STEP_JUMP_AT = 25.0, 255.0, 140.0
STEP_MID = 0.5 * (STEP_LOW + STEP_HIGH)  # the value that splits the two levels


def _heaviside(x: float) -> float:
    # 0 for x < 0, 1 for x >= 0
    return 0.0 if x < 0 else 1.0


@dataclass(frozen=True)
class BuiltinFunction:
    name: str
    fn: callable
    domain: tuple[float, float]


BUILTINS = {
    b.name: b
    for b in (
        BuiltinFunction("heaviside-sine",
                        lambda x: math.sin(x) * (2.0 * _heaviside(x) - 1.0),
                        (-1.0, 1.0)),
        BuiltinFunction("cos-one-jump",
                        lambda x: math.cos(x) * (2.0 * _heaviside(x) - 1.0),
                        (-math.pi, math.pi)),
        BuiltinFunction("two-jump",
                        lambda x: (2.0 * _heaviside(x + math.pi / 3.0) - 1.0) * math.cos(x)
                        - _heaviside(x - math.pi / 2.0) * math.sin(x),
                        (-math.pi, math.pi)),
        BuiltinFunction("sin10pi",
                        lambda x: math.sin(10.0 * math.pi * x),
                        (-1.0, 1.0)),
        BuiltinFunction("sigmoid60",
                        lambda x: 1.0 / (1.0 + math.exp(-60.0 * x)),
                        (-1.0, 1.0)),
        BuiltinFunction("relu",
                        lambda x: max(0.0, x),
                        (-1.0, 1.0)),
        BuiltinFunction("step-25-255",
                        lambda x: STEP_LOW if x <= STEP_JUMP_AT else STEP_HIGH,
                        (0.0, 400.0)),
    )
}


def get_builtin(name: str) -> BuiltinFunction:
    try:
        return BUILTINS[name]
    except KeyError:
        raise KeyError(
            f"unknown function {name!r}; available: {', '.join(sorted(BUILTINS))}"
        ) from None
