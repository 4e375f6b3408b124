"""Shared utilities: deterministic RNG management and bit manipulation."""

from repro.utils.rng import derive_rng, make_rng
from repro.utils.bits import (
    get_bit,
    get_bits,
    set_bit,
    set_bits,
    sign_extend,
    to_signed,
    to_unsigned,
    MASK32,
    MASK64,
)

__all__ = [
    "derive_rng",
    "make_rng",
    "get_bit",
    "get_bits",
    "set_bit",
    "set_bits",
    "sign_extend",
    "to_signed",
    "to_unsigned",
    "MASK32",
    "MASK64",
]
