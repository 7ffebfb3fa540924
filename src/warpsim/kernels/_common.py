"""Shared helpers for the primitive library."""


class LengthMismatch(ValueError):
    pass


class ShapeMismatch(ValueError):
    pass


class NotPowerOfTwo(ValueError):
    pass


THREADS_PER_BLOCK = 256
MAX_BLOCK_THREADS = 1024


def is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def next_pow2(n: int) -> int:
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()
