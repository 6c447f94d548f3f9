"""Fixed-size cache block accounting for MM and KV caches."""

from __future__ import annotations

from enum import Enum


class CacheKind(Enum):
    MM = "mm"
    KV = "kv"


def blocks_for(tokens: int, block_size: int) -> int:
    """Whole blocks of ``block_size`` tokens that hold ``tokens``."""
    return -(-tokens // block_size) if tokens > 0 else 0


class BlockManager:
    """Pre-allocates whole blocks per request; every allocation is freed once.

    Blocks are interchangeable, so only counts are kept: the number of free
    blocks and the number each request holds. Every operation is O(1).
    """

    def __init__(self, kind: CacheKind, block_size: int, total_blocks: int):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        if total_blocks < 0:
            raise ValueError("total_blocks must be >= 0")
        self.kind = kind
        self.block_size = block_size
        self.total_blocks = total_blocks
        self.free_blocks = total_blocks
        self.allocated: dict[int, int] = {}

    @property
    def used_blocks(self) -> int:
        return self.total_blocks - self.free_blocks

    # Both round ``tokens`` up to blocks as :func:`blocks_for` does, inline.
    def can_allocate(self, tokens: int) -> bool:
        # A count of no tokens rounds to at most 0 blocks, which always fit.
        return -(-tokens // self.block_size) <= self.free_blocks

    def allocate(self, request_id: int, tokens: int) -> int:
        """Reserve blocks for ``tokens``; return how many were taken."""
        if request_id in self.allocated:
            raise RuntimeError(f"request {request_id} already holds {self.kind.value} blocks")
        need = -(-tokens // self.block_size) if tokens > 0 else 0
        if need > self.free_blocks:
            raise RuntimeError(f"{self.kind.value} cache overcommitted ({need} > {self.free_blocks})")
        self.free_blocks -= need
        self.allocated[request_id] = need
        return need

    def free(self, request_id: int) -> None:
        try:
            self.free_blocks += self.allocated.pop(request_id)
        except KeyError:
            raise RuntimeError(f"request {request_id} holds no {self.kind.value} blocks") from None
