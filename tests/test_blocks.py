import pytest

from disaggsim.blocks import BlockManager, CacheKind, blocks_for


def manager(total=10, block_size=16) -> BlockManager:
    return BlockManager(CacheKind.KV, block_size, total)


# The last needs 10**18 + 1 blocks; float division would round it to 10**18.
@pytest.mark.parametrize("tokens, blocks", [(0, 0), (1, 1), (16, 1), (17, 2),
                                            (16 * 10**18 + 1, 10**18 + 1)])
def test_blocks_round_up(tokens, blocks):
    assert blocks_for(tokens, 16) == blocks
    assert manager(total=blocks).can_allocate(tokens)
    assert manager(total=blocks).allocate(0, tokens) == blocks
    if blocks:
        assert not manager(total=blocks - 1).can_allocate(tokens)


def test_allocate_free_conservation():
    m = manager(total=10)
    m.allocate(1, 33)  # 3 blocks
    m.allocate(2, 16)  # 1 block
    assert m.used_blocks == 4
    assert m.free_blocks == 6
    m.free(1)
    m.free(2)
    assert m.used_blocks == 0
    assert m.free_blocks == 10


def test_zero_token_allocation_holds_no_blocks():
    m = manager()
    m.allocate(5, 0)
    assert m.used_blocks == 0
    m.free(5)


def test_can_allocate_respects_capacity():
    m = manager(total=2)
    assert m.can_allocate(32)
    assert not m.can_allocate(33)


def test_overcommit_raises():
    m = manager(total=2)
    with pytest.raises(RuntimeError):
        m.allocate(1, 100)


def test_double_allocate_raises():
    m = manager()
    m.allocate(1, 16)
    with pytest.raises(RuntimeError):
        m.allocate(1, 16)


def test_double_free_raises():
    m = manager()
    m.allocate(1, 16)
    m.free(1)
    with pytest.raises(RuntimeError):
        m.free(1)


def test_counts_are_recorded_and_restored():
    m = manager(total=10)
    assert m.allocate(1, 33) == 3
    assert m.allocate(2, 16) == 1
    assert m.allocated == {1: 3, 2: 1}
    assert (m.free_blocks, m.used_blocks) == (6, 4)
    m.free(1)
    assert m.allocated == {2: 1}
    assert (m.free_blocks, m.used_blocks) == (9, 1)
    assert m.allocate(3, 16 * 9) == 9
    assert (m.free_blocks, m.used_blocks) == (0, 10)
    with pytest.raises(RuntimeError):
        m.allocate(4, 1)  # overcommit
    with pytest.raises(RuntimeError):
        m.allocate(3, 1)  # double allocate
    m.free(2)
    m.free(3)
    with pytest.raises(RuntimeError):
        m.free(3)  # double free
    assert (m.free_blocks, m.used_blocks, m.allocated) == (10, 0, {})
