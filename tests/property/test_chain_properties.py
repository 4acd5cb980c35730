"""Property-based tests on HyperLoop chain construction.

One group is built once (module scope) and reused — these properties
only exercise pure blob/patch construction, never the simulator clock.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import HyperLoopGroup, OpSpec, SKIP_SENTINEL
from repro.core.chain import GCAS, GMEMCPY, GWRITE
from repro.hw import Cluster
from repro.hw.wqe import Opcode, WQE_SIZE, Wqe
from repro.sim import Simulator

_REGION = 1 << 16


def _build_group():
    sim = Simulator(seed=97)
    cluster = Cluster(sim, n_hosts=4, n_cores=2)
    return HyperLoopGroup(
        cluster[0], cluster.hosts[1:4], region_size=_REGION,
        rounds=8, autostart=False, name="prop",
    )


_GROUP = _build_group()


def group():
    return _GROUP


offsets = st.integers(0, _REGION - 1)
rounds = st.integers(0, 1000)


@given(rounds, offsets, st.integers(0, 4096))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_gwrite_patch_fields(round_, offset, size):
    chain = group().chain(GWRITE)
    spec = OpSpec(GWRITE, offset=offset, size=min(size, _REGION - offset))
    for replica in range(2):  # non-tail
        patch = Wqe.unpack(chain.build_patch(replica, round_, spec))
        assert patch.opcode == Opcode.WRITE
        assert patch.valid and not patch.signaled
        assert patch.length == spec.size
        assert patch.local_addr - group().replica_mrs[replica].addr == offset
        assert patch.remote_addr - group().replica_mrs[replica + 1].addr == offset
    assert chain.build_patch(2, round_, spec) == bytes(WQE_SIZE)


@given(rounds, offsets, offsets, st.integers(0, 4096))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_gmemcpy_patch_is_strictly_local(round_, src, dst, size):
    chain = group().chain(GMEMCPY)
    spec = OpSpec(GMEMCPY, src_offset=src, dst_offset=dst, size=size)
    for replica in range(3):
        patch = Wqe.unpack(chain.build_patch(replica, round_, spec))
        mr = group().replica_mrs[replica]
        assert patch.opcode == Opcode.WRITE
        assert patch.local_addr == mr.addr + src
        assert patch.remote_addr == mr.addr + dst
        assert patch.rkey == mr.rkey  # never another replica's key


@given(
    rounds,
    offsets,
    st.integers(0, 2**63),
    st.integers(0, 2**63),
    st.lists(st.booleans(), min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_gcas_patch_respects_execute_map(round_, offset, compare, swap, execute_map):
    chain = group().chain(GCAS)
    spec = OpSpec(GCAS, offset=offset, compare=compare, swap=swap, execute_map=execute_map)
    for replica in range(3):
        patch = Wqe.unpack(chain.build_patch(replica, round_, spec))
        if execute_map[replica]:
            assert patch.opcode == Opcode.CAS
            assert patch.compare == compare and patch.swap == swap
        else:
            assert patch.opcode == Opcode.NOP
        # Executed or skipped, the completion must still advance the
        # loopback WAIT: everything is signaled.
        assert patch.signaled
        # Result always lands inside that replica's staging slot.
        state = chain.replicas[replica]
        slot = chain.staging_slot_addr(state, round_)
        assert slot <= patch.local_addr < slot + chain.result_size


@given(rounds, offsets, st.integers(0, 1024))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_payload_structure(round_, offset, size):
    chain = group().chain(GWRITE)
    spec = OpSpec(GWRITE, offset=offset, size=min(size, _REGION - offset))
    payload = chain.build_payload(round_, spec)
    assert len(payload) == chain.payload_size
    sentinel = SKIP_SENTINEL.to_bytes(8, "little")
    assert payload[: chain.result_size] == sentinel * 3
    # Trailing patch duplicates the head replica's patch exactly.
    head = chain.patch_offset(0)
    assert payload[-WQE_SIZE:] == payload[head : head + WQE_SIZE]


@given(st.integers(0, 5000), st.integers(0, 2))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_op_slots_never_collide_within_a_lap(round_, replica):
    """Within one ring lap, different rounds' op slots are distinct
    addresses; across laps they wrap to the same address."""
    chain = group().chain(GWRITE)
    if replica == 2:
        return  # tail has no op slot in the gwrite chain
    base = chain.op_slot_addr(replica, round_)
    for other in range(round_ + 1, round_ + chain.rounds):
        assert chain.op_slot_addr(replica, other) != base
    assert chain.op_slot_addr(replica, round_ + chain.rounds) == base
