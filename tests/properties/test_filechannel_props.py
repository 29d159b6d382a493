"""Property tests for FileChannel spool resume and gap tolerance.

The contract under test: whatever subset of a spool survives (a crashed
consumer may have deleted arbitrary files, including out of order), a
resumed :class:`FileChannel` delivers exactly the surviving messages, in
number order, and ``pending()`` always equals the number of spool files
actually on disk — never the counter arithmetic that overcounts gaps.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport import FileChannel


@st.composite
def spool_scenario(draw):
    """(number of sent messages, set of indices deleted behind our back)."""
    n_sent = draw(st.integers(min_value=0, max_value=12))
    deleted = draw(
        st.sets(st.integers(min_value=0, max_value=max(n_sent - 1, 0)),
                max_size=n_sent)
    )
    return n_sent, {d for d in deleted if d < n_sent}


@settings(max_examples=60, deadline=None)
@given(scenario=spool_scenario())
def test_resumed_spool_delivers_survivors_in_order(tmp_path_factory,
                                                   scenario):
    n_sent, deleted = scenario
    directory = tmp_path_factory.mktemp("spool")
    writer = FileChannel(directory)
    for i in range(n_sent):
        writer.send(f"msg-{i}".encode())
    for index in deleted:
        (directory / f"{index:09d}.msg").unlink()

    survivors = [i for i in range(n_sent) if i not in deleted]
    resumed = FileChannel(directory)
    assert resumed.pending() == len(survivors)
    received = [payload.decode() for payload in resumed.drain()]
    assert received == [f"msg-{i}" for i in survivors]
    assert resumed.pending() == 0
    assert resumed.receive() is None


@settings(max_examples=40, deadline=None)
@given(scenario=spool_scenario())
def test_gap_in_live_channel_does_not_stall(tmp_path_factory, scenario):
    """Deleting files under a live channel must skip, not stall."""
    n_sent, deleted = scenario
    directory = tmp_path_factory.mktemp("spool")
    channel = FileChannel(directory)
    for i in range(n_sent):
        channel.send(f"m{i}".encode())
    for index in deleted:
        (directory / f"{index:09d}.msg").unlink()
    survivors = [i for i in range(n_sent) if i not in deleted]
    assert [p.decode() for p in channel.drain()] == [
        f"m{i}" for i in survivors
    ]


@settings(max_examples=40, deadline=None)
@given(n_first=st.integers(0, 6), n_second=st.integers(0, 6))
def test_send_after_resume_continues_numbering(tmp_path_factory, n_first,
                                               n_second):
    directory = tmp_path_factory.mktemp("spool")
    first = FileChannel(directory)
    for i in range(n_first):
        first.send(f"a{i}".encode())
    second = FileChannel(directory)
    for i in range(n_second):
        second.send(f"b{i}".encode())
    expected = [f"a{i}" for i in range(n_first)] + [
        f"b{i}" for i in range(n_second)
    ]
    assert [p.decode() for p in second.drain()] == expected
