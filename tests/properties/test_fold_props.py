"""Property: the bulk aggregate fold ≡ folding value by value.

:func:`repro.engine.operators.fold_values` picks builtins by the exact
type set of a batch's values; the reference is :func:`_update_state`
applied to every non-null value in order, which is what every batch
fold did before.  Over lists mixing ints (big ones too), floats (±0.0,
infinities, NaN), bools, strings and nulls, split at random batch
boundaries and folded into a random pre-seeded state, both must reach
the same state: the same count, the same total to the last bit (its
``repr``), and the same minimum and maximum by value, by type and by
``repr`` — or raise the same error.  A fold that sums with ``sum()``
fails this: it adds big ints exactly and, from Python 3.12, compensates
float sums, where the per-value fold rounds after every addition.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.operators import _AggState, _update_state, fold_values

BIG = 2 ** 53

NUMBERS = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=BIG, max_value=2 ** 70),
    st.integers(min_value=-(2 ** 70), max_value=-BIG),
    st.floats(),
    st.sampled_from([0, 0.0, -0.0, 1, 1.0, float(BIG), 1e16]),
)

VALUES = st.one_of(
    NUMBERS,
    NUMBERS,
    st.booleans(),
    st.text(alphabet="ab", max_size=2),
    st.none(),
)

#: Mostly numeric lists (the builtin path), sometimes of one other kind.
VALUE_LISTS = st.one_of(
    st.lists(st.one_of(NUMBERS, st.none()), max_size=40),
    st.lists(VALUES, max_size=40),
    st.lists(st.one_of(st.booleans(), st.none()), max_size=10),
    st.lists(st.one_of(st.text(alphabet="ab", max_size=2), st.none()),
             max_size=10),
)

EXTREMES = st.one_of(NUMBERS, st.booleans(),
                     st.text(alphabet="ab", max_size=2))


@st.composite
def seeded_states(draw):
    """A state as earlier batches may have left it."""
    if draw(st.booleans()):
        return (0, 0.0, None, None)
    return (
        draw(st.integers(min_value=1, max_value=1000)),
        draw(st.one_of(st.floats(), st.sampled_from([0.0, -0.0]))),
        draw(EXTREMES),
        draw(EXTREMES),
    )


def _fold_reference(state, values):
    for value in values:
        if value is not None:
            _update_state(state, value)


def _fold_bulk(state, values, cuts):
    bounds = [0] + cuts + [len(values)]
    for lo, hi in zip(bounds, bounds[1:]):
        fold_values(state, values[lo:hi])


def _run(fold, seed, *args):
    state = _AggState(*seed)
    try:
        fold(state, *args)
    except (TypeError, OverflowError) as exc:
        return None, (type(exc), str(exc))
    return state, None


def _same(a, b):
    """Equal by value (NaN equals NaN), by type and by repr (-0.0)."""
    by_value = a == b or (a != a and b != b)
    return by_value and type(a) is type(b) and repr(a) == repr(b)


@given(seed=seeded_states(), values=VALUE_LISTS, data=st.data())
@settings(max_examples=400, deadline=None)
@example(seed=(0, 0.0, None, None), values=[BIG, 1, 1], data=None)
@example(seed=(0, 0.0, None, None), values=[1e16, 1.0, -1e16], data=None)
@example(seed=(2, 0.0, 0, 0.0), values=[-0.0, 0, 0.0, -0.0], data=None)
def test_bulk_fold_equals_per_value_fold(seed, values, data):
    cuts = [] if data is None else sorted(data.draw(st.lists(
        st.integers(min_value=0, max_value=len(values)), max_size=4)))
    reference, ref_error = _run(_fold_reference, seed, values)
    bulk, bulk_error = _run(_fold_bulk, seed, values, cuts)
    assert bulk_error == ref_error
    if ref_error is not None:
        return
    assert bulk.count == reference.count
    assert repr(bulk.total) == repr(reference.total)
    assert _same(bulk.minimum, reference.minimum)
    assert _same(bulk.maximum, reference.maximum)


def test_fold_skips_nulls():
    state = _AggState()
    fold_values(state, [None, 3, None, 1.5])
    assert (state.count, state.total, state.minimum, state.maximum) == \
        (2, 4.5, 1.5, 3)
    fold_values(state, [None, None])
    assert state.count == 2
