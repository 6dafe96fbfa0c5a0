"""The fused window loop equals the per-access reference model, bit for bit.

:meth:`CoreUarchState._run_window` inlines the stream draws, the cache
access and the predictor update, and folds its tallies into the stats once
per window.  Random interleavings of user windows, kernel windows and
flushes must leave it in exactly the state the per-access model of
:mod:`tests.uarch.reference` reaches: the same return values, counters
(with their key order), per-set LRU order, predictor tables, history and
RNG state.  The fused loop's per-spec index tables persist across windows,
so reused specs and ``drop_tables`` calls are part of the interleavings.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.uarch import AddressStreamSpec, BranchStreamSpec, CoreUarchState, UarchConfig

from .reference import ReferenceUarchState

_LINE_SIZES = st.sampled_from([32, 64, 128])

_configs = st.builds(
    UarchConfig,
    cache_sets=st.sampled_from([1, 2, 3, 16, 64]),
    cache_ways=st.integers(min_value=1, max_value=8),
    line_size=_LINE_SIZES,
    predictor_entries=st.sampled_from([2, 16, 64, 1024]),
    history_bits=st.integers(min_value=0, max_value=6),
)

_address_specs = st.builds(
    AddressStreamSpec,
    base=st.integers(min_value=0, max_value=2**40),
    lines=st.integers(min_value=1, max_value=700),
    hot_fraction=st.floats(min_value=0.001, max_value=1.0),
    hot_rate=st.floats(min_value=0.0, max_value=1.0),
    line_size=_LINE_SIZES,
)

_branch_specs = st.builds(
    BranchStreamSpec,
    base_pc=st.integers(min_value=0, max_value=2**34),
    sites=st.integers(min_value=1, max_value=700),
    bias=st.floats(min_value=0.5, max_value=1.0),
)

_counts = st.integers(min_value=0, max_value=160)

_specs = st.integers(min_value=0, max_value=2)  # index into the example's spec pools

_steps = st.one_of(
    st.tuples(
        st.just("user"), st.sampled_from(["a", "b", "c"]), _specs, _specs, _counts, _counts,
    ),
    st.tuples(st.just("kernel"), _specs, _specs, _counts, _counts),
    st.tuples(st.just("flush")),
    st.tuples(st.just("drop_tables")),
)

def _snapshot(state):
    """Everything the window API can change, with dict key order kept."""
    cache, predictor = state.l1d, state.predictor

    def items(counter):
        return list(counter.items())

    return {
        "hits": items(cache.stats.hits),
        "misses": items(cache.stats.misses),
        "sets": [list(cache_set) for cache_set in cache._sets],
        "predictions": items(predictor.stats.predictions),
        "mispredictions": items(predictor.stats.mispredictions),
        "table": list(predictor._table),
        "history": predictor._history,
        "rng": state._rng.getstate(),
    }


@given(
    config=_configs,
    seed=st.integers(min_value=0, max_value=2**32),
    addr_pool=st.lists(_address_specs, min_size=3, max_size=3),
    branch_pool=st.lists(_branch_specs, min_size=3, max_size=3),
    steps=st.lists(_steps, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_fused_windows_match_per_access_reference(config, seed, addr_pool, branch_pool, steps):
    fused = CoreUarchState(config, random.Random(seed))
    reference = ReferenceUarchState(config, random.Random(seed))
    for step in steps:
        kind = step[0]
        if kind in ("user", "kernel"):
            owner = step[1:-4]
            addr, branch, accesses, branches = step[-4:]
            args = (*owner, addr_pool[addr], branch_pool[branch], accesses, branches)
            method = f"run_{kind}_window"
            got = getattr(fused, method)(*args)
            want = getattr(reference, method)(*args)
        elif kind == "flush":
            got, want = fused.flush_for_deep_sleep(), reference.flush_for_deep_sleep()
        else:
            got, want = fused.drop_tables(), None
        assert got == want, step
        assert _snapshot(fused) == _snapshot(reference), step

def _draws(hot: bool):
    """For every n in 1..4096, one access and one branch window over n
    lines and n sites must draw exactly what ``random()`` then
    ``Random._randbelow(n)`` (access) and ``_randbelow(n)`` then
    ``random()`` (branch) draw."""
    config = UarchConfig(cache_sets=1, cache_ways=1, predictor_entries=4096)
    for n in range(1, 4097):
        addr = AddressStreamSpec(
            base=0, lines=n, hot_fraction=1.0, hot_rate=1.0 if hot else 0.0
        )
        state = CoreUarchState(config, random.Random(n))
        state.run_user_window("u", addr, BranchStreamSpec(base_pc=0, sites=n), 1, 1)
        expected = random.Random(n)
        expected.random()
        line = expected._randbelow(n)
        site = expected._randbelow(n)
        expected.random()
        assert list(state.l1d._sets[0]) == [line], n
        trained = [i for i, counter in enumerate(state.predictor._table) if counter != 1]
        assert trained == [site], n
        assert state._rng.getstate() == expected.getstate(), n


def test_inline_cold_draw_equals_randbelow():
    _draws(hot=False)


def test_inline_hot_draw_equals_randbelow():
    _draws(hot=True)
