import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbound.seeding import entropy_words, seed_states, streams

_uint32 = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))


class TestSeedHash:
    """``seed_states`` and ``streams`` against numpy's own ``SeedSequence``."""

    @given(st.lists(st.lists(_uint32, min_size=1, max_size=8), min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_entropy_rows(self, rows):
        got = seed_states(rows, 9)
        assert got.dtype == np.uint32 and got.shape == (len(rows), 9)
        for row, state in zip(rows, got):
            seq = np.random.SeedSequence(np.array(row, dtype=np.uint32))
            assert state.tobytes() == seq.generate_state(9).tobytes()

    @given(st.integers(0, 2**300), st.integers(0, 2**40))
    @settings(max_examples=200)
    def test_int_seeds(self, seed, index):
        (trial,) = seed_states([entropy_words(seed) + entropy_words(index)], 1)
        assert trial.tolist() == np.random.SeedSequence([seed, index]).generate_state(1).tolist()
        (stream,) = streams([seed])
        want = np.random.PCG64(np.random.SeedSequence(seed))
        got_words = stream.bit_generator.seed_seq.generate_state(4, np.uint64)
        assert got_words.dtype == np.uint64
        assert got_words.tobytes() == want.seed_seq.generate_state(4, np.uint64).tobytes()
        assert stream.bit_generator.state == want.state

    def test_edge_seeds_in_one_batch(self):
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**100 + 3, 2**128 - 1, 2**130 + 9, 2**300]
        for stream, seed in zip(streams(seeds), seeds):
            want = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
            assert stream.integers(2**63, size=8).tolist() == want.integers(2**63, size=8).tolist()

    def test_no_rows(self):
        assert seed_states([], 1).shape == (0, 1)
        assert streams([]) == []

    def test_stream_seed_gives_pcg64_state_only(self):
        (stream,) = streams([7])
        with pytest.raises(ValueError, match="PCG64's four uint64 words"):
            stream.bit_generator.seed_seq.generate_state(4)


def test_package_import_leaves_numpy_random_unloaded():
    """Numpy 2 loads ``numpy.random`` on first use (numpy 1 with numpy
    itself); importing relbound and its CLI must not load it sooner."""
    code = (
        "import sys, numpy; before = 'numpy.random' in sys.modules; "
        "import relbound, relbound.cli; print(before, 'numpy.random' in sys.modules)"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    before, after = proc.stdout.split()
    assert after == before
