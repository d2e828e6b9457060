"""The batched SZx core: one pass over the blocks of many inputs.

``compress_many`` / ``decompress_many`` must agree byte for byte (and value
for value) with one ``compress_bytes`` / ``decompress_bytes`` call per input,
and PIPE-SZx, which encodes all of a buffer's chunks through them, must still
produce the per-chunk encoding.
"""

import warnings

import numpy as np
import pytest

from repro.compression import (
    CompressionError,
    PipelinedSZx,
    SZxCompressor,
    UnsupportedDataError,
)
from repro.compression.pipelined import CompressedChunk
from repro.utils.chunking import chunk_bounds


def _mixed_inputs():
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 6.0, 1000)
    return [
        np.zeros(0, dtype=np.float64),  # empty
        rng.standard_normal(5).astype(np.float32),  # shorter than a block
        np.sin(t[:300]) + 0.01 * rng.standard_normal(300),  # not a multiple of 128
        (np.cos(t) * 40.0).astype(np.float32),
        np.full(256, 3.25),  # constant blocks only
        rng.standard_normal(128 * 3) * 1e-2,  # exact multiple, float64
        np.zeros(0, dtype=np.float32),
    ]


class TestCompressMany:
    @pytest.mark.parametrize("mode,bound", [("abs", 1e-3), ("abs", 1e-6), ("rel", 1e-3)])
    def test_bytes_match_one_call_per_array(self, mode, bound):
        codec = SZxCompressor(error_bound=bound, error_mode=mode)
        arrays = _mixed_inputs()
        batched = codec.compress_many(arrays)
        assert batched == [codec.compress_bytes(a) for a in arrays]

    def test_rel_mode_resolves_a_bound_per_array(self):
        codec = SZxCompressor(error_bound=1e-3, error_mode="rel")
        arrays = [np.linspace(0.0, 1.0, 700), np.linspace(-50.0, 50.0, 900)]
        bounds = [codec.effective_error_bound(a) for a in arrays]
        assert bounds[0] != bounds[1]
        payloads = codec.compress_many(arrays)
        assert payloads == [codec.compress_bytes(a) for a in arrays]
        for array, payload, bound in zip(arrays, payloads, bounds):
            recon = codec.decompress_bytes(payload)
            assert np.max(np.abs(recon - array)) <= bound * (1.0 + 1e-12)

    def test_empty_batch(self):
        codec = SZxCompressor()
        assert codec.compress_many([]) == []
        assert codec.decompress_many([]) == []

    def test_oversized_magnitude_raises_unsupported(self):
        codec = SZxCompressor(error_bound=1e-3)
        with pytest.raises(UnsupportedDataError):
            codec.compress_many([np.ones(300), np.array([1e39, 0.0, 1.0])])

    def test_too_small_bound_raises_compression_error(self):
        codec = SZxCompressor(error_bound=1e-300)
        arrays = [np.zeros(10), np.array([0.0, 1e9] * 64)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CompressionError):
                codec.compress_many(arrays)


class TestDecompressMany:
    @pytest.mark.parametrize("mode", ["abs", "rel"])
    def test_values_match_one_call_per_payload(self, mode):
        codec = SZxCompressor(error_bound=1e-3, error_mode=mode)
        payloads = [codec.compress_bytes(a) for a in _mixed_inputs()]
        for batched, payload in zip(codec.decompress_many(payloads), payloads):
            single = codec.decompress_bytes(payload)
            assert batched.dtype == single.dtype
            np.testing.assert_array_equal(batched, single)

    def test_payloads_of_other_block_sizes(self):
        rng = np.random.default_rng(3)
        arrays = [rng.standard_normal(500), rng.standard_normal(77).astype(np.float32)]
        payloads = [
            SZxCompressor(error_bound=1e-3, block_size=64).compress_bytes(arrays[0]),
            SZxCompressor(error_bound=1e-3).compress_bytes(arrays[1]),
        ]
        decoded = SZxCompressor().decompress_many(payloads)
        for array, payload in zip(decoded, payloads):
            np.testing.assert_array_equal(array, SZxCompressor().decompress_bytes(payload))

    def test_outputs_do_not_share_memory(self):
        codec = SZxCompressor(error_bound=1e-3)
        same = np.linspace(0.0, 1.0, 1000)
        first, second = codec.decompress_many(codec.compress_many([same, same]))
        assert not np.shares_memory(first, second)


class TestPipelinedChunks:
    def test_partial_chunks_off_the_block_grid_match_per_chunk_encoding(self):
        rng = np.random.default_rng(11)
        wave = np.sin(np.linspace(0.0, 20.0, 4321)) + 0.01 * rng.standard_normal(4321)
        data = wave.astype(np.float32)
        pipe = PipelinedSZx(error_bound=1e-3, chunk_elems=1000, block_size=128)
        inner = SZxCompressor(error_bound=1e-3, block_size=128)
        bounds = chunk_bounds(data.size, 1000)
        assert bounds[-1] == (4000, 4321)
        chunks = [
            CompressedChunk(i, start, stop, inner.compress_bytes(data[start:stop]))
            for i, (start, stop) in enumerate(bounds)
        ]
        payload = pipe.compress_bytes(data)
        assert payload == pipe.assemble(chunks, data.size, data.dtype)
        expected = np.concatenate([inner.decompress_bytes(c.payload) for c in chunks])
        np.testing.assert_array_equal(pipe.decompress_bytes(payload), expected)
        streamed = np.concatenate(list(pipe.iter_decompress(payload)))
        np.testing.assert_array_equal(streamed, expected)
