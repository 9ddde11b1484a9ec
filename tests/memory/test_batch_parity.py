"""Randomized parity contracts: every memory batch kernel vs its twin.

Hypothesis draws geometries, seeds and masks -- including the
degenerate single-cell and single-page lanes -- and pins each
``*_batch`` kernel bit-exactly against its ``*_scalar_reference``
per-cell loop on the identical RNG stream, mirroring
``tests/solver/test_poisson_batch.py`` for the memory layer.

Hypothesis ships in the ``dev`` extra; when it is absent the module
skips as a whole (``pytest.importorskip``) instead of failing
collection, so the tier-1 suite still runs on minimal installs.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip(
    "hypothesis", reason="property tests need the dev extra (hypothesis)"
)

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.memory import (  # noqa: E402
    ArrayConfig,
    CellKernel,
    IsppPolicy,
    MlcLevels,
    RtnTrap,
    SenseAmplifier,
    apply_program_disturb_batch,
    apply_program_disturb_scalar_reference,
    apply_read_disturb_batch,
    apply_read_disturb_scalar_reference,
    build_vector_array,
    program_mlc_page_batch,
    program_mlc_page_scalar_reference,
    program_page_batch,
    program_page_scalar_reference,
)
from repro.memory.ispp import BLOCK_CELLS, MIN_BLOCK_PULSES  # noqa: E402

#: Shared geometry strategy: down to one page of one cell.
pages = st.integers(min_value=1, max_value=4)
cells = st.integers(min_value=1, max_value=24)
seeds = st.integers(min_value=0, max_value=2**32 - 1)

KERNEL = CellKernel(
    erased_vt_v=1.0,
    programmed_vt_v=9.0,
    program_pulse_shift_v=0.5,
    ispp_step_v=0.5,
    pulse_duration_s=1e-4,
)


class TestIsppParity:
    @given(n_pages=pages, n_cells=cells, seed=seeds, density=st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_program_page_matches_scalar(
        self, n_pages, n_cells, seed, density
    ):
        rng = np.random.default_rng(seed)
        vt = rng.normal(1.0, 0.3, size=(n_pages, n_cells))
        select = rng.random((n_pages, n_cells)) < density
        policy = IsppPolicy(
            verify_level_v=4.0, step_v=0.4, first_pulse_shift_v=0.6
        )
        ceiling = 9.0 + rng.normal(0.0, 0.1, size=(n_pages, n_cells))
        batch = program_page_batch(
            vt, select, policy, np.random.default_rng(seed + 1), ceiling
        )
        scalar = program_page_scalar_reference(
            vt, select, policy, np.random.default_rng(seed + 1), ceiling
        )
        np.testing.assert_array_equal(batch.final_vt_v, scalar.final_vt_v)
        np.testing.assert_array_equal(
            batch.pulses_used, scalar.pulses_used
        )
        np.testing.assert_array_equal(
            batch.failed_mask, scalar.failed_mask
        )
        # Inhibited cells pass through bit-exactly.
        np.testing.assert_array_equal(
            batch.final_vt_v[~select], vt[~select]
        )

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_exhausted_pulses_fail_identically(self, seed):
        """An unreachable verify level fails the same way in both paths."""
        rng = np.random.default_rng(seed)
        vt = rng.normal(1.0, 0.2, size=(2, 5))
        select = np.ones((2, 5), dtype=bool)
        policy = IsppPolicy(
            verify_level_v=50.0, step_v=0.3, max_pulses=6
        )
        batch = program_page_batch(
            vt, select, policy, np.random.default_rng(seed), np.inf
        )
        scalar = program_page_scalar_reference(
            vt, select, policy, np.random.default_rng(seed), np.inf
        )
        assert not batch.success and not scalar.success
        np.testing.assert_array_equal(
            batch.failed_mask, scalar.failed_mask
        )
        np.testing.assert_array_equal(batch.final_vt_v, scalar.final_vt_v)

    @staticmethod
    def assert_paths_agree(vt, select, policy, ceiling, seed):
        """Both paths agree bit-exactly, down to the next RNG draw."""
        rng_b = np.random.default_rng(seed)
        rng_s = np.random.default_rng(seed)
        batch = program_page_batch(vt, select, policy, rng_b, ceiling)
        scalar = program_page_scalar_reference(
            vt, select, policy, rng_s, ceiling
        )
        np.testing.assert_array_equal(batch.final_vt_v, scalar.final_vt_v)
        np.testing.assert_array_equal(batch.pulses_used, scalar.pulses_used)
        np.testing.assert_array_equal(batch.failed_mask, scalar.failed_mask)
        assert rng_b.random() == rng_s.random()
        return batch

    @pytest.mark.parametrize("shape", [(1, 1), (1, 32), (4, 24)])
    @given(
        seed=seeds,
        max_pulses=st.integers(min_value=1, max_value=40),
        sigma=st.sampled_from([0.0, 0.05, 0.4]),
        first_shift=st.sampled_from([0.0, 0.6]),
    )
    @settings(max_examples=25, deadline=None)
    def test_pulse_blocks_match_scalar(
        self, shape, seed, max_pulses, sigma, first_shift
    ):
        """Multi-pulse blocks, capped below and above the block size,
        leave the same state and RNG stream as the per-cell loop."""
        assert BLOCK_CELLS // (shape[0] * shape[1]) >= MIN_BLOCK_PULSES
        rng = np.random.default_rng(seed)
        vt = rng.normal(1.0, 0.3, size=shape)
        select = rng.random(shape) < 0.8
        policy = IsppPolicy(
            verify_level_v=4.0,
            step_v=0.4,
            first_pulse_shift_v=first_shift,
            noise_sigma_v=sigma,
            max_pulses=max_pulses,
        )
        ceiling = 9.0 + rng.normal(0.0, 0.1, size=shape)
        self.assert_paths_agree(vt, select, policy, ceiling, seed + 1)

    @pytest.mark.parametrize(
        "n_cells",
        [BLOCK_CELLS // (MIN_BLOCK_PULSES - 1), BLOCK_CELLS + 1],
    )
    @given(seed=seeds, max_pulses=st.integers(min_value=1, max_value=8))
    @settings(max_examples=5, deadline=None)
    def test_one_pulse_blocks_match_scalar(self, n_cells, seed, max_pulses):
        """Pages too wide for a multi-pulse block run one pulse per pass."""
        shape = (1, n_cells)
        assert BLOCK_CELLS // n_cells < MIN_BLOCK_PULSES
        rng = np.random.default_rng(seed)
        vt = rng.normal(1.0, 0.3, size=shape)
        select = rng.random(shape) < 0.5
        policy = IsppPolicy(
            verify_level_v=3.0, step_v=0.4, max_pulses=max_pulses
        )
        self.assert_paths_agree(vt, select, policy, np.inf, seed + 1)

    @given(n_pages=pages, n_cells=cells, seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_ceiling_below_verify_fails_inside_a_block(
        self, n_pages, n_cells, seed
    ):
        """Cells capped under the verify level fail mid-block while
        their neighbours verify, identically in both paths."""
        rng = np.random.default_rng(seed)
        vt = rng.normal(1.0, 0.3, size=(n_pages, n_cells))
        select = np.ones((n_pages, n_cells), dtype=bool)
        ceiling = rng.uniform(3.0, 5.0, size=(n_pages, n_cells))
        policy = IsppPolicy(verify_level_v=4.0, step_v=0.4, max_pulses=30)
        batch = self.assert_paths_agree(vt, select, policy, ceiling, seed)
        np.testing.assert_array_equal(batch.failed_mask, ceiling < 4.0)

    @pytest.mark.parametrize(
        "program", [program_page_batch, program_page_scalar_reference]
    )
    @given(n_pages=pages, n_cells=cells, seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_nothing_pending_consumes_no_draws(
        self, program, n_pages, n_cells, seed
    ):
        rng = np.random.default_rng(seed)
        vt = rng.normal(1.0, 0.3, size=(n_pages, n_cells))
        select = rng.random((n_pages, n_cells)) < 0.5
        vt[select] += 10.0  # every selected cell is already verified
        policy = IsppPolicy(verify_level_v=4.0)
        before = rng.bit_generator.state
        outcome = program(vt, select, policy, rng, np.inf)
        assert rng.bit_generator.state == before
        assert not outcome.pulses_used.any()
        np.testing.assert_array_equal(outcome.final_vt_v, vt)


class TestMlcParity:
    @given(n_pages=pages, n_cells=cells, seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_staircase_matches_scalar(self, n_pages, n_cells, seed):
        rng = np.random.default_rng(seed)
        levels = MlcLevels.from_kernel(KERNEL)
        targets = rng.integers(0, 4, size=(n_pages, n_cells))
        vt0 = np.full(targets.shape, KERNEL.erased_vt_v)
        vt_b, pulses_b = program_mlc_page_batch(
            vt0, levels, targets, rng=np.random.default_rng(seed + 7)
        )
        vt_s, pulses_s = program_mlc_page_scalar_reference(
            vt0, levels, targets, rng=np.random.default_rng(seed + 7)
        )
        np.testing.assert_array_equal(vt_b, vt_s)
        np.testing.assert_array_equal(pulses_b, pulses_s)
        # L0 cells are never pulsed.
        np.testing.assert_array_equal(
            vt_b[targets == 0], vt0[targets == 0]
        )


class TestSenseParity:
    @given(
        n_pages=pages,
        n_cells=cells,
        seed=seeds,
        sigma=st.sampled_from([0.0, 0.02, 0.3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_sense_page_matches_scalar(
        self, n_pages, n_cells, seed, sigma
    ):
        rng = np.random.default_rng(seed)
        vt = rng.normal(2.0, 2.0, size=(n_pages, n_cells))
        amp = SenseAmplifier(reference_v=2.0, noise_sigma_v=sigma)
        bits_b = amp.sense_page_batch(vt, np.random.default_rng(seed + 3))
        bits_s = amp.sense_page_scalar_reference(
            vt, np.random.default_rng(seed + 3)
        )
        np.testing.assert_array_equal(bits_b, bits_s)

    @given(n_cells=cells, seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_noiseless_sense_is_pure_compare(self, n_cells, seed):
        vt = np.random.default_rng(seed).normal(2.0, 2.0, size=(1, n_cells))
        amp = SenseAmplifier(reference_v=2.0, noise_sigma_v=0.0)
        np.testing.assert_array_equal(
            amp.sense_page_batch(vt, None),
            (vt <= 2.0).astype(np.uint8),
        )


class TestDisturbParity:
    @given(
        n_wordlines=st.integers(min_value=1, max_value=6),
        n_cells=cells,
        seed=seeds,
        n_events=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_program_disturb_matches_scalar(
        self, n_wordlines, n_cells, seed, n_events
    ):
        rng = np.random.default_rng(seed)
        vt = rng.normal(1.0, 0.5, size=(n_wordlines, n_cells))
        wordline = int(rng.integers(0, n_wordlines))
        select = rng.random(n_cells) < 0.5
        drift = float(rng.uniform(1e-6, 1e-3))
        vt_b = vt.copy()
        vt_s = vt.copy()
        apply_program_disturb_batch(
            vt_b, wordline, select, drift, n_events=n_events
        )
        apply_program_disturb_scalar_reference(
            vt_s, wordline, select, drift, n_events=n_events
        )
        np.testing.assert_array_equal(vt_b, vt_s)
        # The aggressor word line and unselected bit lines are untouched.
        np.testing.assert_array_equal(vt_b[wordline], vt[wordline])
        np.testing.assert_array_equal(
            vt_b[:, ~select], vt[:, ~select]
        )

    @given(
        n_wordlines=st.integers(min_value=1, max_value=6),
        n_cells=cells,
        seed=seeds,
        n_events=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_read_disturb_matches_scalar(
        self, n_wordlines, n_cells, seed, n_events
    ):
        rng = np.random.default_rng(seed)
        vt = rng.normal(1.0, 0.5, size=(n_wordlines, n_cells))
        wordline = int(rng.integers(0, n_wordlines))
        drift = float(rng.uniform(1e-6, 1e-3))
        vt_b = vt.copy()
        vt_s = vt.copy()
        apply_read_disturb_batch(vt_b, wordline, drift, n_events=n_events)
        apply_read_disturb_scalar_reference(
            vt_s, wordline, drift, n_events=n_events
        )
        np.testing.assert_array_equal(vt_b, vt_s)
        np.testing.assert_array_equal(vt_b[wordline], vt[wordline])


class TestRtnParity:
    @given(
        n_trajectories=st.integers(min_value=1, max_value=12),
        n_steps=st.integers(min_value=1, max_value=200),
        seed=seeds,
        initially_occupied=st.booleans(),
        times=st.sampled_from(
            [(1e-3, 2e-3), (1e-3, 1e-4), (5e-5, 5e-5), (1e-2, 1e-3)]
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_ensemble_lanes_match_scalar(
        self, n_trajectories, n_steps, seed, initially_occupied, times
    ):
        capture_s, emission_s = times
        trap = RtnTrap(
            amplitude_v=0.05,
            capture_time_s=capture_s,
            emission_time_s=emission_s,
        )
        dt_s = capture_s / 10.0
        # Land the duration mid-step so int(duration / dt) is immune to
        # float truncation (81 * 1e-4 / 1e-4 rounds down to 80).
        duration_s = (n_steps + 0.5) * dt_s
        batch = trap.sample_trajectory_batch(
            duration_s,
            dt_s,
            n_trajectories,
            seed=seed,
            initially_occupied=initially_occupied,
        )
        assert batch.shape == (n_trajectories, n_steps)
        for lane in range(n_trajectories):
            scalar = trap.sample_trajectory_scalar_reference(
                duration_s,
                dt_s,
                lane,
                seed=seed,
                initially_occupied=initially_occupied,
            )
            np.testing.assert_array_equal(batch[lane], scalar)

    @given(seed=seeds, lane=st.integers(min_value=0, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_lane_streams_are_order_independent(self, seed, lane):
        """A lane's trajectory does not depend on the ensemble width."""
        trap = RtnTrap(
            amplitude_v=0.05, capture_time_s=1e-3, emission_time_s=2e-3
        )
        wide = trap.sample_trajectory_batch(0.02, 1e-4, lane + 3, seed=seed)
        alone = trap.sample_trajectory_scalar_reference(
            0.02, 1e-4, lane, seed=seed
        )
        np.testing.assert_array_equal(wide[lane], alone)


class TestArrayBackendParity:
    @given(
        seed=seeds,
        bitlines=st.integers(min_value=1, max_value=24),
        wordlines=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_operation_sequence_is_mode_invariant(
        self, seed, bitlines, wordlines
    ):
        """program/read/erase replay bit-exactly across backend modes."""
        config = ArrayConfig(
            n_blocks=2, wordlines_per_block=wordlines, bitlines=bitlines
        )
        patterns = np.random.default_rng(seed).integers(
            0, 2, size=(wordlines, bitlines)
        )

        def run(scalar_reference):
            array = build_vector_array(
                KERNEL,
                config,
                seed=seed,
                scalar_reference=scalar_reference,
            )
            reads = []
            for wl in range(wordlines):
                array.program_page(0, wl, patterns[wl])
                reads.append(array.read_page(0, wl))
            array.erase_block(0)
            array.program_page(0, 0, patterns[0])
            return array, np.array(reads)

        array_b, reads_b = run(False)
        array_s, reads_s = run(True)
        np.testing.assert_array_equal(reads_b, reads_s)
        np.testing.assert_array_equal(
            array_b.state.vt_v, array_s.state.vt_v
        )
        np.testing.assert_array_equal(
            array_b.state.programmed, array_s.state.programmed
        )
        assert array_b.block_erase_counts() == array_s.block_erase_counts()
        np.testing.assert_array_equal(reads_b, patterns)
