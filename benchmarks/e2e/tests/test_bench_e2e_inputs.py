"""Seeded inputs: the same seed gives the same run, a new seed another."""

import numpy as np

import inputs
import spec


def _serve(seed, workload="serve_small"):
    plan = spec.serve_plan(workload, 4.0)
    return inputs.serve_inputs(plan, np.random.default_rng(seed))


def test_same_seed_same_payloads_and_schedule():
    first, second = _serve(7), _serve(7)
    assert first.payloads.bodies == second.payloads.bodies
    assert first.payloads.checked == second.payloads.checked
    assert first.open_offsets == second.open_offsets
    assert first.open_ids == second.open_ids
    assert first.closed_ids == second.closed_ids


def test_new_seed_new_payloads_and_schedule():
    first, other = _serve(7), _serve(8)
    assert first.open_offsets != other.open_offsets
    assert not set(first.payloads.bodies) & set(other.payloads.bodies)


def test_payloads_are_distinct_and_hot_set_repeats():
    data = _serve(3)
    assert len(set(data.payloads.bodies)) == len(data.payloads.bodies)
    requests = data.open_ids + [i for ids in data.closed_ids for i in ids]
    repeated = {i for i in requests if requests.count(i) > 1}
    assert repeated and all(data.payloads.checked[i] for i in repeated)
    # hot-set clips are every checked repeat; at least 1 in 8 of the rest is checked
    fresh = [i for i in requests if i not in repeated]
    assert sum(data.payloads.checked[i] for i in fresh) >= len(fresh) / 8


def test_hot_picks_are_exact_in_every_ten_requests():
    picks = inputs.stratified_picks(95, 0.3, np.random.default_rng(4))
    assert [int(picks[i:i + 10].sum()) for i in range(0, 90, 10)] == [3] * 9
    assert int(picks[90:].sum()) == 2                  # round(0.3 * 5)
    assert not np.array_equal(picks, inputs.stratified_picks(95, 0.3,
                                                             np.random.default_rng(5)))


def test_serve_default_payloads_never_repeat():
    data = _serve(3, "serve_default")
    requests = data.open_ids + [i for ids in data.closed_ids for i in ids]
    assert len(requests) == len(set(requests))


def test_variants_cover_the_dihedral_group():
    base = np.arange(2 * 4 * 4, dtype=float).reshape(2, 4, 4)
    images = {inputs.variant(base, d, 0, 0).tobytes() for d in range(8)}
    assert len(images) == 8


def test_job_seeds_are_seeded_and_within_the_contact_band():
    plan = spec.opc_plan(3.0)
    seeds = inputs.job_seeds(plan, np.random.default_rng(5))
    assert seeds == inputs.job_seeds(plan, np.random.default_rng(5))
    assert seeds != inputs.job_seeds(plan, np.random.default_rng(6))
    assert len(seeds) == plan.jobs


def test_arrival_schedule_has_fixed_load_and_seeded_order():
    first = inputs.arrival_schedule(20.0, 50.0, np.random.default_rng(1))
    other = inputs.arrival_schedule(20.0, 50.0, np.random.default_rng(2))
    assert len(first) == len(other) == 1000
    assert first == sorted(first) and first != other
    gaps = np.diff([0.0] + first)
    np.testing.assert_allclose(sorted(gaps), sorted(np.diff([0.0] + other)), atol=1e-9)
    # exponential gaps: mean 1/rate, coefficient of variation near 1
    assert abs(gaps.mean() - 0.05) < 0.005 and 0.8 < gaps.std() / gaps.mean() < 1.1
