"""The bench-owned reference join and the error-rate check built on it."""

import numpy as np
import pytest
from benchlib import WORKLOADS, load
from benchlib.reference import Digest, reference_digest, reference_matches

from repro.core import StreamTuple
from repro.joins import NestedLoopJoin

PREFIX = 400


def stream_tuples(inputs):
    """The workload's input as stamped tuples (tid = arrival position)."""
    out = []
    for i, item in enumerate(inputs.items):
        out.append(StreamTuple(i, item.stream, item.values, float(i)))
    return out


def digest_of(match_lists, n, expected_records=0):
    digest = Digest(n, expected_records)
    if expected_records:
        digest.add_records(range(len(match_lists)), match_lists)
    else:
        probes = np.repeat(np.arange(len(match_lists)), [len(m) for m in match_lists])
        matches = np.concatenate([np.asarray(m, dtype=np.int64) for m in match_lists])
        digest.add(probes, matches)
    return digest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_equals_nested_loop_join_on_prefix(name):
    workload = load(name, "toy")
    inputs = workload.generate(seed=11)
    nlj = NestedLoopJoin(workload.query, workload.window)
    expected = [sorted(m for __, m in nlj.process(t)) for t in stream_tuples(inputs)[:PREFIX]]
    got = [list(row) for row in reference_matches(inputs.join_input, limit=PREFIX)]
    assert got == expected
    assert sum(map(len, expected)) > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_digest_matches_exact_reference(name):
    inputs = load(name, "toy").generate(seed=12)
    exact = [list(row) for row in reference_matches(inputs.join_input)]
    reference = reference_digest(inputs.join_input)
    emitted = digest_of(exact, len(inputs))
    assert emitted.error_rate(reference) == 0.0
    assert emitted.hexdigest() == reference.hexdigest()


@pytest.fixture
def exact_and_reference():
    inputs = load("q3-dense-local", "toy").generate(seed=13)
    exact = [list(row) for row in reference_matches(inputs.join_input)]
    return exact, reference_digest(inputs.join_input), len(inputs)


def _victim(exact):
    return next(i for i, row in enumerate(exact) if len(row) >= 2)


def test_dropping_one_match_fails_the_check(exact_and_reference):
    exact, reference, n = exact_and_reference
    i = _victim(exact)
    exact[i] = exact[i][1:]
    assert digest_of(exact, n).error_rate(reference) == pytest.approx(1 / n)


def test_altering_one_match_fails_the_check(exact_and_reference):
    exact, reference, n = exact_and_reference
    i = _victim(exact)
    wrong = next(t for t in range(n) if t not in exact[i])
    exact[i] = [wrong] + exact[i][1:]
    assert digest_of(exact, n).error_rate(reference) > 0


def test_duplicated_or_out_of_range_match_fails_the_check(exact_and_reference):
    exact, reference, n = exact_and_reference
    i = _victim(exact)
    dup = [list(row) for row in exact]
    dup[i] = dup[i] + dup[i][:1]
    assert digest_of(dup, n).error_rate(reference) > 0
    bogus = [list(row) for row in exact]
    bogus[i] = bogus[i] + [n + 5]
    assert digest_of(bogus, n).error_rate(reference) > 0


def test_missing_result_record_fails_the_check(exact_and_reference):
    exact, reference, n = exact_and_reference
    digest = Digest(n, expected_records=1)
    digest.add_records(range(1, n), exact[1:])
    assert digest.error_rate(reference) == pytest.approx(1 / n)


def test_corrupted_join_output_is_caught_in_a_measured_round():
    """Drop one emitted pair inside a real round: error_rate must rise."""
    workload = load("q3-dense-local", "toy")
    inputs = workload.generate(seed=14)
    build = workload.setup

    def corrupt_setup():
        join = build()
        process_many = join.process_many
        dropped = []

        def lossy(chunk):
            pairs = process_many(chunk)
            if pairs and not dropped:
                dropped.append(pairs.pop())
            return pairs

        join.process_many = lossy
        return join

    reference = reference_digest(inputs.join_input)
    clean = workload.run_round(inputs)
    assert clean.digest.error_rate(reference) == 0.0
    workload.setup = corrupt_setup
    bad = workload.run_round(inputs)
    assert bad.digest.error_rate(reference) == pytest.approx(1 / len(inputs))
