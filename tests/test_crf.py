import numpy as np
import pytest
from helpers import (
    assert_grads_ok,
    crf_tables,
    enumerate_sequences,
    oracle_log_partition,
    oracle_viterbi,
)

from framepath.autodiff import backward, fresh_tape, no_grad, param, tensor
from framepath.crf import (
    LinearChainCrf,
    PENALTY,
    TagScheme,
    iob2_scheme,
    iobc_scheme,
    mask_penalty,
    open_scheme,
)
from framepath.layers import ParamStore


def make_crf(scheme, seed=0, randomize=True):
    store = ParamStore(np.random.default_rng(seed))
    crf = LinearChainCrf(store, "crf", scheme)
    if randomize:
        rng = np.random.default_rng(seed + 1)
        crf.trans.data = rng.normal(size=crf.trans.data.shape)
        crf.start.data = rng.normal(size=crf.start.data.shape)
        crf.end.data = rng.normal(size=crf.end.data.shape)
    return crf


class TestSchemes:
    def test_iobc_structure(self):
        s = iobc_scheme()
        assert s.labels == ("O", "B", "I", "C")
        assert s.allowed_start.tolist() == [True, True, False, False]
        assert not s.allowed_transition[0, 2]   # O -> I
        assert s.allowed_transition[0, 3]       # O -> C crosses a gap
        assert s.allowed_transition.sum() == 15

    def test_iob2_structure(self):
        s = iob2_scheme()
        assert s.allowed_start.tolist() == [True, True, False]
        assert not s.allowed_transition[0, 2]
        assert s.allowed_transition.sum() == 8

    def test_open_scheme(self):
        s = open_scheme(("A", "B"))
        assert s.allowed_start.all() and s.allowed_transition.all()

    def test_mask_penalty(self):
        pen = mask_penalty(np.array([True, False, True]))
        assert pen.tolist() == [0.0, PENALTY, 0.0]


class TestAgainstEnumeration:
    @pytest.mark.parametrize("constrain", [False, True])
    def test_log_partition_random_instances(self, constrain):
        rng = np.random.default_rng(42)
        for trial in range(60):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(1, 7))
            labels = tuple(f"T{i}" for i in range(k))
            scheme = open_scheme(labels)
            if constrain and k >= 3:
                # Random boolean structure, kept satisfiable.
                scheme = TagScheme(
                    labels,
                    allowed_start=rng.random(k) < 0.7,
                    allowed_transition=rng.random((k, k)) < 0.7,
                )
                scheme.allowed_start[0] = True
                scheme.allowed_transition[0, 0] = True
            crf = make_crf(scheme, seed=trial)
            emissions = rng.normal(size=(n, k))
            with fresh_tape(), no_grad():
                got = crf.log_partition(tensor(emissions), constrain).item()
            want = oracle_log_partition(*crf_tables(crf, constrain), emissions)
            assert abs(got - want) < 1e-8, (trial, got, want)

    def test_viterbi_random_instances(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(1, 7))
            crf = make_crf(open_scheme(tuple(f"T{i}" for i in range(k))),
                           seed=trial)
            emissions = rng.normal(size=(n, k))
            got = crf.viterbi(emissions)
            want = oracle_viterbi(*crf_tables(crf, True), emissions)
            assert got == want, trial

    def test_gold_score_matches_enumeration_row(self):
        rng = np.random.default_rng(9)
        crf = make_crf(open_scheme(("A", "B", "C")), seed=3)
        emissions = rng.normal(size=(4, 3))
        seqs, scores = enumerate_sequences(*crf_tables(crf, False), emissions)
        with fresh_tape(), no_grad():
            for row in [0, 17, 80, 42]:
                tags = seqs[row].tolist()
                got = crf.gold_score(tensor(emissions), tags, False).item()
                assert abs(got - scores[row]) < 1e-10

    def test_nll_is_negative_log_probability(self):
        rng = np.random.default_rng(11)
        crf = make_crf(iob2_scheme(), seed=5)
        emissions = rng.normal(size=(5, 3))
        seqs, scores = enumerate_sequences(*crf_tables(crf, True), emissions)
        z = scores.max() + np.log(np.exp(scores - scores.max()).sum())
        probs = np.exp(scores - z)
        assert abs(probs.sum() - 1.0) < 1e-12
        tags = [1, 2, 0, 1, 2]
        row = next(i for i, s in enumerate(seqs) if s.tolist() == tags)
        with fresh_tape(), no_grad():
            nll = crf.nll(tensor(emissions), tags, True).item()
        assert nll >= 0.0
        assert abs(nll - (-np.log(probs[row]))) < 1e-10


class TestConstraints:
    def test_decode_never_violates_scheme(self):
        # Emissions rigged to crave I everywhere; the scheme must still
        # keep I off the first position and away from O.
        rng = np.random.default_rng(13)
        crf = make_crf(iob2_scheme(), seed=2, randomize=False)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            emissions = rng.normal(size=(n, 3))
            emissions[:, 2] += 5.0
            tags = crf.viterbi(emissions)
            assert tags[0] != 2
            for a, b in zip(tags, tags[1:]):
                assert (a, b) != (0, 2)

    def test_iobc_decode_respects_start(self):
        rng = np.random.default_rng(15)
        crf = make_crf(iobc_scheme(), seed=4, randomize=False)
        for _ in range(100):
            emissions = rng.normal(size=(int(rng.integers(1, 6)), 4)) + \
                np.array([0, 0, 3.0, 3.0])
            tags = crf.viterbi(emissions)
            assert tags[0] in (0, 1)
            for a, b in zip(tags, tags[1:]):
                assert (a, b) != (0, 2)

    def test_constraining_changes_partition(self):
        crf = make_crf(iob2_scheme(), seed=6)
        emissions = tensor(np.random.default_rng(1).normal(size=(3, 3)))
        with fresh_tape(), no_grad():
            free = crf.log_partition(emissions, False).item()
            hard = crf.log_partition(emissions, True).item()
        assert hard < free  # penalties remove probability mass

    def test_ties_break_toward_lower_label_id(self):
        crf = make_crf(iob2_scheme(), seed=0, randomize=False)
        assert crf.viterbi(np.zeros((4, 3))) == [0, 0, 0, 0]

    def test_emission_mask_blocks_labels(self):
        crf = make_crf(open_scheme(("A", "B", "C")), seed=8, randomize=False)
        pen = mask_penalty(np.array([True, False, True]))
        rng = np.random.default_rng(2)
        for _ in range(50):
            emissions = rng.normal(size=(4, 3)) + pen
            assert 1 not in crf.viterbi(emissions)


class TestGradients:
    def test_nll_gradients_unconstrained(self):
        rng = np.random.default_rng(17)
        store = ParamStore(np.random.default_rng(0))
        crf = LinearChainCrf(store, "crf", open_scheme(("A", "B", "C")))
        emissions = param(rng.normal(size=(4, 3)), name="emissions")
        tags = [2, 0, 1, 1]
        assert_grads_ok(
            lambda: crf.nll(emissions, tags, False),
            [emissions, crf.trans, crf.start, crf.end])

    def test_nll_gradients_constrained(self):
        rng = np.random.default_rng(19)
        store = ParamStore(np.random.default_rng(0))
        crf = LinearChainCrf(store, "crf", iobc_scheme())
        emissions = param(rng.normal(size=(5, 4)), name="emissions")
        tags = [0, 1, 2, 0, 3]  # a legal IOBC sequence with a gap
        assert_grads_ok(
            lambda: crf.nll(emissions, tags, True),
            [emissions, crf.trans, crf.start, crf.end])

    def test_length_one_sequence(self):
        store = ParamStore(np.random.default_rng(0))
        crf = LinearChainCrf(store, "crf", iob2_scheme())
        emissions = param(np.array([[0.3, -0.2, 0.9]]), name="e")
        assert_grads_ok(lambda: crf.nll(emissions, [1], True),
                        [emissions, crf.trans, crf.start, crf.end])
        assert crf.viterbi(emissions.data) in ([0], [1])


class TestFusedLogPartition:
    @pytest.mark.parametrize("constrain", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_gradients_are_enumerated_marginals(self, n, constrain):
        rng = np.random.default_rng(100 + n)
        crf = make_crf(iobc_scheme(), seed=n)
        emissions = param(rng.normal(size=(n, 4)), name="emissions")
        with fresh_tape():
            backward(crf.log_partition(emissions, constrain))
        seqs, scores = enumerate_sequences(*crf_tables(crf, constrain),
                                           emissions.data)
        probs = np.exp(scores - oracle_log_partition(
            *crf_tables(crf, constrain), emissions.data))
        nodes = np.zeros((n, 4))
        counts = np.zeros((4, 4))
        for seq, p in zip(seqs, probs):
            nodes[np.arange(n), seq] += p
            np.add.at(counts, (seq[:-1], seq[1:]), p)
        assert np.allclose(emissions.grad, nodes, rtol=0, atol=1e-10)
        assert np.allclose(crf.start.grad, nodes[0], rtol=0, atol=1e-10)
        assert np.allclose(crf.end.grad, nodes[-1], rtol=0, atol=1e-10)
        assert np.allclose(crf.trans.grad, counts, rtol=0, atol=1e-10)
        if n == 1:
            assert np.array_equal(crf.trans.grad, np.zeros((4, 4)))

    @pytest.mark.parametrize("constrain", [False, True])
    def test_long_chain_with_large_emissions(self, constrain):
        rng = np.random.default_rng(23)
        crf = make_crf(iobc_scheme(), seed=9)
        emissions = param(100.0 * rng.normal(size=(40, 4)), name="emissions")
        with fresh_tape(), no_grad():
            log_z = crf.log_partition(emissions, constrain).item()
        assert np.isfinite(log_z)
        # Central differences over a 1e-5 step lose a few ulps of |log Z|
        # (thousands here) to roundoff, so the absolute floor scales with it.
        floor = 8 * np.finfo(float).eps * abs(log_z) / 1e-5
        assert_grads_ok(lambda: crf.log_partition(emissions, constrain),
                        [emissions, crf.trans, crf.start, crf.end],
                        abs_floor=floor)
        with fresh_tape():
            backward(crf.log_partition(emissions, constrain))
        for t in (emissions, crf.trans, crf.start, crf.end):
            assert np.all(np.isfinite(t.grad))
        # Each position's node marginals form a distribution.
        assert np.allclose(emissions.grad.sum(axis=1), 1.0, atol=1e-10)


class TestValidation:
    def test_tag_count_mismatch(self):
        crf = make_crf(iob2_scheme())
        with pytest.raises(ValueError, match="tags for"):
            with fresh_tape(), no_grad():
                crf.nll(tensor(np.zeros((3, 3))), [0, 1], True)

    def test_empty_sequence_rejected(self):
        crf = make_crf(iob2_scheme())
        with pytest.raises(ValueError, match="empty"):
            with fresh_tape(), no_grad():
                crf.log_partition(tensor(np.zeros((0, 3))), True)
        assert crf.viterbi(np.zeros((0, 3))) == []
