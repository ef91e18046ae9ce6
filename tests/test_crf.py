import numpy as np
import pytest
from helpers import (
    assert_grads_ok,
    crf_tables,
    enumerate_sequences,
    oracle_log_partition,
    oracle_viterbi,
)

from framepath import autodiff as ad
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


def reference_viterbi(crf, emissions):
    """The decoder as first written: a back-pointer table, each step's
    scores gathered at the argmax cells."""
    n, k = emissions.shape
    start = np.where(crf.scheme.allowed_start, crf.start.data, -np.inf)
    trans = np.where(crf.scheme.allowed_transition, crf.trans.data, -np.inf)
    score = start + emissions[0]
    back = np.zeros((n, k), dtype=np.intp)
    for t in range(1, n):
        total = score[:, None] + trans
        back[t] = total.argmax(axis=0)
        score = total[back[t], np.arange(k)] + emissions[t]
    score = score + crf.end.data
    tags = [int(score.argmax())]
    for t in range(n - 1, 0, -1):
        tags.append(int(back[t][tags[-1]]))
    return tags[::-1]


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

    def test_large_emission_cannot_open_with_i(self):
        # An I emission of 2e4 outweighs the finite -1e4 start penalty;
        # decoding must still refuse to open with I.
        crf = make_crf(iob2_scheme(), randomize=False)
        emissions = np.zeros((3, 3))
        emissions[0, 2] = 2e4
        assert crf.viterbi(emissions)[0] != 2

    def test_decode_legal_at_any_emission_scale(self):
        rng = np.random.default_rng(19)
        for seed, scheme in enumerate((iob2_scheme(), iobc_scheme())):
            crf = make_crf(scheme, seed=seed)
            instances = []
            for _ in range(200):
                n = int(rng.integers(1, 9))
                scale = 10.0 ** rng.uniform(0.0, 6.0)
                instances.append(rng.normal(size=(n, scheme.n_labels))
                                 * scale)
            # one call per instance, then all 200 packed into one call
            decoded = [crf.viterbi(e) for e in instances]
            packed = crf.viterbi(np.concatenate(instances),
                                 [len(e) for e in instances])
            for tags in decoded + packed:
                assert scheme.allowed_start[tags[0]], tags
                for a, b in zip(tags, tags[1:]):
                    assert scheme.allowed_transition[a, b], tags

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

    @pytest.mark.parametrize("scheme", [
        iobc_scheme(), iob2_scheme(),
        open_scheme(tuple(f"T{i}" for i in range(10)))],
        ids=["iobc", "iob2", "open10"])
    def test_viterbi_equals_reference_loop_with_ties(self, scheme):
        # Small integer scores make equal paths common, so this pins the
        # tie-breaking of every step and of the backtrack, also where
        # -inf masks leave a label no legal path.
        rng = np.random.default_rng(23)
        crf = make_crf(scheme, randomize=False)
        k = scheme.n_labels
        for trial in range(150):
            crf.trans.data = rng.integers(-2, 3, (k, k)).astype(float)
            crf.start.data = rng.integers(-2, 3, k).astype(float)
            crf.end.data = rng.integers(-2, 3, k).astype(float)
            n = int(rng.integers(1, 13))
            emissions = rng.integers(-3, 4, (n, k)).astype(float)
            blocked = rng.random((n, k)) < 0.2
            blocked[:, 0] = False  # keep a legal path open
            emissions[blocked] = -np.inf
            assert crf.viterbi(emissions) == reference_viterbi(
                crf, emissions), trial

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


class TestPackedChains:
    LENGTHS = [3, 1, 5, 2, 1, 4]  # unsorted, with length-1 chains

    @pytest.mark.parametrize("constrain", [False, True])
    def test_packed_equals_one_call_per_chain(self, constrain):
        rng = np.random.default_rng(41)
        crf = make_crf(iobc_scheme(), seed=4)
        params = [crf.trans, crf.start, crf.end]
        n = sum(self.LENGTHS)
        emissions = param(rng.normal(size=(n, 4)), name="emissions")
        tags = rng.integers(0, 4, size=n).tolist()
        weights = rng.normal(size=(2, len(self.LENGTHS)))

        def grads():
            out = [np.zeros_like(p.data) if p.grad is None else p.grad
                   for p in [emissions] + params]
            for p in [emissions] + params:
                p.grad = None
            return out

        with fresh_tape():
            log_z = crf.log_partition(emissions, constrain, self.LENGTHS)
            gold = crf.gold_score(emissions, tags, constrain, self.LENGTHS)
            backward(ad.add(ad.dot(log_z, tensor(weights[0])),
                            ad.dot(gold, tensor(weights[1]))))
        packed = grads()
        singles = [np.zeros_like(g) for g in packed]
        row = 0
        for c, m in enumerate(self.LENGTHS):
            part = param(emissions.data[row:row + m])
            with fresh_tape():
                one_z = crf.log_partition(part, constrain)
                one_gold = crf.gold_score(part, tags[row:row + m], constrain)
                assert one_z.data.shape == one_gold.data.shape == ()
                assert abs(log_z.data[c] - one_z.item()) < 1e-12
                assert abs(gold.data[c] - one_gold.item()) < 1e-12
                backward(ad.add(ad.mul(one_z, tensor(weights[0, c])),
                                ad.mul(one_gold, tensor(weights[1, c]))))
            singles[0][row:row + m] = part.grad
            for k, g in enumerate(grads()[1:], start=1):
                singles[k] += g
            row += m
        for got, want in zip(packed, singles):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("constrain", [False, True])
    def test_packed_marginals_are_enumerated(self, constrain):
        lengths = [2, 4, 1, 3]
        rng = np.random.default_rng(43)
        crf = make_crf(iobc_scheme(), seed=6)
        emissions = param(rng.normal(size=(sum(lengths), 4)), name="e")
        with fresh_tape():
            backward(ad.sum_all(crf.log_partition(emissions, constrain,
                                                  lengths)))
        tables = crf_tables(crf, constrain)
        counts = np.zeros((4, 4))
        row = 0
        for m in lengths:
            chain = emissions.data[row:row + m]
            seqs, scores = enumerate_sequences(*tables, chain)
            probs = np.exp(scores - oracle_log_partition(*tables, chain))
            nodes = np.zeros((m, 4))
            for seq, p in zip(seqs, probs):
                nodes[np.arange(m), seq] += p
                np.add.at(counts, (seq[:-1], seq[1:]), p)
            np.testing.assert_allclose(emissions.grad[row:row + m], nodes,
                                       rtol=0, atol=1e-10)
            row += m
        np.testing.assert_allclose(crf.trans.grad, counts, rtol=0, atol=1e-10)

    def test_lengths_must_pack_the_rows(self):
        crf = make_crf(iob2_scheme())
        emissions = tensor(np.zeros((4, 3)))
        with fresh_tape(), no_grad():
            with pytest.raises(ValueError, match="do not pack"):
                crf.log_partition(emissions, True, [2, 1])
            with pytest.raises(ValueError, match="empty"):
                crf.gold_score(emissions, [0] * 4, True, [4, 0])
        with pytest.raises(ValueError, match="do not pack"):
            crf.viterbi(emissions.data, [2, 1])
        with pytest.raises(ValueError, match="empty"):
            crf.viterbi(emissions.data, [4, 0])

    @pytest.mark.parametrize("scheme", [
        iobc_scheme(), iob2_scheme(),
        open_scheme(tuple(f"T{i}" for i in range(6)))],
        ids=["iobc", "iob2", "open6"])
    def test_packed_viterbi_equals_reference_per_chain(self, scheme):
        # Integer scores make ties common; rows of -inf with one finite
        # label are what srl_predict's role masks make.
        rng = np.random.default_rng(47)
        crf = make_crf(scheme, randomize=False)
        k = scheme.n_labels
        n = sum(self.LENGTHS)
        for trial in range(60):
            crf.trans.data = rng.integers(-2, 3, (k, k)).astype(float)
            crf.start.data = rng.integers(-2, 3, k).astype(float)
            crf.end.data = rng.integers(-2, 3, k).astype(float)
            if trial % 2:
                emissions = rng.integers(-3, 4, (n, k)).astype(float)
            else:
                emissions = rng.normal(size=(n, k)) * 10.0 ** (trial % 7)
            only = rng.random(n) < 0.3
            emissions[only] = np.where(
                np.arange(k) == rng.integers(0, k, (only.sum(), 1)),
                emissions[only], -np.inf)
            decoded = crf.viterbi(emissions, self.LENGTHS)
            assert len(decoded) == len(self.LENGTHS)
            row = 0
            for m, tags in zip(self.LENGTHS, decoded):
                assert tags == reference_viterbi(
                    crf, emissions[row:row + m]), trial
                row += m
