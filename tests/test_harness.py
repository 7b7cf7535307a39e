import dataclasses
import json
import math
import re
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest

from qcmi.bounds import bound_report
from qcmi import harness
from qcmi.errors import (
    ConfigError,
    InequalityViolationError,
    NotHermitianError,
    NotPSDError,
    SingularMatrixError,
    TraceNotOneError,
)
from qcmi.harness import (
    CORPORA,
    CSV_COLUMNS,
    ScanConfig,
    ScanRow,
    _abort,
    channel_gap_scan,
    corpus_state,
    evaluate_sample,
    run_conjecture,
    scan,
    write_scan_report,
)
from qcmi.inequalities import (
    CHANNEL,
    INEQUALITIES,
    commutator_slack,
    half_recovery_slack,
    proven_checks,
    rotated_slacks,
)
from qcmi.recovery import classify
from qcmi.sampling import (
    near_markov_state,
    random_classical_state,
    random_markov_state,
    random_tripartite,
    random_unitary,
    substream,
)
from qcmi.stateio import read_state, to_json as _json_value
from qcmi.states import (
    ClassicalJoint,
    TripartiteState,
    classical_state,
    validate_density,
)

LN2 = math.log(2)


def parity_state():
    p = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            p[a, b, (a + b) % 2] = 0.25
    return classical_state(ClassicalJoint(p))


class TestScanConfig:
    def test_rejects_unknown_corpus(self):
        with pytest.raises(ConfigError):
            ScanConfig(dims=(2, 2, 2), samples=1, corpus="gibberish")

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ConfigError):
            ScanConfig(dims=(2, 2, 2), samples=0)

    def test_rejects_bad_dims(self):
        with pytest.raises(ConfigError):
            ScanConfig(dims=(2, 2), samples=1)
        with pytest.raises(ConfigError):
            ScanConfig(dims=(2, 0, 2), samples=1)

    def test_rejects_unknown_format(self):
        with pytest.raises(ConfigError):
            ScanConfig(dims=(2, 2, 2), samples=1, fmt="xml")

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ConfigError):
            ScanConfig(dims=(2, 2, 2), samples=1, tol=0.0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            ScanConfig(dims=(2, 2, 2), samples=1, seed=-1)
        assert ScanConfig(dims=(2, 2, 2), samples=1, seed=0).seed == 0

    @pytest.mark.parametrize("seed", [1.5, "3", None, 2.0])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ConfigError, match=r"^seed must be an integer, got "):
            ScanConfig(dims=(2, 2, 2), samples=1, seed=seed)

    def test_stores_an_integer_seed_as_int(self):
        cfg = ScanConfig(dims=(2, 1, 2), samples=1, seed=np.int64(3), fmt="json")
        assert type(cfg.seed) is int
        assert _json_value(cfg.as_dict()) == (
            '{"dims":[2,1,2],"samples":1,"seed":3,"corpus":"hs-random","tol":1e-08,'
            '"format":"json"}'
        )

    @pytest.mark.parametrize(
        "tol,message",
        [
            (math.nan, "tol must be positive, got nan"),
            (-1.0, "tol must be positive, got -1.0"),
            (-math.inf, "tol must be positive, got -inf"),
            # A tolerance of inf would let every slack pass.
            (math.inf, "tol must be finite, got inf"),
            ("x", "tol must be a real number, got 'x'"),
            # At tol = True (1.0) every slack above -1 would pass.
            (True, "tol must be a real number, got True"),
        ],
        ids=["nan", "-1.0", "-inf", "inf", "x", "True"],
    )
    def test_rejects_tol_that_is_not_positive(self, tol, message):
        with pytest.raises(ConfigError) as exc:
            ScanConfig(dims=(2, 2, 2), samples=1, tol=tol)
        assert str(exc.value) == message

    def test_as_dict_uses_format_key(self):
        cfg = ScanConfig(dims=(2, 3, 2), samples=4, seed=7, fmt="json")
        d = cfg.as_dict()
        assert d["format"] == "json"
        assert d["dims"] == [2, 3, 2]


class TestCorpusState:
    def test_deterministic_per_index(self):
        cfg = ScanConfig(dims=(2, 2, 2), samples=3, seed=11)
        a = corpus_state(cfg, 2)
        b = corpus_state(cfg, 2)
        assert np.array_equal(a.mat, b.mat)

    def test_indices_differ(self):
        cfg = ScanConfig(dims=(2, 2, 2), samples=3, seed=11)
        assert not np.allclose(corpus_state(cfg, 0).mat, corpus_state(cfg, 1).mat)

    def test_near_markov_cycles_mix_weights(self):
        cfg = ScanConfig(dims=(2, 2, 2), samples=5, seed=12, corpus="near-markov")
        # index 0 and index 4 both land on the strongest mixing weight
        for index in (0, 4):
            expected = near_markov_state((2, 2, 2), substream(12, index), 1e-1)
            np.testing.assert_array_equal(corpus_state(cfg, index).mat, expected.mat)
        weaker = near_markov_state((2, 2, 2), substream(12, 3), 1e-4)
        np.testing.assert_array_equal(corpus_state(cfg, 3).mat, weaker.mat)


class TestEvaluateSample:
    def test_matches_direct_bound_report(self):
        cfg = ScanConfig(dims=(2, 3, 2), samples=1, seed=13)
        st = corpus_state(cfg, 0)
        row = evaluate_sample(st, 0)
        rep = bound_report(st)
        assert row.cmi == rep.cmi
        assert row.thm1_bound == rep.thm1_bound
        assert row.sigma_star_trace == rep.sigma_star_trace
        assert (row.dA, row.dB, row.dC) == (2, 3, 2)
        assert row.label in ("D1", "D2", "D3")

    def test_rows_are_labelled_at_the_runs_tol(self):
        # At tol 1e-3, sample 2 (commutator norm 1.5e-4, gap 9.4e-4) is D1,
        # where the default tol makes it D3; 12 of the 20 labels differ.
        cfg = ScanConfig(dims=(2, 2, 2), samples=20, seed=3, corpus="near-markov", tol=1e-3)
        rows = scan(cfg)
        want = [classify(corpus_state(cfg, i), tol=cfg.tol).label for i in range(cfg.samples)]
        assert [row.label for row in rows] == want
        assert rows[2].label == "D1"
        state = corpus_state(cfg, 2)
        assert evaluate_sample(state, 2, cfg.tol).label == "D1"
        assert evaluate_sample(state, 2).label == classify(state).label == "D3"


class TestScan:
    def test_row_count_and_indices(self):
        cfg = ScanConfig(dims=(2, 2, 2), samples=6, seed=14)
        rows = scan(cfg)
        assert [r.sample_index for r in rows] == list(range(6))

    def test_markov_corpus_rows(self):
        cfg = ScanConfig(dims=(2, 2, 2), samples=8, seed=15, corpus="markov")
        for row in scan(cfg):
            assert abs(row.cmi) <= 1e-9
            assert row.label == "D1"

    def test_classical_corpus_satisfies_recovery_pinsker(self):
        cfg = ScanConfig(dims=(2, 2, 2), samples=8, seed=16, corpus="classical-random")
        for row in scan(cfg):
            gap = max(row.recovery_gap_M, row.recovery_gap_Mprime)
            assert row.cmi >= 0.5 * gap * gap - 1e-8

    def test_near_markov_corpus_runs(self):
        cfg = ScanConfig(dims=(2, 2, 2), samples=4, seed=30, corpus="near-markov")
        rows = scan(cfg)
        assert len(rows) == 4
        assert all(row.cmi >= -1e-9 for row in rows)

    def test_csv_header_and_shape(self, tmp_path):
        out = str(tmp_path / "scan.csv")
        cfg = ScanConfig(dims=(2, 2, 2), samples=3, seed=17, out=out)
        scan(cfg)
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(CSV_COLUMNS) == 16
        assert len(lines) == 4
        assert all(len(line.split(",")) == 16 for line in lines[1:])

    def test_csv_reruns_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            scan(ScanConfig(dims=(2, 3, 2), samples=4, seed=18, out=str(out)))
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_report_parses(self, tmp_path):
        out = str(tmp_path / "scan.json")
        cfg = ScanConfig(dims=(2, 2, 2), samples=3, seed=19, out=out, fmt="json")
        rows = scan(cfg)
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["config"]["corpus"] == "hs-random"
        assert doc["config"]["format"] == "json"
        assert len(doc["rows"]) == 3
        first = doc["rows"][0]
        assert first["cmi"] == rows[0].cmi
        assert first["support_restricted"] is False
        assert first["label"] in ("D1", "D2", "D3")


# Two rows as a scan reports them: an infinite log-overlap bound, a
# support-restricted sample, a negative zero and a tiny value.
REPORT_ROWS = (
    ScanRow(
        sample_index=0, dA=2, dB=1, dC=2, cmi=math.log(2), sigma_star_trace=1.0,
        log_overlap_bound=math.log(2) - 1e-16, thm1_bound=2 - math.sqrt(2), corollary_bound=0.25,
        slack_thm1=math.log(2) - (2 - math.sqrt(2)), slack_corollary=math.log(2) - 0.25,
        recovery_gap_M=1.0, recovery_gap_Mprime=1.0, commutator_trace_norm=0.0,
        ruskai_residual=1e-35, label="D2", support_restricted=False,
    ),
    ScanRow(
        sample_index=1, dA=2, dB=1, dC=2, cmi=0.0, sigma_star_trace=0.5,
        log_overlap_bound=math.inf, thm1_bound=0.5, corollary_bound=0.0625,
        slack_thm1=-0.5, slack_corollary=-0.0625, recovery_gap_M=2.220446049250313e-16,
        recovery_gap_Mprime=-0.0, commutator_trace_norm=0.0, ruskai_residual=0.98025814346854706,
        label="D1", support_restricted=True,
    ),
)

REPORT_CSV = (
    "sample_index,dA,dB,dC,cmi,sigma_star_trace,log_overlap_bound,thm1_bound,corollary_bound,"
    "slack_thm1,slack_corollary,recovery_gap_M,recovery_gap_Mprime,commutator_trace_norm,"
    "ruskai_residual,label\n"
    "0,2,1,2,0.69314718055994529,1,0.69314718055994518,0.58578643762690485,0.25,"
    "0.10736074293304043,0.44314718055994529,1,1,0,1e-35,D2\n"
    "1,2,1,2,0,0.5,inf,0.5,0.0625,-0.5,-0.0625,2.2204460492503131e-16,-0,0,"
    "0.98025814346854701,D1\n"
)

REPORT_JSON = (
    '{"config":{"dims":[2,1,2],"samples":2,"seed":7,"corpus":"hs-random","tol":1e-08,'
    '"format":"json"},"rows":['
    '{"sample_index":0,"dA":2,"dB":1,"dC":2,"cmi":0.69314718055994529,"sigma_star_trace":1,'
    '"log_overlap_bound":0.69314718055994518,"thm1_bound":0.58578643762690485,'
    '"corollary_bound":0.25,"slack_thm1":0.10736074293304043,'
    '"slack_corollary":0.44314718055994529,"recovery_gap_M":1,"recovery_gap_Mprime":1,'
    '"commutator_trace_norm":0,"ruskai_residual":1e-35,"label":"D2",'
    '"support_restricted":false},'
    '{"sample_index":1,"dA":2,"dB":1,"dC":2,"cmi":0,"sigma_star_trace":0.5,'
    '"log_overlap_bound":"inf","thm1_bound":0.5,"corollary_bound":0.0625,"slack_thm1":-0.5,'
    '"slack_corollary":-0.0625,"recovery_gap_M":2.2204460492503131e-16,'
    '"recovery_gap_Mprime":-0,"commutator_trace_norm":0,"ruskai_residual":0.98025814346854701,'
    '"label":"D1","support_restricted":true}]}\n'
)


@pytest.mark.parametrize("fmt,want", [("csv", REPORT_CSV), ("json", REPORT_JSON)])
def test_scan_report_bytes(tmp_path, fmt, want):
    out = tmp_path / f"scan.{fmt}"
    cfg = ScanConfig(dims=(2, 1, 2), samples=2, seed=7, out=str(out), fmt=fmt)
    write_scan_report(cfg, list(REPORT_ROWS))
    assert out.read_bytes() == want.encode()


def _negative_diagonal_state(dims):
    # A TripartiteState that skipped validation: its AB marginal has the
    # eigenvalue -1e-6, so analysing it raises NotPSDError.
    n = int(np.prod(dims))
    diag = np.full(n, (1.0 + 1e-6) / (n - 2))
    diag[0] = -1e-6
    diag[1] = 0.0
    return TripartiteState(np.diag(diag).astype(complex), dims)


def _invalid_draw(kind, cfg, i):
    # A corpus draw that skipped validation and is not a density matrix:
    # the drawn state, made non-Hermitian, scaled to trace 1.5, or rotated
    # from a spectrum with the eigenvalue -1e-6 (its marginals are PSD).
    mat = corpus_state(cfg, i).mat
    n = mat.shape[0]
    if kind == "non-hermitian":
        mat = mat + 1e-3 * np.triu(np.ones((n, n)), 1)
    elif kind == "trace":
        mat = 1.5 * mat
    else:
        u = random_unitary(n, substream(cfg.seed, i, 1))
        w = np.full(n, (1.0 + 1e-6) / (n - 1))
        w[0] = -1e-6
        mat = (u * w) @ u.conj().T
    return TripartiteState(mat, cfg.dims)


INVALID_DRAWS = {
    "non-hermitian": (NotHermitianError, "matrix deviates from Hermitian by"),
    "trace": (TraceNotOneError, r"trace is 1\.(5|4999)"),
    "negative-eigenvalue": (NotPSDError, "minimum eigenvalue -1.000e-06 is below -1.4e-11"),
}


class TestStackedScan:
    """Samples evaluated in one stack abort exactly as samples evaluated one by one."""

    @pytest.fixture
    def inject(self, monkeypatch):
        # Replace corpus samples: inject({index: state_for(cfg, index)}).
        original = harness.corpus_state

        def install(replacements):
            def corpus_state(cfg, index):
                if index in replacements:
                    return replacements[index](cfg, index)
                return original(cfg, index)

            monkeypatch.setattr(harness, "corpus_state", corpus_state)

        return install

    @staticmethod
    def _failure(tmp_path, monkeypatch, budget, error):
        # (message with the out path replaced, artifact bytes or None)
        monkeypatch.setattr(harness, "STACK_BUDGET", budget)
        out = tmp_path / f"budget-{budget}"
        cfg = ScanConfig(dims=(2, 2, 2), samples=6, seed=38, corpus="markov", out=str(out))
        with pytest.raises(error) as exc:
            scan(cfg)
        path = getattr(exc.value, "artifact_path", None)
        return str(exc.value).replace(str(out), "OUT"), path and Path(path).read_bytes()

    def _stacked_and_alone(self, tmp_path, monkeypatch, error):
        stacked = self._failure(tmp_path, monkeypatch, harness.STACK_BUDGET, error)
        alone = self._failure(tmp_path, monkeypatch, 1, error)  # a stack per sample
        assert stacked == alone
        return stacked

    def test_violation_inside_a_stack_aborts_at_its_index(self, tmp_path, monkeypatch, inject):
        # An hs-random state in the markov corpus fails markov-cmi-zero.
        inject({2: lambda cfg, i: random_tripartite(cfg.dims, substream(cfg.seed, i))})
        message, artifact = self._stacked_and_alone(tmp_path, monkeypatch, InequalityViolationError)
        assert "'markov-cmi-zero' violated at sample 2" in message
        assert artifact is not None

    def test_a_stack_that_raises_is_evaluated_one_by_one(self, tmp_path, monkeypatch, inject):
        inject({3: lambda cfg, i: _negative_diagonal_state(cfg.dims)})
        message, _ = self._stacked_and_alone(tmp_path, monkeypatch, NotPSDError)
        assert "-1.000e-06" in message

    def test_a_violation_before_a_failing_state_comes_first(self, tmp_path, monkeypatch, inject):
        inject({
            1: lambda cfg, i: random_tripartite(cfg.dims, substream(cfg.seed, i)),
            3: lambda cfg, i: _negative_diagonal_state(cfg.dims),
        })
        message, _ = self._stacked_and_alone(tmp_path, monkeypatch, InequalityViolationError)
        assert "violated at sample 1" in message

    def test_drawn_states_are_reused_and_a_failed_draw_repeated(
        self, tmp_path, monkeypatch, inject
    ):
        def failing_draw(cfg, i):
            raise ConfigError(f"no state for sample {i}")

        def failure(budget, error, replacements):
            # (message, artifact) and the sample indices drawn, in order
            inject(replacements)
            inner, draws = harness.corpus_state, []

            def corpus_state(cfg, i):
                draws.append(i)
                return inner(cfg, i)

            monkeypatch.setattr(harness, "corpus_state", corpus_state)
            return self._failure(tmp_path, monkeypatch, budget, error), draws

        violating = lambda cfg, i: random_tripartite(cfg.dims, substream(cfg.seed, i))  # noqa: E731
        cases = [
            # Samples 0 and 1 are reused; one by one stops at the violation.
            ({1: violating, 4: failing_draw}, InequalityViolationError, [0, 1, 2, 3, 4]),
            # 0-3 are reused and the draw that raised is repeated in its turn.
            ({4: failing_draw}, ConfigError, [0, 1, 2, 3, 4, 4]),
        ]
        for replacements, error, want in cases:
            stacked, draws = failure(harness.STACK_BUDGET, error, replacements)
            assert draws == want
            alone, _ = failure(1, error, replacements)
            assert stacked == alone
        assert stacked[0] == "no state for sample 4"

    def test_unwritable_artifact_still_reports_the_violation(self, tmp_path, inject):
        # The violation at sample 1 is raised with the write error, and no
        # artifact, when the artifact's directory does not exist.
        inject({1: lambda cfg, i: random_tripartite(cfg.dims, substream(cfg.seed, i))})
        out = tmp_path / "missing" / "run.csv"
        cfg = ScanConfig(dims=(2, 2, 2), samples=3, seed=38, corpus="markov", out=str(out))
        with pytest.raises(InequalityViolationError) as err:
            scan(cfg)
        assert err.value.artifact_path is None
        message = str(err.value)
        assert message.startswith("proven inequality 'markov-cmi-zero' violated at sample 1: ")
        want = f" is below -1.0e-08; state not written: cannot write {out}.violation-state.json: "
        assert want in message
        assert not out.parent.exists()

    @pytest.mark.parametrize("kind", sorted(INVALID_DRAWS))
    def test_an_invalid_draw_raises_as_validation_would(self, tmp_path, monkeypatch, inject, kind):
        # The analysis validates draws: the error type and message are those
        # of validate_density, alone and inside a stack, and a violation at
        # an earlier sample still comes first.
        error, message = INVALID_DRAWS[kind]
        inject({3: lambda cfg, i: _invalid_draw(kind, cfg, i)})
        got, artifact = self._stacked_and_alone(tmp_path, monkeypatch, error)
        assert re.match(message, got)
        assert artifact is None
        inject({
            1: lambda cfg, i: random_tripartite(cfg.dims, substream(cfg.seed, i)),
            3: lambda cfg, i: _invalid_draw(kind, cfg, i),
        })
        got, _ = self._stacked_and_alone(tmp_path, monkeypatch, InequalityViolationError)
        assert "violated at sample 1" in got

    def test_invalid_draws_fail_validate_density_alike(self):
        cfg = ScanConfig(dims=(2, 2, 2), samples=6, seed=38, corpus="markov")
        for kind, (error, message) in INVALID_DRAWS.items():
            with pytest.raises(error, match=message) as exc:
                validate_density(_invalid_draw(kind, cfg, 3).mat)
            with pytest.raises(error) as alone:
                _invalid_draw(kind, cfg, 3).analysis.cmi
            assert str(alone.value) == str(exc.value)


class TestViolationHandling:
    def test_abort_writes_state_artifact(self, tmp_path):
        out = str(tmp_path / "run")
        cfg = ScanConfig(dims=(2, 2, 2), samples=1, seed=20, out=out)
        st = corpus_state(cfg, 0)
        with pytest.raises(InequalityViolationError) as err:
            _abort(st, cfg, "ssa-cmi-nonnegative", 0, -1e-3)
        path = err.value.artifact_path
        assert path == out + ".violation-state.json"
        recovered = read_state(path)
        np.testing.assert_allclose(recovered.mat, st.mat, atol=1e-12)

    def test_artifact_path_defaults_without_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = ScanConfig(dims=(2, 2, 2), samples=1, seed=20)
        st = corpus_state(cfg, 0)
        with pytest.raises(InequalityViolationError) as err:
            _abort(st, cfg, "ssa-cmi-nonnegative", 0, -1.0)
        assert err.value.artifact_path == "qcmi-run.violation-state.json"


class TestConjectureSlacks:
    def test_half_recovery_parity_value(self):
        assert half_recovery_slack(parity_state().analysis) == pytest.approx(LN2 - 0.5, abs=1e-9)

    def test_half_recovery_markov_near_zero(self):
        st = random_markov_state((2, 2, 3), substream(21, 0))
        assert abs(half_recovery_slack(st.analysis)) <= 1e-7

    def test_commutator_slack_equals_cmi_on_classical_states(self):
        # diagonal M commutes with its adjoint, so the penalty term vanishes
        for i in range(5):
            st = random_classical_state((2, 2, 2), substream(22, i))
            assert commutator_slack(st.analysis) == pytest.approx(st.analysis.cmi, abs=1e-10)

    def test_rotated_identity_triple_matches_corollary(self):
        st = corpus_state(ScanConfig(dims=(2, 2, 2), samples=1, seed=23), 0)
        identity_slack, best = rotated_slacks(st.analysis, substream(23, 0, 1), 4)
        rep = bound_report(st)
        assert identity_slack == pytest.approx(rep.slack_corollary, abs=1e-10)
        assert best <= identity_slack + 1e-12

    def test_rotated_zero_unitary_samples_returns_identity_slack(self):
        st = corpus_state(ScanConfig(dims=(2, 2, 2), samples=1, seed=24), 0)
        a, b = rotated_slacks(st.analysis, substream(24, 0, 1), 0)
        assert a == b

    def test_rotated_needs_full_rank(self):
        with pytest.raises(SingularMatrixError):
            rotated_slacks(parity_state().analysis, substream(23, 1), 1)


class TestProvenChecks:
    @pytest.mark.parametrize("corpus", CORPORA)
    def test_state_checks_are_the_slacks_of_the_scan_row(self, corpus):
        # Each proven state row's slack, bitwise, from the sample's ScanRow
        # (and ||rho - sigma*||_1, which no row field holds).
        cfg = ScanConfig(dims=(2, 2, 2), samples=8, seed=31, corpus=corpus)
        for i in range(cfg.samples):
            state = corpus_state(cfg, i)
            row = evaluate_sample(state, i)
            worst = max(row.recovery_gap_M, row.recovery_gap_Mprime)
            want = {
                "ssa-cmi-nonnegative": row.cmi,
                "trace-exp-at-most-one": 1.0 - row.sigma_star_trace,
                "thm1-below-corollary-gap": row.thm1_bound - row.corollary_bound,
                "log-overlap-below-cmi": row.cmi - row.log_overlap_bound,
                "thm1-below-log-overlap": row.log_overlap_bound - row.thm1_bound,
                "powers-stormer-upper": state.analysis.trace_distance - row.thm1_bound,
            }
            if corpus == "classical-random":
                want["classical-recovery-pinsker"] = row.cmi - 0.5 * worst * worst
            if corpus == "markov":
                want["markov-cmi-zero"] = -row.cmi
            got = dict(proven_checks(state.analysis, corpus))
            assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}

    def test_at_zero_overlap_the_log_overlap_row_fails_first(self):
        # An infinite log-overlap bound fails log-overlap-below-cmi and
        # passes thm1-below-log-overlap (thm1 is at most 2), so no rule
        # is needed to leave the second row out.
        a = types.SimpleNamespace(
            cmi=0.5, sigma_star_trace=1.0, log_overlap_bound=math.inf, thm1=2.0,
            corollary_bound=0.25, trace_distance=2.0,
        )
        checks = dict(proven_checks(a, None))
        assert checks["log-overlap-below-cmi"] == -math.inf
        assert checks["thm1-below-log-overlap"] == math.inf
        assert [name for name, s in checks.items() if s < 0] == ["log-overlap-below-cmi"]

    def test_channel_checks_are_the_two_proven_channel_rows(self):
        a = harness._channel(ScanConfig(dims=(3, 1, 1), samples=1, seed=32), None, 0)
        assert proven_checks(a, None, CHANNEL) == [
            ("channel-dpi-nonnegative", a.lhs),
            ("channel-gap-bound", a.lhs - a.rhs),
        ]


class TestRunConjecture:
    def test_unknown_conjecture_rejected(self):
        cfg = ScanConfig(dims=(2, 2, 2), samples=1)
        with pytest.raises(ConfigError):
            run_conjecture(cfg, "perpetual-motion")

    @pytest.mark.parametrize("corpus", ["classical-random", "markov", "near-markov"])
    def test_channel_run_refuses_a_corpus_it_does_not_draw_from(self, corpus, tmp_path, monkeypatch):
        # The triples are drawn with random_density whatever the corpus, so
        # any corpus but hs-random would be misreported; nothing is drawn.
        def draw(*args):
            raise AssertionError("drawn")

        monkeypatch.setattr(harness, "random_density", draw)
        out = tmp_path / "chan"
        cfg = ScanConfig(dims=(2, 1, 1), samples=4, seed=5, corpus=corpus, out=str(out))
        with pytest.raises(ConfigError, match=f"only corpus 'hs-random', got '{corpus}'"):
            run_conjecture(cfg, "channel")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("which", ["rotated-quarter", "half-recovery"])
    def test_negative_unitary_samples_rejected(self, which):
        # Checked before any sample is drawn, also where the count is unused.
        cfg = ScanConfig(dims=(2, 2, 2), samples=1)
        with pytest.raises(ConfigError, match="unitary_samples must be >= 0, got -2"):
            run_conjecture(cfg, which, unitary_samples=-2)

    def test_half_recovery_holds_on_classical_corpus(self, tmp_path):
        out = str(tmp_path / "conj")
        cfg = ScanConfig(
            dims=(2, 2, 2), samples=20, seed=25, corpus="classical-random", out=out
        )
        (res,) = run_conjecture(cfg, "half-recovery")
        assert res.conjecture_id == "half-recovery"
        assert res.samples == 20
        assert res.violations == 0
        assert res.min_slack >= -1e-8
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["which"] == "half-recovery"
        assert doc["results"][0]["violations"] == 0

    def test_argmin_state_artifact_round_trips(self, tmp_path):
        out = str(tmp_path / "conj")
        cfg = ScanConfig(dims=(2, 2, 2), samples=5, seed=26, corpus="markov", out=out)
        (res,) = run_conjecture(cfg, "half-recovery")
        assert res.argmin_path == out + ".argmin-half-recovery.json"
        st = read_state(res.argmin_path)
        assert st.dims == (2, 2, 2)

    def test_rotated_records_slacks_without_raising(self, tmp_path):
        # negative slacks on the open corpus are data, not an error
        out = str(tmp_path / "rot")
        cfg = ScanConfig(dims=(2, 2, 2), samples=5, seed=27, out=out)
        (res,) = run_conjecture(cfg, "rotated-quarter", unitary_samples=5)
        expected_min = math.inf
        expected_violations = 0
        for i in range(5):
            st = corpus_state(cfg, i)
            _, slack = rotated_slacks(st.analysis, substream(27, i, 1), 5)
            expected_min = min(expected_min, slack)
            if slack < -cfg.tol:
                expected_violations += 1
        assert res.min_slack == expected_min
        assert res.violations == expected_violations

    def test_channel_conjectures_report_two_results(self, tmp_path):
        out = str(tmp_path / "chan")
        cfg = ScanConfig(dims=(2, 1, 2), samples=6, seed=28, out=out)
        results = run_conjecture(cfg, "channel")
        assert [r.conjecture_id for r in results] == [
            "channel-traceexp",
            "channel-petz-pinsker",
        ]
        for r in results:
            assert r.samples == 6
            assert r.violations == 0
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["which"] == "channel"
        assert len(doc["results"]) == 2
        for r in results:
            if r.argmin_path is not None:
                with open(r.argmin_path) as fh:
                    chan = json.load(fh)
                assert set(chan) == {"dim", "rho", "sigma", "kraus"}
                assert chan["dim"] == 4


class TestChannelGapScan:
    def test_summary_fields(self):
        s = channel_gap_scan(dim=3, kraus=2, samples=10, seed=29)
        assert (s.samples, s.dim, s.kraus) == (10, 3, 2)
        assert s.violations == 0
        assert s.min_lhs >= -1e-8
        assert s.min_gap_slack >= -1e-8

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            channel_gap_scan(dim=0, kraus=1, samples=1)
        with pytest.raises(ConfigError):
            channel_gap_scan(dim=2, kraus=0, samples=1)
        with pytest.raises(ConfigError):
            channel_gap_scan(dim=2, kraus=1, samples=0)

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_rejects_tol_that_is_not_positive(self, tol, tmp_path):
        out = tmp_path / "gap"
        with pytest.raises(ConfigError, match=r"^tol must be positive, got "):
            channel_gap_scan(dim=2, kraus=1, samples=1, tol=tol, out=str(out))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", [1.5, "3"])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ConfigError, match=r"^seed must be an integer, got "):
            channel_gap_scan(dim=2, kraus=1, samples=1, seed=seed)

    def test_rejects_negative_seed_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(harness, "substream", no_draw)
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            channel_gap_scan(dim=2, kraus=1, samples=1, seed=-1)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: ScanConfig(dims=(2, 2, 2), samples=2.7), "samples must be an integer, got 2.7"),
        (lambda: ScanConfig(dims=(2, 2, 2), samples=0), "samples must be >= 1, got 0"),
        (lambda: ScanConfig(dims=(2.9, 2, 2), samples=1), "dims entry must be an integer, got 2.9"),
        (lambda: ScanConfig(dims=(2, 0, 2), samples=1), "dims entry must be >= 1, got 0"),
        (lambda: ScanConfig(dims=(2, 2), samples=1), "dims must be three positive integers, got (2, 2)"),
        (lambda: channel_gap_scan(dim=2, kraus=2, samples=1.5), "samples must be an integer, got 1.5"),
        (lambda: channel_gap_scan(dim=2, kraus=2.5, samples=1), "kraus must be an integer, got 2.5"),
        (lambda: channel_gap_scan(dim=2, kraus=0, samples=1), "kraus must be >= 1, got 0"),
        (lambda: channel_gap_scan(dim=2.0, kraus=1, samples=1), "dim must be an integer, got 2.0"),
        (lambda: channel_gap_scan(dim=0, kraus=1, samples=1), "dim must be >= 1, got 0"),
        (
            lambda: run_conjecture(
                ScanConfig(dims=(2, 2, 2), samples=1), "rotated-quarter", unitary_samples=2.5
            ),
            "unitary_samples must be an integer, got 2.5",
        ),
        # A bool is no integer: True and False would pass as 1 and 0.
        (lambda: ScanConfig(dims=(True, 2, 2), samples=1), "dims entry must be an integer, got True"),
        (lambda: ScanConfig(dims=(2, 2, 2), samples=True), "samples must be an integer, got True"),
        (lambda: ScanConfig(dims=(2, 2, 2), samples=1, seed=False), "seed must be an integer, got False"),
        (lambda: channel_gap_scan(dim=True, kraus=1, samples=1), "dim must be an integer, got True"),
        (
            lambda: run_conjecture(
                ScanConfig(dims=(2, 2, 2), samples=1), "rotated-quarter", unitary_samples=True
            ),
            "unitary_samples must be an integer, got True",
        ),
    ],
)
def test_every_count_is_an_integer_at_least_its_minimum(call, message, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(harness, "substream", no_draw)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call()


class TestStackedConjecture:
    """Conjecture runs analyse samples in stacks, with the results of one by one."""

    @staticmethod
    def _run(tmp_path, monkeypatch, budget, which, corpus, samples=300):
        # (files the run wrote, with the out path replaced) or the error
        monkeypatch.setattr(harness, "STACK_BUDGET", budget)
        run = Path(tempfile.mkdtemp(dir=tmp_path))
        out = str(run / "conj")
        cfg = ScanConfig(dims=(2, 2, 2), samples=samples, seed=41, corpus=corpus, out=out)
        try:
            run_conjecture(cfg, which, unitary_samples=2)
        except (InequalityViolationError, NotPSDError) as exc:
            return type(exc).__name__, str(exc).replace(out, "OUT")
        return {p.name: p.read_bytes().replace(out.encode(), b"OUT") for p in run.iterdir()}

    @pytest.mark.parametrize("corpus", ["hs-random", "classical-random", "markov"])
    @pytest.mark.parametrize("which", ["half-recovery", "commutator-eighth", "rotated-quarter"])
    def test_reports_and_artifacts_match_one_by_one(self, tmp_path, monkeypatch, which, corpus):
        # 300 samples at 2,2,2 make two stacks (256 + 44).
        assert harness.STACK_BUDGET // 64 == 256
        stacked = self._run(tmp_path, monkeypatch, harness.STACK_BUDGET, which, corpus)
        alone = self._run(tmp_path, monkeypatch, 1, which, corpus)
        assert stacked == alone
        assert "conj" in stacked  # the report

    @pytest.fixture
    def failing_row(self, monkeypatch):
        # half-recovery with the slack -cmi: ~0 on the markov corpus, where
        # it is asserted, and below -tol on an injected hs-random draw.
        row = INEQUALITIES["half-recovery"]
        failing = dataclasses.replace(row, slack=lambda a, _: -a.cmi)
        monkeypatch.setitem(INEQUALITIES, "half-recovery", failing)

    @pytest.mark.parametrize("index", [3, 270])
    def test_violation_on_an_asserted_corpus_aborts_at_its_index(
        self, tmp_path, monkeypatch, failing_row, index
    ):
        original = harness.corpus_state

        def corpus_state(cfg, i):
            if i == index:
                return random_tripartite(cfg.dims, substream(cfg.seed, i))
            return original(cfg, i)

        monkeypatch.setattr(harness, "corpus_state", corpus_state)
        stacked = self._run(tmp_path, monkeypatch, harness.STACK_BUDGET, "half-recovery", "markov")
        alone = self._run(tmp_path, monkeypatch, 1, "half-recovery", "markov")
        assert stacked == alone
        assert stacked[0] == "InequalityViolationError"
        assert f"'half-recovery (proven on markov)' violated at sample {index}:" in stacked[1]

    def test_a_stack_that_raises_is_evaluated_one_by_one(self, tmp_path, monkeypatch, failing_row):
        original = harness.corpus_state
        bad = {5: lambda cfg, i: _negative_diagonal_state(cfg.dims),
               2: lambda cfg, i: random_tripartite(cfg.dims, substream(cfg.seed, i))}

        def corpus_state(cfg, i):
            return bad[i](cfg, i) if i in bad else original(cfg, i)

        monkeypatch.setattr(harness, "corpus_state", corpus_state)
        runs = [
            self._run(tmp_path, monkeypatch, budget, "half-recovery", "markov", samples=8)
            for budget in (harness.STACK_BUDGET, 1)
        ]
        assert runs[0] == runs[1]
        assert "violated at sample 2" in runs[0][1]
        del bad[2]
        runs = [
            self._run(tmp_path, monkeypatch, budget, "half-recovery", "markov", samples=8)
            for budget in (harness.STACK_BUDGET, 1)
        ]
        assert runs[0] == runs[1]
        assert runs[0][0] == "NotPSDError"


class TestJsonEncoding:
    def test_scalar_forms(self):
        assert _json_value(math.inf) == '"inf"'
        assert _json_value(-math.inf) == '"-inf"'
        assert _json_value(None) == "null"
        assert _json_value(True) == "true"
        assert _json_value(0.5) == "0.5"
        assert _json_value('a"b') == '"a\\"b"'
