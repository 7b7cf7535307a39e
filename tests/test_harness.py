import dataclasses
import json
import math
import os
import re
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest

from qcmi import harness, sampling
from qcmi.analysis import ChannelAnalysis, _analysed
from qcmi.channels import random_channel
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
    STACK_BUDGET,
    ScanConfig,
    ScanRow,
    _abort,
    corpus_state,
    evaluate_sample,
    run_conjecture,
    scan,
    write_scan_report,
)
from qcmi.inequalities import (
    ALWAYS,
    CHANNEL,
    INEQUALITIES,
    TABLE,
    commutator_slack,
    half_recovery_slack,
    proven_checks,
    rotated_slacks,
)
from qcmi.recovery import classify
from qcmi.sampling import (
    near_markov_state,
    random_classical_state,
    random_density,
    random_markov_state,
    random_tripartite,
    random_unitary,
    substream,
)
from qcmi.stateio import read_state, to_json as _json_value, write_state
from qcmi.states import (
    TripartiteState,
    classical_state,
    validate_density,
)
from oracles import parity_state
from test_golden import restricted_states, sub_cutoff_classical

LN2 = math.log(2)


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

    def test_scan_rejects_unknown_format_before_any_draw(self, tmp_path, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(harness, "substream", no_draw)
        out = tmp_path / "scan.xml"
        out.write_bytes(b"kept")
        cfg = ScanConfig(dims=(2, 2, 2), samples=1, out=str(out))
        message = r"^format must be 'csv' or 'json', got 'xml'$"
        with pytest.raises(ConfigError, match=message):
            scan(cfg, fmt="xml")
        with pytest.raises(ConfigError, match=message):
            write_scan_report(cfg, [], "xml")
        assert out.read_bytes() == b"kept"

    def test_holds_the_six_settings_both_runners_read(self):
        names = [f.name for f in dataclasses.fields(ScanConfig)]
        assert names == ["dims", "samples", "seed", "corpus", "tol", "out"]

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
        cfg = ScanConfig(dims=(2, 1, 2), samples=1, seed=np.int64(3))
        assert type(cfg.seed) is int
        assert _json_value(cfg.as_dict()) == (
            '{"dims":[2,1,2],"samples":1,"seed":3,"corpus":"hs-random","tol":1e-08}'
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

    @pytest.mark.parametrize("out", [3, 2.5, ["x"], True], ids=repr)
    def test_rejects_an_out_that_is_not_a_path_before_any_draw(self, out, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(harness, "substream", no_draw)
        message = f"^cannot write {re.escape(repr(out))}: a path must be a string or a path object$"
        with pytest.raises(ConfigError, match=message):
            scan(ScanConfig(dims=(3, 3, 3), samples=40, out=out))
        with pytest.raises(ConfigError, match=message):
            run_conjecture(ScanConfig(dims=(2, 1, 1), samples=1, out=out), "channel")

    def test_as_dict_holds_no_format(self):
        d = ScanConfig(dims=(2, 3, 2), samples=4, seed=7).as_dict()
        assert "format" not in d
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
    def test_matches_the_analysis(self):
        cfg = ScanConfig(dims=(2, 3, 2), samples=1, seed=13)
        st = corpus_state(cfg, 0)
        row = evaluate_sample(st, 0)
        a = st.analysis
        assert row.cmi == a.cmi
        assert row.thm1_bound == a.thm1
        assert row.sigma_star_trace == a.sigma_star_trace
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
        cfg = ScanConfig(dims=(2, 2, 2), samples=3, seed=19, out=out)
        rows = scan(cfg, "json")
        with open(out) as fh:
            doc = json.load(fh)
        # The run's config, with the format added last.
        assert list(doc["config"].items()) == [*cfg.as_dict().items(), ("format", "json")]
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
    cfg = ScanConfig(dims=(2, 1, 2), samples=2, seed=7, out=str(out))
    write_scan_report(cfg, list(REPORT_ROWS), fmt)
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
    # A markov corpus draw that skipped validation and is not a density
    # matrix: the drawn state, made non-Hermitian, scaled to trace 1.5, or
    # rotated from a spectrum with the eigenvalue -1e-6 (its marginals are
    # PSD). It is drawn with the public sampler, which sample injection
    # leaves as it is.
    mat = random_markov_state(cfg.dims, substream(cfg.seed, i)).mat
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
        # The module's budget: an earlier call in the test may have left
        # harness.STACK_BUDGET patched to 1.
        stacked = self._failure(tmp_path, monkeypatch, STACK_BUDGET, error)
        alone = self._failure(tmp_path, monkeypatch, 1, error)  # a stack per sample
        assert stacked == alone
        return stacked

    def test_violation_inside_a_stack_aborts_at_its_index(
        self, tmp_path, monkeypatch, inject_samples
    ):
        # An hs-random state in the markov corpus fails markov-cmi-zero.
        inject_samples({2: lambda cfg, i: random_tripartite(cfg.dims, substream(cfg.seed, i))})
        message, artifact = self._stacked_and_alone(tmp_path, monkeypatch, InequalityViolationError)
        assert "'markov-cmi-zero' violated at sample 2" in message
        assert artifact is not None

    def test_a_stack_that_raises_is_evaluated_one_by_one(
        self, tmp_path, monkeypatch, inject_samples
    ):
        inject_samples({3: lambda cfg, i: _negative_diagonal_state(cfg.dims)})
        message, _ = self._stacked_and_alone(tmp_path, monkeypatch, NotPSDError)
        assert "-1.000e-06" in message

    def test_a_violation_before_a_failing_state_comes_first(
        self, tmp_path, monkeypatch, inject_samples
    ):
        inject_samples({
            1: lambda cfg, i: random_tripartite(cfg.dims, substream(cfg.seed, i)),
            3: lambda cfg, i: _negative_diagonal_state(cfg.dims),
        })
        message, _ = self._stacked_and_alone(tmp_path, monkeypatch, InequalityViolationError)
        assert "violated at sample 1" in message

    def test_one_by_one_draws_each_sample_again(self, tmp_path, monkeypatch, inject_samples):
        def failing_draw(cfg, i):
            raise ConfigError(f"no state for sample {i}")

        def failure(budget, error, replacements):
            # (message, artifact) and the sample indices drawn, in order
            inject_samples(replacements)
            inner, draws = harness._draw, []

            def draw(cfg, i):
                draws.append(i)
                return inner(cfg, i)

            monkeypatch.setattr(harness, "_draw", draw)
            return self._failure(tmp_path, monkeypatch, budget, error), draws

        violating = lambda cfg, i: random_tripartite(cfg.dims, substream(cfg.seed, i))  # noqa: E731
        # Whether a draw, the build or the analysis raised, one by one draws
        # the samples again from sample 0, up to the one that fails.
        cases = [
            # The draw of sample 4 raises; one by one stops at the violation.
            ({1: violating, 4: failing_draw}, InequalityViolationError, [0, 1, 2, 3, 4, 0, 1]),
            ({4: failing_draw}, ConfigError, [0, 1, 2, 3, 4, 0, 1, 2, 3, 4]),
            ({3: lambda cfg, i: _negative_diagonal_state(cfg.dims)}, NotPSDError,
             [0, 1, 2, 3, 4, 5, 0, 1, 2, 3]),
        ]
        for replacements, error, want in cases:
            stacked, draws = failure(STACK_BUDGET, error, replacements)
            assert draws == want
            alone, _ = failure(1, error, replacements)
            assert stacked == alone
            if error is ConfigError:
                assert stacked[0] == "no state for sample 4"

    def test_unwritable_artifact_still_reports_the_violation(self, tmp_path, inject_samples):
        # The violation at sample 1 is raised with the write error, and no
        # artifact, when the artifact's directory does not exist.
        inject_samples({1: lambda cfg, i: random_tripartite(cfg.dims, substream(cfg.seed, i))})
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
    def test_an_invalid_draw_raises_as_validation_would(
        self, tmp_path, monkeypatch, inject_samples, kind
    ):
        # The analysis validates draws: the error type and message are those
        # of validate_density, alone and inside a stack, and a violation at
        # an earlier sample still comes first.
        error, message = INVALID_DRAWS[kind]
        inject_samples({3: lambda cfg, i: _invalid_draw(kind, cfg, i)})
        got, artifact = self._stacked_and_alone(tmp_path, monkeypatch, error)
        assert re.match(message, got)
        assert artifact is None
        inject_samples({
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


def _rows_alone(cfg) -> list[str]:
    # repr of each sample's evaluate_sample row, its state (corpus_state,
    # which sees injected samples) analysed alone.
    return [repr(evaluate_sample(corpus_state(cfg, i), i, cfg.tol)) for i in range(cfg.samples)]


class TestColumns:
    """A scan reads a stack's rows from its columns, one pass per stack:
    the rows are bitwise evaluate_sample's, each sample analysed alone."""

    @pytest.mark.parametrize("corpus", CORPORA)
    @pytest.mark.parametrize("dims,samples", [((2, 2, 2), 40), ((2, 3, 2), 12)])
    def test_rows_equal_evaluate_sample_on_every_corpus(self, corpus, dims, samples):
        cfg = ScanConfig(dims=dims, samples=samples, seed=45, corpus=corpus)
        assert [repr(row) for row in scan(cfg)] == _rows_alone(cfg)

    def test_rows_equal_evaluate_sample_at_a_non_default_tol(self):
        # tol 1e-3 labels 12 of these 20 near-markov samples otherwise than
        # the default tol (TestEvaluateSample).
        cfg = ScanConfig(dims=(2, 2, 2), samples=20, seed=3, corpus="near-markov", tol=1e-3)
        assert [repr(row) for row in scan(cfg)] == _rows_alone(cfg)

    def test_rows_equal_evaluate_sample_on_a_support_restricted_stack(self, inject_samples):
        # Low-rank states, whose sigma* takes the support-restricted branch,
        # and a full-rank state with a sub-cutoff eigenvalue, among
        # hs-random draws of one stack.
        special = restricted_states()
        injected = {
            1: special["ghz"], 3: special["w"], 4: special["singular-ab-classical"],
            6: sub_cutoff_classical(),
        }
        inject_samples({
            i: lambda cfg, i: TripartiteState(injected[i].mat, injected[i].dims) for i in injected
        })
        cfg = ScanConfig(dims=(2, 2, 2), samples=8, seed=46)
        rows = scan(cfg)
        assert [repr(row) for row in rows] == _rows_alone(cfg)
        restricted = [row.sample_index for row in rows if row.support_restricted]
        assert restricted == [1, 3, 4]

    def test_the_derived_bounds_are_python_arithmetic(self):
        # -2 log overlap with math.log and ||rho - sigma*||_1^2 / 4 with a
        # Python float square, element by element. Where numpy's
        # vectorized log uses AVX-512, np.log differs from math.log on
        # samples 0, 22 and 225 of this stack, and 0.25 * td**2 over the
        # array differs on sample 251, so a vectorized column fails here.
        cfg = ScanConfig(dims=(2, 2, 2), samples=256, seed=0)
        rows = scan(cfg)
        states = _analysed(
            np.array([corpus_state(cfg, i).mat for i in range(cfg.samples)]), cfg.dims
        )
        for row, state in zip(rows, states):
            a = state.analysis
            assert repr(row.log_overlap_bound) == repr(-2.0 * math.log(a.overlap))
            assert repr(row.corollary_bound) == repr(0.25 * a.trace_distance**2)
            assert repr(a.log_overlap_bound) == repr(row.log_overlap_bound)
            assert repr(a.corollary_bound) == repr(row.corollary_bound)

    def test_a_violation_mid_stack_raises_its_message_and_artifact(self, tmp_path, inject_samples):
        # Sample 5 of 12 markov samples, one stack, replaced by an hs-random
        # draw: markov-cmi-zero fails there with the slack -cmi of that
        # state analysed alone, after samples 0-4 pass their checks.
        violating = random_tripartite((2, 2, 2), substream(47, 5))
        inject_samples({5: lambda cfg, i: TripartiteState(violating.mat, cfg.dims)})
        out = tmp_path / "run.csv"
        cfg = ScanConfig(dims=(2, 2, 2), samples=12, seed=47, corpus="markov", out=str(out))
        with pytest.raises(InequalityViolationError) as err:
            scan(cfg)
        slack = -evaluate_sample(TripartiteState(violating.mat, cfg.dims), 5).cmi
        path = f"{out}.violation-state.json"
        assert str(err.value) == (
            f"proven inequality 'markov-cmi-zero' violated at sample 5: slack {slack:.6e} "
            f"is below -1.0e-08; state written to {path}"
        )
        assert err.value.artifact_path == path
        want = tmp_path / "want.json"
        write_state(violating, want)
        assert Path(path).read_bytes() == want.read_bytes()
        assert not out.exists()


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

    def test_a_bytes_out_names_the_violation_artifact_as_the_report(self, tmp_path, inject_samples):
        # Sample 0 of the markov corpus replaced by an hs-random state, which
        # fails markov-cmi-zero.
        inject_samples({0: lambda cfg, i: random_tripartite(cfg.dims, substream(40, i))})
        out = tmp_path / "x"
        cfg = ScanConfig(dims=(2, 2, 2), samples=1, corpus="markov", out=os.fsencode(out))
        with pytest.raises(InequalityViolationError) as err:
            scan(cfg)
        assert err.value.artifact_path == f"{out}.violation-state.json"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.violation-state.json"]

    def test_a_bytes_out_names_the_argmin_artifact_as_the_report(self, tmp_path):
        out = tmp_path / "x"
        cfg = ScanConfig(dims=(2, 2, 2), samples=5, seed=26, corpus="markov", out=os.fsencode(out))
        (res,) = run_conjecture(cfg, "half-recovery")
        assert res.argmin_path == f"{out}.argmin-half-recovery.json"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x", "x.argmin-half-recovery.json"]

    def test_a_bytes_out_names_the_channel_artifact_as_the_report(self, tmp_path, monkeypatch):
        # A failing channel-dpi-nonnegative check at sample 0.
        monkeypatch.setattr(ChannelAnalysis, "lhs", property(lambda self: -1.0))
        out = tmp_path / "x"
        cfg = ScanConfig(dims=(2, 1, 1), samples=2, out=os.fsencode(out))
        with pytest.raises(InequalityViolationError) as err:
            run_conjecture(cfg, "channel")
        assert err.value.artifact_path == f"{out}.violation-channel.json"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.violation-channel.json"]


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
        assert identity_slack == pytest.approx(evaluate_sample(st, 0).slack_corollary, abs=1e-10)
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

    def test_the_table_asserts_rows_only_on_real_corpora(self):
        # A misspelt corpus would silently never assert its row.
        named = {c for row in TABLE if row.asserted != ALWAYS for c in row.asserted}
        assert named and named <= set(sampling.CORPORA)

    def test_channel_checks_are_the_two_proven_channel_rows(self):
        a = harness._channel(ScanConfig(dims=(3, 1, 1), samples=1, seed=32), 0)
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

    @pytest.mark.parametrize("which", harness.CONJECTURES)
    def test_report_config_is_the_run_config(self, tmp_path, which):
        # Plus unitary_samples where the conjecture draws unitaries.
        out = tmp_path / "conj"
        cfg = ScanConfig(dims=(2, 1, 2), samples=2, seed=29, out=str(out))
        run_conjecture(cfg, which, unitary_samples=3)
        want = cfg.as_dict()
        if which == "rotated-quarter":
            want["unitary_samples"] = 3
        assert json.loads(out.read_bytes())["config"] == want

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


class TestChannelConjectureConfig:
    """A channel conjecture rejects its configuration before any draw."""

    @staticmethod
    def _run(**config):
        return run_conjecture(ScanConfig(dims=(2, 1, 1), **config), "channel")

    def test_rejects_no_samples(self):
        with pytest.raises(ConfigError, match=r"^samples must be >= 1, got 0$"):
            self._run(samples=0)

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_rejects_tol_that_is_not_positive(self, tol, tmp_path):
        out = tmp_path / "chan"
        with pytest.raises(ConfigError, match=r"^tol must be positive, got "):
            self._run(samples=1, tol=tol, out=str(out))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", [1.5, "3"])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ConfigError, match=r"^seed must be an integer, got "):
            self._run(samples=1, seed=seed)

    def test_rejects_negative_seed_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(harness, "substream", no_draw)
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            self._run(samples=1, seed=-1)


class TestChannelDraws:
    """The one path that draws channel triples: _channel and _checked_channels."""

    def test_kraus_count_is_drawn_first_from_one_to_four(self):
        cfg = ScanConfig(dims=(2, 1, 1), samples=40, seed=30)
        counts = []
        for i in range(cfg.samples):
            rng = substream(cfg.seed, i)
            count = 1 + int(rng.integers(4))
            rho = random_density(2, rng)
            sigma = random_density(2, rng)
            phi = random_channel(2, 2, count, rng)
            a = harness._channel(cfg, i)
            assert a.phi.kraus.shape[0] == count
            np.testing.assert_array_equal(a.rho.mat, rho.mat)
            np.testing.assert_array_equal(a.sigma.mat, sigma.mat)
            np.testing.assert_array_equal(a.phi.kraus, phi.kraus)
            counts.append(count)
        assert sorted(set(counts)) == [1, 2, 3, 4]

    def test_channel_dimension_is_the_product_of_dims(self):
        a = harness._channel(ScanConfig(dims=(2, 3, 1), samples=1, seed=31), 0)
        assert a.rho.mat.shape == a.sigma.mat.shape == (6, 6)
        assert a.phi.kraus.shape[1:] == (6, 6)

    def test_proven_channel_rows_hold_on_every_sample(self):
        cfg = ScanConfig(dims=(3, 1, 1), samples=10, seed=29)
        analyses = list(harness._checked_channels(cfg))
        assert len(analyses) == 10
        assert min(a.lhs for a in analyses) >= -1e-8
        assert min(a.lhs - a.rhs for a in analyses) >= -1e-8


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: ScanConfig(dims=(2, 2, 2), samples=2.7), "samples must be an integer, got 2.7"),
        (lambda: ScanConfig(dims=(2, 2, 2), samples=0), "samples must be >= 1, got 0"),
        (lambda: ScanConfig(dims=(2.9, 2, 2), samples=1), "dims entry must be an integer, got 2.9"),
        (lambda: ScanConfig(dims=(2, 0, 2), samples=1), "dims entry must be >= 1, got 0"),
        (lambda: ScanConfig(dims=(2, 2), samples=1), "dims must be three positive integers, got (2, 2)"),
        (
            lambda: run_conjecture(ScanConfig(dims=(2, 1, 1), samples=1.5), "channel"),
            "samples must be an integer, got 1.5",
        ),
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
        self, tmp_path, monkeypatch, inject_samples, failing_row, index
    ):
        inject_samples({index: lambda cfg, i: random_tripartite(cfg.dims, substream(cfg.seed, i))})
        stacked = self._run(tmp_path, monkeypatch, harness.STACK_BUDGET, "half-recovery", "markov")
        alone = self._run(tmp_path, monkeypatch, 1, "half-recovery", "markov")
        assert stacked == alone
        assert stacked[0] == "InequalityViolationError"
        assert f"'half-recovery (proven on markov)' violated at sample {index}:" in stacked[1]

    def test_a_stack_that_raises_is_evaluated_one_by_one(
        self, tmp_path, monkeypatch, inject_samples, failing_row
    ):
        bad = {5: lambda cfg, i: _negative_diagonal_state(cfg.dims),
               2: lambda cfg, i: random_tripartite(cfg.dims, substream(cfg.seed, i))}
        inject_samples(bad)  # reads bad at each draw
        runs = [
            self._run(tmp_path, monkeypatch, budget, "half-recovery", "markov", samples=8)
            for budget in (STACK_BUDGET, 1)
        ]
        assert runs[0] == runs[1]
        assert "violated at sample 2" in runs[0][1]
        del bad[2]
        runs = [
            self._run(tmp_path, monkeypatch, budget, "half-recovery", "markov", samples=8)
            for budget in (STACK_BUDGET, 1)
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
