"""Tests of the benchmark itself: gauge arithmetic, failure accounting and the
oracles' closed forms.  Run with `python3 -m pytest cohbench/tests -q`."""

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from workloads import Op  # noqa: E402


class ScriptedGauge(run.Gauge):
    """A gauge whose kernel times are given, not measured."""

    def __init__(self, kernel_times, nominal_s):
        self._script = iter(kernel_times)
        super().__init__(kernel=None, nominal_s=nominal_s)

    def _time(self):
        dt = next(self._script)
        self.times.append(dt)
        return dt


def test_gauge_uses_mean_of_the_kernels_on_either_side():
    gauge = ScriptedGauge([2.0, 4.0, 6.0], nominal_s=3.0)
    assert gauge.factor() == pytest.approx(3.0 / 3.0)
    assert gauge.factor() == pytest.approx(3.0 / 5.0)


def test_gauged_time_is_invariant_under_uniform_host_slowdown():
    # a host twice as slow doubles op and kernel alike; the gauged time stays put
    fast = ScriptedGauge([1.0, 1.0], nominal_s=1.0)
    slow = ScriptedGauge([2.0, 2.0], nominal_s=1.0)
    assert 0.5 * fast.factor() == pytest.approx(1.0 * slow.factor())


def _op(label, value, want, fault=None):
    def check(out):
        return [] if out == want else [f"got {out}"]

    def run_op():
        if isinstance(value, Exception):
            raise value
        return value

    return Op(label, run_op, check, fault)


def test_failure_accounting_separates_named_faults_from_wrong_output():
    ops = [
        _op("good", 1, 1),
        _op("known", 2, 3, fault="some-fault"),
        _op("raises-known", ValueError("boom"), 0, fault="some-fault"),
        _op("wrong", 5, 6),
    ]
    tally = run.Tally()
    next_round = run.drive(lambda r: ops, ScriptedGauge([1.0] * 10, 1.0), 0.0, 0, tally)
    assert next_round == 1  # a zero-second run still completes one whole round
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.by_fault == {"some-fault": 2}
    assert len(tally.unexplained) == 1 and tally.unexplained[0].startswith("wrong:")


def test_failed_share_is_exact_over_whole_rounds():
    ops = [_op("ok", 1, 1), _op("bad", 1, 2, fault="f"), _op("ok2", 1, 1)]
    tally = run.Tally()
    rounds = run.drive(lambda r: ops, ScriptedGauge(itertools.repeat(1.0), 1.0), 1e-3, 0, tally)
    assert tally.attempted == 3 * rounds
    assert tally.failed * 3 == tally.attempted


def test_end_to_end_metrics_from_gauged_times():
    tally = run.Tally()
    tally.times = [0.010, 0.020, 0.030, 0.040]
    tally.attempted = 4
    probes = [{"setup_s": s} for s in (0.5, 0.7, 0.6, 0.9)]
    metrics = run.end_to_end(tally, probes, "pair-report")
    assert metrics["ops_per_ref_s"]["value"] == pytest.approx(4 / 0.1)
    assert metrics["op_ref_ms_p50"]["value"] == pytest.approx(25.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.65)


def test_span_self_times_are_scaled_by_the_gauge_factor():
    tally = run.Tally()
    spans = {"self_s": {"linalg": 0.002}, "incl_s": {"cli.main": 0.004}, "counts": {"eig_calls": 3}}
    tally.record(_op("x", 1, 1), 0.01, [], 0.5, spans)
    assert tally.self_s["linalg"] == pytest.approx(0.001)
    assert tally.incl_s["cli.main"] == pytest.approx(0.002)
    assert tally.counts["eig_calls"] == 3


# --------------------------------------------------------------------------
# oracles


def _z_factors():
    return [np.array([[1.0], [0.0]], dtype=complex), np.array([[0.0], [1.0]], dtype=complex)]


def test_plus_state_against_z_basis():
    plus = np.array([[1.0], [1.0]], dtype=complex) / math.sqrt(2.0)
    ks = _z_factors()
    assert oracles.relative_entropy(plus, ks) == pytest.approx(1.0, abs=1e-14)
    assert oracles.l1(plus, ks) == pytest.approx(1.0, abs=1e-14)
    assert oracles.tsallis(plus, ks, 0.5) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("x", [0.0, 0.05, 0.1, 0.21, 1.0 / math.sqrt(17.0)])
def test_figure2_family_l1_closed_form(x):
    c = np.array([x, 4.0 * x, math.sqrt(max(1.0 - 17.0 * x * x, 0.0))], dtype=complex)
    basis = np.eye(3, dtype=complex)
    ks = [basis[:, [j]] for j in range(3)]
    assert oracles.l1(c[:, None], ks) == pytest.approx(np.sum(np.abs(c)) ** 2 - 1.0, abs=1e-13)


def test_pure_state_closed_forms_match_definitions():
    rng = np.random.default_rng(7)
    state = inputs.make_state(rng, 4, 1)
    e = inputs.make_random_povm(rng, 4, 5)
    p = oracles.probabilities(state.factor[:, 0], e.factors)
    assert oracles.pure_relative_entropy(p) == pytest.approx(oracles.relative_entropy(state.factor, e.factors))
    assert oracles.pure_l1(p) == pytest.approx(oracles.l1(state.factor, e.factors))
    assert oracles.pure_tsallis(p, 2.0) == pytest.approx(oracles.tsallis(state.factor, e.factors, 2.0))


def test_tsallis_half_equals_twice_lsm_error():
    rng = np.random.default_rng(8)
    for rank in (1, 2, 3):
        state = inputs.make_state(rng, 3, rank)
        e = inputs.make_random_povm(rng, 3, 4)
        assert oracles.tsallis(state.factor, e.factors, 0.5) == pytest.approx(
            2.0 * oracles.lsm_error_steered(state.factor, e.factors), abs=1e-12)


def test_divided_difference_of_a_square():
    assert float(oracles.divided_difference([0.25, 0.75], lambda w: w**2)) == pytest.approx(1.0)


def test_qubit_projective_haar_average():
    # p ~ Uniform(0, 1): E[H(p, 1-p)] = 1 / (2 ln 2) bits
    assert oracles.haar_projective_relative_entropy(2) == pytest.approx(1.0 / (2.0 * math.log(2.0)))


def test_divided_difference_average_approaches_projective_closed_form():
    # a slightly mixed qubit basis {diag(1-t, t), diag(t, 1-t)} tends to the projective value
    t = 1e-9
    spectra = [[1.0 - t, t], [t, 1.0 - t]]
    assert oracles.haar_relative_entropy(spectra) == pytest.approx(
        oracles.haar_projective_relative_entropy(2), rel=1e-6)
    assert oracles.haar_tsallis(spectra, 2.0) == pytest.approx(oracles.haar_projective_tsallis(2, 2.0), rel=1e-6)
