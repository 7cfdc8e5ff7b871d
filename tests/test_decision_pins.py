"""Decision-stream pins: the μFAB-E control law, end to end, bit for bit.

Each cell runs in-process under an obs trace capture.  Its pin is the
sha256 of the ``pair.*`` / ``probe.*`` trace stream in emission order
(every admit, join, scout and data probe, echo, loss, rate update, idle
and migration; floats by ``repr``) plus every controller's final
``(state, window, report_window, rtt_est)``.  A refactor of the edge —
``repro.core.decision`` or its shell ``PairController`` — may not move
them.  A change that means to move them says so and re-records them:
``PYTHONPATH=src python tests/test_decision_pins.py`` prints fresh pins.

Between them the cells reach every branch of the feedback step except
the 30 s work-conservation migration (``test_decision.py`` holds that):
additive ramp growth, RAMP → STABLE when w' passes the Eqn-3 window
(``fig11``) and when the ramp reaches demand (``fig16``, ``case2``), the
Scenario-2 re-ramp from a feedback (``churn``) and from a poke
(``fig16``), the explicit-rate ablation, uFAB′'s jump to the Eqn-3
window, the blind-loss brake and guarantee floor (``fig12``), a dead
path's failure migration deferred by a freeze window (``resilience``),
guarantee migrations (``fig11``, ``ufab-prime``, ``storage``), idle, a
poke from idle, a migration held by a freeze window and both outcomes of
the packing-deadlock fallback (``storage``).
"""

import hashlib
import json

import pytest

from repro.core.edge import PairController
from repro.obs import OBS
from repro.schedule import parse_faults


def _resilience():
    from repro.experiments import fig_resilience
    faults = parse_faults("probe_loss:0.3; link_flaps:mtbf=2ms,mttr=1ms/Agg",
                          horizon=0.01, seed=1).to_config()
    return fig_resilience.run_one("ufab", duration=0.01, seed=1, faults=faults)


def _cells():
    from repro.experiments import (ablations, case2_migration, fig11_guarantee,
                                   fig12_incast, fig14_ebs, fig16_dynamic,
                                   scale_sweep)
    return {
        "fig11": lambda: fig11_guarantee.run_one(
            "ufab", duration=0.006, join_interval=0.0005, seed=1),
        "fig12": lambda: fig12_incast.run_one("ufab", degree=14, duration=0.004, seed=1),
        "fig16": lambda: fig16_dynamic.run_one(
            "ufab", n_senders=20, duration=0.008, period_s=2e-3),
        "resilience": _resilience,
        "case2": lambda: case2_migration.run_one("ufab", join_time=0.005, duration=0.02),
        "explicit-rate": lambda: ablations.run_explicit_rate_ablation(duration=0.006),
        "ufab-prime": lambda: fig12_incast.run_one(
            "ufab-prime", degree=14, duration=0.004, seed=1),
        "storage": lambda: fig14_ebs.run_one("ufab", duration=0.01),
        "churn": lambda: scale_sweep.run_one("ufab", k=4, churn="low", duration=0.006),
    }


# fig16, storage and churn were re-recorded when each control probe got
# its own timeout: before, a newer probe could orphan a live timeout, and
# those cells declared probes lost that were not.
PINS = {
    "fig11": ("659bcefbfa954627c8380bbc963b8614a76ca9198a7fa0aec06f95344533e4e9", 2509),
    "fig12": ("65c5ee35d8cacac6aa0dc91e94824d4c6a5b288b3cbbfd34048e711ced938983", 2349),
    "fig16": ("4a79c8a37ff58eddc70d12ce6af75c03b1b5ddb235b725e787c2b28f8c23faf5", 13290),
    "resilience": ("f0c23d6eeb0902563986da6c030e05a038b5a6e7db2aad173dfe11ee59a1f06f", 888),
    "case2": ("8c9771fbd1a7c9718891e876fca598a7bf25e6ab5929252c6ebf6b83a5ff6fb2", 7032),
    "explicit-rate": ("bfeca86c46c213ca7968aff319179f68d30617c1f84cc34b11869a02834c7dc3", 3098),
    "ufab-prime": ("87cb27d5ac97b9adcb022109ae52eb1f8fee43b89ea75a36e1c2243e70e16c05", 698),
    "storage": ("4c9758edf477571e588873d97a7eaee2f80efe0ded2807c31f0d671ec3b12e71", 10837),
    "churn": ("93ede88c6824e9d13319936f1d3f25ca4983209f56c36c7d2385cbd746ba286d", 15790),
}


def decision_stream(name):
    """(sha256, record count) of one cell's decision stream."""
    controllers = []
    init = PairController.__init__

    def recording(controller, *args):
        init(controller, *args)
        controllers.append(controller)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PairController, "__init__", recording)
        with OBS.capture({"trace": True, "trace_capacity": 2_000_000}) as cap:
            _cells()[name]()
    trace = cap.export()
    assert trace["trace_dropped"] == 0
    stream = [r for r in trace["trace"] if r[1].startswith(("pair.", "probe."))]
    finals = [[c.pair.pair_id, c.decision.state.value, c.decision.window,
               c.decision.report_window, c.decision.rtt_est] for c in controllers]
    blob = json.dumps({"stream": stream, "final": finals}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest(), len(stream)


@pytest.mark.parametrize("name", sorted(PINS))
def test_decision_stream_is_pinned(name):
    assert decision_stream(name) == tuple(PINS[name])


if __name__ == "__main__":
    for cell in _cells():
        digest, count = decision_stream(cell)
        print(f'    "{cell}": ("{digest}", {count}),')
