"""Spec rejections and restart-pressure accounting.

Two claims under test.  (1) Every malformed fault clause is
rejected at parse time with a stable, specific reason string.  (2) Every
crash a supervised (or unsupervised) process suffers is counted on
``RunResult.restart_pressure`` per definition, together with the restarts,
backoff rounds and escalations the supervisor spent on it.
"""

from __future__ import annotations

import pytest

from repro.core.actions import assert_tuple
from repro.core.expressions import Var
from repro.core.patterns import P
from repro.core.process import ProcessDefinition
from repro.core.query import exists
from repro.core.transactions import delayed
from repro.errors import FaultPlanError
from repro.runtime import Engine, RestartPolicy
from repro.runtime.faults import FaultPlan


# ---------------------------------------------------------------------------
# spec-parsing rejection paths (fault clauses)
# ---------------------------------------------------------------------------

class TestSpecRejections:
    @pytest.mark.parametrize(
        "plan, fragment",
        [
            ("seed=x", "bad seed clause"),
            ("pre-commit", "needs at least site:action"),
            ("warp-core:crash", "unknown fault site"),
            ("pre-commit:melt", "unknown fault action"),
            ("wal-append:crash", "cannot fire at site"),
            ("pre-commit:crash:when=3", "unknown option 'when'"),
            ("pre-commit:crash:at=1:at=2", "duplicate option at="),
            ("pre-commit:crash:prob=often", "bad value 'often'"),
            ("pre-commit:crash:at=0", "at= must be >= 1"),
            ("pre-commit:crash:prob=1.5", "prob= must be in [0, 1]"),
            ("pre-commit:crash:at=1:prob=0.5", "not both"),
            ("pre-commit:crash:badoption", "bad option 'badoption'"),
        ],
    )
    def test_fault_plan_rejects(self, plan, fragment):
        with pytest.raises(FaultPlanError) as err:
            FaultPlan.parse(plan)
        assert fragment in str(err.value)


# ---------------------------------------------------------------------------
# restart pressure through a real engine
# ---------------------------------------------------------------------------

class TestRestartPressure:
    def _engine(self, faults, supervision, **kw):
        a = Var("a")
        taker = ProcessDefinition(
            "Taker",
            body=[
                delayed(exists(a).match(P["src", a].retract())).then(
                    assert_tuple("dst", a)
                )
                for __ in range(2)
            ],
        )
        policy = RestartPolicy(**supervision) if supervision else None
        engine = Engine(
            definitions=[taker], seed=1, on_deadlock="return",
            faults=faults, supervision=policy, **kw,
        )
        engine.assert_tuples([("src", i) for i in range(4)])
        engine.start("Taker")
        return engine

    def test_restart_pressure_counts_per_definition(self):
        engine = self._engine(
            "pre-commit:crash:name=Taker:at=2:max=1", {"policy": "restart"}
        )
        result = engine.run()
        assert result.reason == "completed"
        pressure = result.restart_pressure["Taker"]
        assert pressure["crashes"] == 1
        assert pressure["restarts"] == 1
        assert pressure["backoff_rounds"] >= 1
        assert pressure["escalations"] == 0

    def test_escalation_is_counted(self):
        engine = self._engine(
            "pre-commit:crash:name=Taker:at=1",
            {"policy": "restart", "max_restarts": 1},
        )
        result = engine.run()
        assert result.reason == "escalated"
        pressure = result.restart_pressure["Taker"]
        assert pressure["crashes"] == 2
        assert pressure["restarts"] == 1
        assert pressure["escalations"] == 1

    def test_unsupervised_crash_still_counts_pressure(self):
        engine = self._engine("pre-commit:crash:name=Taker:at=2:max=1", None)
        result = engine.run()
        assert result.reason == "crashed"
        pressure = result.restart_pressure["Taker"]
        assert pressure["crashes"] == 1
        assert pressure["restarts"] == 0

    def test_storm_gauge_tracks_max_restarts(self):
        engine = self._engine(
            "pre-commit:crash:name=Taker:at=2:max=2", {"policy": "restart"},
            obs=True,
        )
        result = engine.run()
        storm = result.restart_pressure["Taker"]["restarts"]
        assert storm >= 1
        assert result.metrics["sdl_restart_storm"]["data"] == storm

    def test_clean_run_has_no_pressure(self):
        engine = self._engine(None, {"policy": "restart"})
        result = engine.run()
        assert result.reason == "completed"
        assert result.restart_pressure == {}
