"""Recipe acceptance harness: will this recipe make a usable scenario?

Structural validation (:meth:`ScenarioRecipe.validate`) only checks
fields; a recipe can be structurally fine and still useless — faults
that cannot fit the horizon, a chain the placer cannot place, or a
regime whose probe run never (or always) violates the SLA, leaving a
one-class learning task.  :func:`accept_recipe` runs those deeper
checks with a short seeded probe simulation and fails with the same
named :class:`RecipeValidationError` vocabulary (``fault-feasibility``,
``placement``, ``horizon``, ``violation-rate``), so the adversarial
search loop can reject-and-record mutants by check name.

The 8 catalog regimes pass this harness, and the
search adopts a mutant only after it passes.  Registration
(:func:`repro.nfv.scenarios.register_recipe`) runs only the structural
checks of :meth:`ScenarioRecipe.validate`; run :func:`accept_recipe`
on a custom recipe before registering it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nfv.grammar.errors import RecipeValidationError
from repro.nfv.grammar.recipe import ScenarioRecipe
from repro.utils.rng import check_random_state

__all__ = ["AcceptanceReport", "accept_recipe", "validate_recipe"]

#: Probe length floor: below this, violation-count checks are noise.
_MIN_PROBE_EPOCHS = 64

#: Probe length ceiling for the escalation pass — rare-violation
#: regimes get one longer look before rejection, but never an unbounded
#: simulation.
_MAX_PROBE_EPOCHS = 2048

#: Non-degeneracy floor: the probe must see at least this many epochs of
#: each class, or the scenario is a one-class learning task.
_MIN_CLASS_COUNT = 2


@dataclass(frozen=True)
class AcceptanceReport:
    """What the probe saw for an accepted recipe."""

    name: str
    probe_epochs: int
    n_violations: int
    n_fault_events: int
    violation_rate: float

    def summary(self) -> str:
        return (
            f"{self.name}: accepted "
            f"(probe={self.probe_epochs} epochs, "
            f"violations={self.n_violations} "
            f"[rate={self.violation_rate:.3f}], "
            f"fault events={self.n_fault_events})"
        )


def validate_recipe(recipe: ScenarioRecipe) -> None:
    """Structural validation only (no simulation); named errors."""
    if not isinstance(recipe, ScenarioRecipe):
        raise RecipeValidationError(
            "recipe",
            f"expected a ScenarioRecipe, got {type(recipe).__name__}",
        )
    recipe.validate()


def accept_recipe(
    recipe: ScenarioRecipe,
    *,
    probe_epochs: int = 512,
    horizon: int = 0,
    random_state=0,
) -> AcceptanceReport:
    """Run the full acceptance harness on one recipe.

    Checks, in order (first failure raises, named):

    1. ``recipe``/per-axis — structural validation.
    2. ``horizon`` — the label horizon and probe/default run lengths
       are mutually consistent (probe long enough to label).
    3. ``fault-feasibility`` — when faults are active, the minimum
       fault duration fits the probe window (and, via ``validate``,
       the recipe's own default horizon).
    4. ``placement`` — the recipe lowers and places; any constructor
       or placement failure surfaces as a named error, not a raw
       traceback from three layers down.
    5. ``violation-rate`` — a seeded probe simulation sees at least
       :data:`_MIN_CLASS_COUNT` violating *and* healthy epochs after
       horizon shifting, so the induced learning task has two classes.
       Rare-violation regimes get one escalation: if the short probe is
       degenerate, the probe is re-run at the recipe's own
       ``default_epochs`` (capped at :data:`_MAX_PROBE_EPOCHS`) before
       the recipe is rejected.

    The probe lowers the recipe through :meth:`ScenarioRecipe.lower`,
    as :func:`repro.datasets.make_scenario_dataset` does, so the first
    probe's violation counts describe the dataset a caller would build
    from this recipe at the same seed; the escalation pass continues the
    same deterministic stream.
    """
    validate_recipe(recipe)

    if horizon < 0:
        raise RecipeValidationError(
            "horizon", f"horizon must be >= 0, got {horizon}"
        )

    duration_lo = 0
    if recipe.faults is not None and recipe.faults.rate > 0.0:
        duration_lo = int(recipe.faults.duration_range[0])
    probe_n = min(
        recipe.default_epochs,
        max(int(probe_epochs), _MIN_PROBE_EPOCHS, 3 * duration_lo),
    )
    if probe_n - horizon < _MIN_PROBE_EPOCHS:
        raise RecipeValidationError(
            "horizon",
            f"probe of {probe_n} epochs leaves fewer than "
            f"{_MIN_PROBE_EPOCHS} labelled epochs after a horizon of "
            f"{horizon} (default_epochs={recipe.default_epochs})",
        )
    if duration_lo > probe_n:
        raise RecipeValidationError(
            "fault-feasibility",
            f"minimum fault duration {duration_lo} cannot fit the "
            f"{probe_n}-epoch probe window",
        )

    rng = check_random_state(random_state)
    try:
        spec, data_rng = recipe.lower(rng)
    except RecipeValidationError:
        raise
    except Exception as exc:
        raise RecipeValidationError(
            "placement",
            f"recipe {recipe.name!r} failed to lower/place: {exc}",
        ) from exc

    escalated_n = min(
        max(recipe.default_epochs, probe_n), _MAX_PROBE_EPOCHS
    )
    probe_lengths = [probe_n]
    if escalated_n > probe_n:
        probe_lengths.append(escalated_n)

    n_violations = n_healthy = n_labelled = n_events = 0
    for attempt_n in probe_lengths:
        result = spec.stream(
            attempt_n, batch_epochs=attempt_n, random_state=data_rng
        ).collect()
        y = (
            result.sla_violation[horizon:]
            if horizon > 0
            else result.sla_violation
        )
        probe_n = attempt_n
        n_labelled = len(y)
        n_violations = int(y.sum())
        n_healthy = int(n_labelled - n_violations)
        n_events = len(result.events)
        if (
            n_violations >= _MIN_CLASS_COUNT
            and n_healthy >= _MIN_CLASS_COUNT
        ):
            break
    if n_violations < _MIN_CLASS_COUNT:
        raise RecipeValidationError(
            "violation-rate",
            f"degenerate regime: only {n_violations} violating epoch(s) "
            f"in a {n_labelled}-epoch probe — nothing to diagnose",
        )
    if n_healthy < _MIN_CLASS_COUNT:
        raise RecipeValidationError(
            "violation-rate",
            f"saturated regime: only {n_healthy} healthy epoch(s) in a "
            f"{n_labelled}-epoch probe — the SLA is always violated",
        )

    return AcceptanceReport(
        name=recipe.name,
        probe_epochs=probe_n,
        n_violations=n_violations,
        n_fault_events=n_events,
        violation_rate=float(n_violations / max(1, n_labelled)),
    )
