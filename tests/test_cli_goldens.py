"""Golden stdout of the CLI run commands under ``--no-timing``.

The library goldens (matrix, stream, search, chaos) pin the tables;
these pin everything the commands print around them: headers, progress
lines, footers, the ``backend=`` trailers and the chaos verdict.  After
an *intentional* change to a command's output, regenerate and eyeball
the diff::

    REGEN_CLI_GOLDEN=1 PYTHONPATH=src python -m pytest \\
        tests/test_cli_goldens.py -q

Never regenerate to silence an unexplained diff.
"""

import argparse
import os

import pytest

from repro.cli import build_parser, main

DATA_DIR = os.path.join(os.path.dirname(__file__), "data", "cli")

SERVE = [
    "serve", "run", "--tenants", "2", "--epochs", "64", "--window", "32",
    "--batch-epochs", "32", "--explain-per-window", "2", "--seed", "7",
]

#: golden name -> argv; every run takes well under two seconds
CASES = {
    "explain_batch": [
        "explain-batch", "--epochs", "300", "--limit", "4", "--seed", "0",
        "--method", "kernel_shap", "--no-timing",
    ],
    "scenarios_list": ["scenarios", "list"],
    "scenarios_run": [
        "scenarios", "run", "--scenarios", "baseline,fault-storm",
        "--models", "random_forest,logistic_regression",
        "--explainers", "kernel_shap,lime", "--epochs", "200",
        "--explain", "2", "--seed", "0", "--no-timing",
    ],
    "scenarios_search": [
        "scenarios", "search", "--generations", "1", "--population", "2",
        "--epochs", "200", "--explain", "2", "--probe-epochs", "128",
        "--seed", "0", "--no-timing",
    ],
    "stream_run": [
        "stream", "run", "--scenario", "fault-storm", "--epochs", "192",
        "--window", "64", "--seed", "7", "--explain-per-window", "2",
        "--no-timing",
    ],
    "serve_run": [*SERVE, "--no-timing"],
    "chaos_run": [
        "chaos", "run", "--epochs", "96", "--window", "48",
        "--method", "lime", "--transient", "1.0", "--corrupt", "1.0",
        "--seed", "0", "--no-timing",
    ],
}


def _check(name, out):
    path = os.path.join(DATA_DIR, f"{name}.txt")
    if os.environ.get("REGEN_CLI_GOLDEN"):
        os.makedirs(DATA_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(out)
    with open(path, encoding="utf-8") as fh:
        assert out == fh.read(), f"output differs from golden {path}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    _check(name, capsys.readouterr().out)


def test_serve_restore_matches_uninterrupted_golden(capsys, tmp_path):
    """A service cut at epoch 32 and restored prints the bytes of the
    uninterrupted ``serve_run`` golden."""
    snap = str(tmp_path / "svc.pkl")
    assert main([*SERVE, "--snapshot-epoch", "32", "--snapshot-out", snap]) == 0
    assert capsys.readouterr().out == (
        f"snapshot of 2 sessions at epoch 32 -> {snap}\n"
    )
    assert main([*SERVE, "--restore", snap, "--no-timing"]) == 0
    with open(os.path.join(DATA_DIR, "serve_run.txt"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


def test_generated_store_listing_matches_golden(capsys, tmp_path):
    """``scenarios list --generated`` over a store written by
    ``save_generated``, and the hint it prints for an empty store."""
    from dataclasses import replace

    from repro.nfv.grammar import CATALOG_RECIPES, save_generated

    store = str(tmp_path / "generated.json")
    save_generated([
        replace(CATALOG_RECIPES["fault-storm"].mutate(4), name="adv-storm",
                description="search winner from fault-storm"),
        replace(CATALOG_RECIPES["baseline"].mutate(3), name="adv-base",
                description="search winner from baseline"),
    ], store)
    assert main(["scenarios", "list", "--generated", "--store", store]) == 0
    _check("scenarios_list_generated", capsys.readouterr().out)

    empty = str(tmp_path / "absent.json")
    assert main(["scenarios", "list", "--generated", "--store", empty]) == 0
    assert capsys.readouterr().out == (
        f"no generated scenarios in {empty}; create some with: "
        f"repro scenarios search --store {empty}\n"
    )


def test_store_written_with_knob_paths_still_loads(capsys, tmp_path):
    """A ``version: 1`` store from before the knob layer was removed
    (each recipe carries a ``knob_paths`` list) loads into the recipes
    that wrote it and lists as the golden; saving them again writes
    the same store minus ``knob_paths``."""
    import json
    from dataclasses import replace

    from repro.nfv.grammar import CATALOG_RECIPES, load_generated, save_generated

    store = os.path.join(DATA_DIR, "generated_store_v1.json")
    recipes = [
        replace(CATALOG_RECIPES["fault-storm"].mutate(4), name="adv-storm",
                description="search winner from fault-storm"),
        replace(CATALOG_RECIPES["baseline"].mutate(3), name="adv-base",
                description="search winner from baseline"),
    ]
    assert load_generated(store) == {r.name: r for r in recipes}
    assert main(["scenarios", "list", "--generated", "--store", store]) == 0
    _check("scenarios_list_generated", capsys.readouterr().out)

    with open(store, encoding="utf-8") as fh:
        old = json.load(fh)
    for entry in old["recipes"]:
        assert entry.pop("knob_paths")
    resaved = save_generated(recipes, tmp_path / "resaved.json")
    assert json.loads(resaved.read_text(encoding="utf-8")) == old


def _flags(parser, prefix=()):
    """One ``sub command --flag default type choices action`` line per
    flag of every subcommand of ``parser``."""
    lines = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                lines += _flags(sub, (*prefix, name))
        elif action.option_strings and action.dest != "help":
            lines.append(" ".join((
                *prefix,
                max(action.option_strings, key=len),
                repr(action.default),
                getattr(action.type, "__name__", repr(action.type)),
                repr(action.choices),
                type(action).__name__,
            )))
    return lines


def test_every_flag_keeps_its_name_default_and_type():
    """The full flag table of every subcommand: names, defaults, types,
    choices and actions."""
    _check("flags", "\n".join(sorted(_flags(build_parser()))) + "\n")
