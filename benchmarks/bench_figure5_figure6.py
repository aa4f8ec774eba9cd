"""Figures 5 and 6: search orders and sensor-instance-symmetry pruning."""

import inspect
import re

from repro.analysis import figure5_search_orders, figure6_pruning_counts
from repro.analysis.figures import FIGURE5_TRANSITIONS
from repro.core.report import format_table
from repro.core.sabre import SabreSearch


def test_figure5_search_orders(benchmark, capsys):
    orders = benchmark(figure5_search_orders)
    with capsys.disabled():
        print("\n\nFigure 5 -- first scenarios explored on the toy fault space:")
        for strategy, order in orders.items():
            print(f"  {strategy}:")
            for scenario in order:
                print(f"    {scenario}")
    # DFS varies the end of the run first; BFS fails sensors for the whole
    # run first; SABRE, asked on a stub session, goes straight to the mode
    # transitions (t1, t2, t4) and one time quantum after each.
    assert "t5" in orders["depth-first"][1]
    assert "t1" in orders["breadth-first"][1]
    assert orders["sabre"][0].endswith("t1")
    assert any("t4" in scenario for scenario in orders["sabre"])
    # The first pass injects at each transition and one quantum later, in
    # order, up to the end of the 5 s mission.
    quantum = inspect.signature(SabreSearch).parameters["time_quantum_s"].default
    seeded = []
    for transition in FIGURE5_TRANSITIONS:
        for time in (transition, transition + quantum):
            if time <= 5.0 and time not in seeded:
                seeded.append(time)
    injected = []
    for scenario in orders["sabre"]:
        for time in re.findall(r"@t(\d+)", scenario):
            if float(time) not in injected:
                injected.append(float(time))
    assert injected == seeded


def test_figure6_symmetry_pruning(benchmark, capsys):
    rows = benchmark(figure6_pruning_counts)
    with capsys.disabled():
        print("\n\nFigure 6 -- sensor-instance symmetry (paper example: 3 compasses, 21 -> 5):")
        print(format_table(["instances", "without pruning", "with symmetry pruning"], rows))
    counts = {row[0]: (row[1], row[2]) for row in rows}
    assert counts[3] == (21, 5)
    assert all(pruned <= unpruned for unpruned, pruned in counts.values())
