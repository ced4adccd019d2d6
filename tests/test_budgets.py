"""The budget runner of ``tests/budgets.py`` on planted budgets: a run over
its bound, one that raises, one still running at its timeout and one that
allocates past its address-space cap each fail the runner with one line that
names it, and a budget within its bound passes."""

import re
import time

from budgets import Budget, run, timed, under


def quick(tag):
    return [under(f"sum {tag}", timed(sum, range(10))[0], 5)]


def slow():
    return [under("sleep", timed(time.sleep, 0.05)[0], 0.01)]


def raises():
    raise ValueError("planted")


def hangs():
    time.sleep(30)


def allocates():
    return [under("bytes", len(bytearray(400_000_000)), 10**12, "B")]


PASSING = [Budget(quick, ("x",), 10, None)]
FAILING = [Budget(slow, (None,), 10, None), Budget(raises, (None,), 10, None),
           Budget(hangs, (None,), 0.2, None), Budget(allocates, (None,), 10, 200_000)]


def test_each_failure_is_one_line_naming_it(capsys):
    assert run(PASSING + FAILING) == 1
    out, err = capsys.readouterr()
    passed, *failures = out.splitlines()
    assert re.fullmatch(r"ok   quick over x: sum x \S+ s \(bound 5 s\)", passed), passed
    seconds = re.fullmatch(r"FAIL slow: sleep (\S+) s \(bound 0.01 s\)", failures[0])
    assert seconds and float(seconds[1]) >= 0.05, failures[0]
    assert failures[1:] == ["FAIL raises: raised ValueError: planted",
                            "FAIL hangs: still running at its 0.2 s timeout",
                            "FAIL allocates: raised MemoryError under its 200,000 KB address-space cap"]
    assert "Traceback" not in out + err


def test_a_budget_within_its_bound_passes(capsys):
    assert run(PASSING) == 0
    assert capsys.readouterr().out.startswith("ok   quick over x: ")
