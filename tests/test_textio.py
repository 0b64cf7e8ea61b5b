"""The shared block reader under the trial and assignment files: the layouts
it reads besides the writers' own, and the error text of a fault that sits
in the second block, after a block it accepted. Score files have the same
cases in tests/test_scoring.py."""

import numpy as np
import pytest

from selflabel import _textio
from selflabel.clustering import Assignment, read_assignment, write_assignment
from selflabel.errors import DataError
from selflabel.scoring import ScoreSet, Trials, read_scores, read_trials, write_scores, write_trials

N = 8000  # rows: two blocks of every kind below
ROW = 7000  # in the second block


def trial_file(path):
    rng = np.random.default_rng(40)
    enroll = rng.integers(0, 900, N)
    test = (enroll + rng.integers(1, 900, N)) % 900
    trials = Trials(tuple(f"s{i:03d}" for i in range(900)), enroll, test, rng.random(N) < 0.5)
    write_trials(path, trials)
    return lambda: read_trials(path)


def assignment_file(path):
    ids = [f"s{i:04d}" for i in range(N)]
    labels = np.random.default_rng(41).integers(0, 300, N)
    write_assignment(path, ids, Assignment(labels=labels, k=300))
    return lambda: read_assignment(path, ids, k=300)


KINDS = {"trial": trial_file, "assignment": assignment_file}


@pytest.fixture(params=sorted(KINDS))
def kind(request, tmp_path):
    """(kind name, path, reader) of a file as its writer writes it."""
    path = tmp_path / f"{request.param}.txt"
    read = KINDS[request.param](path)
    assert len("".join(path.read_text().splitlines(True)[:ROW])) > _textio._BLOCK_BYTES
    return request.param, path, read


def as_result(value):
    # a Trials compares by its contents, an Assignment by its labels and k
    return value if isinstance(value, Trials) else (value.labels.tolist(), value.k)


def _blank_lines(text):
    # in both blocks, and at the end
    lines = text.splitlines(True)
    lines[ROW:ROW] = ["\n", "\n"]
    return "\n" + "".join(lines) + "\n"


@pytest.mark.parametrize("rewrite", [
    pytest.param(_blank_lines, id="blank-lines"),
    pytest.param(lambda text: text.rstrip("\n"), id="no-final-newline"),
])
def test_other_layouts_read_the_same(kind, rewrite):
    _, path, read = kind
    expected = as_result(read())
    path.write_text(rewrite(path.read_text()))
    assert as_result(read()) == expected


def test_file_of_blank_lines_is_empty(kind):
    name, path, read = kind
    path.write_text("\n" * 3)
    with pytest.raises(DataError, match=f"{name} file .* is empty"):
        read()


def test_trial_file_may_use_tabs(tmp_path):
    read = trial_file(tmp_path / "t.txt")
    expected = read()
    path = tmp_path / "t.txt"
    path.write_text(path.read_text().replace(" ", "\t"))
    assert read() == expected


def _extra_field(line):
    return line + ("\t" if "\t" in line else " ") + "1"


def _one_field(line):
    return line.split()[0]


def _empty_field(line):
    # a tab file's id may be empty; a line of spaces has no field at all
    return "\t" + line.split("\t")[1] if "\t" in line else "   "


def _bad_value(line):
    # a target flag or a label its type rejects
    return line[:-1] + "x"


def _nul_in_id(line):
    return "s\0" + line[1:]


@pytest.mark.parametrize("edit", [
    pytest.param(_extra_field, id="extra-field"),
    pytest.param(_one_field, id="one-field"),
    pytest.param(_empty_field, id="empty-field"),
    pytest.param(_bad_value, id="bad-value"),
    pytest.param(_nul_in_id, id="nul"),
])
def test_fault_in_second_block_names_its_line(kind, edit):
    name, path, read = kind
    lines = path.read_text().splitlines()
    line = lines[ROW] = edit(lines[ROW])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as excinfo:
        read()
    assert str(excinfo.value) == f"malformed {name} row in {path}: {line!r}"


def test_nul_in_score_file_is_malformed(tmp_path):
    path = tmp_path / "s.txt"
    trials = Trials(("a", "b"), [0, 1], [1, 0], [True, False])
    write_scores(path, ScoreSet(trials=trials, scores=np.array([0.5, 0.25])))
    path.write_text(path.read_text().replace("b a", "b\0 a"))
    with pytest.raises(DataError) as excinfo:
        read_scores(path, trials)
    assert str(excinfo.value) == f"malformed score row in {path}: {'b' + chr(0) + ' a 0.250000'!r}"
