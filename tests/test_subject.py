from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from .builders import table_of
from .oracles import reference_is_numeric_or_date
from taxoforge.corpus import Table
from taxoforge.subject import (
    assign_subjects,
    detect_subject,
    is_numeric_or_date,
    load_overrides,
    score_columns,
)


def test_detect_prefers_distinct_text():
    t = table_of(["name", "revenue"], [["Acme", "Binko", "Corp"], ["5", "5", "7"]])
    assert detect_subject(t) == 0
    scores = score_columns(t)
    assert scores[0].uniqueness == 1.0 and scores[0].text_ratio == 1.0
    assert scores[1].text_ratio == 0.0


def test_single_column():
    t = table_of(["only"], [["x", "y"]])
    assert detect_subject(t) == 0


def test_all_numeric_leftmost_wins():
    t = table_of(["a", "b"], [["1", "2"], ["3", "4"]])
    assert detect_subject(t) == 0


def test_no_candidate():
    t = table_of(["a", "b"], [["", ""], ["", ""]])
    assert detect_subject(t) is None
    header_only = Table.from_rows(id="h", headers=["a", "b"], rows=[])
    assert detect_subject(header_only) is None


def test_row_permutation_invariance():
    columns = [["Ada", "Bo", "Cy", "Dee"], ["9", "9", "3", "3"], ["x", "x", "y", "x"]]
    base = table_of(["who", "n", "tag"], columns)
    expected = detect_subject(base)
    rng = random.Random(4)
    for _ in range(10):
        order = list(range(4))
        rng.shuffle(order)
        shuffled = Table.from_rows(id="t", headers=base.headers, rows=[base.row(i) for i in order])
        assert detect_subject(shuffled) == expected


def test_constant_column_never_wins():
    t = table_of(["name", "const"], [["Ada", "Bo", "Cy"], ["same", "same", "same"]])
    assert detect_subject(t) == 0


@given(st.lists(st.sampled_from(["Ada", "Bo", "Cy", "Dee", "Eve"]), min_size=2, max_size=8))
def test_appending_constant_column_is_noop(names):
    base = table_of(["name"], [names])
    before = detect_subject(base)
    extended = table_of(["name", "k"], [names, ["fixed"] * len(names)])
    assert detect_subject(extended) == before


@pytest.mark.parametrize(
    "value,expected",
    [
        ("42", True),
        ("-7", True),
        ("3.14", True),
        (".5", True),
        ("1e5", True),
        ("2021-03-04", True),
        ("2024-01-01", True),
        # what date.fromisoformat reads as a date depends on the Python version
        ("2024-W01-1", False),
        ("2024W011", False),
        ("2024-02-30", False),
        ("Acme", False),
        ("1,000", False),
        ("2021-13-40", False),
        ("", False),
    ],
)
def test_numeric_or_date_rules(value, expected):
    assert is_numeric_or_date(value) is expected


# ASCII, Arabic-Indic and fullwidth digits, the superscript two (a digit but
# not a decimal), signs, points, exponents, date and week separators, blanks
NUMERIC_ALPHABET = "0123456789٠١٢٣٤٥٦٧٨٩０１２３４５６７８９²+-.eE:TWZ \t\n\u3000a"


@given(
    st.one_of(
        st.text(),
        st.text(alphabet=NUMERIC_ALPHABET, max_size=12),
        st.dates().map(lambda d: d.isoformat()),
        st.dates().map(lambda d: d.isoformat().translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))),
        st.dates().map(lambda d: d.isoformat().translate(str.maketrans("0123456789", "０１２３４５６７８９"))),
    )
)
@settings(max_examples=1000)
def test_numeric_or_date_prefilter_changes_nothing(value):
    assert is_numeric_or_date(value) is reference_is_numeric_or_date(value)


def test_overrides(tmp_path):
    from taxoforge.corpus import Corpus

    t1 = table_of(["name", "city"], [["Acme", "Binko"], ["Paris", "Lyon"]], table_id="t1")
    t2 = table_of(["name"], [["Solo", "Duo"]], table_id="t2")
    corpus = Corpus(tables=[t1, t2])
    path = tmp_path / "map.txt"
    path.write_text("# comment\nt1,1\n", encoding="utf-8")
    assert load_overrides(path, corpus) == {"t1": 1}
    assert assign_subjects(corpus, {"t1": 1}) == {"t1": 1, "t2": 0}


def test_overrides_file_may_start_with_bom(tmp_path):
    from taxoforge.corpus import Corpus

    corpus = Corpus(tables=[table_of(["name", "city"], [["Acme"], ["Paris"]], table_id="t1")])
    path = tmp_path / "map.txt"
    path.write_text("\ufefft1,1\n", encoding="utf-8")
    assert load_overrides(path, corpus) == {"t1": 1}


def test_override_out_of_range():
    from taxoforge.corpus import Corpus

    t1 = table_of(["name"], [["Acme"]], table_id="t1")
    with pytest.raises(ValueError):
        assign_subjects(Corpus(tables=[t1]), {"t1": 3})
