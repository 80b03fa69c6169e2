"""Command-line interface: exit codes, document shape, round-tripping."""

import json

import pytest

from braidhom.cli import (EXIT_INPUT, EXIT_MISMATCH, EXIT_OK, main)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc
    return code, doc


def test_homology_of_the_trivial_word(capsys):
    code, doc = run_json(capsys, "homfly-homology", "1:")
    assert code == EXIT_OK
    assert doc["table"] == [[0, 0, 0, 1]]
    assert doc["verdict"] == "match"
    assert doc["input"]["word"] == "1:"
    assert "conventions" in doc and "timing" in doc


def test_compare_accepts_the_trefoil(capsys):
    code, _out = run(capsys, "compare", "2: 1 1 1")
    assert code == EXIT_OK


def test_compare_flags_a_truncated_link(capsys):
    code, doc = run_json(capsys, "compare", "2: 1 1",
                         "--max-degree", "12", "--stabilization-margin", "2")
    assert code == EXIT_MISMATCH
    assert doc["verdict"] != "match"


def test_malformed_word_is_an_input_error(capsys):
    code = main(["homfly-homology", "two strands please"])
    assert code == EXIT_INPUT


@pytest.mark.parametrize("argv", [
    ["homfly-homology", "2: 5"],
    ["homfly-homology", "2: 0"],
    ["homfly-homology", "0:"],
    ["homfly-homology", "2: -1!"],
    ["homfly-homology", "2: 1! 1"],
    ["sln-homology", "2: 1! 1", "--N", "2"],
])
def test_bad_word_is_an_input_error(capsys, argv):
    assert main(argv) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_sln_requires_a_finite_rank(capsys):
    code = main(["sln-homology", "2: 1 1 1"])
    assert code == EXIT_INPUT
    code, doc = run_json(capsys, "sln-homology", "2: 1 1 1", "--N", "2")
    assert code == EXIT_OK
    assert doc["verdict"] == "match"
    assert doc["oracle"]["specialized"]


def test_vassiliev_document_matches_its_oracle(capsys):
    code, doc = run_json(capsys, "vassiliev", "2: 1! 1 1")
    assert code == EXIT_OK
    assert doc["verdict"] == "match"
    assert doc["euler"] == doc["oracle"]["poly"]
    assert doc["table"] == [[-1, 0, 0, 1], [-1, 1, 4, 1],
                            [1, 1, 0, 1], [1, 2, 4, 1]]
    assert doc["report"]["stabilized"] if "report" in doc else True


def test_vassiliev_order_flag(capsys):
    code, doc = run_json(capsys, "vassiliev", "2: 1! 1! 1",
                         "--order", "1,0")
    assert code == EXIT_OK
    assert doc["input"]["order"] == [1, 0]
    code2, doc2 = run_json(capsys, "vassiliev", "2: 1! 1! 1",
                           "--order", "0,1")
    assert code2 == EXIT_OK
    assert doc2["table"] == doc["table"]


def test_vassiliev_outside_folded_domain_is_an_input_error(capsys):
    code = main(["vassiliev", "2: 1!", "--N", "3"])
    assert code == EXIT_INPUT


def test_oracle_self_test(capsys):
    code, doc = run_json(capsys, "oracle", "2: 1 1 1", "--seed", "3")
    assert code == EXIT_OK
    assert doc["self_test"]["passed"]
    assert doc["oracle"]["denominator_power"] == 0


def test_oracle_on_singular_word(capsys):
    code, doc = run_json(capsys, "oracle", "2: 1! 1 1")
    assert code == EXIT_OK
    assert doc["oracle"]["poly"]


def test_word_grammar_round_trips():
    from braidhom.braid import Word
    for text in ["1:", "2: 1 1 1", "2: -1 1 1 1 1", "3: 1! -2 1 2",
                 "2: 1! 1! 1"]:
        assert str(Word.parse(text)) == text


def test_text_rendering_mentions_the_verdict(capsys):
    code, out = run(capsys, "homfly-homology", "2: 1 1 1")
    assert code == EXIT_OK
    assert "match" in out


@pytest.mark.parametrize("argv", [
    ["vassiliev", "2: 1! 1 1", "--no-simplify"],
    ["oracle", "2: 1 1 1", "--max-degree", "4"],
    ["oracle", "2: 1 1 1", "--no-simplify"],
])
def test_flags_exist_only_where_they_are_read(capsys, argv):
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_resolve_wants_one_choice_per_singular_letter():
    from braidhom.braid import NEG, POS, Word
    word = Word.parse("3: 1! -2 1!")
    assert str(word.resolve((POS, NEG))) == "3: 1 -2 -1"
    assert [(c, str(w), mu) for c, w, mu in word.resolutions()] == [
        ((POS, POS), "3: 1 -2 1", 0), ((POS, NEG), "3: 1 -2 -1", 1),
        ((NEG, POS), "3: -1 -2 1", 1), ((NEG, NEG), "3: -1 -2 -1", 2)]
    for choice in ((POS,), (POS, NEG, POS)):
        with pytest.raises(ValueError, match="2 singular letters"):
            word.resolve(choice)
