import gc
import hashlib
import json
import os
import pickle
import signal
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grundylab import __version__, checks, games
from grundylab.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    FAMILY_NAMES,
    SUITE_NAMES,
    console_main,
    main,
)
from grundylab.closedforms import asm_ideal_grundy
from grundylab.errors import BudgetExceededError
from grundylab.families import asm_elements, asm_pi, asm_poset
from helpers import asm_ruler_fibers, peak_rss_mb, run_python

PHI_ROW = [1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4, 1, 2, 1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def csv_body(out):
    """The header and rows of CSV output, after its `# key: value` lines."""
    return [line for line in out.strip().splitlines() if not line.startswith("# ")]


def test_grundy_chain_ruler_is_phi_row(capsys):
    code, out, _ = run(capsys, "grundy", "chain:15", "ruler", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["columns"] == ["element_label", "grundy"]
    assert [r[1] for r in obj["rows"]] == PHI_ROW
    assert obj["metadata"]["poset"] == "chain:15"


def test_grundy_divisors_ideal(capsys):
    code, out, _ = run(capsys, "grundy", "divisors:12", "ideal", "--format", "csv")
    assert code == EXIT_OK
    lines = csv_body(out)
    assert lines[0] == "element_label,grundy"
    assert lines[1:] == ["1,1", "2,0", "3,0", "4,0", "6,0", "12,0"]


def test_grundy_divisors_ruler_text(capsys):
    code, out, _ = run(capsys, "grundy", "divisors:12", "ruler")
    assert code == EXIT_OK
    values = [
        int(line.split()[1]) for line in out.splitlines() if line and line[0].isdigit()
    ]
    assert values == [1, 2, 2, 1, 3, 2]


def test_grundy_asm_ideal_matches_closed_form(capsys):
    code, out, _ = run(capsys, "grundy", "asm:5", "ideal", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    # rows follow the constructor's listing, not the poset's ids
    for (label, value), e in zip(obj["rows"], asm_elements(5), strict=True):
        assert label == str(e)
        assert value == asm_ideal_grundy(*asm_pi(5, e))


def test_grundy_from_file(tmp_path, capsys):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"n": 3, "covers": [[0, 1], [1, 2]], "labels": ["a", "b", "c"]}))
    code, out, _ = run(capsys, "grundy", f"file:{path}", "ruler", "--format", "csv")
    assert code == EXIT_OK
    assert csv_body(out)[1:] == ["a,1", "b,2", "c,1"]


@pytest.mark.parametrize("spec", ["setpartitions:4", "asm:4"])
@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_csv_quotes_labels_that_hold_commas(capsys, spec, family):
    import csv

    from grundylab.cli import parse_poset_spec

    poset = parse_poset_spec(spec, 100)
    values = games.solve_elementwise(games.family_builders()[family](poset)).values
    code, out, _ = run(capsys, "grundy", spec, family, "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(csv_body(out)))
    assert rows[0] == ["element_label", "grundy"]
    assert rows[1:] == [[str(poset.labels[x]), str(values[x])] for x in poset.ids]
    assert any("," in label for label, _ in rows[1:])


def parse_text_body(body):
    """(label, value) rows of the text table: the value column starts where
    the header's `grundy` does, and the label is what precedes it."""
    header, *lines = body
    assert header.split() == ["element_label", "grundy"]
    start = header.index("grundy")
    return [(line[:start].rstrip(), int(line[start:])) for line in lines]


def parse_csv_body(body):
    import csv

    header, *rows = csv.reader(body)
    assert header == ["element_label", "grundy"]
    return [(label, int(value)) for label, value in rows]


@pytest.mark.parametrize("family", FAMILY_NAMES)
@pytest.mark.parametrize("spec", ["chain:5", "divisors:12", "setpartitions:4", "asm:5", "subspaces:3:2"])
def test_every_format_parses_back_to_the_solved_rows(capsys, spec, family):
    from grundylab.cli import parse_poset_spec

    poset = parse_poset_spec(spec, 100)
    values = games.solve_elementwise(games.family_builders()[family](poset)).values
    rows = [(str(poset.labels[x]), values[x]) for x in poset.ids]
    metadata = {"elements": poset.n, "family": family, "poset": spec, "tool_version": __version__}
    meta_lines = [f"# {k}: {metadata[k]}" for k in sorted(metadata)]
    for fmt, parse in (("text", parse_text_body), ("csv", parse_csv_body)):
        code, out, _ = run(capsys, "grundy", spec, family, "--format", fmt)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert [line for line in lines if line.startswith("# ")] == lines[: len(meta_lines)] == meta_lines
        assert parse(lines[len(meta_lines) :]) == rows, fmt
    code, out, _ = run(capsys, "grundy", spec, family, "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["metadata"] == metadata
    assert obj["columns"] == ["element_label", "grundy"]
    assert [tuple(row) for row in obj["rows"]] == rows


# 4 < 0 < 2 < 1 and 3 < 2: the file's ids run against the order, so the
# poset renumbers them; rows are printed in the file's order all the same
SHUFFLED_POSET = {"n": 5, "covers": [[4, 0], [0, 2], [3, 2], [2, 1]]}


@pytest.mark.parametrize(
    "family, values",
    [("ruler", [2, 1, 4, 1, 1]), ("tt", [2, 4, 3, 1, 1]), ("ideal", [0, 0, 1, 1, 1])],
)
def test_grundy_from_file_prints_rows_in_the_files_order(tmp_path, capsys, family, values):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(SHUFFLED_POSET))
    rows = [[str(x), v] for x, v in enumerate(values)]
    spec = f"file:{path}"
    code, out, _ = run(capsys, "grundy", spec, family)
    assert code == EXIT_OK
    assert [line.split() for line in out.splitlines()[-5:]] == [[x, str(v)] for x, v in rows]
    code, out, _ = run(capsys, "grundy", spec, family, "--format", "csv")
    assert code == EXIT_OK
    assert csv_body(out)[1:] == [f"{x},{v}" for x, v in rows]
    code, out, _ = run(capsys, "grundy", spec, family, "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["rows"] == rows


def test_tables_phi(capsys):
    code, out, _ = run(capsys, "tables", "phi", "--format", "csv")
    assert code == EXIT_OK
    rows = [line.split(",") for line in csv_body(out)[1:]]
    assert [int(r[2]) for r in rows] == PHI_ROW


def test_tables_gq(capsys):
    code, out, _ = run(capsys, "tables", "gq", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert [r[1] for r in obj["rows"]] == PHI_ROW
    assert [r[2] for r in obj["rows"]] == [1, 2, 3] * 5


def test_tables_hn(capsys):
    code, out, _ = run(capsys, "tables", "hn", "--max", "10", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert [r[1] for r in obj["rows"]] == [1, 2, 1, 4, 1, 2, 1, 7, 15, 16]
    assert "provenance" not in obj["metadata"]


def test_tables_hn_past_the_paper_is_labelled(capsys):
    code, out, _ = run(capsys, "tables", "hn", "--max", "22", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert [r[1] for r in obj["rows"]][17:] == [1, 11, 26, 92, 21]
    provenance = obj["metadata"]["provenance"]
    assert "h(18..20) confirmed by the M_n recurrence" in provenance
    assert "h(21..22) not independently confirmed" in provenance


def test_tables_hn_provenance_names_each_unconfirmed_value(capsys):
    # h(21) alone is past the M_n recurrence check at --max 21; at --max 20
    # every value is confirmed
    _, out, _ = run(capsys, "tables", "hn", "--max", "21", "--format", "json")
    provenance = json.loads(out)["metadata"]["provenance"]
    assert provenance.endswith("h(18..20) confirmed by the M_n recurrence; h(21) not independently confirmed")
    _, out, _ = run(capsys, "tables", "hn", "--max", "20", "--format", "json")
    provenance = json.loads(out)["metadata"]["provenance"]
    assert provenance.endswith("h(18..20) confirmed by the M_n recurrence")
    assert "not independently confirmed" not in provenance


def test_tables_hn_csv_keeps_the_provenance(capsys):
    code, out, _ = run(capsys, "tables", "hn", "--max", "22", "--format", "csv")
    assert code == EXIT_OK
    meta = [line for line in out.splitlines() if line.startswith("# ")]
    assert any(
        line.startswith("# provenance: ") and "h(21..22) not independently confirmed" in line
        for line in meta
    )
    _, text, _ = run(capsys, "tables", "hn", "--max", "22")
    assert meta == [line for line in text.splitlines() if line.startswith("# ")]


def test_tables_asm_ideal(capsys):
    code, out, _ = run(capsys, "tables", "asm-ideal", "--n", "6", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    ones = {(r, s) for r, s, v in obj["rows"] if v == 1}
    expected = {(0, 0)}
    k = 0
    while 2 * k + 1 <= 4:
        expected.add((2 * k + 1, k))
        expected.add((2 * k + 1, k + 1))
        k += 1
    assert ones == expected


# sha256 of the `tables asm-ideal` stdout at n = 10 (45 rows) and n = 60
# (1 770 rows); a row is the closed form at its (rank, z) fiber
ASM_IDEAL_SHA256 = {
    10: "ac749c20657a4982b7d49bdc61972fcf26932bb42474dbc4be718a76575cb70e",
    60: "4b4222d0f3c72bebec2b9cff0045db3103f47f026163ae9651234dc636809237",
}


@pytest.mark.parametrize("n", sorted(ASM_IDEAL_SHA256))
def test_tables_asm_ideal_is_pinned(capsys, n):
    code, out, _ = run(capsys, "tables", "asm-ideal", "--n", str(n))
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == ASM_IDEAL_SHA256[n]


# sha256 of `tables <name> --format <fmt>` at each table's default size;
# covers the renderer of every format and the defaults of the size flags
TABLE_DEFAULT_SHA256 = {
    ("phi", "text"): "d1acee9d1960ca166da160f460f162629dac889ee37048a9e55863b9dc4d6faf",
    ("phi", "csv"): "a6569dd87f0bab324efe3e0d6fa489cd67825b9cdbd7aa00f26b5fb9209ef3eb",
    ("phi", "json"): "0179d2fce5c60882a0fb010a57a5afd33eef7342560ae8842c41c802c431042f",
    ("gq", "text"): "79b33432f46f992f55535a19e5a193a99808ca656b1f973cec17a6a271f5c731",
    ("gq", "csv"): "bdf0f1dbc0c0e46dcebeed6d48c51a2a6fe2d06568133bb074b443ab188de107",
    ("gq", "json"): "dad30265bf05ed44c73c494b91cb9229edbd8fe729d3d69e89da997ff6b36fb6",
    ("hn", "text"): "7e1f3c282df754ad02284b14c220554f221750dc563c9185f2b6ffa4b79ec82c",
    ("hn", "csv"): "51748876293c2e3e5368b445632d428953e5ed688db336148e4f34d9e068ac47",
    ("hn", "json"): "9b13dddcd79d1f4b6c325110c26802eec8ca72821bce6335c6a4ddd6c905da5e",
    ("asm-ideal", "text"): "ac749c20657a4982b7d49bdc61972fcf26932bb42474dbc4be718a76575cb70e",
    ("asm-ideal", "csv"): "06c66bddc7d8178f0e2a18b67ed4bf23e0a31da72645e475d0c2695b92edac88",
    ("asm-ideal", "json"): "830896019118f63ea07d24ba3e700cc57d0e322f75f67c42d0a51be9ba1f6745",
    ("asm-ruler", "text"): "186159a551a068320526fc781724aeec72b7c7d4b553b72717f81ac5f7f2f3cc",
    ("asm-ruler", "csv"): "32a98f23cbed86e27fe2f079dbea385f33510943efc635a0ae61a547463a9a60",
    ("asm-ruler", "json"): "136dc7d503da2ebbeec34aade7bc73510f3613f300c878b41856c783fbf1d5bc",
}


@pytest.mark.parametrize("name, fmt", sorted(TABLE_DEFAULT_SHA256), ids="-".join)
def test_table_defaults_are_pinned_in_every_format(capsys, name, fmt):
    code, out, _ = run(capsys, "tables", name, "--format", fmt)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DEFAULT_SHA256[(name, fmt)]


def test_tables_asm_ruler_symmetry(capsys):
    code, out, _ = run(capsys, "tables", "asm-ruler", "--n", "6", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    table = {(s, t): v for s, t, v in obj["rows"]}
    for (s, t), v in table.items():
        assert table[(s, s - t)] == v
    assert "provenance" in obj["metadata"]


def test_tables_asm_ruler_refuses_a_non_constant_fiber(capsys, monkeypatch):
    n = 5
    keys = [asm_pi(n, e) for e in asm_poset(n).labels]
    x = max(x for x, key in enumerate(keys) if keys.count(key) > 1)
    solve = games.solve_elementwise

    def planted(fam):
        table = solve(fam)
        table.values[x] ^= 1
        return table

    monkeypatch.setattr(games, "solve_elementwise", planted)
    code, out, err = run(capsys, "tables", "asm-ruler", "--n", str(n))
    assert code == EXIT_VERIFY_FAILED and out == ""
    assert f"asm-ruler fiber {keys[x]} is not constant" in err


def test_tables_asm_ruler_refuses_a_table_that_is_not_eta_symmetric(capsys, monkeypatch):
    # every fiber is constant, but g(r, s) = s differs from g(r, r - s)
    # unless s = r / 2
    n = 6
    monkeypatch.setattr(
        games, "solve_elementwise", lambda fam: games.GrundyTable([e[2] for e in fam.poset.labels])
    )
    code, out, err = run(capsys, "tables", "asm-ruler", "--n", str(n))
    assert code == EXIT_VERIFY_FAILED and out == ""
    bad = [line for line in err.splitlines() if "not eta-symmetric" in line]
    assert len(bad) == sum(1 for r in range(n - 1) for s in range(r + 1) if s < r - s)
    assert "g(4, 1) = 1 but g(4, 3) = 3" in err


# sha256 of the `tables asm-ruler --n 20` stdout (190 rows, values up to 72),
# recorded with the bit-plane solve kernel; a new kernel must reproduce it
ASM_RULER_20_SHA256 = "b9867ef2d2dcd2e3819032fe2786cca95095be52e2f0995023f0f84250ac0069"


# sha256 of the `tables asm-ruler --n 30` stdout (435 rows)
ASM_RULER_30_SHA256 = "aa86659c72ee3672a6037416ab8985f62eb56d2fdda10465f20d7f84f1ff0121"


def test_tables_asm_ruler_n20_is_pinned(capsys, n=20, digest=ASM_RULER_20_SHA256):
    code, out, _ = run(capsys, "tables", "asm-ruler", "--n", str(n))
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the fiber and eta-symmetry checks past n = 30, where any failed check
# exits 1: asm:40 has 10 660 elements, asm:60 35 990 (about 20 s and
# 133 MB)
@pytest.mark.deep
@pytest.mark.parametrize(
    "n, digest",
    [
        (40, "4bcf390cb8d90d6d6d5adc2c94807050d1bce9180de6f535bf3f6a981d80e868"),
        (60, "102fe230a04e7ba8c1f1f882abea3fe1546c6dbac022271ae793c4caef4d1747"),
    ],
    ids=["40", "60"],
)
def test_tables_asm_ruler_n40_and_n60_are_pinned(capsys, n, digest):
    test_tables_asm_ruler_n20_is_pinned(capsys, n, digest)


def test_tables_asm_ruler_rows_do_not_depend_on_n(capsys):
    # down((x, y, z)) translates onto a set fixed by its rank and z, so a
    # row (rank, z) is the same for every n that has it: the n = 20 rows
    # are the first 190 rows for n = 30
    code, out30, _ = run(capsys, "tables", "asm-ruler", "--n", "30")
    assert code == EXIT_OK
    assert hashlib.sha256(out30.encode()).hexdigest() == ASM_RULER_30_SHA256
    _, out20, _ = run(capsys, "tables", "asm-ruler", "--n", "20")
    rows20, rows30 = ([line.split() for line in csv_body(out)[1:]] for out in (out20, out30))
    assert len(rows20) == 190 and len(rows30) == 435
    assert rows30[:190] == rows20


def test_tables_asm_ruler_equals_the_fiber_recurrence(capsys, n=20):
    # the (rank, z) recurrence builds no poset and shares only mex with the
    # solver, so it confirms every row the kernel prints
    code, out, _ = run(capsys, "tables", "asm-ruler", "--n", str(n), "--format", "json")
    assert code == EXIT_OK
    rows = [[r, z, v] for r, row in enumerate(asm_ruler_fibers(n)) for z, v in enumerate(row)]
    assert json.loads(out)["rows"] == rows


@pytest.mark.deep
def test_tables_asm_ruler_equals_the_fiber_recurrence_at_n30(capsys):
    # the recurrence is O(n^6): about 4 s at n = 30
    test_tables_asm_ruler_equals_the_fiber_recurrence(capsys, 30)


def test_tables_ignore_a_planted_pickle(tmp_path, capsys, monkeypatch):
    # pickles with the current version stamp but wrong rows, under the
    # names an earlier release cached these tables by
    planted = {
        "asm-ruler-5": (("tables", "asm-ruler", "--n", "5"), [[0, 0, 99]]),
        "hn": (("tables", "hn", "--max", "5"), [0, 99, 99, 99, 99, 99]),
    }
    for key, (argv, rows) in planted.items():
        _, fresh, _ = run(capsys, *argv)
        payload = pickle.dumps({"version": __version__, "data": rows})
        (tmp_path / f"{key}.pkl").write_bytes(payload)
        monkeypatch.setenv("GRUNDYLAB_CACHE_DIR", str(tmp_path))
        code, out, _ = run(capsys, *argv)
        monkeypatch.delenv("GRUNDYLAB_CACHE_DIR")
        assert code == EXIT_OK and out == fresh
        assert "99" not in out


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "grundy", "subspaces:3:2", "ruler", "--format", "json")
    _, out2, _ = run(capsys, "grundy", "subspaces:3:2", "ruler", "--format", "json")
    assert out1 == out2


def test_verify_suites_pass(capsys):
    code, out, _ = run(capsys, "verify", "nimber")
    assert code == EXIT_OK
    assert "FAIL" not in out
    code, out, _ = run(capsys, "verify", "partitions")
    assert code == EXIT_OK
    assert out.strip().endswith("0 failure(s)")


# sha256 of the `grundy setpartitions:8 ruler` and `ideal` stdout (4140
# rows each), recorded before the byte-string construction of the poset and
# the top-bit walk of the ruler's option planes; both must reproduce them.
# subspaces:7:2 ideal (29 212 elements, about 3 s and 122 MB, most of it
# poset construction) runs within a 10 s budget that a pairwise containment
# scan of its layers (16-25 s) would exceed
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("setpartitions:8", "ideal"), "7cac2a7e1e8ca90281dac05701b1cb5274a400496ce2d5eea8df0ab9be69db9e"),
        (("setpartitions:8", "ruler"), "a90e31321de1dde4fb19915b36e059a55eaadc866e59dbd269fb4ca400a20e01"),
        pytest.param(
            ("subspaces:7:2", "ideal", "--max-seconds", "10"),
            "7f7cc9a771367b61f6b3064cbb7df722755a3c7d6eb6d5987557b015496ecc1f",
            marks=pytest.mark.deep,
        ),
    ],
    ids=["ideal", "ruler", "subspaces-7-2-ideal"],
)
def test_grundy_setpartitions_8_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "grundy", *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the `verify all` stdout; the check names and their order are
# part of the command's output
VERIFY_ALL_SHA256 = "b59abfefb83d993459992890a21d3b88098c39b6c52d7981cba91976fdec7680"


def test_verify_all_output_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "all")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256


def test_verify_reports_a_failing_check(capsys, monkeypatch):
    def broken_row():
        yield "ruler sequence values for x = 1..15", False, "[1, 2, 3]"

    monkeypatch.setitem(checks.SUITES, "nimber", (checks.ruler_row_checks, broken_row))
    code, out, _ = run(capsys, "verify", "nimber")
    assert code == EXIT_VERIFY_FAILED
    assert out.splitlines() == [
        "PASS  ruler sequence values for x = 1..15",
        "FAIL  ruler sequence values for x = 1..15  [[1, 2, 3]]",
        "FAILED: 1 failure(s)",
    ]


@pytest.mark.parametrize(
    "doc, reason",
    [
        ({"n": 2, "covers": [[0, 1], [1, 0]]}, "cycle"),
        ({"covers": []}, "'n'"),
        ({"n": 3, "covers": [[0, 5]]}, "bad cover edge"),
        ({"n": "3", "covers": []}, "non-negative integer"),
        (b'{"n": 2, "covers": [[0, 1]', "Expecting ',' delimiter"),
        ({"n": 2, "covers": [], "labels": ["a"]}, "labels length mismatch"),
        (b"\xff", "'utf-8' codec can't decode"),
        ({"n": 2, "covers": [[False, True]]}, "cover ids must be integers"),
        ({"n": 2, "covers": [[0, 1]], "labels": "ab"}, "labels must be a list"),
        ({"n": 2, "covers": [[0, 1]], "labels": ["a", "b\n# provenance: forged"]}, "labels must be a list"),
        ({"n": 2, "covers": [[0, 1]], "labels": ["a", {"b": 1}]}, "labels must be a list"),
        ({"n": 2, "covers": [[0, 1]], "labels": [True, "b"]}, "labels must be a list"),
    ],
)
def test_bad_poset_file_is_a_usage_error(tmp_path, capsys, doc, reason):
    path = tmp_path / "poset.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    code, out, err = run(capsys, "grundy", f"file:{path}", "ruler")
    assert code == EXIT_USAGE and out == ""
    # every content error of a file is reported as a malformed file
    assert err.startswith(f"error: bad poset spec {f'file:{path}'!r}: malformed poset file: ")
    assert reason in err


def test_deeply_nested_poset_file_is_a_usage_error(tmp_path, capsys):
    # the JSON decoder gives up with RecursionError, not a ValueError
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, _, err = run(capsys, "grundy", f"file:{path}", "tt")
    assert code == EXIT_USAGE
    assert err.startswith("error: bad poset spec") and "recursion" in err


def test_poset_file_is_read_up_to_1024_bytes_per_element(tmp_path, capsys):
    doc = json.dumps({"n": 2, "covers": [[0, 1]]})
    path = tmp_path / "padded.json"
    path.write_text(doc.ljust(3 * 1024))
    code, out, _ = run(capsys, "grundy", f"file:{path}", "tt", "--max-elements", "3")
    assert code == EXIT_OK and out
    path.write_text(doc.ljust(3 * 1024 + 1))
    code, out, err = run(capsys, "grundy", f"file:{path}", "tt", "--max-elements", "3")
    assert code == EXIT_RESOURCE and out == ""
    assert err.startswith("resource cap: ") and "over 3072 bytes" in err


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_poset_file_stops_at_the_byte_bound(capsys):
    started = time.monotonic()
    code, _, err = run(capsys, "grundy", "file:/dev/zero", "ideal", "--max-elements", "100")
    assert code == EXIT_RESOURCE
    assert "over 102400 bytes" in err
    assert time.monotonic() - started < 1.0


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_poset_file_stops_at_the_default_byte_bound():
    # the default cap buffers about 100 MB before it refuses, so a child
    # reads it and the suite's own process keeps no such peak
    proc = run_python("-m", "grundylab.cli", "grundy", "file:/dev/zero", "ideal", code=EXIT_RESOURCE)
    assert "file:/dev/zero is over 102400000 bytes, 1024 per element (cap 100000)" in proc.stderr


def test_table_size_flags_defaults_and_floors(capsys):
    for name, meta in (
        ("phi", {"max": 15}),
        ("gq", {"max": 14}),
        ("hn", {"max": 17}),
        ("asm-ideal", {"n": 10}),
        ("asm-ruler", {"n": 8}),
    ):
        code, out, _ = run(capsys, "tables", name, "--format", "json")
        assert code == EXIT_OK
        assert {k: json.loads(out)["metadata"][k] for k in meta} == meta
        # each table takes only its own size flag, and --max on an asm table
        # is not read as a prefix of --max-elements or --max-seconds
        other = "--n" if "max" in meta else "--max"
        with pytest.raises(SystemExit) as exc:
            main(["tables", name, other, "30"])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(f" error: unrecognized arguments: {other} 30\n")
    for name, flag, value, message in (
        ("phi", "--max", "0", "argument --max: must be at least 1"),
        ("hn", "--max", "-3", "argument --max: must be at least 1"),
        ("gq", "--max", "x", "argument --max: invalid int value: 'x'"),
        ("asm-ideal", "--n", "1", "argument --n: must be at least 2"),
        ("asm-ruler", "--n", "0", "argument --n: must be at least 2"),
        ("asm-ruler", "--n", "8.5", "argument --n: invalid int value: '8.5'"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["tables", name, flag, value])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(f"grundylab tables {name}: error: {message}\n")


def test_table_row_caps_apply_before_any_row(capsys):
    started = time.monotonic()
    for argv, rows in (
        (("phi", "--max", str(10**5)), 10**5),
        (("gq", "--max", "10"), 11),
        (("hn", "--max", "11"), 11),
        (("asm-ideal", "--n", "6"), 15),
    ):
        code, out, err = run(capsys, "tables", *argv, "--max-elements", "10")
        assert code == EXIT_RESOURCE and out == ""
        assert f"tables {argv[0]} has {rows} rows (cap 10)" in err
    # at the cap the tables are built
    for argv in (("phi", "--max", "10"), ("gq", "--max", "9"), ("hn", "--max", "10"), ("asm-ideal", "--n", "5")):
        assert run(capsys, "tables", *argv, "--max-elements", "10")[0] == EXIT_OK
    assert time.monotonic() - started < 1.0


def test_spec_size_caps_apply_before_construction(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 10**9, "covers": []}))
    started = time.monotonic()
    code, _, err = run(capsys, "grundy", f"file:{path}", "ruler", "--max-elements", "100")
    assert code == EXIT_RESOURCE
    assert "1000000000 elements" in err
    assert err == f"resource cap: file:{path} has 1000000000 elements (cap 100)\n"
    code, _, err = run(capsys, "grundy", f"divisors:{10**18}", "tt", "--max-elements", "10")
    assert code == EXIT_RESOURCE
    assert "1000000000 trial divisions (cap 10)" in err
    code, _, err = run(capsys, "grundy", "subspaces:6:2", "ideal", "--max-elements", "100")
    assert code == EXIT_RESOURCE
    assert "2825 elements (cap 100)" in err
    # refused by 2^N alone: the q-binomial sum is never taken
    code, _, err = run(capsys, "grundy", "subspaces:2000:2", "tt")
    assert code == EXIT_RESOURCE
    assert "at least 2^2000 elements (cap 100000)" in err
    # the default cap bounds the masks, which take at least 0.6 GB at it
    code, _, err = run(capsys, "grundy", "chain:100001", "tt")
    assert code == EXIT_RESOURCE
    assert "100001 elements (cap 100000)" in err
    assert time.monotonic() - started < 1.0


def test_divisors_cap_names_the_spec(capsys):
    code, out, err = run(capsys, "grundy", "divisors:12", "tt", "--max-elements", "4")
    assert code == EXIT_RESOURCE and out == ""
    assert err == "resource cap: divisors:12 has 6 elements (cap 4)\n"
    assert run(capsys, "grundy", "divisors:12", "tt", "--max-elements", "6")[0] == EXIT_OK


def test_set_partition_cap_applies_before_construction(capsys):
    started = time.monotonic()
    code, _, err = run(capsys, "grundy", "setpartitions:9", "tt", "--max-elements", "100")
    assert code == EXIT_RESOURCE
    # 8 exceeds 100's bit length, so Bell(9) >= 2^8 refuses it uncounted
    assert err == "resource cap: setpartitions:9 has at least 2^8 elements (cap 100)\n"
    code, _, err = run(capsys, "grundy", "setpartitions:9", "tt", "--max-elements", "20000")
    assert code == EXIT_RESOURCE
    assert err == "resource cap: setpartitions:9 has 21147 elements (cap 20000)\n"
    assert time.monotonic() - started < 1.0


@pytest.mark.parametrize(
    "n, count", [(10, "115975 elements"), (10**8, "at least 2^99999999 elements")], ids=["10", "1e8"]
)
def test_set_partition_cap_names_the_spec_past_the_built_sizes(capsys, n, count):
    # the element cap is the only limit on n: Pi_10 is counted, and a huge n
    # is refused by Bell(n) >= 2^(n-1) alone
    started = time.monotonic()
    code, out, err = run(capsys, "grundy", f"setpartitions:{n}", "ideal")
    assert code == EXIT_RESOURCE and out == ""
    assert err == f"resource cap: setpartitions:{n} has {count} (cap 100000)\n"
    assert time.monotonic() - started < 1.0


def test_usage_errors(capsys):
    code, _, err = run(capsys, "grundy", "pentagon:9", "ruler")
    assert code == EXIT_USAGE
    assert "bad poset spec" in err or "unknown poset spec" in err
    # a malformed spec is a usage error whatever its size
    for spec, why in (
        ("setpartitions:0", "set partition poset needs n >= 1"),
        ("setpartitions:-2", "set partition poset needs n >= 1"),
        ("subspaces:3:6", "q=6 is not a supported prime power"),
        ("subspaces:3:1", "q=1 is not a supported prime power"),
        ("subspaces:3:64", "q=64 is not a supported prime power"),
        ("subspaces:20:6", "q=6 is not a supported prime power"),
        ("subspaces:2000:1", "q=1 is not a supported prime power"),
        ("divisors:-4", "divisor poset needs n >= 1"),
    ):
        code, out, err = run(capsys, "grundy", spec, "ruler")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"error: bad poset spec {spec!r}: {why}")
    with pytest.raises(SystemExit) as exc:
        main(["grundy", "chain:4", "nosuchfamily"])
    assert exc.value.code == EXIT_USAGE
    # the element cap must be at least 1, checked as the command line is parsed
    for argv in (("grundy", "chain:4", "ruler", "--max-elements", "-5"), ("tables", "hn", "--max-elements", "0")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.endswith(": error: argument --max-elements: must be at least 1\n")
    # each option has one spelling: a prefix of a flag is not that flag
    for argv in (("grundy", "chain:4", "ruler", "--max-e", "5"), ("tables", "hn", "--form", "json")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.endswith(f": error: unrecognized arguments: {' '.join(argv[-2:])}\n")
    # a table's options follow its name
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--format", "json", "phi"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand"])
    assert exc.value.code == EXIT_USAGE


def test_resource_cap_exit_code(capsys):
    code, _, err = run(capsys, "grundy", "setpartitions:30", "ruler")
    assert code == EXIT_RESOURCE
    assert "resource cap" in err
    code, _, err = run(capsys, "grundy", "subspaces:5:5", "ruler", "--max-elements", "100")
    assert code == EXIT_RESOURCE


@pytest.fixture
def without_foreign_gc_callbacks():
    """Take out the gc callbacks that were there before the test for its
    length.  Hypothesis keeps one for the rest of the process once any
    `@given` test has run, and a budget alarm that lands in it is dropped
    as unraisable, so a budget test would pass or fail by the order the
    tests ran in."""
    foreign = gc.callbacks[:]
    gc.callbacks.clear()
    yield
    gc.callbacks[:0] = foreign


@pytest.mark.usefixtures("without_foreign_gc_callbacks")
def test_time_budget_exit_code(capsys):
    code, _, err = run(capsys, "tables", "hn", "--max", "17", "--max-seconds", "0.000001")
    assert code == EXIT_RESOURCE
    assert "resource cap" in err


@pytest.mark.usefixtures("without_foreign_gc_callbacks")
def test_time_budget_stops_hn_while_it_runs(capsys):
    started = time.monotonic()
    code, _, err = run(capsys, "tables", "hn", "--max", "200", "--max-seconds", "0.5")
    assert code == EXIT_RESOURCE
    assert "resource cap" in err
    assert time.monotonic() - started < 3.0


def test_asm_ruler_size_cap_applies_before_construction(capsys):
    started = time.monotonic()
    code, _, err = run(capsys, "tables", "asm-ruler", "--n", "60", "--max-elements", "100")
    assert code == EXIT_RESOURCE
    assert "35990 elements" in err
    assert time.monotonic() - started < 1.0


@pytest.mark.usefixtures("without_foreign_gc_callbacks")
def test_time_budget_stops_the_solver_while_it_runs(capsys):
    code, _, err = run(capsys, "grundy", "setpartitions:8", "ruler", "--max-seconds", "0.05")
    assert code == EXIT_RESOURCE
    assert "resource cap" in err
    # asm:30 (4495 elements): the ruler solve alone takes about 0.8 s on a
    # 2-vCPU VM, well past the budget; asm:20's takes about 0.07 s, too
    # close to it to be sure of running out
    started = time.monotonic()
    code, _, err = run(capsys, "tables", "asm-ruler", "--n", "30", "--max-seconds", "0.05")
    assert code == EXIT_RESOURCE
    assert time.monotonic() - started < 3.0
    # the budget covers the solve: its option planes are made element by
    # element inside it, never all up front
    started = time.monotonic()
    code, _, err = run(capsys, "grundy", "asm:30", "ruler", "--max-seconds", "0.05")
    assert code == EXIT_RESOURCE
    assert time.monotonic() - started < 1.5


@pytest.mark.usefixtures("without_foreign_gc_callbacks")
def test_time_budget_repeats_an_alarm_that_was_lost(capsys, monkeypatch):
    # an exception raised inside a gc callback is reported to
    # sys.unraisablehook and dropped; the first collection after the timer
    # is armed stays busy past the budget, so the first alarm lands there
    # and only a repeat can stop the command (setpartitions:9 tt takes
    # about 1 s unbudgeted).  A gc threshold of 1 starts that collection at
    # the next allocation, well before the 0.05 s alarm, even on a loaded
    # machine where ordinary code could otherwise take the first alarm
    lost = []
    monkeypatch.setattr(sys, "unraisablehook", lambda unraisable: lost.append(unraisable.exc_value))
    busy = []

    def busy_once_armed(phase, info):
        if not busy and signal.getitimer(signal.ITIMER_REAL)[0] > 0:
            busy.append(phase)
            end = time.monotonic() + 0.2
            while time.monotonic() < end:
                pass

    thresholds = gc.get_threshold()
    gc.callbacks.append(busy_once_armed)
    gc.set_threshold(1)
    try:
        started = time.monotonic()
        code, _, err = run(capsys, "grundy", "setpartitions:9", "tt", "--max-seconds", "0.05")
    finally:
        gc.set_threshold(*thresholds)
        gc.callbacks.remove(busy_once_armed)
    assert lost and all(isinstance(e, BudgetExceededError) for e in lost)
    assert code == EXIT_RESOURCE and "within 0.05s" in err
    assert time.monotonic() - started < 1.0


@pytest.mark.usefixtures("without_foreign_gc_callbacks")
def test_time_budget_covers_poset_construction(capsys):
    # every run spends its budget building the poset, before any solve
    started = time.monotonic()
    code, _, err = run(capsys, "grundy", "subspaces:7:2", "ideal", "--max-seconds", "0.5")
    assert code == EXIT_RESOURCE
    assert "within 0.5s" in err
    assert time.monotonic() - started < 3.0
    started = time.monotonic()
    code, _, err = run(capsys, "grundy", "setpartitions:9", "tt", "--max-seconds", "0.05")
    assert code == EXIT_RESOURCE
    assert time.monotonic() - started < 1.0
    # Pi_10 (115 975 elements) is under this element cap, so only the budget stops it
    started = time.monotonic()
    argv = ("setpartitions:10", "ideal", "--max-elements", "200000", "--max-seconds", "0.3")
    code, out, err = run(capsys, "grundy", *argv)
    assert code == EXIT_RESOURCE and out == ""
    assert "command not finished within 0.3s" in err
    assert time.monotonic() - started < 1.0


@pytest.mark.parametrize("seconds", ["0", "-1", "nan", "inf", "1e20"])
def test_time_budget_must_be_positive_and_finite(capsys, seconds):
    # setitimer(0) disarms the timer, so 0 would mean no budget at all
    with pytest.raises(SystemExit) as exc:
        main(["grundy", "chain:4", "ruler", "--max-seconds", seconds])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.endswith("grundylab grundy: error: argument --max-seconds: must be positive and at most 1e9\n")


@pytest.mark.usefixtures("without_foreign_gc_callbacks")
def test_time_budget_restores_the_timer_and_the_handler(capsys):
    def sentinel(signum, frame):
        raise AssertionError("SIGALRM reached the handler installed before main")

    before = signal.signal(signal.SIGALRM, sentinel)
    try:
        for argv, expected in [
            (("grundy", "chain:4", "ruler", "--max-seconds", "60"), EXIT_OK),
            (("tables", "hn", "--max", "200", "--max-seconds", "0.05"), EXIT_RESOURCE),
            (("tables", "hn", "--max-seconds", "0.000001"), EXIT_RESOURCE),
            (("grundy", "pentagon:9", "ruler", "--max-seconds", "60"), EXIT_USAGE),
        ]:
            code, _, _ = run(capsys, *argv)
            assert code == expected
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
            assert signal.getsignal(signal.SIGALRM) is sentinel
    finally:
        signal.signal(signal.SIGALRM, before)


def test_generous_time_budget_leaves_stdout_unchanged(capsys):
    for argv in (("grundy", "subspaces:4:2", "ruler"), ("tables", "hn", "--max", "20")):
        _, plain, _ = run(capsys, *argv)
        code, budgeted, _ = run(capsys, *argv, "--max-seconds", "600")
        assert code == EXIT_OK
        assert budgeted == plain


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_ruler_solve_holds_one_bucket_at_a_time():
    # asm:20 has 1330 elements and 235 543 intervals; stored all at once
    # they lift the peak RSS of this run from about 17 MB to about 52 MB.
    # The ruler's solve builds no interval: it carries each element's
    # option planes up from one predecessor, so this guards against a solve
    # that makes the intervals again, all at once.  On asm:20 the carried
    # planes are small: keeping every element's planes costs about 1 MB
    mb, _ = peak_rss_mb("-m", "grundylab.cli", "grundy", "asm:20", "ruler")
    assert mb < 35


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_set_partition_ideal_stores_down_masks_only():
    # setpartitions:9 has 21 147 elements.  Numbered along a linear
    # extension, each down mask is only as wide as its own id, and the peak
    # RSS of this run is about 66 MB; masks numbered in RGS order are as
    # wide as the whole poset and took about 97 MB, and a filter mask
    # stored beside each down mask added about 30 MB more
    mb, _ = peak_rss_mb("-m", "grundylab.cli", "grundy", "setpartitions:9", "ideal")
    assert mb < 76


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_oversized_poset_file_is_refused_unread(tmp_path):
    # a sparse 200 MB file under the default cap: reading it up to the byte
    # bound before refusing it lifts the peak RSS of this run to about 113 MB
    path = tmp_path / "sparse.json"
    with open(path, "wb") as fh:
        fh.truncate(200 * 1024 * 1024)
    mb, err = peak_rss_mb("-m", "grundylab.cli", "grundy", f"file:{path}", "ideal", code=EXIT_RESOURCE)
    assert "is over 102400000 bytes, 1024 per element (cap 100000)" in err
    assert mb < 40


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=16,
)
# documents that carry the keys, so that the checks after the first are
# reached: sizes on both sides of the cap of 64, ids on both sides of n
small_ids = st.integers(min_value=-1, max_value=9)
poset_docs = st.fixed_dictionaries(
    {
        "n": st.integers(min_value=-1, max_value=8) | st.integers(min_value=60, max_value=70) | json_values,
        "covers": st.lists(st.lists(small_ids | json_values, max_size=3), max_size=8) | json_values,
    },
    optional={"labels": st.lists(small_ids | st.text(max_size=4) | json_values, max_size=8) | json_values},
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(json_values | poset_docs)
def test_any_json_poset_file_is_solved_or_refused(tmp_path, capsys, doc):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "grundy", f"file:{path}", "ideal", "--max-elements", "64")
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_RESOURCE)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["tables", "phi"], EXIT_OK),
        (["grundy", "pentagon:9", "ruler"], EXIT_USAGE),
        (["grundy", "setpartitions:30", "ruler"], EXIT_RESOURCE),
    ],
    ids=["ok", "usage", "resource"],
)
def test_console_main_exits_with_mains_code(capsys, monkeypatch, argv, code):
    # the installed `grundylab` script runs console_main, which reads sys.argv
    monkeypatch.setattr(sys, "argv", ["grundylab", *argv])
    with pytest.raises(SystemExit) as exc:
        console_main()
    assert exc.value.code == code


def test_exit_code_constants_are_distinct():
    assert len({EXIT_OK, EXIT_VERIFY_FAILED, EXIT_USAGE, EXIT_RESOURCE}) == 4


def test_cli_import_does_not_load_numpy():
    proc = run_python("-c", "import grundylab.cli, sys; print('numpy' in sys.modules)")
    assert proc.stdout.strip() == "False"


def test_imports_load_only_what_they_name():
    probe = (
        "import sys, grundylab\n"
        "print(sorted(m for m in sys.modules if m.startswith('grundylab.')))\n"
        "import grundylab.cli\n"
        "print(*(m in sys.modules for m in ('dataclasses', 'json', 'signal')))\n"
    )
    proc = run_python("-c", probe)
    assert proc.stdout.splitlines() == ["[]", "False False False"]


# each op runs in a fresh interpreter, and with no bytecode cache every module
# it loads is compiled from source, so a command loads only what it runs
CLI_ONLY = {"cli", "errors"}
POSET_GAME = CLI_ONLY | {"poset", "families", "games"}
COMMAND_MODULES = {
    "": CLI_ONLY,  # the import alone
    "tables hn --max 14": CLI_ONLY | {"partitions", "nimber"},
    "grundy asm:8 ruler": POSET_GAME,
    "tables asm-ruler --n 8": POSET_GAME,
    "grundy subspaces:3:2 ideal": POSET_GAME | {"gf"},
    "verify all": POSET_GAME | {"gf", "partitions", "nimber", "closedforms", "checks"},
}


@pytest.mark.parametrize("command", list(COMMAND_MODULES), ids=lambda c: c or "import")
def test_commands_load_only_their_modules(command):
    probe = (
        "import contextlib, io, sys\n"
        "import grundylab.cli\n"
        "argv = sys.argv[1:]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = grundylab.cli.main(argv) if argv else 0\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('grundylab.')))\n"
    )
    proc = run_python("-c", probe, *command.split())
    code, *loaded = proc.stdout.split()
    assert code == "0"
    assert loaded == sorted(f"grundylab.{m}" for m in COMMAND_MODULES[command])


def test_parser_choices_are_the_lookups_names(capsys):
    assert FAMILY_NAMES == tuple(sorted(games.family_builders()))
    assert SUITE_NAMES == tuple(sorted(checks.SUITES))
    with pytest.raises(SystemExit) as exc:
        main(["grundy", "chain:4", "bogus"])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "argument family: invalid choice: 'bogus' (choose from 'ideal', 'ruler', 'tt')" in err


@pytest.mark.deep
@pytest.mark.parametrize("workload", ["tables", "solve", "build", "oracle"])
def test_benchmark_workload_reproduces_its_recorded_stdout(workload):
    # run.py's last stdout line carries `correct`, false when any op's stdout
    # differs from benchmarks/expected.json
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = run_python("benchmarks/run.py", *argv)
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
