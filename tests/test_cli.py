import itertools
import json
from collections import Counter

import pytest

from demorgan import cli, subobjects, topology
from demorgan.cli import (
    build_parser,
    main,
    parse_site,
    site_to_data,
    write_site,
)
from demorgan.fixtures import cspan
from demorgan.sieves import generate_sieve
from demorgan.topology import generate_topology, trivial_topology

from conftest import DATA, then_wins


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_site_fixture():
    C, J = parse_site(str(DATA / "cspan.json"))
    assert C == cspan()
    assert J is None


def test_parse_site_with_covers():
    C, J = parse_site(str(DATA / "cspan_fg.json"))
    expected = generate_topology(C, [generate_sieve(C, "c", ["f", "g"])])
    assert J == expected


def test_parse_site_unknown_name(capsys):
    code, _, err = run(capsys, "validate", DATA / "bad_name.json")
    assert code == 2
    assert "zz" in err


def test_roundtrip(tmp_path):
    C, J = parse_site(str(DATA / "cspan_fg.json"))
    out = tmp_path / "site.json"
    write_site(str(out), C, J)
    C2, J2 = parse_site(str(out))
    assert C2 == C
    assert J2 == J
    # and a second write parses back to the same values again
    out2 = tmp_path / "site2.json"
    write_site(str(out2), C2, J2)
    C3, J3 = parse_site(str(out2))
    assert (C3, J3) == (C2, J2)


def test_validate_command(capsys):
    code, out, _ = run(capsys, "validate", DATA / "cspan.json")
    assert code == 0
    assert "category ok" in out


def test_ore_command(capsys):
    code, out, _ = run(capsys, "ore", DATA / "cspan.json")
    assert code == 0
    assert out.startswith("false")
    assert "witness" in out
    code, out, _ = run(capsys, "ore", DATA / "mon2.json")
    assert out.startswith("true")


def test_mono_command(capsys):
    code, out, _ = run(capsys, "mono", "e", DATA / "mon2.json")
    assert code == 0 and out.strip() == "false"


def test_sieves_command(capsys):
    code, out, _ = run(capsys, "sieves", "c", DATA / "cspan.json", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["sieves"]) == 5


def test_is_demorgan_trivial(capsys):
    code, out, _ = run(
        capsys, "is-demorgan", DATA / "cspan.json", "--topology", "trivial"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "false"
    assert any("criterion sieve: {f,g}" in line for line in lines)


def test_is_demorgan_methods_agree(capsys):
    for method in ("general", "reduced", "oracle"):
        code, out, _ = run(
            capsys, "is-demorgan", DATA / "cspan_fg.json", "--method", method
        )
        assert code == 0
        assert out.splitlines()[0] == "true"


def test_is_boolean(capsys):
    code, out, _ = run(capsys, "is-boolean", DATA / "mon2.json", "--json")
    payload = json.loads(out)
    assert payload["result"] is False
    assert payload["witness"]["closed_sieve"] == ["e"]


def test_demorganize_command(tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code, out, _ = run(
        capsys,
        "demorganize", DATA / "cspan.json",
        "--topology", "trivial", "-o", out_path,
    )
    assert code == 0
    C, J = parse_site(str(out_path))
    assert J.contains(generate_sieve(C, "c", ["f", "g"]))


def test_booleanize_command(capsys):
    code, out, _ = run(capsys, "booleanize", DATA / "mon2.json", "--json")
    payload = json.loads(out)
    assert ["e"] in payload["covers"]["*"]


def test_topology_subcommands(capsys):
    code, out, _ = run(capsys, "topology", "validate", DATA / "cspan_fg.json")
    assert code == 0 and out.startswith("valid")
    code, out, _ = run(capsys, "topology", "generate", DATA / "cspan_fg.json")
    assert code == 0 and "{f,g}" in out
    code, out, _ = run(
        capsys, "topology", "compare", DATA / "cspan.json", DATA / "cspan_fg.json"
    )
    assert code == 0 and out.strip() == "first<second"


def test_topology_validate_rejects_non_topology(tmp_path, capsys):
    # literal covers {f} on c fail stability along g
    data = json.loads((DATA / "cspan.json").read_text())
    data["covers"] = {"c": [["f"]]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "topology", "validate", bad)
    assert code == 0
    assert out.startswith("invalid")


def test_dense_and_demorgan_topology_commands(capsys):
    code, out, _ = run(capsys, "dense-topology", DATA / "cspan.json", "--json")
    dense = json.loads(out)["covers"]
    code, out, _ = run(capsys, "demorgan-topology", DATA / "cspan.json", "--json")
    dm = json.loads(out)["covers"]
    assert dense == dm
    assert ["f", "g"] in dense["c"]


def test_enumerate_command(capsys):
    code, out, _ = run(
        capsys, "enumerate-topologies", DATA / "cspan.json", "--json"
    )
    assert json.loads(out)["count"] == 8


def test_enumerate_bound_exit_code(capsys):
    code, _, err = run(
        capsys, "enumerate-topologies", DATA / "cspan.json",
        "--max-enum-arrows", "1",
    )
    assert code == 3
    assert "bound" in err


def test_enumerate_then_wins_6(tmp_path, capsys):
    # 65 sieves on one object: 3 topologies, one least cover each
    site = tmp_path / "then_wins6.json"
    write_site(str(site), then_wins(6))
    code, out, _ = run(capsys, "enumerate-topologies", site, "--json")
    assert code == 0
    assert json.loads(out)["count"] == 3


@pytest.mark.parametrize("law", ["demorgan", "boolean"])
def test_reduced_method_witness_past_the_sieve_bound(tmp_path, capsys, law):
    # 18 arrows into o: the general route refuses, so the reduced route
    # must name its own witness
    site = tmp_path / "then_wins17.json"
    write_site(str(site), then_wins(17))
    argv = (f"is-{law}", site, "--method", "reduced")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] is False
    assert payload["witness"] == {
        "object": "o",
        "arrow": "x0",
        "law_sieve": sorted(f"x{i}" for i in range(17)),
    }
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[:4] == [
        "false", "witness:", "  object: o", "  arrow f: x0",
    ]


def test_frame_nuclei_boolean_32(tmp_path, capsys):
    # the subsets of five atoms: one nucleus per set of atoms
    subsets = [
        frozenset(c) for r in range(6)
        for c in itertools.combinations("abcde", r)
    ]

    def name(x):
        return "{" + ",".join(sorted(x)) + "}"

    frame = tmp_path / "bool32.json"
    frame.write_text(json.dumps({
        "elements": [name(x) for x in subsets],
        "leq": [
            [name(x), name(y)] for x in subsets for y in subsets
            if x < y and len(y) == len(x) + 1
        ],
    }))
    code, out, _ = run(
        capsys, "frame", "nuclei", frame, "--max-frame-elements", "32",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["count"] == 32


def test_heyting_check_command(capsys):
    code, out, _ = run(capsys, "heyting", "check", DATA / "frm5.json", "--json")
    payload = json.loads(out)
    assert payload["de_morgan_algebra"] is False
    assert payload["de_morgan_property"] is False
    assert payload["boolean_algebra"] is False
    assert sorted(payload["regular_elements"]) == ["0", "1", "{x}", "{y}"]


def test_frame_commands(capsys):
    code, out, _ = run(capsys, "frame", "classify", DATA / "frm5.json", "--json")
    payload = json.loads(out)
    assert payload == {
        "de_morgan": False,
        "boolean": False,
        "extremally_disconnected": False,
        "almost_discrete": False,
    }
    code, out, _ = run(capsys, "frame", "nuclei", DATA / "ch3.json", "--json")
    assert json.loads(out)["count"] == 4
    code, out, _ = run(capsys, "frame", "demorganize", DATA / "frm5.json", "--json")
    payload = json.loads(out)
    assert payload["fixset_size"] == 4


def test_report_command(capsys):
    code, out, _ = run(
        capsys, "report", DATA / "cspan.json", "--topology", "trivial", "--json"
    )
    payload = json.loads(out)
    assert payload["right_ore"] is False
    assert payload["methods_agree"] is True
    assert payload["de_morgan"] == {
        "general": False, "reduced": False, "oracle": False
    }
    assert payload["non_de_morgan_witness"] == ["c", "f", "g"]


@pytest.mark.parametrize(
    "seam", ["_general_witness", "_principal_witness", "_oracle"],
    ids=["general", "reduced", "oracle"],
)
@pytest.mark.parametrize("law", [0, 1], ids=["demorgan", "boolean"])
def test_report_route_disagreement_exit_code(capsys, monkeypatch, seam, law):
    # report runs each route's paired sweep once; on cspan under the
    # trivial topology every route finds both laws false.  Turn one
    # route's verdict on one law true: a witness dropped, or False made
    # True.
    route = getattr(cli, seam)

    def flipped(*args):
        verdicts = list(route(*args))
        assert verdicts[law] not in (None, True)
        verdicts[law] = True if seam == "_oracle" else None
        return tuple(verdicts)

    monkeypatch.setattr(cli, seam, flipped)
    code, out, err = run(
        capsys, "report", DATA / "cspan.json", "--topology", "trivial", "--json"
    )
    assert code == 4
    assert json.loads(out)["methods_agree"] is False
    assert "disagree" in err


def _calls_of(monkeypatch, name, *modules):
    """Record the arguments of every call of ``name`` in ``modules``."""
    calls = []
    real = getattr(modules[0], name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, recorded)
    return calls


def _closed_masks_calls(monkeypatch):
    return _calls_of(monkeypatch, "_closed_masks", topology, subobjects)


@pytest.mark.parametrize("law", ["demorgan", "boolean"])
def test_decision_takes_verdict_and_witness_from_one_sweep(
    capsys, monkeypatch, law
):
    # both laws fail on cspan under the trivial topology
    listed = _closed_masks_calls(monkeypatch)
    code, out, _ = run(capsys, f"is-{law}", DATA / "cspan.json", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["result"] is False and payload["witness"]
    per_object = Counter(ci for _, _, ci, _ in listed)
    assert per_object and set(per_object.values()) == {1}

    built = _calls_of(monkeypatch, "reduced_site", topology)
    code, out, _ = run(
        capsys, f"is-{law}", DATA / "cspan.json", "--method", "reduced",
        "--json",
    )
    payload = json.loads(out)
    assert code == 0 and payload["result"] is False and payload["witness"]
    assert len(built) == 1


def test_report_builds_each_closed_sieve_algebra_once(
    tmp_path, capsys, monkeypatch
):
    doc = tmp_path / "then_wins7.json"
    write_site(str(doc), then_wins(7))
    algebras = _calls_of(monkeypatch, "__init__", subobjects.ClosedSieveAlgebra)
    listed = _closed_masks_calls(monkeypatch)
    code, out, _ = run(capsys, "report", doc, "--topology", "trivial", "--json")
    assert code == 0 and json.loads(out)["methods_agree"] is True
    assert len(algebras) == 1
    per_object = Counter(ci for _, _, ci, _ in listed)
    assert per_object == {0: 2}


def test_parser_built_once_per_process(capsys):
    build_parser.cache_clear()
    assert run(capsys, "report", DATA / "cspan.json", "--json")[0] == 0
    assert run(capsys, "is-boolean", DATA / "mon2.json")[0] == 0
    assert build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [
    ("ore", DATA / "cspan.json", "--max-enum-arrows", "3"),
    ("report", DATA / "cspan.json", "--max-frame-elements", "3"),
    ("frame", "classify", DATA / "frm5.json", "--max-frame-elements", "3"),
    ("heyting", "check", DATA / "frm5.json", "--max-sieve-arrows", "3"),
])
def test_inapplicable_bound_flag_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("sieves", "c", DATA / "cspan.json", "--max-sieve-arrows", "-1"),
    ("enumerate-topologies", DATA / "cspan.json", "--max-enum-arrows", "-1"),
    ("frame", "nuclei", DATA / "ch3.json", "--max-frame-elements", "-1"),
])
def test_negative_bound_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv)
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


def test_sieve_bound_reaches_site_covers(capsys):
    # cspan_fg.json lists covers on c, which has three incoming arrows
    for argv in (
        ("validate", DATA / "cspan_fg.json"),
        ("topology", "generate", DATA / "cspan_fg.json"),
    ):
        code, _, err = run(capsys, *argv, "--max-sieve-arrows", "2")
        assert code == 3 and "bound" in err


_ARROW_F = {"name": "f", "dom": "a", "cod": "c"}


@pytest.mark.parametrize("argv, document", [
    (("validate", "DOC"),
     {"objects": ["a", "c"], "arrows": [_ARROW_F], "covers": [["f"]]}),
    (("topology", "validate", "DOC"),
     {"objects": ["a", "c"], "arrows": [_ARROW_F], "covers": [["f"]]}),
    (("report", DATA / "cspan.json", "--topology", "DOC"),
     {"covers": [["f"]]}),
    (("report", DATA / "cspan.json", "--topology", "DOC"), [["f"]]),
    (("validate", "DOC"),
     {"objects": ["a", "c"], "arrows": [{"name": "f", "dom": "a"}]}),
    (("validate", "DOC"), {"objects": [1, 2]}),
    (("validate", "DOC"), {"objects": "ab"}),
    (("validate", "DOC"), {"objects": ["a"], "covers": {"a": "id_a"}}),
    (("validate", "DOC"), ["a", "b"]),
    (("frame", "classify", "DOC"), {"elements": ["0", "1"]}),
    (("frame", "classify", "DOC"), {"elements": ["0", "1"], "leq": [["0"]]}),
    (("demorganize", "DOC"), {"objects": ["a"], "covers": {"a": [[]]}}),
    (("booleanize", "DOC"), {"objects": ["a"], "covers": {"a": [[]]}}),
], ids=[
    "covers-list", "topology-validate-covers-list",
    "topology-file-covers-list", "topology-file-bare-list",
    "arrow-without-cod", "integer-objects", "string-objects",
    "string-generators", "not-an-object", "frame-without-leq",
    "frame-short-pair", "demorganize-no-reduced-site",
    "booleanize-no-reduced-site",
])
def test_malformed_document_exits_2(tmp_path, capsys, argv, document):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(document))
    code, _, err = run(capsys, *(doc if a == "DOC" else a for a in argv))
    assert code == 2
    assert err.startswith("error: ")


def test_site_to_data_covers_sorted():
    C, J = parse_site(str(DATA / "cspan_fg.json"))
    data = site_to_data(C, J)
    assert data["covers"]["c"] == sorted(data["covers"]["c"])
