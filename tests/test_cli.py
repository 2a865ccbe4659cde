import json

import pytest

from demorgan.cli import main, parse_site, site_to_data, write_site
from demorgan.fixtures import cspan
from demorgan.sieves import generate_sieve
from demorgan.topology import generate_topology, trivial_topology

from conftest import DATA


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


def test_report_route_disagreement_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        "demorgan.cli.oracle_is_demorgan", lambda C, J, **kw: True
    )
    code, out, err = run(
        capsys, "report", DATA / "cspan.json", "--topology", "trivial", "--json"
    )
    assert code == 4
    assert json.loads(out)["methods_agree"] is False
    assert "disagree" in err


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


def test_site_to_data_covers_sorted():
    C, J = parse_site(str(DATA / "cspan_fg.json"))
    data = site_to_data(C, J)
    assert data["covers"]["c"] == sorted(data["covers"]["c"])
