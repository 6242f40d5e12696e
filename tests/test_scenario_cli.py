import hashlib
import json
from pathlib import Path

import pytest

from polarsnap import links
from polarsnap.cli import main
from polarsnap.errors import ScenarioError
from polarsnap.geometry import SatId, orbit_period
from polarsnap.links import IslEdge, TopologyEdgeSet, make_edge
from polarsnap.report import export_topology, load_topology, run_compare
from polarsnap.scenario import load_scenario
from polarsnap.snapshots import (
    SnapshotSequence,
    TopologySnapshot,
    partition,
    partition_reassignment,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
IRIDIUM_HEAD = (b"[constellation]\nplanes = 6\nsats_per_plane = 11\n"
                b"inclination_deg = 86.4\naltitude_km = 780\n")
STATIONS = b"source = A, 39.9, 116.4\ndestination = B, 51.5, -0.1\n"


def reference_export_topology(seq, spec, path):
    """The dict-plus-``json.dumps`` exporter kept as the oracle for
    ``export_topology``."""
    def edge_key(edge):
        return (edge.kind, edge.endpoint_a.plane, edge.endpoint_a.index_in_plane,
                edge.endpoint_b.plane, edge.endpoint_b.index_in_plane)

    doc = {
        "format": "polarsnap-topology/1",
        "constellation": {
            "name": spec.name,
            "plane_count": spec.plane_count,
            "sats_per_plane": spec.sats_per_plane,
            "inclination_deg": spec.inclination_deg,
            "altitude_km": spec.altitude_km,
            "period_s": orbit_period(spec),
            "inter_plane_spacing_deg": spec.plane_spacing_deg,
            "earth_radius_km": spec.earth_radius_km,
            "grazing_altitude_km": spec.grazing_altitude_km,
        },
        "method": seq.method,
        "polar_border_deg": seq.polar_border_deg,
        "trigger": seq.trigger,
        "period_s": seq.period_s,
        "truncated_final": seq.truncated_final,
        "snapshots": [
            {
                "index": i,
                "start_s": snap.start_s,
                "end_s": snap.end_s,
                "edges": [
                    {
                        "kind": e.kind,
                        "a": [e.endpoint_a.plane, e.endpoint_a.index_in_plane],
                        "b": [e.endpoint_b.plane, e.endpoint_b.index_in_plane],
                    }
                    for e in sorted(snap.edges.edges, key=edge_key)
                ],
            }
            for i, snap in enumerate(seq.snapshots)
        ],
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


class TestLoadScenario:
    def test_iridium_fixture(self):
        config = load_scenario(SCENARIOS / "iridium.scenario")
        spec = config.constellation
        assert spec.plane_count == 6
        assert spec.sats_per_plane == 11
        assert spec.inclination_deg == 86.4
        assert spec.altitude_km == 780.0
        assert config.polar_borders_deg == [60.0, 65.0, 70.0, 75.0]
        assert config.methods == ["reassignment", "fixed", "equal_time"]
        assert config.source.name == "Beijing"
        assert config.destination.latitude_deg == pytest.approx(51.507)

    def test_teledesic_fixture(self):
        config = load_scenario(SCENARIOS / "teledesic.scenario")
        spec = config.constellation
        assert spec.plane_count == 12
        assert spec.sats_per_plane == 24
        assert spec.inclination_deg == 84.7
        assert spec.altitude_km == 1375.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "nope.scenario")

    @pytest.mark.parametrize("key,value", [("duration_s", "nan"), ("interval_s", "inf"),
                                           ("duration_s", "-inf")])
    def test_non_finite_value_names_field(self, tmp_path, key, value):
        p = tmp_path / "bad.scenario"
        p.write_bytes(IRIDIUM_HEAD + f"[experiment]\n{key} = {value}\n".encode())
        with pytest.raises(ScenarioError, match=f"line 7: {key} must be positive and finite"):
            load_scenario(p)

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read scenario file"):
            load_scenario(tmp_path)

    def test_non_utf8_file_rejected(self, tmp_path):
        p = tmp_path / "latin1.scenario"
        p.write_bytes("[constellation]\nname = M\xfcnchen\n".encode("latin-1"))
        with pytest.raises(ScenarioError, match="not UTF-8 text: byte 24 is 0xfc"):
            load_scenario(p)

    def test_out_of_range_border_names_field(self, tmp_path):
        p = tmp_path / "bad.scenario"
        p.write_text("[constellation]\nplanes = 6\nsats_per_plane = 11\n"
                     "inclination_deg = 86.4\naltitude_km = 780\n"
                     "[partition]\npolar_border_deg = 95\n")
        with pytest.raises(ScenarioError, match="polar_border_deg"):
            load_scenario(p)

    def test_unknown_key_reports_line(self, tmp_path):
        p = tmp_path / "bad.scenario"
        base = ("[constellation]\nplanes = 6\nsats_per_plane = 11\n"
                "inclination_deg = 86.4\naltitude_km = 780\n")
        for extra, line in (("warp_drive = 1\n", 6), ("[output]\nrandom_seed = 1\n", 7)):
            p.write_text(base + extra)
            with pytest.raises(ScenarioError, match=f"line {line}"):
                load_scenario(p)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "bad.scenario"
        p.write_text("[constellation]\nplanes 6\n")
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(p)

    def test_odd_plane_count_rejected(self, tmp_path):
        p = tmp_path / "bad.scenario"
        p.write_text("[constellation]\nplanes = 5\nsats_per_plane = 11\n"
                     "inclination_deg = 86.4\naltitude_km = 780\n")
        with pytest.raises(ScenarioError, match="even"):
            load_scenario(p)

    def test_unknown_method_rejected(self, tmp_path):
        p = tmp_path / "bad.scenario"
        p.write_text("[constellation]\nplanes = 6\nsats_per_plane = 11\n"
                     "inclination_deg = 86.4\naltitude_km = 780\n"
                     "[partition]\nmethods = dijkstra\n")
        with pytest.raises(ScenarioError, match="methods"):
            load_scenario(p)

    def test_defaults_without_optional_sections(self, tmp_path):
        p = tmp_path / "min.scenario"
        p.write_text("[constellation]\nplanes = 6\nsats_per_plane = 11\n"
                     "inclination_deg = 86.4\naltitude_km = 780\n")
        config = load_scenario(p)
        assert config.trigger == "enter"
        assert config.equal_time_delta == "match_reassignment"
        assert config.source is None


class TestEqualTimeDeltaPolicy:
    def test_match_reassignment_uses_reassignment_duration(self, tmp_path):
        config = load_scenario(SCENARIOS / "iridium.scenario")
        config.polar_borders_deg = [60.0]
        config.methods = ["reassignment", "equal_time"]
        config.source = config.destination = None
        config.output_dir = tmp_path
        report = run_compare(config)
        by_method = {r.method: r for r in report.rows}
        assert by_method["equal_time"].snapshot_count == 22
        assert by_method["equal_time"].duration_max_s == pytest.approx(
            by_method["reassignment"].duration_max_s, abs=1e-6)

    def _iridium_delta_1000(self, tmp_path) -> Path:
        text = (SCENARIOS / "iridium.scenario").read_text()
        path = tmp_path / "iridium.scenario"
        path.write_text(text.replace("equal_time_delta = match_reassignment",
                                     "equal_time_delta = 1000"))
        return path

    def test_simulate_uses_scenario_delta(self, tmp_path, capsys):
        scenario = self._iridium_delta_1000(tmp_path)
        rc = main(["simulate", str(scenario), "--methods", "equal_time",
                   "--polar-border", "60", "--output-dir", str(tmp_path / "sim")])
        assert rc == 0
        csv = tmp_path / "sim" / "iridium_equal_time_60_snapshots.csv"
        assert len(csv.read_text().splitlines()) == 1 + 7

    def test_route_and_compare_share_delta(self, tmp_path, capsys):
        scenario = self._iridium_delta_1000(tmp_path)
        delays = []
        for command in ("route", "compare"):
            out = tmp_path / command
            rc = main([command, str(scenario), "--methods", "equal_time",
                       "--polar-border", "60", "--duration", "3000",
                       "--output-dir", str(out)])
            assert rc == 0
            delays.append((out / "iridium_equal_time_60_delay.csv").read_bytes())
        assert delays[0] == delays[1]


class TestTopologyExport:
    def test_round_trip(self, iridium, tmp_path):
        seq = partition_reassignment(iridium, None, 60.0)
        path = tmp_path / "topo.json"
        export_topology(seq, iridium, path)
        spec2, seq2 = load_topology(path)
        assert spec2.plane_count == iridium.plane_count
        assert seq2.method == seq.method
        assert seq2.count == seq.count
        for a, b in zip(seq.snapshots, seq2.snapshots):
            assert a.start_s == b.start_s
            assert a.end_s == b.end_s
            assert a.edges.edges == b.edges.edges
            assert a.n_inter_plane == b.n_inter_plane

    def test_re_export_is_byte_identical(self, iridium, tmp_path):
        seq = partition_reassignment(iridium, None, 65.0)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        export_topology(seq, iridium, p1)
        export_topology(seq, iridium, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("system", ["iridium", "teledesic"])
    @pytest.mark.parametrize("border", [60.0, 75.0])
    def test_matches_reference_exporter(self, system, border, request, tmp_path):
        spec = request.getfixturevalue(system)
        for method in ("reassignment", "fixed", "equal_time"):
            seq = partition(spec, method, border)
            self.assert_matches_reference(seq, spec, tmp_path)

    def test_handmade_sequence_matches_reference_exporter(self, iridium, tmp_path):
        # horizontal edges, an empty edge set, an unknown kind (given once
        # with its endpoints out of canonical order, once on a ring edge's
        # endpoints), no trigger, truncated final snapshot
        snaps = partition_reassignment(iridium, None, 75.0).snapshots[:2]
        odd = snaps[1].edges.edges | {IslEdge(SatId(4, 2), SatId(3, 7), "laser"),
                                      IslEdge(SatId(1, 1), SatId(1, 2), "laser"),
                                      make_edge(SatId(1, 1), SatId(6, 1), "oblique")}
        snaps = (snaps[0],
                 TopologySnapshot(1.0e3, 2.5e3, TopologyEdgeSet(frozenset(), 1.0e3, "x"), 0),
                 TopologySnapshot(2.5e3, 6027.0, TopologyEdgeSet(odd, 2.5e3, "x"), 42))
        seq = SnapshotSequence("handmade", snaps, 6027.0, 75.0, trigger=None,
                               truncated_final=True)
        assert any(e.kind == "horizontal" for e in snaps[0].edges.edges)
        self.assert_matches_reference(seq, iridium, tmp_path)

    @staticmethod
    def assert_matches_reference(seq, spec, tmp_path):
        got, want = tmp_path / "got.json", tmp_path / "want.json"
        export_topology(seq, spec, got)
        reference_export_topology(seq, spec, want)
        assert got.read_bytes() == want.read_bytes(), (spec.name, seq.method)
        spec2, seq2 = load_topology(got)
        assert spec2 == spec
        assert [(s.start_s, s.end_s, s.edges.edges) for s in seq2.snapshots] == \
            [(s.start_s, s.end_s, s.edges.edges) for s in seq.snapshots]

    def test_empty_sequence_rejected(self, iridium, tmp_path):
        seq = SnapshotSequence("reassignment", (), 6027.0, 60.0)
        target = tmp_path / "never.json"
        with pytest.raises(ValueError):
            export_topology(seq, iridium, target)
        assert not target.exists()


class TestCli:
    def test_analyze_runs(self, capsys):
        rc = main(["analyze", str(SCENARIOS / "iridium.scenario")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "34" in out and "44" in out and "22" in out

    def test_simulate_writes_artifacts(self, tmp_path, capsys):
        rc = main([
            "simulate", str(SCENARIOS / "iridium.scenario"),
            "--polar-border", "60", "--methods", "reassignment",
            "--output-dir", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "iridium_reassignment_60_snapshots.csv").exists()
        assert (tmp_path / "iridium_reassignment_60_topology.json").exists()

    def test_route_runs(self, tmp_path, capsys):
        rc = main([
            "route", str(SCENARIOS / "iridium.scenario"),
            "--polar-border", "60", "--methods", "reassignment",
            "--duration", "1800", "--output-dir", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "iridium_reassignment_60_delay.csv").exists()
        out = capsys.readouterr().out
        assert "avg delay" in out

    def test_scenario_error_reported_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text("[constellation]\nplanes = 6\nsats_per_plane = 11\n"
                       "inclination_deg = 86.4\naltitude_km = 780\n"
                       "[partition]\npolar_border_deg = 95\n")
        rc = main(["analyze", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "polar_border_deg" in err and "line 7" in err

    @pytest.mark.parametrize("contents,message", [
        (IRIDIUM_HEAD + b"[experiment]\nduration_s = nan\n",
         "duration_s must be positive and finite"),
        (IRIDIUM_HEAD + b"[experiment]\ninterval_s = inf\n",
         "interval_s must be positive and finite"),
        (b"[constellation]\nname = M\xfcnchen\n", "not UTF-8 text"),
        (None, "cannot read scenario file"),
    ])
    def test_bad_scenario_file_reported_cleanly(self, contents, message, tmp_path, capsys):
        path = tmp_path / "in"
        if contents is None:
            path.mkdir()
        else:
            path.write_bytes(contents)
        out = tmp_path / "out"
        rc = main(["route", str(path), "--output-dir", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,field", [
        (["route", "--interval", "-5"], "interval_s"),
        (["route", "--duration", "0"], "duration_s"),
        (["compare", "--polar-border", "95"], "polar_border_deg"),
        (["route", "--methods", "bogus"], "methods"),
        (["route", "--duration", "nan"], "duration_s"),
        (["route", "--interval", "inf"], "interval_s"),
    ])
    def test_bad_override_reported_cleanly(self, argv, field, tmp_path, capsys):
        rc = main([argv[0], str(SCENARIOS / "iridium.scenario"), *argv[1:],
                   "--output-dir", str(tmp_path)])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("head,experiment,field", [
        (IRIDIUM_HEAD, b"source = A, nan, 10\ndestination = B, 51.5, -0.1\n",
         "latitude_deg"),
        (IRIDIUM_HEAD, STATIONS + b"min_elevation_deg = nan\n", "min_elevation_deg"),
        (IRIDIUM_HEAD.replace(b"780", b"nan"), STATIONS, "altitude_km"),
    ])
    def test_non_finite_input_reported_cleanly(self, head, experiment, field, tmp_path,
                                               capsys):
        path = tmp_path / "in.scenario"
        path.write_bytes(head + b"[experiment]\n" + experiment)
        out = tmp_path / "out"
        rc = main(["route", str(path), "--duration", "600", "--output-dir", str(out)])
        assert rc == 2
        assert f"{field} must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_subset_omits_baselines(self, tmp_path, capsys):
        rc = main([
            "compare", str(SCENARIOS / "iridium.scenario"),
            "--polar-border", "60", "--methods", "reassignment",
            "--duration", "600", "--output-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reassignment" in out
        assert "fixed" not in out
        assert not list(tmp_path.glob("*fixed*"))


def _tree_digest(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestEdgeObjects:
    def test_compare_builds_no_edge_objects(self, tmp_path, monkeypatch):
        # partition, validation, routing and export all work on the edge
        # universe's integer ids, and the universe itself is built from
        # integers; IslEdge objects are only for callers
        config = load_scenario(SCENARIOS / "teledesic.scenario")
        config.duration_s = 600.0
        config.output_dir = tmp_path
        built = []
        init = links.IslEdge.__init__

        def counted_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(links.IslEdge, "__init__", counted_init)
        monkeypatch.setattr(links, "make_edge", lambda *args: built.append(args))
        links._wiring.cache_clear()
        report = run_compare(config)
        assert report.ok and len(report.rows) == 12
        assert built == []
        # the counter does count
        links.IslEdge(SatId(1, 1), SatId(1, 2), "intra_plane")
        assert len(built) == 1


class TestDeterminism:
    def test_compare_twice_is_byte_identical(self, tmp_path):
        config = load_scenario(SCENARIOS / "iridium.scenario")
        config.polar_borders_deg = [60.0]
        config.duration_s = 900.0
        digests = []
        for run in ("one", "two"):
            config.output_dir = tmp_path / run
            report = run_compare(config)
            assert report.ok
            digests.append(_tree_digest(config.output_dir))
        assert digests[0] == digests[1]
