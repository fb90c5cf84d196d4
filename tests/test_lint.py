"""repro.lint: per-rule pass/fail fixtures, suppression machinery, CLI
exit codes, and the meta-test that the repo itself lints clean."""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint import Baseline, ProjectModel
from repro.lint.baseline import inline_suppressed
from repro.lint.cli import lint_paths, main as lint_main
from repro.lint.rules import RULE_BITS

REPO_ROOT = Path(__file__).resolve().parents[1]
SCAN_ROOT = REPO_ROOT / "src" / "repro"


def lint_tree(tmp_path, files, rules=None, config=None):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    model, violations = lint_paths(tmp_path, rules=rules, config=config)
    return model, violations


def rules_of(violations):
    return sorted({v.rule for v in violations})


# ----------------------------------------------------------------------
# Shared fixture scaffolding: a miniature project with the same
# structural conventions as the real tree.
# ----------------------------------------------------------------------
PACKETS = """
class Packet:
    name = "Packet"
    fields = ()

class Ping(Packet):
    name = "PING"
    fields = (IntField("x"), OptionalField(IntField("y")))

class Pong(Packet):
    name = "PONG"
    fields = Ping.fields + (IntField("z"),)

class Carrier(Packet):
    name = "CARRIER"
    show_in_flow = False
    fields = ()
"""

NODE_SCAFFOLD = """
from packets import Ping, Pong

def handles(*types):
    def deco(fn):
        return fn
    return deco

class Node:
    pass
"""


# ----------------------------------------------------------------------
# R1 determinism
# ----------------------------------------------------------------------
class TestR1Determinism:
    def test_entropy_import_flagged(self, tmp_path):
        _, violations = lint_tree(
            tmp_path, {"core/x.py": "import random\n"}, rules=["R1"]
        )
        assert rules_of(violations) == ["R1"]
        assert "random" in violations[0].message

    def test_from_import_and_aliased_calls_flagged(self, tmp_path):
        _, violations = lint_tree(
            tmp_path,
            {
                "a.py": "from random import choice\n",
                "b.py": "import time as _t\ndef f():\n    return _t.time()\n",
                "c.py": "import os\nJOBS = os.environ.get('JOBS')\n",
                "d.py": (
                    "from datetime import datetime\n"
                    "def f():\n    return datetime.now()\n"
                ),
            },
            rules=["R1"],
        )
        assert len(violations) == 4
        assert all(v.rule == "R1" for v in violations)

    def test_rng_module_is_exempt(self, tmp_path):
        _, violations = lint_tree(
            tmp_path,
            {"sim/rng.py": "import random\n"},
            rules=["R1"],
        )
        assert violations == []

    def test_perf_counter_allowed(self, tmp_path):
        _, violations = lint_tree(
            tmp_path,
            {"a.py": "import time\ndef f():\n    return time.perf_counter()\n"},
            rules=["R1"],
        )
        assert violations == []

    def test_perf_counter_forbidden_in_media_strict_clock_zone(self, tmp_path):
        bad = "import time\ndef f():\n    return time.perf_counter()\n"
        _, violations = lint_tree(
            tmp_path, {"media/fluid.py": bad}, rules=["R1"]
        )
        assert rules_of(violations) == ["R1"]
        assert "strict-clock" in violations[0].message

    def test_monotonic_alias_forbidden_in_strict_clock_zone(self, tmp_path):
        bad = "import time as _t\ndef f():\n    return _t.monotonic_ns()\n"
        _, violations = lint_tree(
            tmp_path, {"media/model.py": bad}, rules=["R1"]
        )
        assert rules_of(violations) == ["R1"]

    def test_sim_time_reads_pass_in_strict_clock_zone(self, tmp_path):
        good = "def f(sim):\n    return sim.now + 0.020\n"
        _, violations = lint_tree(
            tmp_path, {"media/fluid.py": good}, rules=["R1"]
        )
        assert violations == []

    def test_serve_is_a_strict_clock_zone(self, tmp_path):
        bad = "import time\ndef f():\n    return time.monotonic()\n"
        _, violations = lint_tree(
            tmp_path, {"serve/loop.py": bad}, rules=["R1"]
        )
        assert rules_of(violations) == ["R1"]
        assert "strict-clock" in violations[0].message

    def test_pacer_allowlisted_for_host_clock(self, tmp_path):
        ok = "import time\ndef pace():\n    return time.monotonic()\n"
        _, violations = lint_tree(
            tmp_path, {"serve/pacer.py": ok}, rules=["R1"]
        )
        assert violations == []

    def test_pacer_allowlist_does_not_cover_ordinary_r1(self, tmp_path):
        # The allowlist lifts only the strict-clock extension; the
        # baseline determinism rule still bans wall-clock reads there.
        bad = "import time\ndef f():\n    return time.time()\n"
        _, violations = lint_tree(
            tmp_path, {"serve/pacer.py": bad}, rules=["R1"]
        )
        assert rules_of(violations) == ["R1"]
        assert "wall-clock" in violations[0].message

    def test_set_iteration_feeding_scheduler_flagged(self, tmp_path):
        bad = (
            "def f(sim, items):\n"
            "    for item in set(items):\n"
            "        sim.schedule(1.0, print, item)\n"
        )
        _, violations = lint_tree(tmp_path, {"a.py": bad}, rules=["R1"])
        assert rules_of(violations) == ["R1"]
        assert "sorted()" in violations[0].message

    def test_sorted_iteration_and_quiet_loops_pass(self, tmp_path):
        good = (
            "def f(sim, items):\n"
            "    for item in sorted(set(items)):\n"
            "        sim.schedule(1.0, print, item)\n"
            "    for item in set(items):\n"
            "        count = item + 1  # no emission in this loop\n"
        )
        _, violations = lint_tree(tmp_path, {"a.py": good}, rules=["R1"])
        assert violations == []


# ----------------------------------------------------------------------
# R2 dispatch completeness
# ----------------------------------------------------------------------
class TestR2Dispatch:
    def test_unknown_handles_target(self, tmp_path):
        files = {
            "packets.py": PACKETS,
            "node.py": NODE_SCAFFOLD
            + (
                "class Server(Node):\n"
                "    @handles(Pnig)\n"
                "    def on_ping(self, msg, src, iface):\n"
                "        pass\n"
            ),
        }
        _, violations = lint_tree(tmp_path, files, rules=["R2"])
        assert any("no class named 'Pnig'" in v.message for v in violations)

    def test_handles_non_packet(self, tmp_path):
        files = {
            "packets.py": PACKETS,
            "node.py": NODE_SCAFFOLD
            + (
                "class NotAPacket:\n    pass\n"
                "class Server(Node):\n"
                "    @handles(NotAPacket)\n"
                "    def on_thing(self, msg, src, iface):\n"
                "        pass\n"
            ),
        }
        _, violations = lint_tree(tmp_path, files, rules=["R2"])
        assert any("not a Packet subclass" in v.message for v in violations)

    def test_sent_but_unhandled(self, tmp_path):
        files = {
            "packets.py": PACKETS,
            "node.py": NODE_SCAFFOLD
            + (
                "class Server(Node):\n"
                "    @handles(Ping)\n"
                "    def on_ping(self, msg, src, iface):\n"
                "        self.send(src, Pong(z=1))\n"
            ),
        }
        _, violations = lint_tree(tmp_path, files, rules=["R2"])
        assert any(
            "Pong is constructed but no node @handles it" in v.message
            for v in violations
        )

    def test_handled_via_base_class_passes(self, tmp_path):
        files = {
            "packets.py": PACKETS,
            "node.py": NODE_SCAFFOLD
            + (
                "from packets import Packet\n"
                "class Server(Node):\n"
                "    @handles(Packet)\n"
                "    def on_any(self, msg, src, iface):\n"
                "        self.send(src, Pong(z=1))\n"
                "        self.send(src, Ping(x=2))\n"
            ),
        }
        _, violations = lint_tree(tmp_path, files, rules=["R2"])
        assert violations == []

    def test_inner_layer_needs_no_handler(self, tmp_path):
        files = {
            "packets.py": PACKETS,
            "node.py": NODE_SCAFFOLD
            + (
                "from packets import Carrier\n"
                "class Server(Node):\n"
                "    @handles(Carrier)\n"
                "    def on_carrier(self, msg, src, iface):\n"
                "        self.send(src, Carrier() / Pong(z=1))\n"
                "        inner = Ping(x=1)\n"
                "        self.send(src, Carrier() / inner)\n"
            ),
        }
        _, violations = lint_tree(tmp_path, files, rules=["R2"])
        assert violations == []

    def test_dead_handler(self, tmp_path):
        files = {
            "packets.py": PACKETS,
            "node.py": NODE_SCAFFOLD
            + (
                "class Server(Node):\n"
                "    @handles(Pong)\n"
                "    def on_pong(self, msg, src, iface):\n"
                "        pass\n"
            ),
        }
        _, violations = lint_tree(tmp_path, files, rules=["R2"])
        assert any("dead handler" in v.message for v in violations)

    def test_rebuild_helper_reference_keeps_handler_alive(self, tmp_path):
        files = {
            "packets.py": PACKETS,
            "node.py": NODE_SCAFFOLD
            + (
                "class Server(Node):\n"
                "    @handles(Pong)\n"
                "    def on_pong(self, msg, src, iface):\n"
                "        pass\n"
            ),
            "relay.py": (
                "from packets import Pong\n"
                "def rebuild(msg, rename_packet):\n"
                "    return rename_packet(msg, Pong)\n"
            ),
        }
        _, violations = lint_tree(tmp_path, files, rules=["R2"])
        assert violations == []


# ----------------------------------------------------------------------
# R3 flow conformance
# ----------------------------------------------------------------------
class TestR3FlowConformance:
    def test_typo_in_flow_step_fails(self, tmp_path):
        files = {
            "packets.py": PACKETS,
            "flows.py": (
                "STEPS = [FlowStep('1.1', 'PING'), FlowStep('1.2', 'PNIG')]\n"
            ),
        }
        _, violations = lint_tree(tmp_path, files, rules=["R3"])
        assert len(violations) == 1
        assert "'PNIG'" in violations[0].message

    def test_keyword_message_checked(self, tmp_path):
        files = {
            "packets.py": PACKETS,
            "flows.py": "STEPS = [FlowStep('1.1', message='PGON')]\n",
        }
        _, violations = lint_tree(tmp_path, files, rules=["R3"])
        assert len(violations) == 1

    def test_valid_flow_passes(self, tmp_path):
        files = {
            "packets.py": PACKETS,
            "flows.py": (
                "STEPS = [FlowStep('1.1', 'PING'), FlowStep('1.2', 'PONG')]\n"
            ),
        }
        _, violations = lint_tree(tmp_path, files, rules=["R3"])
        assert violations == []

    def test_quiet_list_typo_fails(self, tmp_path):
        files = {
            "packets.py": PACKETS,
            "trace.py": "DEFAULT_QUIET = frozenset({'PING', 'PINGG'})\n",
        }
        _, violations = lint_tree(tmp_path, files, rules=["R3"])
        assert len(violations) == 1
        assert "quiet-list" in violations[0].message


# ----------------------------------------------------------------------
# R4 sim safety
# ----------------------------------------------------------------------
class TestR4SimSafety:
    def test_sleep_in_handler_fails(self, tmp_path):
        files = {
            "packets.py": PACKETS,
            "node.py": NODE_SCAFFOLD
            + (
                "import time\n"
                "class Server(Node):\n"
                "    @handles(Ping)\n"
                "    def on_ping(self, msg, src, iface):\n"
                "        time.sleep(0.5)\n"
            ),
        }
        _, violations = lint_tree(tmp_path, files, rules=["R4"])
        assert any("time.sleep()" in v.message for v in violations)

    def test_file_io_in_process_body_fails(self, tmp_path):
        files = {
            "proc.py": (
                "def talker(sim):\n"
                "    with open('log.txt', 'w') as fh:\n"
                "        fh.write('hi')\n"
                "    yield 1.0\n"
            ),
        }
        _, violations = lint_tree(tmp_path, files, rules=["R4"])
        assert any("open()" in v.message for v in violations)

    def test_io_outside_callbacks_allowed(self, tmp_path):
        files = {
            "export.py": (
                "def export(path, rows):\n"
                "    with open(path, 'w') as fh:\n"
                "        fh.write(str(rows))\n"
            ),
        }
        _, violations = lint_tree(tmp_path, files, rules=["R4"])
        assert violations == []

    def test_discarded_span_fails(self, tmp_path):
        files = {
            "node.py": (
                "class Thing:\n"
                "    def go(self):\n"
                "        self.sim.spans.open('call', keys={'imsi': 1})\n"
            ),
        }
        _, violations = lint_tree(tmp_path, files, rules=["R4"])
        assert any("discarded" in v.message for v in violations)

    def test_unclosed_span_attribute_fails(self, tmp_path):
        files = {
            "node.py": (
                "class Thing:\n"
                "    def go(self):\n"
                "        self._span = self.sim.spans.open('call', keys={})\n"
            ),
        }
        _, violations = lint_tree(tmp_path, files, rules=["R4"])
        assert any("never .close()d" in v.message for v in violations)

    def test_closed_span_passes(self, tmp_path):
        files = {
            "node.py": (
                "class Thing:\n"
                "    def go(self):\n"
                "        self._span = self.sim.spans.open('call', keys={})\n"
                "    def done(self):\n"
                "        self._span.close(status='ok')\n"
            ),
        }
        _, violations = lint_tree(tmp_path, files, rules=["R4"])
        assert violations == []

    def test_dict_key_span_closed_via_alias_passes(self, tmp_path):
        files = {
            "node.py": (
                "class Thing:\n"
                "    def go(self):\n"
                "        self.pending = {\n"
                "            'span': self.sim.spans.open('handoff', keys={}),\n"
                "        }\n"
                "    def done(self):\n"
                "        span = self.pending.get('span')\n"
                "        span.close(status='ok')\n"
            ),
        }
        _, violations = lint_tree(tmp_path, files, rules=["R4"])
        assert violations == []


# ----------------------------------------------------------------------
# R5 packet hygiene
# ----------------------------------------------------------------------
class TestR5PacketHygiene:
    def test_unknown_keyword_fails(self, tmp_path):
        files = {
            "packets.py": PACKETS,
            "use.py": "from packets import Ping\np = Ping(x=1, bogus=2)\n",
        }
        _, violations = lint_tree(tmp_path, files, rules=["R5"])
        assert len(violations) == 1
        assert "'bogus'" in violations[0].message

    def test_inherited_and_optional_fields_pass(self, tmp_path):
        files = {
            "packets.py": PACKETS,
            "use.py": (
                "from packets import Ping, Pong\n"
                "a = Ping(x=1, y=2)\n"
                "b = Pong(x=1, y=2, z=3)\n"
            ),
        }
        _, violations = lint_tree(tmp_path, files, rules=["R5"])
        assert violations == []

    def test_extra_positional_fails(self, tmp_path):
        files = {
            "packets.py": PACKETS,
            "use.py": "from packets import Ping\np = Ping(1, 2)\n",
        }
        _, violations = lint_tree(tmp_path, files, rules=["R5"])
        assert any("positional" in v.message for v in violations)

    def test_splat_sites_skipped(self, tmp_path):
        files = {
            "packets.py": PACKETS,
            "use.py": (
                "from packets import Ping\n"
                "def rebuild(values):\n"
                "    return Ping(**values)\n"
            ),
        }
        _, violations = lint_tree(tmp_path, files, rules=["R5"])
        assert violations == []


# ----------------------------------------------------------------------
# Suppressions, baseline, CLI
# ----------------------------------------------------------------------
class TestSuppressionAndCli:
    def test_inline_suppression(self, tmp_path):
        model, violations = lint_tree(
            tmp_path,
            {"a.py": "import random  # lint: ignore[R1]\n"},
            rules=["R1"],
        )
        assert len(violations) == 1
        assert inline_suppressed(model, violations[0])

    def test_inline_suppression_wrong_rule_does_not_apply(self, tmp_path):
        model, violations = lint_tree(
            tmp_path,
            {"a.py": "import random  # lint: ignore[R4]\n"},
            rules=["R1"],
        )
        assert not inline_suppressed(model, violations[0])

    def test_baseline_roundtrip(self, tmp_path):
        _, violations = lint_tree(
            tmp_path, {"a.py": "import random\n"}, rules=["R1"]
        )
        baseline = Baseline.from_violations(violations)
        path = tmp_path / "lint-baseline.json"
        baseline.dump(path)
        reloaded = Baseline.load(path)
        assert reloaded.contains(violations[0])

    def test_fingerprint_stable_across_line_moves(self, tmp_path):
        _, before = lint_tree(
            tmp_path, {"a.py": "import random\n"}, rules=["R1"]
        )
        (tmp_path / "a.py").write_text("# a comment\n\nimport random\n")
        _, after = lint_paths(tmp_path, rules=["R1"])
        assert before[0].line != after[0].line
        assert before[0].fingerprint == after[0].fingerprint

    def test_cli_exit_code_is_per_rule_bitmask(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "import random\n"
            "class Packet:\n    name = 'P'\n    fields = ()\n"
            "class Ping(Packet):\n    name = 'PING'\n    fields = ()\n"
            "STEPS = [FlowStep('1', 'PNIG')]\n"
        )
        code = lint_main([str(tmp_path), "--baseline", "none"])
        assert code == RULE_BITS["R1"] | RULE_BITS["R3"]

    def test_cli_clean_exit_zero(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        assert lint_main([str(tmp_path), "--baseline", "none"]) == 0

    def test_cli_json_report(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text("import random\n")
        out = tmp_path / "report.json"
        code = lint_main(
            [str(tmp_path), "--baseline", "none", "--format", "json",
             "--output", str(out)]
        )
        assert code == RULE_BITS["R1"]
        report = json.loads(out.read_text())
        assert report["summary"]["R1"] == 1
        assert report["exit_code"] == code
        assert report["violations"][0]["rule"] == "R1"

    def test_cli_rule_selection(self, tmp_path):
        (tmp_path / "a.py").write_text("import random\n")
        assert lint_main([str(tmp_path), "--baseline", "none",
                          "--rules", "R2,R3"]) == 0

    def test_write_baseline_then_clean(self, tmp_path):
        (tmp_path / "a.py").write_text("import random\n")
        baseline = tmp_path / "lint-baseline.json"
        assert lint_main([str(tmp_path), "--baseline", str(baseline),
                          "--write-baseline"]) == 0
        assert lint_main([str(tmp_path), "--baseline", str(baseline)]) == 0

    def test_main_module_dispatches_lint(self, tmp_path):
        from repro.__main__ import main as repro_main

        (tmp_path / "a.py").write_text("import random\n")
        code = repro_main(["lint", str(tmp_path), "--baseline", "none"])
        assert code == RULE_BITS["R1"]

    def test_unparseable_file_is_reported(self, tmp_path):
        (tmp_path / "a.py").write_text("def broken(:\n")
        code = lint_main([str(tmp_path), "--baseline", "none"])
        assert code == 32


# ----------------------------------------------------------------------
# Meta: the repository itself must lint clean against its baseline.
# ----------------------------------------------------------------------
class TestRepoIsClean:
    def test_repo_lints_clean_against_baseline(self):
        model, violations = lint_paths(SCAN_ROOT)
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        active = [
            v
            for v in violations
            if not baseline.contains(v) and not inline_suppressed(model, v)
        ]
        assert active == [], "\n".join(
            f"{v.file}:{v.line}: {v.rule} {v.message}" for v in active
        )

    def test_repo_baseline_entries_all_have_reasons(self):
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        for entry in baseline.entries:
            assert entry.get("reason"), entry
            assert "TODO" not in str(entry["reason"]), entry

    def test_repo_baseline_has_no_stale_entries(self):
        """Every suppression still matches a live violation; dead
        entries must be removed with --prune-baseline, not shipped."""
        _, violations = lint_paths(SCAN_ROOT)
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        stale = baseline.stale_entries(violations)
        assert stale == [], stale

    def test_repo_is_clean_under_concurrency_rules(self):
        """R6–R8 must hold outright on the real tree — the scrape
        thread, signal handlers, and sweep workers all obey their
        domain discipline with no baseline help at all."""
        _, violations = lint_paths(SCAN_ROOT, rules=["R6", "R7", "R8"])
        assert violations == [], "\n".join(
            f"{v.file}:{v.line}: {v.rule} {v.message}" for v in violations
        )

    def test_repo_model_sanity(self):
        """The packet/node registries resolve to the sizes the tree
        actually declares — guards against the model silently going
        blind after a refactor (which would make every rule vacuous)."""
        model = ProjectModel(SCAN_ROOT)
        assert len(model.packet_classes) > 80
        assert len(model.node_classes) > 10
        assert len(model.handlers) > 80
        assert "RAS_RRQ" in model.packet_wire_names()
        assert model.packet_fields("RasArq") == {
            "seq", "call_ref", "endpoint_alias", "called_alias",
            "bandwidth_kbps", "answer_call",
        }

    def test_seeded_bug_is_caught(self, tmp_path):
        """Acceptance check: copying core/flows.py with one typo'd
        message name into a scratch tree must produce an R3 violation."""
        scratch = tmp_path / "repro"
        scratch.mkdir()
        packets_dir = scratch / "packets"
        packets_dir.mkdir()
        for rel in ("packets/base.py", "packets/fields.py", "packets/ras.py"):
            target = scratch / rel
            target.write_text((SCAN_ROOT / rel).read_text())
        flows = (SCAN_ROOT / "core" / "flows.py").read_text()
        flows = flows.replace('"RAS_RRQ"', '"RAS_RQR"', 1)
        (scratch / "flows.py").write_text(flows)
        _, violations = lint_paths(scratch, rules=["R3"])
        assert any("RAS_RQR" in v.message for v in violations)
