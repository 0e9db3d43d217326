"""Unit tests for the :mod:`repro.lint` framework and rule battery.

Each rule gets at least one seeded violation (true positive), one near-miss
that must NOT be flagged (false-positive guard), and the suppression
machinery is exercised against real findings.
"""

import json
import pathlib
import textwrap

import pytest

from repro.lint import LintConfig, LintRunner, Severity, lint_source
from repro.lint.config import _parse_minimal_toml_table, load_config
from repro.lint.core import PARSE_ERROR_RULE_ID, scope_path_for
from repro.lint.reporter import render_json, render_text


def rules_in(findings):
    return {finding.rule_id for finding in findings}


def check(code, scope="repro/sim/fixture.py"):
    return lint_source(textwrap.dedent(code), scope_path=scope)


# ---------------------------------------------------------------------------
# determinism rules
# ---------------------------------------------------------------------------


class TestGlobalRandomRule:
    def test_flags_global_random_call(self):
        findings = check(
            """
            import random

            def pick(peers):
                return random.choice(peers)
            """
        )
        assert "det-global-random" in rules_in(findings)

    def test_flags_from_random_import(self):
        findings = check("from random import shuffle\n")
        assert "det-global-random" in rules_in(findings)

    def test_near_miss_injected_rng_ok(self):
        findings = check(
            """
            def pick(peers, rng):
                return rng.choice(peers)
            """
        )
        assert "det-global-random" not in rules_in(findings)

    def test_near_miss_seeded_instance_ok(self):
        findings = check(
            """
            import random

            def make_rng(seed):
                return random.Random(seed)
            """
        )
        assert "det-global-random" not in rules_in(findings)

    def test_from_random_import_random_class_ok(self):
        findings = check("from random import Random\n")
        assert "det-global-random" not in rules_in(findings)

    def test_inline_suppression(self):
        findings = check(
            """
            import random

            def jitter():
                return random.random()  # lint: disable=det-global-random -- demo only
            """
        )
        assert "det-global-random" not in rules_in(findings)


class TestWallClockRule:
    def test_flags_time_time(self):
        findings = check(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert "det-wall-clock" in rules_in(findings)

    def test_flags_datetime_now(self):
        findings = check(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """
        )
        assert "det-wall-clock" in rules_in(findings)

    def test_near_miss_method_named_time_ok(self):
        findings = check(
            """
            def elapsed(timer):
                return timer.time()
            """
        )
        assert "det-wall-clock" not in rules_in(findings)


class TestOsEntropyRule:
    def test_flags_os_urandom(self):
        findings = check(
            """
            import os

            def nonce():
                return os.urandom(16)
            """
        )
        assert "det-os-entropy" in rules_in(findings)

    def test_flags_secrets_import(self):
        findings = check("import secrets\n")
        assert "det-os-entropy" in rules_in(findings)

    def test_flags_uuid4(self):
        findings = check(
            """
            import uuid

            def fresh_id():
                return uuid.uuid4()
            """
        )
        assert "det-os-entropy" in rules_in(findings)

    def test_applies_to_tests_too(self):
        findings = check(
            """
            import os

            def nonce():
                return os.urandom(8)
            """,
            scope="tests/test_fixture.py",
        )
        assert "det-os-entropy" in rules_in(findings)

    def test_near_miss_os_path_ok(self):
        findings = check(
            """
            import os

            def join(a, b):
                return os.path.join(a, b)
            """
        )
        assert "det-os-entropy" not in rules_in(findings)

    def test_flags_seedless_rng_in_the_helper_that_builds_it(self):
        """No path into ``self.x`` is needed: the construction is the bug."""
        findings = check(
            """
            import random

            def fresh_rng():
                return random.Random()
            """
        )
        assert [(f.rule_id, f.line) for f in findings] == [("det-os-entropy", 5)]
        assert "random.Random()" in findings[0].message

    def test_flags_seedless_random_none_and_from_import(self):
        findings = check(
            """
            import random as rnd
            from random import Random as R

            a = rnd.Random(None)
            b = R()
            """
        )
        assert [f.line for f in findings if f.rule_id == "det-os-entropy"] == [5, 6]

    def test_flags_seedless_numpy_generators(self):
        findings = check(
            """
            import numpy as np
            from numpy.random import default_rng

            a = np.random.default_rng()
            b = np.random.RandomState()
            c = default_rng(seed=None)
            """,
            scope="tests/test_fixture.py",
        )
        assert [f.line for f in findings if f.rule_id == "det-os-entropy"] == [5, 6, 7]

    def test_near_miss_seeded_generators_ok(self):
        findings = check(
            """
            import random
            import numpy as np
            from repro.crypto.prng import Sha256Prng, derive_seed

            def build(seed, *args):
                return (
                    random.Random(seed),
                    np.random.default_rng(derive_seed(seed, "shard")),
                    np.random.RandomState(seed=seed),
                    random.Random(*args),
                    Sha256Prng(seed),
                    seed.Random(),
                )
            """
        )
        assert "det-os-entropy" not in rules_in(findings)


class TestSetIterationRule:
    def test_flags_for_over_set_call(self):
        findings = check(
            """
            def visit(items):
                for item in set(items):
                    yield item
            """
        )
        assert "det-set-iteration" in rules_in(findings)

    def test_flags_comprehension_over_set_literal(self):
        findings = check(
            """
            def build(a, b):
                return [x for x in {a, b}]
            """
        )
        assert "det-set-iteration" in rules_in(findings)

    def test_near_miss_sorted_set_ok(self):
        findings = check(
            """
            def visit(items):
                for item in sorted(set(items)):
                    yield item
            """
        )
        assert "det-set-iteration" not in rules_in(findings)

    def test_out_of_scope_package_ok(self):
        findings = check(
            """
            def visit(items):
                for item in set(items):
                    yield item
            """,
            scope="repro/analysis/fixture.py",
        )
        assert "det-set-iteration" not in rules_in(findings)


# ---------------------------------------------------------------------------
# crypto-hygiene rules
# ---------------------------------------------------------------------------


class TestStdlibRandomImportRule:
    def test_flags_module_scope_import_in_sgx(self):
        findings = check("import random\n", scope="repro/sgx/fixture.py")
        assert "crypto-stdlib-random" in rules_in(findings)

    def test_near_miss_type_checking_gate_ok(self):
        findings = check(
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                import random
            """,
            scope="repro/sgx/fixture.py",
        )
        assert "crypto-stdlib-random" not in rules_in(findings)

    def test_out_of_scope_package_ok(self):
        findings = check("import random\n", scope="repro/sim/fixture.py")
        assert "crypto-stdlib-random" not in rules_in(findings)

    def test_suppression_with_justification(self):
        findings = check(
            "import random  # lint: disable=crypto-stdlib-random -- subclassing Random\n",
            scope="repro/crypto/fixture.py",
        )
        assert "crypto-stdlib-random" not in rules_in(findings)


class TestDigestCompareRule:
    def test_flags_mac_equality(self):
        findings = check(
            """
            def verify(mac, expected_mac):
                return mac == expected_mac
            """
        )
        assert "crypto-digest-compare" in rules_in(findings)

    def test_flags_digest_call_equality(self):
        findings = check(
            """
            from repro.crypto.hashing import sha256

            def verify(payload, expected):
                return sha256(payload) == expected
            """
        )
        assert "crypto-digest-compare" in rules_in(findings)

    def test_near_miss_mode_string_ok(self):
        findings = check(
            """
            def configure(mode):
                return mode == "hmac"
            """
        )
        assert "crypto-digest-compare" not in rules_in(findings)

    def test_near_miss_none_check_ok(self):
        findings = check(
            """
            def missing(digest):
                return digest == None  # noqa: E711 - deliberate for the lint fixture
            """
        )
        assert "crypto-digest-compare" not in rules_in(findings)

    def test_constant_time_equal_ok(self):
        findings = check(
            """
            from repro.crypto.hashing import constant_time_equal

            def verify(mac, expected_mac):
                return constant_time_equal(mac, expected_mac)
            """
        )
        assert "crypto-digest-compare" not in rules_in(findings)


class TestWeakHashRule:
    def test_flags_md5(self):
        findings = check(
            """
            import hashlib

            def weak(data):
                return hashlib.md5(data).digest()
            """
        )
        assert "crypto-weak-hash" in rules_in(findings)

    def test_flags_hashlib_new_sha1(self):
        findings = check(
            """
            import hashlib

            def weak(data):
                return hashlib.new("sha1", data)
            """
        )
        assert "crypto-weak-hash" in rules_in(findings)

    def test_near_miss_sha256_ok(self):
        findings = check(
            """
            import hashlib

            def strong(data):
                return hashlib.sha256(data).digest()
            """
        )
        assert "crypto-weak-hash" not in rules_in(findings)


# ---------------------------------------------------------------------------
# enclave-boundary rules
# ---------------------------------------------------------------------------


class TestEnclavePrivateAccessRule:
    def test_flags_private_read_on_enclave_object(self):
        findings = check(
            """
            def steal(enclave):
                return enclave._group_key
            """,
            scope="repro/brahms/fixture.py",
        )
        assert "enclave-private-access" in rules_in(findings)

    def test_flags_raw_enclave_reference(self):
        findings = check(
            """
            def unwrap(host):
                return host._enclave
            """,
            scope="repro/brahms/fixture.py",
        )
        assert "enclave-private-access" in rules_in(findings)

    def test_near_miss_self_private_state_ok(self):
        findings = check(
            """
            class RapteeEnclaveView:
                def __init__(self):
                    self._cache = {}

                def get(self):
                    return self._cache
            """,
            scope="repro/brahms/fixture.py",
        )
        assert "enclave-private-access" not in rules_in(findings)

    def test_trusted_paths_exempt(self):
        findings = check(
            """
            def unwrap(host):
                return host._enclave
            """,
            scope="repro/sgx/fixture.py",
        )
        assert "enclave-private-access" not in rules_in(findings)

    def test_tests_exempt(self):
        findings = check(
            """
            def unwrap(host):
                return host._enclave
            """,
            scope="tests/test_fixture.py",
        )
        assert "enclave-private-access" not in rules_in(findings)


class TestEnclaveInternalImportRule:
    def test_flags_sealing_key_import(self):
        findings = check(
            "from repro.sgx.enclave import sealing_key_for\n",
            scope="repro/core/fixture.py",
        )
        assert "enclave-internal-import" in rules_in(findings)

    def test_flags_star_import(self):
        findings = check(
            "from repro.sgx.enclave import *\n",
            scope="repro/core/fixture.py",
        )
        assert "enclave-internal-import" in rules_in(findings)

    def test_near_miss_public_names_ok(self):
        findings = check(
            "from repro.sgx.enclave import Enclave, EnclaveHost, SgxDevice, ecall\n",
            scope="repro/core/fixture.py",
        )
        assert "enclave-internal-import" not in rules_in(findings)


class TestEnclaveBoundaryBypassRule:
    def test_flags_object_getattribute(self):
        findings = check(
            """
            def peek(host):
                return object.__getattribute__(host, "_enclave")
            """,
            scope="repro/core/fixture.py",
        )
        assert "enclave-boundary-bypass" in rules_in(findings)

    def test_flags_reflective_private_getattr(self):
        findings = check(
            """
            def peek(enclave_host):
                return getattr(enclave_host, "_measurement")
            """,
            scope="repro/core/fixture.py",
        )
        assert "enclave-boundary-bypass" in rules_in(findings)

    def test_near_miss_plain_getattr_ok(self):
        findings = check(
            """
            def lookup(config):
                return getattr(config, "name", None)
            """,
            scope="repro/core/fixture.py",
        )
        assert "enclave-boundary-bypass" not in rules_in(findings)


# ---------------------------------------------------------------------------
# sim-purity rules
# ---------------------------------------------------------------------------


class TestPurityRules:
    def test_flags_print_in_protocol_code(self):
        findings = check(
            """
            def push(view):
                print("pushing", view)
            """,
            scope="repro/brahms/fixture.py",
        )
        assert "purity-print" in rules_in(findings)

    def test_print_allowed_in_experiments_layer(self):
        findings = check(
            """
            def report(rows):
                print(rows)
            """,
            scope="repro/experiments/fixture.py",
        )
        assert "purity-print" not in rules_in(findings)

    def test_flags_open_and_socket(self):
        findings = check(
            """
            import socket

            def dump(view):
                with open("view.log", "w") as handle:
                    handle.write(str(view))
            """,
            scope="repro/brahms/fixture.py",
        )
        assert "purity-io" in rules_in(findings)
        assert sum(1 for f in findings if f.rule_id == "purity-io") == 2

    def test_near_miss_method_named_open_ok(self):
        findings = check(
            """
            def start(channel):
                return channel.open()
            """,
            scope="repro/brahms/fixture.py",
        )
        assert "purity-io" not in rules_in(findings)


# ---------------------------------------------------------------------------
# framework: suppressions, severities, parse errors, scope mapping
# ---------------------------------------------------------------------------


class TestFramework:
    def test_disable_next_suppression(self):
        findings = check(
            """
            import random

            def jitter():
                # lint: disable-next=det-global-random -- fixture
                return random.random()
            """
        )
        assert "det-global-random" not in rules_in(findings)

    def test_disable_file_suppression(self):
        findings = check(
            """
            # lint: disable-file=det-global-random -- fixture file
            import random

            def jitter():
                return random.random()

            def jitter2():
                return random.randint(0, 1)
            """
        )
        assert "det-global-random" not in rules_in(findings)

    def test_disable_all_on_line(self):
        findings = check(
            """
            import random

            def jitter():
                return random.random()  # lint: disable=all -- fixture
            """
        )
        assert findings == []

    def test_suppression_does_not_leak_to_other_lines(self):
        findings = check(
            """
            import random

            def jitter():
                a = random.random()  # lint: disable=det-global-random
                return random.random()
            """
        )
        assert "det-global-random" in rules_in(findings)

    def test_unjustified_error_suppression_notes_all_comment_kinds(self):
        for comment in (
            "import time\nx = time.time()  # lint: disable=det-wall-clock\n",
            "import time\n# lint: disable-next=det-wall-clock\nx = time.time()\n",
            "# lint: disable-file=det-wall-clock\nimport time\nx = time.time()\n",
        ):
            findings = lint_source(comment)
            assert "lint-unjustified-suppression" in rules_in(findings), comment
            assert "det-wall-clock" not in rules_in(findings)  # still suppressed

    def test_justified_error_suppression_is_silent(self):
        findings = lint_source(
            "import time\n"
            "x = time.time()  # lint: disable=det-wall-clock -- replay harness "
            "compares against recorded real time\n"
        )
        assert findings == []

    def test_crlf_suppressions_parse_and_note(self):
        source = (
            "import time\r\n"
            "x = time.time()  # lint: disable=det-wall-clock\r\n"
        )
        findings = lint_source(source)
        assert "lint-unjustified-suppression" in rules_in(findings)
        justified = source.replace(
            "det-wall-clock", "det-wall-clock -- replaying a wall-clock trace"
        )
        assert lint_source(justified) == []

    def test_warning_rule_suppression_needs_no_justification(self):
        findings = lint_source("print('hi')  # lint: disable=purity-print\n")
        assert findings == []

    def test_suppressing_the_note_itself_is_possible_with_justification(self):
        findings = lint_source(
            "import time\n"
            "# lint: disable-file=lint-unjustified-suppression -- legacy file, "
            "justifications arrive with the next cleanup\n"
            "x = time.time()  # lint: disable=det-wall-clock\n"
        )
        assert findings == []

    def test_parse_error_reported_as_finding(self):
        findings = check("def broken(:\n")
        assert rules_in(findings) == {PARSE_ERROR_RULE_ID}

    def test_severity_ordering(self):
        assert Severity.ERROR > Severity.WARNING > Severity.NOTE
        assert Severity.from_name("warning") is Severity.WARNING
        with pytest.raises(ValueError):
            Severity.from_name("fatal")

    def test_scope_path_mapping(self):
        assert scope_path_for("src/repro/sim/engine.py") == "repro/sim/engine.py"
        assert scope_path_for("tests/test_x.py") == "tests/test_x.py"
        assert scope_path_for("./src/repro/lint/core.py") == "repro/lint/core.py"
        assert scope_path_for("/root/repo/tests/test_x.py") == "tests/test_x.py"
        assert scope_path_for("/abs/path/src/repro/sim/engine.py") == "repro/sim/engine.py"

    def test_config_disable_drops_rule(self):
        config = LintConfig(disable=("det-global-random",))
        runner = LintRunner(config=config)
        findings = runner.lint_source(
            "import random\nx = random.random()\n",
            path="repro/sim/fixture.py",
            scope_path="repro/sim/fixture.py",
        )
        assert "det-global-random" not in rules_in(findings)

    def test_config_scope_override(self):
        config = LintConfig(scopes={"purity-print": ["repro/analysis"]})
        runner = LintRunner(config=config)
        findings = runner.lint_source(
            "print('hi')\n",
            path="repro/analysis/fixture.py",
            scope_path="repro/analysis/fixture.py",
        )
        assert "purity-print" in rules_in(findings)


# ---------------------------------------------------------------------------
# reporters, config parsing, CLI
# ---------------------------------------------------------------------------


class TestReportingAndCli:
    def _sample_findings(self):
        return check(
            """
            import random

            def pick(peers):
                return random.choice(peers)
            """
        )

    def test_render_text_mentions_rule_and_location(self):
        findings = self._sample_findings()
        text = render_text(findings)
        assert "det-global-random" in text
        assert "finding(s)" in text

    def test_render_json_round_trips(self):
        findings = self._sample_findings()
        payload = json.loads(render_json(findings))
        assert payload["count"] == len(findings)
        assert payload["findings"][0]["rule"] == "det-global-random"

    def test_render_text_clean(self):
        assert render_text([]) == "repro.lint: no findings"

    def test_load_config_from_pyproject(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "\n".join(
                [
                    "[tool.repro-lint]",
                    'paths = ["src"]',
                    'disable = ["purity-print"]',
                    'exclude = ["repro/vendored"]',
                    "",
                    "[tool.repro-lint.scopes]",
                    '"det-set-iteration" = ["repro/sim"]',
                ]
            )
        )
        config = load_config(str(pyproject))
        assert config.disable == ("purity-print",)
        assert not config.rule_enabled("purity-print")
        assert config.excluded("repro/vendored/thing.py")
        assert config.scope_override("det-set-iteration") == ["repro/sim"]

    def test_minimal_toml_fallback_parser(self):
        table = _parse_minimal_toml_table(
            "\n".join(
                [
                    "[tool.other]",
                    'ignored = "yes"',
                    "[tool.repro-lint]",
                    'paths = ["src", "tests"]',
                    "disable = []",
                    "[tool.repro-lint.scopes]",
                    '"purity-io" = ["repro/sim"]',
                ]
            )
        )
        assert table["paths"] == ["src", "tests"]
        assert table["disable"] == []
        assert table["scopes"] == {"purity-io": ["repro/sim"]}

    def test_minimal_toml_fallback_reads_the_repos_own_table(self):
        """The repo's scope overrides are multi-line arrays: the fallback
        (what Python < 3.11 runs) must read what ``tomllib`` reads, not
        ``'['`` — which silently scoped three rules to no file at all."""
        root = pathlib.Path(__file__).resolve().parents[1]
        text = (root / "pyproject.toml").read_text(encoding="utf-8")
        table = _parse_minimal_toml_table(text)
        assert set(table["scopes"]) == {
            "det-set-iteration", "purity-print", "purity-io"
        }
        for scope in table["scopes"].values():
            assert len(scope) > 10
            assert all(prefix.startswith("repro/") for prefix in scope)
        tomllib = pytest.importorskip("tomllib")
        assert table == tomllib.loads(text)["tool"]["repro-lint"]

    def test_cli_clean_file_exits_zero(self, tmp_path, capsys):
        from repro.lint.cli import main

        target = tmp_path / "clean.py"
        target.write_text("VALUE = 1\n")
        assert main([str(target)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_cli_violation_exits_one_and_json_reports(self, tmp_path, capsys):
        from repro.lint.cli import main

        target = tmp_path / "src" / "repro" / "sim" / "dirty.py"
        target.parent.mkdir(parents=True)
        target.write_text("import random\nx = random.random()\n")
        assert main([str(target), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] >= 1

    def test_cli_select_limits_rules(self, tmp_path, capsys):
        from repro.lint.cli import main

        target = tmp_path / "src" / "repro" / "sim" / "dirty.py"
        target.parent.mkdir(parents=True)
        target.write_text("import random\nx = random.random()\nprint(x)\n")
        assert main([str(target), "--select", "purity-print"]) == 1
        out = capsys.readouterr().out
        assert "purity-print" in out
        assert "det-global-random" not in out

    def test_cli_typoed_path_is_a_usage_error(self, tmp_path, capsys):
        from repro.lint.cli import main

        assert main([str(tmp_path / "no-such-dir")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_cli_unknown_rule_id_is_a_usage_error(self, capsys):
        from repro.lint.cli import main

        assert main(["--select", "det-globl-random"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_cli_list_rules(self, capsys):
        from repro.lint.cli import main

        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for family in ("det-", "enclave-", "crypto-", "purity-"):
            assert family in out

    def test_repro_cli_forwards_to_lint(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "clean.py"
        target.write_text("VALUE = 1\n")
        assert main(["lint", str(target)]) == 0
        assert "no findings" in capsys.readouterr().out
