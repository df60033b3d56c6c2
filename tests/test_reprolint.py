"""reprolint: rule firing, suppression syntax, CLI exit codes, repo gate.

The fixture files under ``tests/lint_fixtures/`` each trigger exactly
one rule (fixtures opt into roles with the ``module-role=`` pragma);
``clean.py`` opts into *every* role and triggers nothing.  The final
test lints the actual repo with the shipped configuration, making lint
cleanliness part of tier-1 by construction.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # tools/ lives at the repo root, not src/
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import run_lint  # noqa: E402
from tools.reprolint.cli import main as reprolint_main  # noqa: E402
from tools.reprolint.core import registered_rules  # noqa: E402
from tools.reprolint.project import DEFAULT_CONFIG, LintConfig  # noqa: E402
from tools.reprolint.reporters import render_json, render_text  # noqa: E402

FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"

VIOLATION_FIXTURES = [
    ("rng_violation.py", "rng-discipline"),
    ("rng_alias_violation.py", "rng-discipline"),
    ("hotpath_violation.py", "hot-path-purity"),
    ("dtype_violation.py", "dtype-discipline"),
    ("pickle_violation.py", "pickle-safety"),
    ("ab_violation.py", "ab-equivalence"),
    ("simtime_violation.py", "sim-time-hygiene"),
    ("typedcore_violation.py", "typed-core"),
    ("poolhygiene_violation.py", "pool-hygiene"),
    ("bare_suppression.py", "bare-suppression"),
]


def lint_fixture(name: str, **kwargs):
    return run_lint([FIXTURES / name], root=REPO_ROOT, **kwargs)


class TestRuleFiring:
    @pytest.mark.parametrize("fixture, rule", VIOLATION_FIXTURES)
    def test_fixture_triggers_exactly_its_rule(self, fixture, rule):
        result = lint_fixture(fixture)
        assert result.violations, f"{fixture} should violate {rule}"
        assert {v.rule for v in result.violations} == {rule}

    def test_clean_fixture_is_clean_under_every_role(self):
        assert lint_fixture("clean.py").clean

    def test_registry_exposes_all_issue_rules(self):
        names = set(registered_rules())
        assert {
            "rng-discipline",
            "hot-path-purity",
            "dtype-discipline",
            "pickle-safety",
            "ab-equivalence",
            "sim-time-hygiene",
            "typed-core",
        } <= names

    def test_violations_carry_location_and_render(self):
        result = lint_fixture("dtype_violation.py")
        violation = result.violations[0]
        assert violation.path.endswith("lint_fixtures/dtype_violation.py")
        assert violation.line > 1
        assert f":{violation.line}: [dtype-discipline]" in violation.render()


class TestRngDiscipline:
    def test_aliased_numpy_random_imports_are_flagged(self):
        result = lint_fixture("rng_alias_violation.py")
        assert [v.line for v in result.violations] == [3, 4]

    @pytest.mark.parametrize(
        "source",
        [
            "import numpy.random\n",
            "import numpy.random as npr\n",
            "import numpy.random.bit_generator\n",
            "from numpy import random\n",
            "from numpy import linalg, random as nr\n",
            "from numpy.random import default_rng\n",
        ],
    )
    def test_every_numpy_random_import_form_is_flagged(self, tmp_path, source):
        target = tmp_path / "module.py"
        target.write_text(source, encoding="utf-8")
        result = run_lint([target], root=tmp_path)
        assert [v.rule for v in result.violations] == ["rng-discipline"]

    @pytest.mark.parametrize(
        "source",
        [
            "import numpy as np\nrng: np.random.Generator\n",
            "import numpy\nfrom numpy import linalg\n",
            "import numpy.linalg\n",
        ],
    )
    def test_plain_numpy_imports_are_clean(self, tmp_path, source):
        target = tmp_path / "module.py"
        target.write_text(source, encoding="utf-8")
        assert run_lint([target], root=tmp_path).clean

    def test_rng_home_may_import_numpy_random(self, tmp_path):
        target = tmp_path / "src" / "repro" / "utils" / "rng.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "from __future__ import annotations\n"
            "from numpy.random.bit_generator import ISeedSequence\n",
            encoding="utf-8",
        )
        assert run_lint([target], root=tmp_path).clean


class TestPoolHygiene:
    def test_thread_pools_are_flagged_under_any_name(self):
        result = lint_fixture("poolhygiene_violation.py")
        flagged = [v.line for v in result.violations if "ThreadPoolExecutor" in v.message]
        assert flagged == [14, 22, 23]  # direct, aliased, module-qualified
        assert len(result.violations) == 5  # plus the .map() and the bare .result()

    def test_thread_pools_outside_pool_modules_are_clean(self, tmp_path):
        target = tmp_path / "src" / "repro" / "soc" / "module.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "from __future__ import annotations\n"
            "from concurrent.futures import ThreadPoolExecutor\n"
            "pool = ThreadPoolExecutor(max_workers=2)\n",
            encoding="utf-8",
        )
        assert run_lint([target], root=tmp_path).clean


class TestHotPathWhitelist:
    def test_stale_whitelist_entry_is_reported(self, tmp_path):
        target = tmp_path / "kernel.py"
        target.write_text(
            "def scalar_helper(frames):\n"
            "    for frame in frames:\n"
            "        yield frame\n",
            encoding="utf-8",
        )

        def lint(*names):
            config = LintConfig(columnar_modules={"kernel.py": frozenset(names)})
            return run_lint([target], root=tmp_path, config=config)

        result = lint("scalar_helper", "deleted_helper")
        assert [v.rule for v in result.violations] == ["hot-path-purity"]
        assert "'deleted_helper'" in result.violations[0].message
        # Dropping the stale entry leaves the live one sanctioning its loop.
        assert lint("scalar_helper").clean
        assert [v.rule for v in lint().violations] == ["hot-path-purity"]


class TestSuppressionSyntax:
    def test_justified_suppression_silences_the_rule(self):
        assert lint_fixture("suppressed.py").clean

    def test_bare_suppression_is_flagged_but_still_honoured(self):
        result = lint_fixture("bare_suppression.py")
        # The dtype violation is suppressed; the missing justification
        # is the only thing reported.
        assert {v.rule for v in result.violations} == {"bare-suppression"}

    def test_standalone_comment_covers_next_code_line(self, tmp_path):
        target = tmp_path / "module.py"
        target.write_text(
            "# reprolint: module-role=kernel\n"
            "import numpy as np\n"
            "# reprolint: disable=dtype-discipline -- fixture checks standalone scope\n"
            "buf = np.zeros(4)\n",
            encoding="utf-8",
        )
        assert run_lint([target], root=tmp_path).clean

    def test_disable_file_covers_the_whole_module(self, tmp_path):
        target = tmp_path / "module.py"
        target.write_text(
            "# reprolint: module-role=kernel\n"
            "# reprolint: disable-file=dtype-discipline -- fixture checks file scope\n"
            "import numpy as np\n"
            "a = np.zeros(4)\n"
            "b = np.empty(8)\n",
            encoding="utf-8",
        )
        assert run_lint([target], root=tmp_path).clean

    def test_unknown_rule_in_suppression_is_flagged(self, tmp_path):
        target = tmp_path / "module.py"
        target.write_text(
            "x = 1  # reprolint: disable=no-such-rule -- justified but bogus\n",
            encoding="utf-8",
        )
        result = run_lint([target], root=tmp_path)
        assert [v.rule for v in result.violations] == ["bare-suppression"]
        assert "no-such-rule" in result.violations[0].message

    def test_pragma_inside_docstring_is_inert(self, tmp_path):
        # Quoting the syntax in a docstring must neither suppress nor
        # assign roles — only real comment tokens carry pragmas.
        target = tmp_path / "module.py"
        target.write_text(
            '"""Docs quoting `# reprolint: module-role=kernel` syntax."""\n'
            "import numpy as np\n"
            "buf = np.zeros(4)\n",
            encoding="utf-8",
        )
        assert run_lint([target], root=tmp_path).clean  # no kernel role

    def test_syntax_error_reports_parse_error(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n", encoding="utf-8")
        result = run_lint([target], root=tmp_path)
        assert [v.rule for v in result.violations] == ["parse-error"]


class TestABCoverage:
    def test_forwarded_literals_count_as_coverage(self, tmp_path):
        src = tmp_path / "gateway.py"
        src.write_text(
            "def monitor(duration, engine='columnar'):\n"
            "    return (duration, engine)\n",
            encoding="utf-8",
        )
        test = tmp_path / "test_gateway.py"
        test.write_text(
            "from gateway import monitor\n"
            "def test_engines_agree():\n"
            "    def report_for(engine):\n"
            "        return monitor(1.0, engine=engine)\n"
            "    assert report_for('columnar') == report_for('event')\n",
            encoding="utf-8",
        )
        assert run_lint([src], tests=[test], root=tmp_path).clean

    def test_literals_inside_an_options_object_count_as_coverage(self, tmp_path):
        src = tmp_path / "sweep.py"
        src.write_text(
            "def sweep(options=None, engine=None):\n"
            "    return (options, engine)\n",
            encoding="utf-8",
        )
        test = tmp_path / "test_sweep.py"
        test.write_text(
            "from sweep import Options, sweep\n"
            "def test_engines_agree():\n"
            "    columnar = sweep(options=Options(engine='columnar'))\n"
            "    assert columnar == sweep(options=Options(engine='event'))\n",
            encoding="utf-8",
        )
        assert run_lint([src], tests=[test], root=tmp_path).clean

    def test_default_counts_only_for_the_default_side(self, tmp_path):
        src = tmp_path / "gateway.py"
        src.write_text(
            "def monitor(duration, engine='columnar'):\n"
            "    return (duration, engine)\n",
            encoding="utf-8",
        )
        test = tmp_path / "test_gateway.py"
        test.write_text(
            "from gateway import monitor\n"
            "def test_monitor():\n"
            "    assert monitor(1.0)\n",
            encoding="utf-8",
        )
        result = run_lint([src], tests=[test], root=tmp_path)
        assert [v.rule for v in result.violations] == ["ab-equivalence"]
        assert "engine='event'" in result.violations[0].message

    def test_repo_has_no_uncovered_switches(self):
        result = run_lint(
            [REPO_ROOT / "src"],
            tests=[REPO_ROOT / "tests", REPO_ROOT / "benchmarks"],
            root=REPO_ROOT,
            rules=["ab-equivalence"],
        )
        assert result.clean, render_text(result)

    def test_every_required_switch_is_a_public_parameter(self):
        # A switch no public callable exposes is a stale entry: the rule
        # would silently check nothing for it.
        parameters: set[str] = set()
        for path in (REPO_ROOT / "src").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    node.name.startswith("_")
                ):
                    args = node.args
                    parameters.update(
                        a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
                    )
        stale = sorted(set(DEFAULT_CONFIG.ab_required) - parameters)
        assert not stale, f"ab_required names switches no public callable exposes: {stale}"


class TestCLI:
    def test_exit_zero_on_clean(self, capsys):
        assert reprolint_main([str(FIXTURES / "clean.py"), "--root", str(REPO_ROOT)]) == 0
        assert "clean" in capsys.readouterr().out

    @pytest.mark.parametrize("fixture, rule", VIOLATION_FIXTURES)
    def test_exit_nonzero_on_each_violation_fixture(self, capsys, fixture, rule):
        code = reprolint_main([str(FIXTURES / fixture), "--root", str(REPO_ROOT)])
        assert code == 1
        assert f"[{rule}]" in capsys.readouterr().out

    def test_unknown_rule_is_a_usage_error(self, capsys):
        code = reprolint_main(
            [str(FIXTURES / "clean.py"), "--rules", "no-such-rule"]
        )
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert reprolint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "rng-discipline" in out and "ab-equivalence" in out

    def test_json_report_and_artifact(self, capsys, tmp_path):
        artifact = tmp_path / "report.json"
        code = reprolint_main(
            [
                str(FIXTURES / "dtype_violation.py"),
                "--root",
                str(REPO_ROOT),
                "--format",
                "json",
                "--json-output",
                str(artifact),
            ]
        )
        assert code == 1
        stdout_payload = json.loads(capsys.readouterr().out)
        artifact_payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert stdout_payload == artifact_payload
        assert artifact_payload["summary"]["clean"] is False
        assert artifact_payload["summary"]["by_rule"] == {"dtype-discipline": 1}
        assert artifact_payload["violations"][0]["rule"] == "dtype-discipline"

    def test_json_renderer_on_clean_result(self):
        payload = json.loads(render_json(lint_fixture("clean.py")))
        assert payload["summary"]["clean"] is True
        assert payload["violations"] == []


class TestRepoGate:
    def test_repo_is_clean_under_the_shipped_config(self):
        """The exact gate scripts/lint.sh and CI run — must stay green."""
        result = run_lint(
            [
                REPO_ROOT / "src",
                REPO_ROOT / "tools",
                REPO_ROOT / "scripts",
                REPO_ROOT / "benchmarks",
            ],
            tests=[REPO_ROOT / "tests"],
            root=REPO_ROOT,
        )
        assert result.clean, render_text(result)
