"""The docstring audit audits file arguments and rejects empty matches."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_docstrings.py"


@pytest.fixture(scope="module")
def audit():
    spec = importlib.util.spec_from_file_location("check_docstrings", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_a_file_argument_is_audited_as_itself(audit, tmp_path, capsys):
    documented = tmp_path / "documented.py"
    documented.write_text('"""Module."""\n\n\ndef f():\n    """Doc."""\n    return 1\n')
    bare = tmp_path / "bare.py"
    bare.write_text('"""Module."""\n\n\ndef f():\n    return 1\n')

    assert audit([str(documented)]) == 0
    assert "docstrings ok: 1 file(s) audited" in capsys.readouterr().out
    assert audit([str(bare)]) == 1
    assert "undocumented public function 'f'" in capsys.readouterr().out


def test_an_argument_matching_no_python_file_fails(audit, tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("not python\n")
    for argument in (tmp_path / "missing.py", tmp_path / "notes.txt", tmp_path):
        assert audit([str(argument)]) != 0
        assert "no .py file to audit" in capsys.readouterr().out
