import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
_spec = importlib.util.spec_from_file_location("same_output", ROOT / "tools" / "same_output.py")
same_output = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_output)


def readme_lines() -> list[str]:
    """Three lines of the README block: a graph file written, a certificate
    file written, and a report on stdout that reads it."""
    lines = same_output.readme_lines()
    return [next(line for line in lines if line.startswith(start))
            for start in ("homreflect gen --graph q3 ", "homreflect certify --graph q3 --r0",
                          "homreflect check-cert ")]


class TestSameOutput:
    def test_checkout_against_itself(self, tmp_path, capsys):
        cmdfile = tmp_path / "lines.txt"
        cmdfile.write_text("# three commands\n\n" + "\n".join(readme_lines()) + "\n")
        assert same_output.main([str(SRC), str(SRC), str(cmdfile)]) == 0
        assert capsys.readouterr().out == "6 runs per tree, 0 with differences\n"

    @pytest.mark.parametrize("change, shown", [
        ("version", "stdout, first different line"),
        ("certificate", "file cert.json: differs"),
    ])
    def test_a_changed_tree_differs(self, tmp_path, capsys, change, shown):
        changed = tmp_path / "src"
        shutil.copytree(SRC / "homreflect", changed / "homreflect",
                        ignore=shutil.ignore_patterns("__pycache__"))
        if change == "version":
            init = changed / "homreflect" / "__init__.py"
            init.write_text(init.read_text().replace('__version__ = "', '__version__ = "9'))
        else:
            module = changed / "homreflect" / "reflectivity.py"
            text = module.read_text()
            module.write_text(text.replace("def certificate_to_json(cert", "def _old_to_json(cert")
                              + "\n\ndef certificate_to_json(cert):\n"
                                "    return _old_to_json(cert) + ' '\n")
        cmdfile = tmp_path / "lines.txt"
        cmdfile.write_text("\n".join(readme_lines()) + "\n")
        assert same_output.main([str(SRC), str(changed), str(cmdfile)]) == 1
        assert shown in capsys.readouterr().out
