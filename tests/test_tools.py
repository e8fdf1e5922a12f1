import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
_spec = importlib.util.spec_from_file_location("same_output", ROOT / "tools" / "same_output.py")
same_output = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_output)
_spec = importlib.util.spec_from_file_location("faults", ROOT / "tools" / "faults.py")
faults = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(faults)
_spec = importlib.util.spec_from_file_location("bench_lines", ROOT / "tools" / "bench_lines.py")
bench_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_lines)


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


class TestFaults:
    def test_one_row_per_line_in_order(self, tmp_path, capsys):
        """The lines run in order in one directory (the certificate file the
        second writes is read by the third), with a file copied in first."""
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        (inputs / "k22.edges").write_text("4 4\n0 2\n0 3\n1 2\n1 3\n")
        lines = readme_lines()[1:] + ["homreflect h2k --host k22.edges --k 1"]
        cmdfile = tmp_path / "lines.txt"
        cmdfile.write_text("\n".join(lines) + "\n")
        assert faults.main([str(SRC), str(cmdfile), "--inputs", str(inputs)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == len(lines) + 2
        for line, row in zip(lines, rows[1:]):
            wall, minflt, code, command = row.split(maxsplit=3)
            assert (command, code) == (line, "0") and float(wall) > 0 and int(minflt) >= 0
        assert rows[-1].endswith(f"total of {len(lines)} lines")

    def test_a_child_that_fails_is_counted(self, tmp_path, capsys):
        cmdfile = tmp_path / "lines.txt"
        cmdfile.write_text("homreflect h2k --host q3 --k 1\n")
        assert faults.main([str(tmp_path / "nowhere"), str(cmdfile)]) == 1
        assert "(no result)" in capsys.readouterr().out


class TestBenchLines:
    def test_every_operation_one_line_with_its_inputs(self, tmp_path, capsys):
        inputs = tmp_path / "inputs"
        assert bench_lines.main(["1", str(inputs)]) == 0
        lines = same_output.command_lines(inputs / "lines.txt")
        assert len(lines) == 23
        named = [word for line in lines for word in line.split() if word.startswith("op")]
        assert len(named) == 12 and all((inputs / name).is_file() for name in named)
        assert len(set(named)) == len(named)
        # an edge-list host and a coloured one, each against the checkout itself
        two = [line for line in lines if line.startswith(("homreflect verify section2 "
                                                          "--pattern q3 --host op8_",
                                                          "homreflect verify section3 --k 2"))]
        assert len(two) == 2
        cmdfile = tmp_path / "two.txt"
        cmdfile.write_text("\n".join(two) + "\n")
        capsys.readouterr()
        assert same_output.main([str(SRC), str(SRC), str(cmdfile), "--inputs", str(inputs)]) == 0
        assert capsys.readouterr().out == "4 runs per tree, 0 with differences\n"
