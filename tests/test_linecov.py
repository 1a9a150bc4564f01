"""linecov's line collector on a small module of its own."""

import importlib.util
import textwrap

from linecov import LineCollector


def test_collector_reports_the_branch_never_taken(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(textwrap.dedent("""\
        class Sign:
            @staticmethod
            def of(x):
                if x < 0:
                    return -1
                return 1
        """))
    spec = importlib.util.spec_from_file_location("linecov_sample", path)
    module = importlib.util.module_from_spec(spec)
    with LineCollector(tmp_path) as collector:
        spec.loader.exec_module(module)
        assert module.Sign.of(2) == 1
    assert [(number, text.strip()) for number, text in collector.unrun(path)] == [(5, "return -1")]
