"""README's library example runs as written, on fewer paths."""

import os

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_python_example_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        block = fh.read().split("```python\n", 1)[1].split("```", 1)[0]
    # the example's ensemble is sized for a demonstration; 200 paths
    # exercise the same calls
    assert block.count("n_paths=10_000") == 1
    small = block.replace("n_paths=10_000", "n_paths=200")
    exec(compile(small, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "regime 1 (local): PASS"
    assert out[-1].startswith("200 [")
