"""Byte-for-byte pins of the bundled campaigns' stores and tables.

``tests/data/<spec>/`` holds what a cold run of a bundled spec writes:
its result store (every stage's allocation, so the pilot/refine
schedule itself is pinned, not only the tables the schedule produces),
its ``--output`` tables and, for ``ci_smoke``, the ``/jobs/<id>/tables``
body of the same spec served by ``repro serve``.  Each test regenerates
the files into a temporary directory and compares them byte for byte;
a difference means the change moved a sampled number or a stored
record.  Regenerate the corpus (only when a change is *meant* to move
it) from the repository root with::

    rm -rf tests/data/ci_smoke tests/data/scenario_fuzz
    PYTHONPATH=src python -m repro campaign ci_smoke \\
        --store tests/data/ci_smoke/store.jsonl --output tests/data/ci_smoke
    PYTHONPATH=src python -m repro campaign scenario_fuzz \\
        --store tests/data/scenario_fuzz/store.jsonl \\
        --output tests/data/scenario_fuzz
    PYTHONPATH=src python -c "
    from repro.service import ServiceClient, ServiceThread
    import tempfile, pathlib
    with ServiceThread(pathlib.Path(tempfile.mkdtemp()) / 's.jsonl') as s:
        client = ServiceClient(s.url)
        job = client.submit('ci_smoke')['job']
        client.wait(job)
        pathlib.Path('tests/data/ci_smoke/served_tables.json').write_bytes(
            client.tables_bytes(job))
    "
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.service import ServiceClient, ServiceThread

CORPUS = Path(__file__).resolve().parent / "data"
SERVED = "served_tables.json"


def assert_same_files(expected_dir: Path, actual_dir: Path,
                      names: list[str]) -> None:
    for name in names:
        assert (actual_dir / name).read_bytes() == \
            (expected_dir / name).read_bytes(), name


@pytest.mark.parametrize("spec", ["ci_smoke", "scenario_fuzz"])
def test_cli_run_reproduces_the_corpus(spec, tmp_path, capsys):
    expected = CORPUS / spec
    assert main(["campaign", spec, "--store", str(tmp_path / "store.jsonl"),
                 "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in expected.iterdir()
                             if path.name != SERVED)
    assert_same_files(expected, tmp_path, written)


def test_served_job_reproduces_the_corpus(tmp_path):
    expected = CORPUS / "ci_smoke"
    with ServiceThread(tmp_path / "store.jsonl") as service:
        client = ServiceClient(service.url)
        job = client.submit("ci_smoke")["job"]
        assert client.wait(job)["state"] == "done"
        (tmp_path / SERVED).write_bytes(client.tables_bytes(job))
    assert_same_files(expected, tmp_path, ["store.jsonl", SERVED])
