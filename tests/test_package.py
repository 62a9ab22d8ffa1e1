import os
import subprocess
import sys
from pathlib import Path

import pytest

import qflag3

ROOT = Path(__file__).parent.parent
DEMOS = ("01_exterior_algebra", "02_pairing_engine", "03_geometry_and_kahler")


def test_every_exported_name_resolves():
    for name in qflag3.__all__:
        assert hasattr(qflag3, name), name


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_is_unchanged(demo):
    # each demo prints exactly its recorded output
    result = subprocess.run([sys.executable, str(ROOT / "demos" / (demo + ".py"))],
                            capture_output=True, env=dict(os.environ), timeout=300)
    assert result.returncode == 0, result.stderr.decode()
    recorded = (Path(__file__).parent / "data" / ("demo_%s.txt" % demo)).read_bytes()
    assert result.stdout == recorded
