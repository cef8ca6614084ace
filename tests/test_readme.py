import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_prints_what_it_claims():
    # The README's one Python block; its comments claim the two True lines.
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(blocks[0], {"__name__": "readme"})
    assert out.getvalue().splitlines() == ["246 edges added of 270 legal alone", "True", "True"]
