"""The README's library quick tour must run as written, the entry points it
names must exist, and its per-command config bullets must match the fields
each kind reads."""

import re
from pathlib import Path

import adaptnc
from adaptnc import ExperimentConfig
from adaptnc.config import KIND_FIELDS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_quick_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
    summary, table = namespace["summary"], namespace["table"]
    assert abs(summary.mean - table.value[30]) < 5 * summary.stderr


def test_named_entry_points_exist():
    listed = re.search(r"Multi-flow entry points\s+are (.*?)\.\n", README, flags=re.S)
    assert listed
    names = re.findall(r"`(\w+)`", listed.group(1))
    assert len(names) == 5
    for name in names:
        assert hasattr(adaptnc, name), name


def test_command_bullets_name_the_fields_each_kind_reads():
    top_level = set(ExperimentConfig.__dataclass_fields__) - {"kind", "seed", "out"}
    for kind, read in KIND_FIELDS.items():
        bullet = re.search(rf"^- `{kind}`: (.*?)\n(?!  )", README, flags=re.S | re.M)
        assert bullet, kind
        named = set(re.findall(r"`(\w+)`", bullet.group(1))) & top_level
        assert named == set(read), kind


def test_layout_lists_every_module():
    layout = re.search(r"^## Layout\n+```\n(.*?)```", README, flags=re.S | re.M)
    assert layout
    listed = set(re.findall(r"^  (\w+\.py) ", layout.group(1), flags=re.M))
    package = Path(adaptnc.__file__).parent
    assert listed == {p.name for p in package.glob("*.py")} - {"__init__.py"}
