"""Test-side sweep text: load_csv reads back what sweep.emit_csv wrote, and
serialize_spec writes the config text that config.parse_config reads."""

from fdcran.config import _BASE_KEYS, SweepSpec
from fdcran.model import SchemeId
from fdcran.sweep import CSV_COLUMNS, ORACLE_COLUMNS, SweepRow


def load_csv(path) -> list[SweepRow]:
    """Parse a CSV produced by emit_csv back into rows (NA becomes None)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    header = lines[0].split(",")
    if tuple(header[: len(CSV_COLUMNS)]) != CSV_COLUMNS:
        raise ValueError(f"{path}: unexpected header {header!r}")
    rows = []
    for line in lines[1:]:
        record = dict(zip(header, line.split(",")))
        numbers = {
            name: None if record.get(name, "NA") == "NA" else float(record[name])
            for name in CSV_COLUMNS[3:] + ORACLE_COLUMNS
        }
        scheme = SchemeId(record["scheme"])
        rows.append(SweepRow(record["sweep_var"], float(record["value"]), scheme, **numbers))
    return rows


def serialize_spec(spec: SweepSpec) -> str:
    """Canonical config text for a spec; parse_config round-trips every field
    but oracle, which only --verify sets."""
    lines = []
    for key, attr in _BASE_KEYS.items():
        lines.append(f"{key} = {getattr(spec.base, attr)!r}")
    lines.append(f"sweep.var = {spec.sweep_var}")
    lines.append(f"sweep.start = {spec.start!r}")
    lines.append(f"sweep.stop = {spec.stop!r}")
    lines.append(f"sweep.step = {spec.step!r}")
    lines.append("schemes = " + ", ".join(s.value for s in spec.schemes))
    return "\n".join(lines) + "\n"
