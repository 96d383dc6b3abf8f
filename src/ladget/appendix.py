"""Loader and checker for the bundled minimal-ladget table.

The table ships as a versioned TSV data file (function, graph6, anchor,
output, input1, input2) whose header pins the vertex index base.  Checking
re-verifies every row from scratch: decode, filter, universality,
consistency, classification against the named function.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import LadgetError
from .gadget import GadgetConfig, verify_ladget
from .graphcore import RoleLabeling, decode_graph6

DEFAULT_TABLE = "appendix_a.tsv"


@dataclass(frozen=True)
class AppendixEntry:
    function: str
    graph6: str
    anchor: int
    output: int
    inputs: tuple[int, ...]

    def config(self, one_based: bool = False) -> GadgetConfig:
        g = decode_graph6(self.graph6)
        roles = RoleLabeling.from_ids(
            self.anchor, self.inputs, self.output, base=int(one_based)
        )
        return GadgetConfig(g, roles)


def _default_table_text() -> str:
    return (
        resources.files("ladget")
        .joinpath("data", DEFAULT_TABLE)
        .read_text(encoding="utf-8")
    )


def load_table(path: str | Path | None = None) -> tuple[list[AppendixEntry], dict]:
    """Parse the bundled table (or an override file).  Returns the entries
    plus metadata from the header comments (notably index_base)."""
    text = (
        Path(path).read_text(encoding="utf-8")
        if path is not None
        else _default_table_text()
    )
    entries = []
    meta = {"index_base": 0}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.lower().startswith("index-base:"):
                base = body.split(":", 1)[1].strip()
                if base not in ("0", "1"):
                    raise ValueError(
                        f"table line {lineno}: index-base must be 0 or 1, "
                        f"got {base!r}"
                    )
                meta["index_base"] = int(base)
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise ValueError(
                f"table line {lineno}: expected 6 tab-separated fields, "
                f"got {len(parts)}"
            )
        fn, g6, *ids = parts
        try:
            a0, th, i1, i2 = map(int, ids)
        except ValueError:
            raise ValueError(
                f"table line {lineno}: vertex ids must be integers"
            ) from None
        entries.append(AppendixEntry(fn, g6, a0, th, (i1, i2)))
    return entries, meta


@dataclass(frozen=True)
class RowResult:
    entry: AppendixEntry
    ok: bool
    detail: str


def check_entry(entry: AppendixEntry, one_based: bool = False) -> RowResult:
    """Re-verify one table row as a minimal ladget of its named function."""
    try:
        cfg = entry.config(one_based=one_based)
    except LadgetError as exc:
        return RowResult(entry, False, f"{type(exc).__name__}: {exc}")
    report = verify_ladget(cfg, target=entry.function, minimal_mode=True)
    if report.ok:
        detail = "ok"
    elif not report.structural.passed:
        detail = "structural: " + ",".join(report.structural.violations)
    elif not report.universality.passed:
        detail = f"universality fails at {report.universality.failing_tuple}"
    elif report.consistency is not None and not report.consistency.passed:
        detail = "consistency fails"
    else:
        got = (
            report.classification.name
            if report.classification is not None
            else "?"
        )
        detail = f"classified as {got}, wanted {entry.function}"
    return RowResult(entry, report.ok, detail)


def check_table(
    entries: list[AppendixEntry],
    function: str | None = None,
    one_based: bool = False,
) -> list[RowResult]:
    wanted = [
        e for e in entries if function is None or e.function == function
    ]
    return [check_entry(e, one_based=one_based) for e in wanted]
