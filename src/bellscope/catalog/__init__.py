"""Built-in inequality catalog: ten inequalities with reference thresholds and
reference near-optimal measurements for the five strongest entries.

A catalog is a directory of ``<name>.cg`` inequality files, optional
``<name>.meas`` measurement files, and an optional ``table1.tsv`` with
reference threshold metadata.  This package directory is the shipped catalog;
the ``BELLSCOPE_CATALOG`` environment variable points at a replacement.
"""
from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ..chsh import alpha_max_chsh
from ..inequality import BellInequality, CgParseError, _parse_file, load_cg
from ..quantum import MeasurementSet, alpha_crossing, load_measurements

APPENDIX_NAMES = ("A28", "A27", "A5", "A56", "A8")
_SERIAL_ALIAS = re.compile(r"(A\d+)_(\w+)")  # e.g. A2_CHSH: serial name A2, alias CHSH


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    name: str                       # file stem, e.g. "A2_CHSH"
    alias: Optional[str]            # e.g. "CHSH"
    inequality: BellInequality
    table_alpha_max: Optional[float]  # paper-reported upper bound, reference only
    cut_facet: Optional[str]        # descriptive provenance metadata
    meas_path: Optional[Path]

    def measurements(self) -> tuple[MeasurementSet, MeasurementSet]:
        if self.meas_path is None:
            raise ValueError(f"no measurement data shipped for {self.name}")
        return load_measurements(self.meas_path, self.inequality.m_a, self.inequality.m_b)


@dataclass(frozen=True, eq=False)
class AppendixReport:
    """Consistency check of one shipped measurement set against the reference
    threshold: endpoint violations, the zero crossing, and its distance from
    the reported value."""

    name: str
    v0: float
    v1: float
    crossing: float
    table_value: Optional[float]
    delta: Optional[float]


def default_catalog_dir() -> Path:
    env = os.environ.get("BELLSCOPE_CATALOG")
    return Path(env) if env else Path(__file__).parent


def _natural_key(name: str):
    return [int(p) if p.isdigit() else p for p in re.split(r"(\d+)", name)]


def _read_table(path: Path) -> dict[str, tuple[Optional[float], Optional[str]]]:
    return _parse_file(path, _parse_table) if path.exists() else {}


def _parse_table(text: str) -> dict[str, tuple[Optional[float], Optional[str]]]:
    table = {}
    for lineno, line in enumerate(text.splitlines()[1:], start=2):
        if not line.strip():
            continue
        name, alpha, facet, *_ = line.split("\t") + ["", ""]
        try:
            table[name] = (float(alpha) if alpha.strip() else None, facet.strip() or None)
        except ValueError as exc:
            raise CgParseError(str(exc), lineno) from None
    return table


def _scan(directory) -> tuple[Path, list[Path]]:
    directory = Path(directory) if directory is not None else default_catalog_dir()
    if not directory.is_dir():
        raise FileNotFoundError(f"catalog directory {directory} does not exist")
    return directory, sorted(directory.glob("*.cg"), key=lambda p: _natural_key(p.stem))


def _keys(name: str) -> set[str]:
    """An entry's lookup keys: full name, serial name and alias, lower-cased."""
    m = _SERIAL_ALIAS.fullmatch(name)
    return {k.lower() for k in (name, *(m.groups() if m else ()))}


def _read_entry(path: Path, table) -> CatalogEntry:
    m = _SERIAL_ALIAS.fullmatch(path.stem)
    alpha, facet = table.get(path.stem, (None, None))
    meas = path.with_suffix(".meas")
    return CatalogEntry(path.stem, m.group(2) if m else None, load_cg(path), alpha, facet,
                        meas if meas.exists() else None)


def load_catalog(directory=None) -> list[CatalogEntry]:
    """All inequalities of a catalog directory in natural name order."""
    directory, paths = _scan(directory)
    table = _read_table(directory / "table1.tsv")
    entries = [_read_entry(path, table) for path in paths]
    if not entries:
        raise FileNotFoundError(f"no .cg files in catalog directory {directory}")
    return entries


def find_entry(entries: list[CatalogEntry], key: str) -> CatalogEntry:
    """Look an entry up by full name, serial name, or alias (case-insensitive)."""
    for e in entries:
        if key.lower() in _keys(e.name):
            return e
    raise KeyError(f"no catalog entry matches {key!r}")


def _entry_path(key: str, directory=None) -> Path:
    """The ``.cg`` file of the entry ``find_entry`` would match to ``key``."""
    for path in _scan(directory)[1]:
        if key.lower() in _keys(path.stem):
            return path
    raise KeyError(f"no catalog entry matches {key!r}")


def _load_entry(key: str, directory=None) -> CatalogEntry:
    """``find_entry(load_catalog(directory), key)``, parsing only that entry."""
    path = _entry_path(key, directory)
    return _read_entry(path, _read_table(path.parent / "table1.tsv"))


def _load_inequality(key: str, directory=None) -> BellInequality:
    """The named entry's inequality, parsing only its ``.cg`` file."""
    return load_cg(_entry_path(key, directory))


def verify_appendix(name: str, directory=None) -> AppendixReport:
    """Rebuild the shipped measurements for one entry and locate the alpha
    where their violation curve crosses zero."""
    return _appendix_report(_load_entry(name, directory))


def _appendix_report(entry: CatalogEntry) -> AppendixReport:
    if entry.meas_path is None:
        raise KeyError(f"{entry.name} has no shipped measurement data")
    a, b = entry.measurements()
    cr = alpha_crossing(entry.inequality, a.d, a, b)
    delta = abs(cr.alpha - entry.table_alpha_max) if entry.table_alpha_max is not None else None
    return AppendixReport(entry.name, cr.v0, cr.v1, cr.alpha, entry.table_alpha_max, delta)


@dataclass(frozen=True, eq=False)
class RelevanceRow:
    name: str
    crossing: float
    table_value: Optional[float]
    margin: float  # gap below the proven d=3 CHSH threshold; positive = relevant


def relevance_summary(directory=None) -> list[RelevanceRow]:
    """Crossing alphas of the five strong entries next to the CHSH threshold.

    A crossing strictly below the proven CHSH value exhibits an isotropic
    state that satisfies CHSH for all measurements yet violates the entry, so
    a positive margin certifies relevance to CHSH at d=3.
    """
    chsh_alpha = alpha_max_chsh(3)
    entries = load_catalog(directory)
    rows = []
    for name in APPENDIX_NAMES:
        rep = _appendix_report(find_entry(entries, name))
        rows.append(RelevanceRow(rep.name, rep.crossing, rep.table_value,
                                 chsh_alpha - rep.crossing))
    chsh = find_entry(entries, "CHSH")
    rows.append(RelevanceRow(chsh.name, chsh_alpha, chsh.table_alpha_max, 0.0))
    return rows
