"""Plain-text table rendering for analysis outputs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class Table:
    """A monospace table with a title, headers, and stringable rows."""

    title: str
    headers: Sequence[str]
    rows: list[Sequence[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(cells)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        cells = [[str(c) for c in row] for row in self.rows]
        widths = [len(h) for h in self.headers]
        for row in cells:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, "=" * max(len(self.title), 1)]
        header = " | ".join(h.ljust(w) for h, w in zip(self.headers, widths))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in cells:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def percentage(numerator: float, denominator: float, digits: int = 2) -> str:
    """'12.34' style percentage cell; '-' when the denominator is zero."""
    if not denominator:
        return "-"
    return f"{100.0 * numerator / denominator:.{digits}f}"


def fmt_count(value: int) -> str:
    return f"{value:,}"


def render_ingest_health(report, *, dangling_fuid_refs: int | None = None) -> Table:
    """Ingest-health section: what fraction of the input survived.

    ``report`` is an :class:`repro.zeek.ingest.IngestReport` (duck-typed
    to keep this module free of zeek imports)."""
    table = Table("Ingest health", ["Metric", "Value"])
    table.add_row("Files read", fmt_count(report.files_read))
    table.add_row("Rows ingested", fmt_count(report.rows_ok))
    table.add_row("Rows dropped", fmt_count(report.rows_dropped))
    table.add_row("Drop rate (%)", f"{100.0 * report.drop_rate:.3f}")
    table.add_row("Header recoveries", fmt_count(report.header_recoveries))
    table.add_row("Truncated final lines", fmt_count(report.truncated_final_lines))
    table.add_row("Files missing #close", fmt_count(report.files_missing_close))
    table.add_row("Quarantined lines", fmt_count(len(report.quarantined)))
    if dangling_fuid_refs is not None:
        table.add_row("Dangling fuid references", fmt_count(dangling_fuid_refs))
    for category in sorted(report.dropped_by_category):
        table.add_row(
            f"  dropped: {category}",
            fmt_count(report.dropped_by_category[category]),
        )
    if report.issues_truncated:
        table.add_note("issue list capped; counters remain exact")
    if report.clean:
        table.add_note("clean ingest: every input row was consumed")
    return table


def render_run_health(health) -> Table:
    """Run-health section: what the supervision layer saw and lost.

    ``health`` is a :class:`repro.core.supervisor.RunHealth` (duck-typed
    to keep this module free of supervisor imports)."""
    table = Table("Run health", ["Metric", "Value"])
    table.add_row("Months total", fmt_count(health.total_shards))
    table.add_row("Months completed", fmt_count(len(health.completed_months)))
    table.add_row(
        "Months resumed from manifest", fmt_count(len(health.resumed_months))
    )
    table.add_row(
        "Shard phases reused from manifest",
        fmt_count(
            sum(len(s.resumed_phases) for s in health.shards.values())
        ),
    )
    quarantined = health.quarantined_months
    table.add_row(
        "Months quarantined",
        ", ".join(quarantined) if quarantined else "0",
    )
    table.add_row("Retried attempts", fmt_count(health.total_retries))
    table.add_row("Coverage (%)", f"{100.0 * health.coverage:.2f}")
    table.add_row("Worker processes", fmt_count(health.jobs))
    table.add_row("Degrade policy", health.degrade.value)
    for key in sorted(health.shards):
        shard = health.shards[key]
        if not shard.failures:
            continue
        table.add_row(
            f"  {key} ({shard.state.value})",
            f"{shard.attempts} attempts; last failure: {shard.failures[-1]}",
        )
    if health.degraded:
        table.add_note(
            "degraded coverage: quarantined months are absent from every table"
        )
    elif health.clean:
        table.add_note("clean run: every shard completed on its first attempt")
    return table


def render_fsck(result) -> Table:
    """Store-integrity section for ``repro fsck``.

    ``result`` is a :class:`repro.store.fsck.FsckResult` (duck-typed to
    keep this module free of store imports)."""
    table = Table("Store integrity", ["File", "Status", "Detail"])
    for finding in result.findings:
        table.add_row(finding.file, finding.status, finding.detail or "-")
    counts = result.counts()
    summary = ", ".join(
        f"{counts[status]} {status}"
        for status in ("ok", "repaired", "damaged", "missing", "unverifiable")
        if counts.get(status)
    )
    table.add_note(f"{len(result.findings)} file(s): {summary or 'none'}")
    if result.quarantined:
        table.add_note(
            "damaged originals moved to quarantine/: "
            + ", ".join(result.quarantined)
        )
    if result.unrepaired:
        table.add_note(
            "unrepairable (source missing, changed, or rebuild mismatch): "
            + ", ".join(result.unrepaired)
        )
    if result.unverifiable:
        table.add_note(
            "legacy v1 store cannot detect corruption; repack to upgrade"
        )
    if result.ok and not result.unverifiable:
        table.add_note("store verified: every file matches its checksums")
    return table
