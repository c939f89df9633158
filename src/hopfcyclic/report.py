"""Structured run reports with table and JSON renderers.

Reports are deterministic for a fixed configuration and seed: timing is
collected separately and only included when explicitly requested, so two
identical runs produce byte-identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class CheckLine:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str | None = None


@dataclass
class Report:
    command: str
    params: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    error: str | None = None

    def add_validation(self, prefix, validation):
        for c in validation.checks:
            self.checks.append(CheckLine(
                f"{prefix}{c.name}", "pass" if c.ok else "fail",
                c.witness if not c.ok else None))

    def add_check(self, name, ok, detail=None):
        self.checks.append(CheckLine(name, "pass" if ok else "fail",
                                     None if ok else detail))

    def add_skip(self, name, detail):
        self.checks.append(CheckLine(name, "skip", detail))

    @property
    def failed(self):
        return any(c.status == "fail" for c in self.checks) or self.error is not None

    @property
    def exit_code(self):
        if self.error is not None:
            return 2
        return 1 if self.failed else 0

    def summary(self):
        """The number of pass, fail and skip lines."""
        return {status: sum(1 for c in self.checks if c.status == status)
                for status in ("pass", "fail", "skip")}

    def to_dict(self, timing=None):
        out = {
            "command": self.command,
            "params": self.params,
            "checks": [
                {"name": c.name, "status": c.status,
                 **({"detail": c.detail} if c.detail else {})}
                for c in self.checks
            ],
            "tables": self.tables,
            "summary": self.summary(),
        }
        if self.error is not None:
            out["error"] = self.error
        if timing is not None:
            out["timing_seconds"] = timing
        return out

    def to_json(self, timing=None):
        return json.dumps(self.to_dict(timing), sort_keys=True, indent=2,
                          default=str) + "\n"

    def to_table(self, timing=None):
        lines = [f"== {self.command}"]
        for key in self.params:
            lines.append(f"   {key}: {self.params[key]}")
        if self.error is not None:
            lines.append(f"ERROR: {self.error}")
        if self.checks:
            width = max(len(c.name) for c in self.checks)
            for c in self.checks:
                detail = f"  {c.detail}" if c.detail else ""
                lines.append(f"{c.name.ljust(width)}  [{c.status.upper()}]{detail}")
        for name, table in self.tables.items():
            lines.append(f"-- {name}")
            if isinstance(table, dict):
                kw = max((len(str(k)) for k in table), default=0)
                for k in table:
                    lines.append(f"   {str(k).ljust(kw)}  {table[k]}")
            else:
                lines.append("   " + "  ".join(str(v) for v in table))
        counts = self.summary()
        lines.append(f"passed {counts['pass']}, failed {counts['fail']}, "
                     f"skipped {counts['skip']}")
        if timing is not None:
            lines.append(f"elapsed: {timing:.2f}s")
        return "\n".join(lines) + "\n"
