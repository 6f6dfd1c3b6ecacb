"""ASCII tables and series, matching the paper's presentation style."""

from typing import Any, List, Sequence


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value >= 100:
            return f"{value:,.0f}"
        if value >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    if isinstance(value, int) and abs(value) >= 10_000:
        return f"{value:,}"
    return str(value)


class Table:
    """A titled table with aligned columns."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)}"
            )
        self.rows.append([_fmt(v) for v in values])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * len(self.title)]
        lines.append(" | ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def show(self) -> None:
        print()
        print(self.render())
        print()


class Series:
    """Figure-style data: one x-axis, several named series."""

    def __init__(self, title: str, x_label: str, series_names: Sequence[str]):
        self.title = title
        self.x_label = x_label
        self.series_names = list(series_names)
        self.points: List[tuple] = []

    def add_point(self, x: Any, *values: Any) -> None:
        if len(values) != len(self.series_names):
            raise ValueError("point arity mismatch")
        self.points.append((x, values))

    def as_table(self) -> Table:
        table = Table(self.title, [self.x_label] + self.series_names)
        for x, values in self.points:
            table.add_row(x, *values)
        return table

    def show(self) -> None:
        self.as_table().show()

    def series(self, name: str) -> List[Any]:
        index = self.series_names.index(name)
        return [values[index] for __, values in self.points]

    def xs(self) -> List[Any]:
        return [x for x, __ in self.points]
