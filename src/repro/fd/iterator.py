"""Lazy (polynomial-delay-style) enumeration of Full Disjunction tuples.

Cohen et al. (VLDB 2006) showed that Full Disjunction tuples can be enumerated
with polynomial delay, which matters when a consumer only needs the first few
integrated tuples (e.g. to preview an integration in a UI) or wants to stream
them into a downstream operator without materialising the whole result.

:class:`StreamingFullDisjunction` provides that interface on top of the
component decomposition used by the partitioned algorithm: connected
components of the value-sharing graph are discovered first (cheap), and each
component is then closed and emitted independently, so the delay between two
emitted tuples is bounded by the cost of closing a single component rather
than the whole input.  The union of the emitted tuples equals the result of
the eager algorithms (a property checked by the test suite).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.fd.base import FullDisjunctionAlgorithm
from repro.fd.complementation import ComplementationEngine, connected_components
from repro.table.operations import outer_union
from repro.table.subsumption import remove_subsumed
from repro.table.table import Provenance, RowValues, Table


class StreamingFullDisjunction(FullDisjunctionAlgorithm):
    """Component-at-a-time Full Disjunction with a streaming iterator API.

    Besides the usual :meth:`integrate`, the class exposes
    :meth:`iter_tuples`, a generator yielding ``(values, provenance)`` pairs;
    tuples of one connected component are emitted as soon as that component is
    closed and de-duplicated, before later components are even touched.
    """

    name = "streaming"

    def __init__(
        self,
        result_name: str = "full_disjunction",
        max_tuples: int = 5_000_000,
        largest_components_last: bool = False,
    ) -> None:
        super().__init__(result_name)
        self._engine = ComplementationEngine(max_tuples=max_tuples)
        self.largest_components_last = largest_components_last

    # -- streaming API ----------------------------------------------------------------
    def iter_tuples(
        self, tables: Sequence[Table]
    ) -> Iterator[Tuple[RowValues, Provenance]]:
        """Yield Full Disjunction tuples (with provenance) component by component."""
        if not tables:
            return
        prepared = [
            table if table.provenance is not None else table.with_default_provenance()
            for table in tables
        ]
        union = outer_union(prepared, name=self.result_name)
        provenance = union.provenance or [
            frozenset({f"{union.name}:{index}"}) for index in range(union.num_rows)
        ]
        components = connected_components(union.rows)
        if self.largest_components_last:
            components = sorted(components, key=len)
        for component in components:
            component_rows = [union.rows[index] for index in component]
            component_prov = [provenance[index] for index in component]
            closed_rows, closed_prov = self._engine.close(component_rows, component_prov)
            # Subsumption removal is local to the component: tuples of different
            # components can never subsume each other because they never share a
            # non-null value.
            closed_table = remove_subsumed(
                Table(self.result_name, union.schema, closed_rows, provenance=closed_prov)
            )
            closed_provenance = closed_table.provenance or []
            for index, values in enumerate(closed_table.rows):
                yield values, closed_provenance[index]

    def preview(self, tables: Sequence[Table], limit: int = 10) -> Table:
        """Return the first ``limit`` Full Disjunction tuples as a table."""
        if not tables:
            raise ValueError("preview() requires at least one table")
        union_schema = outer_union(
            [table if table.provenance is not None else table.with_default_provenance() for table in tables]
        ).schema
        rows: List[RowValues] = []
        provenance: List[Provenance] = []
        for values, sources in self.iter_tuples(tables):
            rows.append(values)
            provenance.append(sources)
            if len(rows) >= limit:
                break
        return Table(self.result_name, union_schema, rows, provenance=provenance)

    # -- eager API (FullDisjunctionAlgorithm) --------------------------------------------
    def _integrate(self, tables: Sequence[Table], statistics: Dict[str, float]) -> Table:
        union = outer_union(tables, name=self.result_name)
        rows: List[RowValues] = []
        provenance: List[Provenance] = []
        emitted = 0
        for values, sources in self.iter_tuples(tables):
            rows.append(values)
            provenance.append(sources)
            emitted += 1
        statistics["emitted_tuples"] = float(emitted)
        return Table(self.result_name, union.schema, rows, provenance=provenance)
