"""Chip-level floorplanning of a BNN classifier onto RRAM macros.

The Fig. 5 architecture replicates a fixed-size building block — a 2T2R
array with its decoders, XNOR sense amplifiers and shared popcount logic —
under one memory controller.  The paper's test vehicle is a 1K-synapse
(32x32) macro (Fig. 2); a deployed classifier therefore occupies a *grid*
of such macros per layer, and the interesting engineering numbers are how
many, how well they are filled, and what the resulting silicon area and
one-time programming cost are.

:class:`ChipFloorplan` computes exactly that from the folded layer shapes,
using the same technology constants as :class:`repro.rram.energy.EnergyModel`
so area numbers are consistent across the repository.

A placement is also *executable*: :meth:`LayerPlacement.shards` turns the
tile grid into an explicit shard map — one :class:`MacroShard` per macro,
carrying the exact row/column slice of the weight matrix that macro holds
(edge shards are partial).  The sharded multi-macro backend
(:class:`repro.rram.accelerator.ShardedController`) programs one simulated
chip per shard from this map, which is what ties the floorplan's placement
math to actual execution instead of report-only accounting.

Several models can be **co-resident**: :class:`ChipPlacer` packs every
tenant's shards onto one shared macro pool (first-fit decreasing over
shard word-line counts, so partial tail shards of different tenants share
a physical macro) with a pooled spare reserve, and reports the
macro-count and utilization win over per-model chips.  Word-line sharing
is sound because a scan senses one word line at a time — rows of
different tenants on the same macro never interact electrically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rram.energy import EnergyModel

__all__ = ["MacroGeometry", "MacroShard", "LayerPlacement", "ChipFloorplan",
           "ChipPlacer", "ChipPlacement", "ShardAssignment",
           "plan_classifier", "plan_model"]


@dataclass(frozen=True)
class MacroGeometry:
    """One replicated array macro (the paper's is 32x32 synapses)."""

    rows: int = 32
    cols: int = 32

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError(
                f"macro must have positive dimensions, got "
                f"{self.rows}x{self.cols}")

    @property
    def synapses(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class MacroShard:
    """One macro's slice of a layer placement: the executable shard map
    entry.

    ``row_start:row_stop`` are the output neurons (word lines) this chip
    holds, ``col_start:col_stop`` the fan-in slice (bit-line columns).
    Edge shards of a non-divisible layer are partial: they still occupy a
    full macro but only ``rows x cols`` of its synapses hold real weights.
    """

    index: int
    grid_row: int
    grid_col: int
    row_start: int
    row_stop: int
    col_start: int
    col_stop: int
    macro: MacroGeometry

    @property
    def rows(self) -> int:
        return self.row_stop - self.row_start

    @property
    def cols(self) -> int:
        return self.col_stop - self.col_start

    @property
    def synapses_used(self) -> int:
        return self.rows * self.cols

    @property
    def utilization(self) -> float:
        """Fill fraction of this one macro (1.0 for interior shards)."""
        return self.synapses_used / self.macro.synapses


@dataclass
class LayerPlacement:
    """How one binary dense layer maps onto the macro grid.

    The layer's ``(out_features, in_features)`` weight matrix is cut into
    row x column tiles of macro size; edge tiles are partially filled.
    """

    name: str
    out_features: int
    in_features: int
    macro: MacroGeometry
    #: Spare macros provisioned for this layer (fault tolerance); set by
    #: the sharded controller when a fault map is in play.
    spare_macros: int = 0
    #: Shard indices that were remapped onto spares (dead macros).
    remapped: tuple[int, ...] = ()
    #: Owning model when the layer is part of a multi-tenant deployment
    #: (``None`` for single-model floorplans — reports omit the column).
    tenant: str | None = None
    tile_grid: tuple[int, int] = field(init=False)

    def __post_init__(self):
        if self.out_features <= 0 or self.in_features <= 0:
            raise ValueError(
                f"layer {self.name!r} has empty dimensions "
                f"({self.out_features}, {self.in_features})")
        self.tile_grid = (-(-self.out_features // self.macro.rows),
                          -(-self.in_features // self.macro.cols))
        # Tail-shard invariant: the ceil division must provision at least
        # every real synapse (the tail is a partial macro, never dropped)
        # and utilization can therefore never exceed 1.0.
        if self.synapses_provisioned < self.synapses_used:
            raise ValueError(
                f"layer {self.name!r}: provisioned "
                f"{self.synapses_provisioned} synapses for "
                f"{self.synapses_used} weights — tail shard lost")

    @property
    def n_macros(self) -> int:
        rows, cols = self.tile_grid
        return rows * cols

    @property
    def synapses_used(self) -> int:
        return self.out_features * self.in_features

    @property
    def synapses_provisioned(self) -> int:
        return self.n_macros * self.macro.synapses

    @property
    def utilization(self) -> float:
        """Fraction of provisioned synapses that hold real weights."""
        return self.synapses_used / self.synapses_provisioned

    def shards(self) -> list[MacroShard]:
        """The executable shard map: one :class:`MacroShard` per macro.

        Shards are emitted in row-major grid order (fan-out stripes outer,
        fan-in slices inner) — the scan order the sharded controller's
        reduction stage relies on.  The map is validated on every call:
        shards tile the weight matrix exactly (every weight accounted
        once, tails included) and never over-claim a macro.
        """
        rows, cols = self.tile_grid
        mr, mc = self.macro.rows, self.macro.cols
        shards = []
        for i in range(rows):
            for j in range(cols):
                shards.append(MacroShard(
                    index=i * cols + j, grid_row=i, grid_col=j,
                    row_start=i * mr,
                    row_stop=min((i + 1) * mr, self.out_features),
                    col_start=j * mc,
                    col_stop=min((j + 1) * mc, self.in_features),
                    macro=self.macro))
        used = sum(s.synapses_used for s in shards)
        if used != self.synapses_used or \
                any(s.utilization > 1.0 for s in shards):
            raise RuntimeError(
                f"layer {self.name!r}: shard map covers {used} synapses, "
                f"expected {self.synapses_used}")
        return shards

    def row(self) -> tuple[str, ...]:
        rows, cols = self.tile_grid
        return (self.name, f"{self.out_features}x{self.in_features}",
                f"{rows}x{cols}", str(self.n_macros),
                f"{self.utilization:.1%}")


@dataclass
class ChipFloorplan:
    """Aggregate plan for a whole classifier."""

    placements: list[LayerPlacement]
    energy: EnergyModel = field(default_factory=EnergyModel)

    def __post_init__(self):
        if not self.placements:
            raise ValueError("a floorplan needs at least one layer")

    @property
    def n_macros(self) -> int:
        return sum(p.n_macros for p in self.placements)

    @property
    def n_devices(self) -> int:
        """Two RRAM devices per provisioned synapse (2T2R)."""
        return 2 * sum(p.synapses_provisioned for p in self.placements)

    @property
    def utilization(self) -> float:
        used = sum(p.synapses_used for p in self.placements)
        provisioned = sum(p.synapses_provisioned for p in self.placements)
        return used / provisioned

    @property
    def spare_macros(self) -> int:
        """Spare macros provisioned across all layers."""
        return sum(p.spare_macros for p in self.placements)

    @property
    def remapped_macros(self) -> int:
        """Dead macros remapped onto spares across all layers."""
        return sum(len(p.remapped) for p in self.placements)

    def area_um2(self) -> dict[str, float]:
        """Area by component, from the shared technology constants.

        Per macro: 2T2R cells, one PCSA per column, and the column share of
        the popcount tree.  The memory controller is one block per chip.
        """
        cells = sense = popcount = 0.0
        controller = self.energy.ecc_decoder_area_um2  # controller-sized block
        for p in self.placements:
            per_macro_cells = p.macro.synapses * self.energy.cell_area_2t2r_um2
            per_macro_sense = p.macro.cols * self.energy.pcsa_area_um2
            per_macro_pop = (p.macro.cols
                             * self.energy.popcount_area_um2_per_bit)
            cells += p.n_macros * per_macro_cells
            sense += p.n_macros * per_macro_sense
            popcount += p.n_macros * per_macro_pop
        total = cells + sense + popcount + controller
        return {"cells": cells, "sense": sense, "popcount": popcount,
                "controller": controller, "total": total}

    def programming_cost(self) -> dict[str, float]:
        """One-time weight programming: device writes and energy (pJ).

        Only real weights are written; unused devices stay in HRS from
        forming and cost nothing per deployment.
        """
        writes = 2 * sum(p.synapses_used for p in self.placements)
        return {"device_writes": float(writes),
                "energy_pj": writes * self.energy.rram_program_pj}

    def macro_report(self) -> str:
        """Per-macro view of the plan: shard fill and scan energy.

        For each layer: how many macros it occupies, how many of them are
        partial tail shards, the worst/mean per-macro utilization from the
        shard map, and the energy of one full word-line scan of a single
        macro (every synapse sensed through the XNOR PCSA plus its share
        of the popcount tree) from the shared technology constants.

        Multi-tenant floorplans (any placement with a ``tenant``) add a
        per-row ``Model`` column and a per-tenant occupancy footer.
        """
        from repro.experiments.tables import render_table
        tenancy = any(p.tenant is not None for p in self.placements)
        rows = []
        for p in self.placements:
            shards = p.shards()
            tails = sum(1 for s in shards if s.utilization < 1.0)
            fills = [s.utilization for s in shards]
            scan_pj = p.macro.synapses * (
                self.energy.xnor_pcsa_sense_fj
                + self.energy.popcount_fj_per_bit) / 1e3
            row = (p.name, str(p.n_macros), str(tails),
                   f"{min(fills):.1%}",
                   f"{sum(fills) / len(fills):.1%}",
                   f"{scan_pj:.2f}")
            if tenancy:
                row = (p.tenant or "-",) + row
            rows.append(row)
        headers = ["Layer", "Macros", "Tails", "Min fill", "Mean fill",
                   "Scan pJ/macro"]
        if tenancy:
            headers = ["Model"] + headers
        table = render_table(
            "Per-macro shard map "
            f"({self.placements[0].macro.rows}x"
            f"{self.placements[0].macro.cols} macros)",
            headers,
            rows)
        if tenancy:
            table += "\nPer-tenant occupancy:\n" + "\n".join(
                self._tenant_occupancy_lines())
        if self.spare_macros or self.remapped_macros:
            degraded = []
            for p in self.placements:
                if p.spare_macros or p.remapped:
                    dead = ",".join(str(m) for m in p.remapped) or "-"
                    degraded.append(
                        f"  {p.name}: {len(p.remapped)} dead "
                        f"(shards {dead}) remapped / "
                        f"{p.spare_macros} spare(s) provisioned")
            table += "\nSpare macros (degraded placements):\n" \
                + "\n".join(degraded)
        return table

    def _tenant_occupancy_lines(self) -> list[str]:
        """Per-tenant fill/utilization summary (macro_report footer)."""
        tenants: dict[str, list[LayerPlacement]] = {}
        for p in self.placements:
            tenants.setdefault(p.tenant or "-", []).append(p)
        total = sum(p.synapses_provisioned for p in self.placements)
        lines = []
        for tenant, group in tenants.items():
            used = sum(p.synapses_used for p in group)
            provisioned = sum(p.synapses_provisioned for p in group)
            macros = sum(p.n_macros for p in group)
            lines.append(
                f"  {tenant}: {macros} macro(s), fill "
                f"{used / provisioned:.1%}, "
                f"{provisioned / total:.1%} of provisioned synapses")
        return lines

    def report(self) -> str:
        from repro.experiments.tables import render_table
        table = render_table(
            "Classifier floorplan on "
            f"{self.placements[0].macro.rows}x"
            f"{self.placements[0].macro.cols} macros",
            ["Layer", "Weights", "Tile grid", "Macros", "Utilization"],
            [p.row() for p in self.placements])
        area = self.area_um2()
        prog = self.programming_cost()
        lines = [table, "",
                 f"Total macros: {self.n_macros}   devices: "
                 f"{self.n_devices:,}   overall utilization: "
                 f"{self.utilization:.1%}",
                 f"Area: {area['total'] / 1e6:.3f} mm^2 "
                 f"(cells {area['cells'] / 1e6:.3f}, sense "
                 f"{area['sense'] / 1e6:.3f}, popcount "
                 f"{area['popcount'] / 1e6:.3f}, controller "
                 f"{area['controller'] / 1e6:.3f})",
                 f"Programming: {prog['device_writes']:,.0f} writes, "
                 f"{prog['energy_pj'] / 1e6:.2f} uJ one-time"]
        if self.spare_macros or self.remapped_macros:
            lines.append(
                f"Spares: {self.remapped_macros} dead macro(s) remapped, "
                f"{self.spare_macros} spare(s) provisioned")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# Co-resident (multi-tenant) placement onto one macro pool.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardAssignment:
    """One tenant shard's physical home on the shared pool: which macro
    holds it and at which word-line offset."""

    tenant: str
    layer: str
    shard: MacroShard
    pool_macro: int
    row_offset: int

    @property
    def rows(self) -> int:
        return self.shard.rows


@dataclass
class ChipPlacement:
    """The result of co-resident placement: every tenant shard assigned
    to a (pool macro, word-line offset) slot, plus a pooled spare
    reserve."""

    macro: MacroGeometry
    assignments: list[ShardAssignment]
    spare_macros: int = 0
    #: Macro count each tenant would provision deployed alone (its own
    #: chip, its own spares) — the "before" of the packing win.
    solo_macros: dict[str, int] = field(default_factory=dict)

    @property
    def n_macros(self) -> int:
        """Pool macros actually holding word lines (spares excluded)."""
        if not self.assignments:
            return 0
        return max(a.pool_macro for a in self.assignments) + 1

    @property
    def n_macros_provisioned(self) -> int:
        return self.n_macros + self.spare_macros

    @property
    def tenants(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for a in self.assignments:
            seen.setdefault(a.tenant)
        return tuple(seen)

    @property
    def synapses_used(self) -> int:
        return sum(a.shard.synapses_used for a in self.assignments)

    @property
    def utilization(self) -> float:
        """Real weights over every provisioned synapse of the pool
        (spare macros included — they are silicon too)."""
        provisioned = self.n_macros_provisioned * self.macro.synapses
        return self.synapses_used / provisioned if provisioned else 0.0

    @property
    def solo_macros_total(self) -> int:
        return sum(self.solo_macros.values())

    def tenant_occupancy(self) -> dict[str, dict]:
        """Per-tenant pool occupancy: macros touched, word lines held,
        synapses used, and fill of the touched macros."""
        occupancy: dict[str, dict] = {}
        for a in self.assignments:
            entry = occupancy.setdefault(
                a.tenant, {"macros": set(), "word_lines": 0,
                           "synapses_used": 0, "shards": 0})
            entry["macros"].add(a.pool_macro)
            entry["word_lines"] += a.rows
            entry["synapses_used"] += a.shard.synapses_used
            entry["shards"] += 1
        for entry in occupancy.values():
            entry["macros"] = len(entry["macros"])
        return occupancy

    def shared_macros(self) -> int:
        """Pool macros holding word lines of more than one tenant — the
        tail shards the packing actually merged."""
        owners: dict[int, set[str]] = {}
        for a in self.assignments:
            owners.setdefault(a.pool_macro, set()).add(a.tenant)
        return sum(1 for tenants in owners.values() if len(tenants) > 1)

    def report(self) -> str:
        """Co-resident pool summary with the before/after macro math."""
        from repro.experiments.tables import render_table
        occupancy = self.tenant_occupancy()
        rows = []
        for tenant, entry in occupancy.items():
            capacity = entry["macros"] * self.macro.synapses
            rows.append((tenant, str(entry["shards"]),
                         str(entry["macros"]),
                         str(entry["word_lines"]),
                         f"{entry['synapses_used'] / capacity:.1%}",
                         str(self.solo_macros.get(tenant, "-"))))
        table = render_table(
            f"Co-resident pool ({self.macro.rows}x{self.macro.cols} "
            "macros)",
            ["Model", "Shards", "Macros", "Word lines", "Fill",
             "Solo macros"],
            rows)
        before = self.solo_macros_total
        after = self.n_macros_provisioned
        lines = [table,
                 f"Pool: {self.n_macros} macro(s) + {self.spare_macros} "
                 f"pooled spare(s) = {after} provisioned "
                 f"({self.shared_macros()} shared by several tenants); "
                 f"solo chips need {before}",
                 f"Utilization: {self.utilization:.1%} co-resident"]
        if before:
            lines[-1] += (f" vs {self.synapses_used / (before * self.macro.synapses):.1%} "
                          "across solo chips"
                          f" ({before - after:+d} macro(s) saved)"
                          .replace("+-", "-"))
        return "\n".join(lines)


class ChipPlacer:
    """Pack several tenants' layer placements onto one macro pool.

    First-fit decreasing over shard word-line counts: shards are sorted
    by the word lines they need (largest first, deterministic
    tenant/layer/shard tie-break) and each drops into the first pool
    macro with enough free word lines.  Full-height shards fill whole
    macros exactly as they would solo; the win comes from partial tail
    shards of *different* layers and tenants sharing one macro.

    ``spares`` reserves whole macros at the end of the pool for the
    PR 7 dead-macro remap; ``"auto"`` pools the per-tenant spare
    demand (the maximum any one tenant provisioned for itself) instead
    of summing it — co-residency shares the reserve.  ``capacity``
    bounds the pool (raises when the tenants do not fit).
    """

    def __init__(self, macro: MacroGeometry | None = None, *,
                 capacity: int | None = None, spares="auto"):
        self.macro = macro or MacroGeometry()
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.spares = spares

    def place(self, tenants) -> ChipPlacement:
        """``tenants`` maps model name -> its :class:`LayerPlacement`
        list (e.g. ``backend.placements`` after a sharded compile)."""
        items: list[tuple[str, LayerPlacement, MacroShard]] = []
        for tenant, placements in tenants.items():
            for placement in placements:
                if placement.macro != self.macro:
                    raise ValueError(
                        f"tenant {tenant!r} layer {placement.name!r} was "
                        f"placed on {placement.macro.rows}x"
                        f"{placement.macro.cols} macros; the pool is "
                        f"{self.macro.rows}x{self.macro.cols} — tenants "
                        "must share the chip geometry")
                for shard in placement.shards():
                    items.append((tenant, placement, shard))
        if not items:
            raise ValueError("nothing to place: no tenants with layers")

        # First-fit decreasing on word lines; the tie-break keeps the
        # assignment deterministic for identical inputs.
        order = {name: i for i, name in enumerate(tenants)}
        items.sort(key=lambda item: (-item[2].rows, order[item[0]],
                                     item[1].name, item[2].index))
        free_rows: list[int] = []
        assignments: list[ShardAssignment] = []
        for tenant, placement, shard in items:
            for index, free in enumerate(free_rows):
                if free >= shard.rows:
                    break
            else:
                index = len(free_rows)
                free_rows.append(self.macro.rows)
            assignments.append(ShardAssignment(
                tenant=tenant, layer=placement.name, shard=shard,
                pool_macro=index,
                row_offset=self.macro.rows - free_rows[index]))
            free_rows[index] -= shard.rows

        if self.spares == "auto":
            spare_macros = max(
                (sum(p.spare_macros for p in placements)
                 for placements in tenants.values()), default=0)
        else:
            spare_macros = int(self.spares)
            if spare_macros < 0:
                raise ValueError(f"spares must be >= 0, got {self.spares}")
        if self.capacity is not None and \
                len(free_rows) + spare_macros > self.capacity:
            raise ValueError(
                f"tenants need {len(free_rows)} macro(s) + "
                f"{spare_macros} spare(s) but the pool capacity is "
                f"{self.capacity}")
        solo = {tenant: sum(p.n_macros + p.spare_macros
                            for p in placements)
                for tenant, placements in tenants.items()}
        return ChipPlacement(macro=self.macro, assignments=assignments,
                             spare_macros=spare_macros, solo_macros=solo)


def plan_classifier(layer_shapes: list[tuple[int, int]],
                    macro: MacroGeometry | None = None,
                    names: list[str] | None = None,
                    energy: EnergyModel | None = None) -> ChipFloorplan:
    """Plan a classifier given ``(out_features, in_features)`` per layer.

    ``names`` defaults to ``fc1, fc2, ...`` (the repository's classifier
    convention).
    """
    macro = macro or MacroGeometry()
    if names is None:
        names = [f"fc{i + 1}" for i in range(len(layer_shapes))]
    if len(names) != len(layer_shapes):
        raise ValueError(
            f"{len(names)} names for {len(layer_shapes)} layers")
    placements = [LayerPlacement(name, out_f, in_f, macro)
                  for name, (out_f, in_f) in zip(names, layer_shapes)]
    return ChipFloorplan(placements, energy or EnergyModel())


def plan_model(model, macro: MacroGeometry | None = None,
               energy: EnergyModel | None = None) -> ChipFloorplan:
    """Plan every *binary* layer of a model onto the macro grid.

    Walks the module tree and places each binarized layer the way its
    hardware mapping stores it: dense layers by their weight matrix,
    convolutions by one flattened kernel per word-line row (the
    weight-stationary mapping of :mod:`repro.rram.conv` / ``conv2d``),
    depthwise convolutions as per-channel kernel rows.  Real-weight layers
    are skipped — they are not resident in the RRAM fabric.
    """
    from repro.nn.binary import (BinaryConv1d, BinaryConv2d,
                                 BinaryDepthwiseConv2d, BinaryLinear)

    shapes: list[tuple[int, int]] = []
    names: list[str] = []
    for name, module in model.named_modules():
        if isinstance(module, BinaryLinear):
            shape = (module.out_features, module.in_features)
        elif isinstance(module, BinaryConv1d):
            shape = (module.out_channels,
                     module.in_channels * module.kernel_size)
        elif isinstance(module, BinaryConv2d):
            kh, kw = module.kernel_size
            shape = (module.out_channels, module.in_channels * kh * kw)
        elif isinstance(module, BinaryDepthwiseConv2d):
            kh, kw = module.kernel_size
            shape = (module.channels, kh * kw)
        else:
            continue
        shapes.append(shape)
        names.append(name or type(module).__name__)
    if not shapes:
        raise ValueError(
            f"{type(model).__name__} has no binary layers to place "
            "(is it in REAL mode?)")
    return plan_classifier(shapes, macro, names, energy)
