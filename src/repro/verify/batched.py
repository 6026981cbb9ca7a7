"""The vectorized exact checker: batched expansion and array game solving.

The dict-based :class:`~repro.verify.TransitionSystem` pays one Python
decode, one Python safety call, ``|selections|`` Python firings and a dict
operation per successor *per configuration* — the cost that caps PR 4's
checker near ~10⁶ states.  This module re-runs the same exploration as
array programs over the PR 3 kernel machinery:

* **Batched expansion** (:class:`BatchedTransitionSystem`).  Thousands of
  frontier configurations are stacked into one ``(B·n, width)`` int64 state
  array over a block-diagonal :class:`~repro.core.vector.TiledGraphIndex`;
  the protocol's unmodified :class:`~repro.core.vector.ArrayKernel`
  evaluates every guard of every stacked configuration in one
  ``enabled_rules`` call and fires whole selection batches in one ``fire``
  call.  The synchronous class needs exactly one fire per frontier; the
  central/distributed classes fire one block per admitted selection, in
  the dict path's deterministic selection order (repr-rank within block).

* **State identity without bignums** (:class:`ArrayPacker`).  Mixed-radix
  keys overflow int64 already on SSME's ring(10) (``126¹⁰ > 2⁶³``), so the
  packer splits the radix vector into contiguous *groups* whose products
  stay below ``2⁶²``: a configuration's identity is a short tuple of int64
  "key columns" whose lexicographic order equals the numeric key order.
  Python-int keys are materialized only at result boundaries (lassos,
  ``value_of`` lookups, dict-system conversion), never per explored state.

* **Array frontier and solver** (:func:`solve_arrays`).  BFS dedup works on
  NumPy arrays plus one dict probe per *distinct* candidate; the attractor
  peel and backward value iteration run over CSR successor/predecessor
  arrays and boolean visited masks, touching every edge a constant number
  of times with no per-state Python.

Exactness is preserved end to end: the kernels are pinned to the stock
engine semantics by the engine equivalence suites, the expansion replicates
the dict path's selection enumeration and per-state successor dedup order,
and the equivalence tests assert bit-identical systems and values on every
instance the dict path can also afford.  The dict path stays the oracle —
NumPy remains an optional dependency and
:func:`~repro.verify.verify_stabilization` falls back to it automatically
whenever :func:`~repro.core.vector.protocol_supports_vector` declines.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.protocol import Protocol
from ..core.specification import Specification
from ..core.state import Configuration
from ..core.vector import (
    ArrayCodec,
    ArrayKernel,
    GraphIndex,
    TiledGraphIndex,
    numpy_available,
    protocol_supports_vector,
)
from ..exceptions import VerificationError
from .statespace import StateSpace
from .symmetry import SymmetryReducer
from .transitions import (
    DAEMON_CLASSES,
    DEFAULT_MAX_SELECTIONS,
    DEFAULT_MAX_STATES,
    ExploredSystem,
)

__all__ = [
    "ArrayExploredSystem",
    "ArrayGameSolution",
    "ArrayPacker",
    "BatchedTransitionSystem",
    "solve_arrays",
]

#: Frontier configurations stacked per kernel call.  Large enough to
#: amortize per-call Python overhead into noise, small enough that the
#: per-call scratch arrays stay cache-friendly.
DEFAULT_BATCH_BLOCKS = 4096

#: Ceiling on the per-vertex codec lookup tables (guards against codecs
#: whose integer layout is so sparse that a dense table would balloon).
_MAX_TABLE_ENTRIES = 4_000_000

#: Key-column group capacity: products of group radices stay below this so
#: int64 column arithmetic can never overflow.
_GROUP_CAPACITY = 1 << 62


class ArrayPacker:
    """Bidirectional map between codec state rows, per-vertex domain
    indices, and grouped int64 key columns.

    Built once per (space, codec) pair.  ``indices`` are the mixed-radix
    digits of the packed key (vertex ``i``'s state index in its declared
    domain); ``rows`` are the codec's ``(n, width)`` int64 representation
    the kernels compute on; ``key columns`` are the grouped digits used for
    state identity and canonical-order comparisons.
    """

    __slots__ = (
        "_space",
        "_codec",
        "_n",
        "_width",
        "_dom_rows",
        "_dom_stack",
        "_lo",
        "_stride",
        "_span",
        "_table",
        "_group_starts",
        "_group_bases",
        "_local_mult",
        "_radices",
    )

    def __init__(self, space: StateSpace, codec: ArrayCodec) -> None:
        if not numpy_available():
            raise VerificationError("the batched checker requires NumPy")
        import numpy as np

        self._space = space
        self._codec = codec
        vertices = space.vertices
        domains = space.domains
        n = self._n = len(vertices)
        width = self._width = codec.width
        self._radices = tuple(len(domain) for domain in domains)

        # Per-vertex domain rows through the codec (the codec is the single
        # source of truth for the integer layout the kernels see).
        dom_rows: List = []
        for vertex, domain in zip(vertices, domains):
            try:
                rows = np.concatenate(
                    [codec.encode({vertex: state}, (vertex,)) for state in domain]
                )
            except (TypeError, ValueError, OverflowError) as error:
                raise VerificationError(
                    f"the array codec cannot encode the declared state space "
                    f"of vertex {vertex!r}: {error}"
                ) from error
            dom_rows.append(rows.astype(np.int64))
        self._dom_rows = dom_rows
        d_max = max(rows.shape[0] for rows in dom_rows)
        self._dom_stack = np.zeros((n, d_max, width), dtype=np.int64)
        for i, rows in enumerate(dom_rows):
            self._dom_stack[i, : rows.shape[0]] = rows

        # Dense per-vertex lookup tables: codec row -> domain index.  Rows
        # are first collapsed to a small "combined id" via per-column
        # offsets and strides, then looked up; -1 marks invalid rows.
        lo = np.empty((n, width), dtype=np.int64)
        span = np.empty((n, width), dtype=np.int64)
        stride = np.empty((n, width), dtype=np.int64)
        totals = []
        for i, rows in enumerate(dom_rows):
            lo[i] = rows.min(axis=0)
            span[i] = rows.max(axis=0) - lo[i] + 1
            stride[i, 0] = 1
            for j in range(1, width):
                stride[i, j] = stride[i, j - 1] * span[i, j - 1]
            totals.append(int(stride[i, width - 1] * span[i, width - 1]))
        if sum(totals) > _MAX_TABLE_ENTRIES:
            raise VerificationError(
                "the codec's integer layout is too sparse for dense lookup "
                f"tables ({sum(totals)} entries needed)"
            )
        self._lo, self._span, self._stride = lo, span, stride
        table = np.full((n, max(totals)), -1, dtype=np.int64)
        for i, rows in enumerate(dom_rows):
            combined = ((rows - lo[i]) * stride[i]).sum(axis=1)
            if np.unique(combined).size != rows.shape[0]:
                raise VerificationError(
                    f"the array codec maps two states of vertex "
                    f"{vertices[i]!r} to the same row; exact verification "
                    "needs an injective codec"
                )
            table[i, combined] = np.arange(rows.shape[0], dtype=np.int64)
        self._table = table

        # Key-column groups: contiguous runs of positions whose radix
        # product stays below the int64-safe capacity.  Column c of
        # ``key_columns`` holds the group's local mixed-radix value; the
        # full key is ``Σ column_c · group_bases[c]`` (Python ints — the
        # bases themselves may exceed int64).
        group_starts = [0]
        local_mult = np.empty(n, dtype=np.int64)
        product = 1
        for i, radix in enumerate(self._radices):
            if product * radix > _GROUP_CAPACITY and product > 1:
                group_starts.append(i)
                product = 1
            local_mult[i] = product
            product *= radix
        self._group_starts = np.asarray(group_starts, dtype=np.int64)
        self._group_bases = [space.multipliers[start] for start in group_starts]
        self._local_mult = local_mult

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #
    @property
    def space(self) -> StateSpace:
        """The packed space this packer serves."""
        return self._space

    @property
    def packable(self) -> bool:
        """Whether full keys fit a single int64 column."""
        return len(self._group_bases) == 1

    @property
    def columns(self) -> int:
        """Number of key columns (1 when :attr:`packable`)."""
        return len(self._group_bases)

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def rows_of(self, indices):
        """``(m, n, width)`` codec rows of an ``(m, n)`` index matrix."""
        import numpy as np

        return self._dom_stack[np.arange(self._n)[None, :], indices]

    def indices_of(self, rows):
        """``(m, n)`` domain indices of an ``(m, n, width)`` codec-row
        array, raising :class:`VerificationError` (naming the vertex and
        the offending value) when any row is outside a declared domain."""
        import numpy as np

        shifted = rows - self._lo
        in_box = ((shifted >= 0) & (shifted < self._span)).all(axis=2)
        combined = np.where(
            in_box[:, :, None], shifted, 0
        )  # clamp out-of-box rows to a valid table slot before the gather
        combined = (combined * self._stride).sum(axis=2)
        indices = self._table[np.arange(self._n)[None, :], combined]
        invalid = ~in_box | (indices < 0)
        if invalid.any():
            m_pos, v_pos = (int(x) for x in np.argwhere(invalid)[0])
            state = self._codec.decode(rows[m_pos, v_pos][None, :])[0]
            vertex = self._space.vertices[v_pos]
            raise VerificationError(
                f"state {state!r} of vertex {vertex!r} is outside the "
                "declared state space"
            )
        return indices

    def key_columns(self, indices):
        """``(m, C)`` grouped key columns of an ``(m, n)`` index matrix.

        Lexicographic order over the columns (most-significant column
        last) equals numeric order of the full mixed-radix keys.
        """
        import numpy as np

        return np.add.reduceat(indices * self._local_mult, self._group_starts, axis=1)

    def python_keys(self, indices) -> List[int]:
        """Exact Python-int mixed-radix keys of an ``(m, n)`` index matrix
        (arbitrary precision; used only at result boundaries)."""
        cols = self.key_columns(indices)
        if self.packable:
            return [int(k) for k in cols[:, 0].tolist()]
        bases = self._group_bases
        columns = [cols[:, c].tolist() for c in range(len(bases))]
        return [
            sum(columns[c][i] * bases[c] for c in range(len(bases)))
            for i in range(cols.shape[0])
        ]

    def indices_of_keys(self, keys: Sequence[int]):
        """``(m, n)`` index matrix of Python-int keys (inverse of
        :meth:`python_keys`; per-key divmod, for small seed regions)."""
        import numpy as np

        out = np.empty((len(keys), self._n), dtype=np.int64)
        for row, key in enumerate(keys):
            for i, radix in enumerate(self._radices):
                key, out[row, i] = divmod(key, radix)
        return out

    def configurations_of(self, indices) -> List[Configuration]:
        """Decoded configurations of an ``(m, n)`` index matrix (Python
        loop — the safety fallback and small result surfaces only)."""
        domains = self._space.domains
        vertices = self._space.vertices
        columns = indices.T.tolist()
        out = []
        for s in range(indices.shape[0]):
            out.append(
                Configuration._from_trusted_dict(
                    {
                        vertices[i]: domains[i][columns[i][s]]
                        for i in range(self._n)
                    }
                )
            )
        return out


class ArrayExploredSystem:
    """An explored transition system held in arrays.

    The array analogue of :class:`~repro.verify.ExploredSystem`: node ids
    are dense ints in discovery order; ``indptr``/``succ`` form the CSR
    successor relation (terminal nodes carry their self-loop explicitly);
    ``index_matrix`` holds every node's domain indices so keys and
    configurations can be materialized on demand.
    """

    __slots__ = (
        "space",
        "daemon_class",
        "exhaustive",
        "packer",
        "reducer",
        "index_matrix",
        "indptr",
        "succ",
        "safe",
        "terminal",
        "initial_nodes",
        "_keys_cache",
        "_node_of_key_cache",
    )

    def __init__(
        self,
        space: StateSpace,
        daemon_class: str,
        exhaustive: bool,
        packer: ArrayPacker,
        reducer: Optional[SymmetryReducer],
        index_matrix,
        indptr,
        succ,
        safe,
        terminal,
        initial_nodes,
    ) -> None:
        self.space = space
        self.daemon_class = daemon_class
        self.exhaustive = exhaustive
        self.packer = packer
        self.reducer = reducer
        self.index_matrix = index_matrix
        self.indptr = indptr
        self.succ = succ
        self.safe = safe
        self.terminal = terminal
        self.initial_nodes = initial_nodes
        self._keys_cache: Optional[List[int]] = None
        self._node_of_key_cache: Optional[Dict[int, int]] = None

    @property
    def state_count(self) -> int:
        """Number of explored configurations (orbits under a reducer)."""
        return int(self.index_matrix.shape[0])

    @property
    def transition_count(self) -> int:
        """Number of explored transitions (after per-state dedup)."""
        return int(self.succ.size)

    def keys(self) -> List[int]:
        """Python-int keys of every node, in discovery (node id) order."""
        if self._keys_cache is None:
            self._keys_cache = self.packer.python_keys(self.index_matrix)
        return self._keys_cache

    def node_of_key(self, key: int) -> Optional[int]:
        """The node id of a packed key (``None`` when unexplored)."""
        if self._node_of_key_cache is None:
            self._node_of_key_cache = {
                k: i for i, k in enumerate(self.keys())
            }
        return self._node_of_key_cache.get(key)

    def configuration(self, node: int) -> Configuration:
        """Decode one node back into a configuration."""
        return self.packer.configurations_of(self.index_matrix[node : node + 1])[0]

    def successors_of(self, node: int):
        """The successor node ids of ``node`` (CSR slice)."""
        return self.succ[self.indptr[node] : self.indptr[node + 1]]

    def to_explored_system(self) -> ExploredSystem:
        """The equivalent dict-based :class:`ExploredSystem`.

        Materializes Python keys and dicts for every node — meant for
        small systems (tests, lasso extraction), not the 10⁷-state runs.
        """
        keys = self.keys()
        indptr = self.indptr
        succ_list = self.succ.tolist()
        successors: Dict[int, Tuple[int, ...]] = {}
        safe_flags = self.safe.tolist()
        safe: Dict[int, bool] = {}
        for node, key in enumerate(keys):
            start, stop = int(indptr[node]), int(indptr[node + 1])
            successors[key] = tuple(keys[s] for s in succ_list[start:stop])
            safe[key] = bool(safe_flags[node])
        terminal_keys = frozenset(
            keys[node] for node in _nonzero_list(self.terminal)
        )
        initial_keys = [keys[node] for node in self.initial_nodes.tolist()]
        return ExploredSystem(
            space=self.space,
            daemon_class=self.daemon_class,
            keys=list(keys),
            successors=successors,
            safe=safe,
            initial_keys=initial_keys,
            terminal_keys=terminal_keys,
            exhaustive=self.exhaustive,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ArrayExploredSystem({self.daemon_class!r}, "
            f"states={self.state_count}, transitions={self.transition_count}, "
            f"exhaustive={self.exhaustive})"
        )


def _nonzero_list(mask) -> List[int]:
    import numpy as np

    return np.nonzero(mask)[0].tolist()


class BatchedTransitionSystem:
    """Vectorized daemon-class expansion (see the module docstring).

    Drop-in analogue of :class:`~repro.verify.TransitionSystem`: same
    constructor semantics plus an optional :class:`SymmetryReducer`
    (``reducer``) that canonicalizes every discovered state to its orbit
    representative before dedup, and a ``batch_blocks`` knob for the number
    of configurations stacked per kernel call.
    """

    __slots__ = (
        "_protocol",
        "_specification",
        "_space",
        "_daemon_class",
        "_max_states",
        "_max_selections",
        "_reducer",
        "_blocks",
        "_packer",
        "_codec",
        "_base_index",
        "_tier_blocks",
        "_tiers",
        "_rank_of_row",
        "_order",
        "_safe_hook_broken",
    )

    def __init__(
        self,
        protocol: Protocol,
        specification: Specification,
        daemon_class: str = "synchronous",
        space: Optional[StateSpace] = None,
        max_states: int = DEFAULT_MAX_STATES,
        max_selections: int = DEFAULT_MAX_SELECTIONS,
        reducer: Optional[SymmetryReducer] = None,
        batch_blocks: int = DEFAULT_BATCH_BLOCKS,
    ) -> None:
        if daemon_class not in DAEMON_CLASSES:
            raise VerificationError(
                f"unknown daemon class {daemon_class!r}; known: {', '.join(DAEMON_CLASSES)}"
            )
        capability = protocol_supports_vector(protocol)
        if capability is None:
            raise VerificationError(
                f"the batched checker needs NumPy and protocol "
                f"{protocol.name!r}'s array codec/kernel with the stock "
                "transition semantics (protocol_supports_vector); use the dict "
                "engine"
            )
        codec, _ = capability
        import numpy as np

        self._protocol = protocol
        self._specification = specification
        self._space = space if space is not None else StateSpace(protocol)
        self._daemon_class = daemon_class
        self._max_states = max_states
        self._max_selections = max_selections
        self._reducer = reducer
        self._blocks = max(1, int(batch_blocks))
        self._packer = ArrayPacker(self._space, codec)
        self._codec = codec
        self._base_index = GraphIndex(protocol.graph)
        if tuple(self._base_index.vertices) != tuple(self._space.vertices):
            # GraphIndex rows follow graph.vertices; the space follows
            # sorted_vertices.  Rebuild the index over the sorted order so
            # state columns and kernel rows line up one-to-one.
            self._base_index = _sorted_graph_index(protocol)
        # Tiered batch capacities: small frontiers (region closures are
        # often a few hundred states) run against a small tiled index
        # instead of padding to the full capacity every round.  Tiers are
        # built (and their kernel instances prepared) lazily on first use.
        self._tier_blocks = tuple(
            sorted({min(64, self._blocks), min(512, self._blocks), self._blocks})
        )
        self._tiers: Dict[int, Tuple[TiledGraphIndex, ArrayKernel]] = {}
        # Row position -> rank in the dict path's repr-sorted enabled order.
        order = sorted(range(self._base_index.n), key=lambda i: repr(self._space.vertices[i]))
        rank = np.empty(self._base_index.n, dtype=np.int64)
        for position, row in enumerate(order):
            rank[row] = position
        self._rank_of_row = rank
        self._order = self._space.vertices
        self._safe_hook_broken = False

    @property
    def space(self) -> StateSpace:
        """The packed configuration space."""
        return self._space

    @property
    def daemon_class(self) -> str:
        """The daemon class being expanded."""
        return self._daemon_class

    @property
    def reducer(self) -> Optional[SymmetryReducer]:
        """The symmetry reducer in effect (``None`` = no quotient)."""
        return self._reducer

    # ------------------------------------------------------------------ #
    # Entry points (same contract as TransitionSystem)
    # ------------------------------------------------------------------ #
    def explore(self, initial: Iterable[Configuration]) -> ArrayExploredSystem:
        """The reachable closure of ``initial`` under the daemon class."""
        initial_keys = self._space.encode_many(list(initial))
        if not initial_keys:
            raise VerificationError("the initial region is empty")
        seed_keys = list(dict.fromkeys(initial_keys))
        seed_idx = self._packer.indices_of_keys(seed_keys)
        return self._expand(seed_idx, exhaustive=False)

    def explore_full(self) -> ArrayExploredSystem:
        """The full product space (guarded by the exploration cap)."""
        if self._space.size > self._max_states:
            raise VerificationError(
                f"full state space has {self._space.size} configurations, above "
                f"the exploration cap of {self._max_states}"
            )
        return self._expand(None, exhaustive=True)

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def _expand(self, seed_idx, exhaustive: bool) -> ArrayExploredSystem:
        import numpy as np

        state = _ExpansionState(self, exhaustive)
        if exhaustive:
            size = self._space.size
            if state.dense:
                initial_nodes = np.arange(size, dtype=np.int64)
            else:
                # Quotient (or multi-column) exhaustive mode: stream every
                # key through canonicalization + the registry first; the
                # closure then discovers nothing new.
                for start in range(0, size, self._blocks):
                    stop = min(start + self._blocks, size)
                    idx = self._dense_indices(start, stop)
                    state.nodes_of(self._canonical(idx))
                initial_nodes = np.arange(state.node_count, dtype=np.int64)
        else:
            idx = self._canonical(seed_idx)
            seed_nodes = state.nodes_of(idx)
            initial_nodes = np.asarray(
                list(dict.fromkeys(seed_nodes.tolist())), dtype=np.int64
            )
        # BFS: expand nodes strictly in discovery order, one batch of at
        # most ``batch_blocks`` per kernel round.
        while state.expanded < state.node_count or (
            state.dense and state.expanded < self._space.size
        ):
            total = self._space.size if state.dense else state.node_count
            stop = min(state.expanded + self._blocks, total)
            if state.dense:
                frontier_idx = self._dense_indices(state.expanded, stop)
            else:
                frontier_idx = state.rows_slice(state.expanded, stop)
            frontier_ids = np.arange(state.expanded, stop, dtype=np.int64)
            self._expand_batch(state, frontier_idx, frontier_ids)
            state.expanded = stop
        return state.finish(initial_nodes)

    def _dense_indices(self, start: int, stop: int):
        import numpy as np

        keys = np.arange(start, stop, dtype=np.int64)
        out = np.empty((stop - start, self._base_index.n), dtype=np.int64)
        remainder = keys
        for i, radix in enumerate(self._packer._radices):
            remainder, out[:, i] = np.divmod(remainder, radix)
        return out

    def _canonical(self, idx):
        if self._reducer is None:
            return idx
        return self._reducer.canonicalize_index_matrix(idx, self._packer)

    # -- one frontier batch ------------------------------------------- #
    def _expand_batch(self, state: "_ExpansionState", frontier_idx, frontier_ids) -> None:
        import numpy as np

        n = self._base_index.n
        F = frontier_idx.shape[0]
        rows3d = self._packer.rows_of(frontier_idx)
        rule_flat = self._eval_rules(rows3d)
        enabled_flat = rule_flat >= 0
        counts = enabled_flat.reshape(F, n).sum(axis=1)
        terminal = counts == 0
        safe = self._safe_of(frontier_idx, rows3d)

        if self._daemon_class == "synchronous":
            succ_parent, succ_idx = self._successors_synchronous(
                rows3d, rule_flat, terminal
            )
        elif self._daemon_class == "central":
            succ_parent, succ_idx = self._successors_central(
                rows3d, rule_flat, counts
            )
        else:
            succ_parent, succ_idx = self._successors_distributed(
                rows3d, rule_flat, counts
            )
        succ_idx = self._canonical(succ_idx)

        # Per-parent first-occurrence dedup, preserving the deterministic
        # selection order (the dict path's dict.fromkeys over encode_many).
        if succ_idx.shape[0]:
            cols = self._packer.key_columns(succ_idx)
            stacked = np.concatenate([succ_parent[:, None], cols], axis=1)
            _, first = np.unique(stacked, axis=0, return_index=True)
            keep = np.sort(first)
            succ_parent = succ_parent[keep]
            succ_idx = succ_idx[keep]
            succ_nodes = state.nodes_of(succ_idx)
        else:
            succ_nodes = np.empty(0, dtype=np.int64)
        dedup_counts = np.bincount(succ_parent, minlength=F)

        # Interleave with terminal self-loops, in frontier order.
        out_counts = np.where(terminal, 1, dedup_counts)
        offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(out_counts)]
        )
        succ_out = np.empty(int(offsets[-1]), dtype=np.int64)
        if succ_nodes.size:
            position_in_parent = np.arange(succ_nodes.size, dtype=np.int64) - np.repeat(
                np.cumsum(dedup_counts) - dedup_counts, dedup_counts
            )
            succ_out[np.repeat(offsets[:-1], dedup_counts) + position_in_parent] = (
                succ_nodes
            )
        if terminal.any():
            succ_out[offsets[:-1][terminal]] = frontier_ids[terminal]
        state.commit(out_counts, succ_out, safe, terminal)

    # -- kernel plumbing ----------------------------------------------- #
    def _tier(self, blocks_needed: int):
        """The smallest prepared ``(tiled_index, kernel)`` tier holding at
        least ``blocks_needed`` stacked configurations."""
        for tier in self._tier_blocks:
            if tier >= blocks_needed:
                break
        cached = self._tiers.get(tier)
        if cached is None:
            index = TiledGraphIndex(self._base_index, tier)
            kernel = self._protocol.array_kernel()
            kernel.prepare(index)
            cached = self._tiers[tier] = (index, kernel)
        return tier, cached[0], cached[1]

    def _pad_states(self, states):
        """Pad a ``(b·n, width)`` state array to the capacity of the
        smallest fitting tier by tiling the first block (any valid rows
        do — padding blocks are evaluated but never selected or read)."""
        import numpy as np

        n = self._base_index.n
        blocks = states.shape[0] // n
        tier, index, kernel = self._tier(blocks)
        if blocks != tier:
            pad = np.tile(states[:n], (tier - blocks, 1))
            states = np.concatenate([states, pad])
        return states, index, kernel

    def _eval_rules(self, rows3d):
        """First-enabled rule ids for every vertex of every stacked
        configuration — chunked ``enabled_rules`` calls at capacity."""
        import numpy as np

        n = self._base_index.n
        F = rows3d.shape[0]
        flat = rows3d.reshape(F * n, self._packer._width)
        out = np.empty(F * n, dtype=np.int64)
        for start in range(0, F, self._blocks):
            stop = min(start + self._blocks, F)
            states, index, kernel = self._pad_states(flat[start * n : stop * n])
            rule_ids = kernel.enabled_rules(states, index)
            out[start * n : stop * n] = rule_ids[: (stop - start) * n]
        return out

    def _fire_blocks(self, big3d, fired_block, fired_row, rule_ids):
        """Fire one selection per block of ``big3d``: block ``b`` applies
        the rules of its fired vertices atomically.  Returns the successor
        ``(S, n, width)`` array."""
        import numpy as np

        n = self._base_index.n
        width = self._packer._width
        S = big3d.shape[0]
        out = np.ascontiguousarray(big3d).copy()
        flat = out.reshape(S * n, width)
        for start in range(0, S, self._blocks):
            stop = min(start + self._blocks, S)
            states, index, kernel = self._pad_states(flat[start * n : stop * n])
            mask = (fired_block >= start) & (fired_block < stop)
            selected = (fired_block[mask] - start) * n + fired_row[mask]
            new_rows = kernel.fire(states, selected, rule_ids[mask], index)
            flat[start * n + selected] = new_rows
        return out

    # -- per-daemon-class successor generation ------------------------- #
    def _successors_synchronous(self, rows3d, rule_flat, terminal):
        import numpy as np

        n = self._base_index.n
        parents = np.nonzero(~terminal)[0]
        if not parents.size:
            return np.empty(0, dtype=np.int64), np.empty(
                (0, n), dtype=np.int64
            )
        big3d = rows3d[parents]
        # Flat enabled positions, re-based onto the compacted block layout.
        enabled2d = (rule_flat >= 0).reshape(-1, n)[parents]
        fired_block, fired_row = np.nonzero(enabled2d)
        rules = rule_flat.reshape(-1, n)[parents][enabled2d]
        fired = self._fire_blocks(big3d, fired_block, fired_row, rules)
        return parents, self._packer.indices_of(fired)

    def _successors_central(self, rows3d, rule_flat, counts):
        import numpy as np

        n = self._base_index.n
        positions = np.nonzero(rule_flat >= 0)[0]
        if not positions.size:
            return np.empty(0, dtype=np.int64), np.empty((0, n), dtype=np.int64)
        block = positions // n
        row = positions % n
        # One successor per enabled vertex, ordered (parent, repr-rank) to
        # replicate daemon_class_selections' repr-sorted singleton order.
        order = np.lexsort((self._rank_of_row[row], block))
        positions = positions[order]
        block, row = block[order], positions % n
        big3d = np.repeat(rows3d, counts, axis=0)
        fired_block = np.arange(positions.size, dtype=np.int64)
        fired = self._fire_blocks(
            big3d, fired_block, row, rule_flat[positions]
        )
        return block, self._packer.indices_of(fired)

    def _successors_distributed(self, rows3d, rule_flat, counts):
        import numpy as np

        n = self._base_index.n
        rank = self._rank_of_row
        enabled2d = (rule_flat >= 0).reshape(-1, n)
        sel_parent: List[int] = []
        sel_rows: List[int] = []
        sel_blocks: List[int] = []
        selection_count = 0
        for parent in np.nonzero(counts > 0)[0].tolist():
            rows = np.nonzero(enabled2d[parent])[0]
            admitted = (1 << rows.size) - 1
            if admitted > self._max_selections:
                raise VerificationError(
                    f"distributed daemon class admits {admitted} selections "
                    f"for an enabled set of {rows.size} vertices, above the "
                    f"cap of {self._max_selections}; raise max_selections or "
                    "verify a smaller instance"
                )
            ordered = sorted(rows.tolist(), key=lambda r: rank[r])
            for size in range(1, len(ordered) + 1):
                for combination in itertools.combinations(ordered, size):
                    for fired_row in combination:
                        sel_rows.append(fired_row)
                        sel_blocks.append(selection_count)
                    sel_parent.append(parent)
                    selection_count += 1
        if not selection_count:
            return np.empty(0, dtype=np.int64), np.empty((0, n), dtype=np.int64)
        parent_arr = np.asarray(sel_parent, dtype=np.int64)
        fired_block = np.asarray(sel_blocks, dtype=np.int64)
        fired_row = np.asarray(sel_rows, dtype=np.int64)
        big3d = rows3d[parent_arr]
        rules = rule_flat[parent_arr[fired_block] * n + fired_row]
        fired = self._fire_blocks(big3d, fired_block, fired_row, rules)
        return parent_arr, self._packer.indices_of(fired)

    # -- safety --------------------------------------------------------- #
    def _safe_of(self, frontier_idx, rows3d):
        import numpy as np

        if not self._safe_hook_broken:
            flags = self._specification.safe_rows(
                rows3d, self._order, self._protocol
            )
            if flags is not None:
                return np.asarray(flags, dtype=bool)
            self._safe_hook_broken = True
        configurations = self._packer.configurations_of(frontier_idx)
        return np.fromiter(
            (
                bool(self._specification.is_safe(c, self._protocol))
                for c in configurations
            ),
            dtype=bool,
            count=len(configurations),
        )


def _sorted_graph_index(protocol: Protocol) -> GraphIndex:
    """A :class:`GraphIndex` whose rows follow ``sorted_vertices`` order
    (the packing order of :class:`StateSpace`)."""
    index = GraphIndex.__new__(GraphIndex)
    import numpy as np

    graph = protocol.graph
    vertices = tuple(graph.sorted_vertices())
    index.vertices = vertices
    index.position = {v: i for i, v in enumerate(vertices)}
    n = index.n = len(vertices)
    degrees = [0] * n
    columns: List[int] = []
    for i, v in enumerate(vertices):
        neighbors = sorted(index.position[u] for u in graph.neighbors(v))
        degrees[i] = len(neighbors)
        columns.extend(neighbors)
    index.indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.asarray(degrees, dtype=np.int64), out=index.indptr[1:])
    index.indices = np.asarray(columns, dtype=np.int64)
    index.edge_src = np.repeat(
        np.arange(n, dtype=np.int64), np.asarray(degrees, dtype=np.int64)
    )
    return index


class _ExpansionState:
    """Mutable exploration state: node registry, per-round output chunks."""

    __slots__ = (
        "_system",
        "_packer",
        "exhaustive",
        "dense",
        "node_count",
        "expanded",
        "_node_of",
        "_count_chunks",
        "_succ_chunks",
        "_safe_chunks",
        "_terminal_chunks",
        "_rows_buf",
        "_rows_len",
    )

    def __init__(self, system: BatchedTransitionSystem, exhaustive: bool) -> None:
        packer = system._packer
        self._system = system
        self._packer = packer
        self.exhaustive = exhaustive
        # Dense mode: exhaustive, no quotient, keys fit int64 — node id IS
        # the key, no registry at all.
        self.dense = exhaustive and system._reducer is None and packer.packable
        self.node_count = system.space.size if self.dense else 0
        self.expanded = 0
        self._node_of: Dict = {}
        self._count_chunks: List = []
        self._succ_chunks: List = []
        self._safe_chunks: List = []
        self._terminal_chunks: List = []
        self._rows_buf = None
        self._rows_len = 0

    # -- node registry -------------------------------------------------- #
    def nodes_of(self, idx):
        """Node ids of an ``(m, n)`` (canonical) index matrix, assigning
        fresh ids to unseen states in first-occurrence order."""
        import numpy as np

        packer = self._packer
        cols = packer.key_columns(idx)
        if self.dense:
            return cols[:, 0]
        if packer.packable:
            uniques, first, inverse = np.unique(
                cols[:, 0], return_index=True, return_inverse=True
            )
            labels = uniques.tolist()
        else:
            uniques, first, inverse = np.unique(
                cols, axis=0, return_index=True, return_inverse=True
            )
            labels = [tuple(row) for row in uniques.tolist()]
        node_of = self._node_of
        lookup = np.empty(len(labels), dtype=np.int64)
        misses: List[Tuple[int, int]] = []
        for upos, label in enumerate(labels):
            node = node_of.get(label, -1)
            lookup[upos] = node
            if node < 0:
                misses.append((int(first[upos]), upos))
        if misses:
            misses.sort()
            new_rows = np.empty((len(misses), idx.shape[1]), dtype=np.int64)
            for offset, (first_ix, upos) in enumerate(misses):
                node = self.node_count
                self.node_count += 1
                node_of[labels[upos]] = node
                lookup[upos] = node
                new_rows[offset] = idx[first_ix]
            self._append_rows(new_rows)
            if self.node_count > self._system._max_states:
                raise VerificationError(
                    f"reachable region exceeds the exploration cap of "
                    f"{self._system._max_states} configurations"
                )
        return lookup[inverse.ravel()]

    def _append_rows(self, rows) -> None:
        # Amortized-doubling append: the registry grows by a few thousand
        # rows per round over potentially millions of rounds' worth of
        # nodes, so per-round reallocation must stay O(appended), not
        # O(total).
        import numpy as np

        m = rows.shape[0]
        need = self._rows_len + m
        if self._rows_buf is None:
            capacity = max(4096, m)
            self._rows_buf = np.empty((capacity, rows.shape[1]), dtype=np.int64)
        elif need > self._rows_buf.shape[0]:
            capacity = self._rows_buf.shape[0]
            while capacity < need:
                capacity *= 2
            grown = np.empty((capacity, self._rows_buf.shape[1]), dtype=np.int64)
            grown[: self._rows_len] = self._rows_buf[: self._rows_len]
            self._rows_buf = grown
        self._rows_buf[self._rows_len : need] = rows
        self._rows_len = need

    def rows_slice(self, start: int, stop: int):
        """Index-matrix rows of nodes ``start..stop`` (discovery order)."""
        return self._rows_buf[start:stop]

    # -- per-round output ----------------------------------------------- #
    def commit(self, out_counts, succ_out, safe, terminal) -> None:
        self._count_chunks.append(out_counts)
        self._succ_chunks.append(succ_out)
        self._safe_chunks.append(safe)
        self._terminal_chunks.append(terminal)

    def finish(self, initial_nodes) -> ArrayExploredSystem:
        import numpy as np

        system = self._system
        counts = (
            np.concatenate(self._count_chunks)
            if self._count_chunks
            else np.empty(0, dtype=np.int64)
        )
        indptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        succ = (
            np.concatenate(self._succ_chunks)
            if self._succ_chunks
            else np.empty(0, dtype=np.int64)
        )
        safe = (
            np.concatenate(self._safe_chunks)
            if self._safe_chunks
            else np.empty(0, dtype=bool)
        )
        terminal = (
            np.concatenate(self._terminal_chunks)
            if self._terminal_chunks
            else np.empty(0, dtype=bool)
        )
        if self.dense:
            index_matrix = np.concatenate(
                [
                    system._dense_indices(start, min(start + (1 << 16), self.node_count))
                    for start in range(0, self.node_count, 1 << 16)
                ]
            ) if self.node_count else np.empty((0, system._base_index.n), dtype=np.int64)
        else:
            index_matrix = (
                self.rows_slice(0, self.node_count)
                if self.node_count
                else np.empty((0, system._base_index.n), dtype=np.int64)
            )
        if succ.size and self.node_count < (1 << 31):
            succ = succ.astype(np.int32)
        return ArrayExploredSystem(
            space=system.space,
            daemon_class=system.daemon_class,
            exhaustive=self.exhaustive,
            packer=system._packer,
            reducer=system._reducer,
            index_matrix=index_matrix,
            indptr=indptr,
            succ=succ,
            safe=safe,
            terminal=terminal,
            initial_nodes=initial_nodes,
        )


# ---------------------------------------------------------------------- #
# The array game solver
# ---------------------------------------------------------------------- #
class ArrayGameSolution:
    """The solved stabilization game over an :class:`ArrayExploredSystem`.

    ``values[node]`` is the exact worst-case stabilization time of the
    node's configuration (``-1`` = diverging); ``legitimate`` is the
    certified attractor as a boolean mask.
    """

    __slots__ = ("system", "values", "legitimate", "diverging")

    def __init__(self, system: ArrayExploredSystem, values, legitimate, diverging) -> None:
        self.system = system
        self.values = values
        self.legitimate = legitimate
        self.diverging = diverging

    @property
    def legitimate_count(self) -> int:
        """Number of certified legitimate nodes."""
        return int(self.legitimate.sum())

    @property
    def diverging_count(self) -> int:
        """Number of diverging nodes."""
        return int(self.diverging.sum())

    def worst_value_over(self, nodes) -> Optional[int]:
        """Max value over node ids — ``None`` if any of them diverges."""
        import numpy as np

        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return 0
        values = self.values[nodes]
        if (values < 0).any():
            return None
        return int(values.max())

    @property
    def exact_worst_case(self) -> Optional[int]:
        """Worst value over the system's initial region."""
        return self.worst_value_over(self.system.initial_nodes)

    def to_game_solution(self):
        """The dict-based :class:`~repro.verify.GameSolution` equivalent
        (small systems: materializes Python keys and dicts)."""
        from .solver import GameSolution

        system = self.system.to_explored_system()
        keys = self.system.keys()
        values_list = self.values.tolist()
        values = {
            keys[node]: value
            for node, value in enumerate(values_list)
            if value >= 0
        }
        legitimate = frozenset(
            keys[node] for node in _nonzero_list(self.legitimate)
        )
        diverging = frozenset(
            keys[node] for node in _nonzero_list(self.diverging)
        )
        return GameSolution(
            system=system,
            legitimate=legitimate,
            values=values,
            diverging=diverging,
            reducer=self.system.reducer,
        )

    def lasso(self):
        """A concrete divergence witness (``None`` when none exists).

        Builds the dict-based solver's lasso on the *diverging subsystem
        only* — stem/cycle extraction touches just the diverging region, so
        a huge stabilizing system with a small diverging core stays cheap.
        """
        from .solver import GameSolution

        import numpy as np

        if not self.diverging.any():
            return None
        asys = self.system
        keys = asys.keys()
        diverging_nodes = np.nonzero(self.diverging)[0]
        successors: Dict[int, Tuple[int, ...]] = {}
        safe: Dict[int, bool] = {}
        safe_list = asys.safe.tolist()
        for node in diverging_nodes.tolist():
            start, stop = int(asys.indptr[node]), int(asys.indptr[node + 1])
            successors[keys[node]] = tuple(
                keys[int(s)] for s in asys.succ[start:stop]
            )
            safe[keys[node]] = bool(safe_list[node])
        diverging_keys = [keys[node] for node in diverging_nodes.tolist()]
        initial_keys = [
            keys[int(node)]
            for node in asys.initial_nodes.tolist()
            if self.diverging[int(node)]
        ]
        subsystem = ExploredSystem(
            space=asys.space,
            daemon_class=asys.daemon_class,
            keys=diverging_keys,
            successors=successors,
            safe=safe,
            initial_keys=initial_keys,
            terminal_keys=frozenset(),
            exhaustive=False,
        )
        return GameSolution(
            system=subsystem,
            legitimate=frozenset(),
            values={},
            diverging=frozenset(diverging_keys),
            reducer=asys.reducer,
        ).lasso()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ArrayGameSolution(states={self.system.state_count}, "
            f"legitimate={self.legitimate_count}, diverging={self.diverging_count})"
        )


def solve_arrays(system: ArrayExploredSystem) -> ArrayGameSolution:
    """Solve the stabilization game over CSR arrays (see module docstring).

    Same three phases as :func:`repro.verify.solve` — greatest-fixpoint
    attractor, backward value iteration, divergence — each as frontier
    sweeps over boolean masks and ``reduceat`` segments.
    """
    import numpy as np

    N = system.state_count
    indptr = system.indptr
    succ = system.succ.astype(np.int64, copy=False)
    counts = indptr[1:] - indptr[:-1]

    # Reverse CSR: predecessors of every node.
    edge_owner = np.repeat(np.arange(N, dtype=np.int64), counts)
    order = np.argsort(succ, kind="stable")
    pred_src = edge_owner[order]
    pred_indptr = np.zeros(N + 1, dtype=np.int64)
    np.cumsum(np.bincount(succ, minlength=N), out=pred_indptr[1:])

    def predecessors_of(nodes):
        starts = pred_indptr[nodes]
        stops = pred_indptr[nodes + 1]
        return pred_src[_concat_ranges_np(starts, stops)]

    # 1. Greatest fixpoint: peel unsafe-reachable states off the safe set.
    legitimate = system.safe.copy()
    frontier = np.nonzero(~system.safe)[0]
    while frontier.size:
        preds = predecessors_of(frontier)
        candidates = preds[legitimate[preds]]
        if not candidates.size:
            break
        candidates = np.unique(candidates)
        legitimate[candidates] = False
        frontier = candidates

    # 2. Backward value iteration (adversary maximizes time to L).
    values = np.full(N, -1, dtype=np.int64)
    values[legitimate] = 0
    finalized = legitimate.copy()
    pending = counts.copy()
    frontier = np.nonzero(legitimate)[0]
    while frontier.size:
        preds = predecessors_of(frontier)
        np.subtract.at(pending, preds, 1)
        candidates = preds[(pending[preds] == 0) & ~finalized[preds]]
        if not candidates.size:
            break
        candidates = np.unique(candidates)
        # Every successor of a candidate is finalized; V = 1 + max.
        starts = indptr[candidates]
        stops = indptr[candidates + 1]
        segment_values = values[succ[_concat_ranges_np(starts, stops)]]
        boundaries = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(stops - starts)]
        )[:-1]
        values[candidates] = 1 + np.maximum.reduceat(segment_values, boundaries)
        finalized[candidates] = True
        frontier = candidates

    # 3. Whatever was never finalized diverges.
    return ArrayGameSolution(
        system=system,
        values=values,
        legitimate=legitimate,
        diverging=~finalized,
    )


class _ArrayValues:
    """Dict-like view of an :class:`ArrayGameSolution`'s value vector,
    keyed by Python-int packed keys (what :class:`VerificationResult`
    stores as ``values``).  Diverging nodes have no entry."""

    __slots__ = ("_solution",)

    def __init__(self, solution: ArrayGameSolution) -> None:
        self._solution = solution

    def get(self, key: int, default=None):
        node = self._solution.system.node_of_key(key)
        if node is None:
            return default
        value = int(self._solution.values[node])
        return default if value < 0 else value

    def __getitem__(self, key: int) -> int:
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def __contains__(self, key) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self._solution.system.state_count - self._solution.diverging_count

    def __iter__(self):
        keys = self._solution.system.keys()
        values = self._solution.values
        return (key for node, key in enumerate(keys) if values[node] >= 0)

    def items(self):
        """``(key, value)`` pairs of every non-diverging node."""
        keys = self._solution.system.keys()
        values = self._solution.values.tolist()
        return (
            (key, value)
            for key, value in zip(keys, values)
            if value >= 0
        )


class _ArrayKeySet:
    """Set-like view of an :class:`ArrayGameSolution`'s legitimate mask,
    keyed by Python-int packed keys."""

    __slots__ = ("_solution",)

    def __init__(self, solution: ArrayGameSolution) -> None:
        self._solution = solution

    def __contains__(self, key) -> bool:
        node = self._solution.system.node_of_key(key)
        return node is not None and bool(self._solution.legitimate[node])

    def __len__(self) -> int:
        return self._solution.legitimate_count

    def __iter__(self):
        keys = self._solution.system.keys()
        legitimate = self._solution.legitimate
        return (key for node, key in enumerate(keys) if legitimate[node])


def _concat_ranges_np(starts, stops):
    import numpy as np

    counts = stops - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(starts, counts) + (np.arange(total, dtype=np.int64) - offsets)
