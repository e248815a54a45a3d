"""The quadrature settings live on the performance function alone.

The subdivision level is the field PerformanceFunction.refine and the
rule's degree is fixed, so no public callable and no function of the
layers above geometry takes a quadrature or centroid knob. Parameters
that no caller ever set are fixed in the code and stay out too.
"""
import ast
import dataclasses
from collections import Counter
import importlib
import inspect
from pathlib import Path

import pytest

import gossipcover
from gossipcover import (cli, dyadic, geometry, gossip, netsim, partition,
                         quadrature, svg, switching)

KNOBS = {"order", "refine", "precomputed_centroids"}


def _knobs(fn) -> set:
    return KNOBS & set(inspect.signature(fn).parameters)


def _public_callables():
    for name in gossipcover.__all__:
        obj = getattr(gossipcover, name)
        if inspect.isclass(obj) and issubclass(obj, Exception):
            continue
        # the one place the subdivision level is set
        if callable(obj) and obj is not gossipcover.PerformanceFunction:
            yield name, obj


def _module_functions(mod):
    for name, obj in vars(mod).items():
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield f"{mod.__name__}.{name}", obj
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for attr, member in vars(obj).items():
                if inspect.isfunction(member):
                    yield f"{mod.__name__}.{name}.{attr}", member


def test_public_callables_take_no_quadrature_knobs():
    bad = {name: _knobs(fn) for name, fn in _public_callables() if _knobs(fn)}
    assert bad == {}


@pytest.mark.parametrize("mod", [partition, gossip, switching, netsim],
                         ids=lambda m: m.__name__)
def test_layer_functions_take_no_quadrature_knobs(mod):
    bad = {name: _knobs(fn) for name, fn in _module_functions(mod)
           if _knobs(fn)}
    assert bad == {}


FIXED = [(geometry.bisector_halfplane, "tol"),
         (geometry.convex_intersect, "min_area"),
         (geometry.ConvexPolygon.__init__, "check"),
         (geometry.hausdorff_distance, "samples_per_edge"),
         (partition.Partition.validate, "overlap_tol"),
         (partition.check_points, "distinct"),
         (netsim.random_destination, "max_attempts"),
         (quadrature.triangle_rule, "degree"),
         (switching.run_lloyd, "check_every"),
         # one setting picks the exchange: a delta, or none for the full map
         (switching.run_evolution, "map_kind"),
         # the descent's one length is its scale; a region's minimizer lies
         # in its hull, and Partition refuses vanished regions
         (geometry.centroid, "within"), (geometry.centroid, "min_area"),
         # a split projects the region onto its cut line itself
         (geometry.region_split, "offsets"), (partition.pair_split, "di"),
         (partition.pair_split, "dj"),
         # no caller sets a picture's width or the interval's quantile
         (svg.render_svg, "width"), (switching._wilson, "z")]


@pytest.mark.parametrize("fn, name", FIXED,
                         ids=[f"{fn.__qualname__}.{name}" for fn, name in FIXED])
def test_fixed_settings_take_no_parameter(fn, name):
    assert name not in inspect.signature(fn).parameters


# one implementation per operation: the second copies stay deleted
GONE = [(geometry, "clip_convex"), (geometry, "point_region_distance"),
        (geometry, "_point_segment_distance"), (gossip, "_already_split"),
        (gossip, "_trade_below_tolerance"), (partition, "is_mixed_centroidal"),
        (partition.Environment, "as_region"),
        # one exchange body: the full map is the distance-limited one at beta 1
        (gossip, "_full_exchange"), (gossip, "_apply_pair"),
        (gossip, "_slab_regions"),
        # one owner of the region-building policy and its piece budget,
        # one vertex grid in geometry
        (geometry.Region, "from_pieces"), (geometry, "DEFAULT_PIECE_BUDGET"),
        (geometry, "_DEDUPE_REL"), (geometry, "_seam_scale"),
        # one centroid memo entry, filled whole
        (partition, "_centroid_cost"),
        # a centroid lies in its region's hull, so nothing projects
        (geometry, "project_to_convex"),
        # a piece's derived data are its cached properties, and the seam
        # test compares vertices exactly
        (geometry, "_poly_bbox"), (geometry, "_piece_extremes"),
        (geometry.ConvexPolygon, "_edge_data"), (geometry, "_SEAM_KEY_REACH"),
        # merge_pieces builds every candidate hull: no inscribed-polygon guard
        (geometry, "_FAN_INDEX"), (geometry, "_FAN"), (geometry, "_extremes"),
        (geometry, "_inscribed_area"), (geometry, "_area_rounding"),
        (geometry, "_fused_hull"), (geometry.ConvexPolygon, "extremes"),
        # the split alone decides a no-op, and projects for itself
        (gossip, "_bisector_offsets"), (gossip, "_on_own_sides"),
        (gossip, "_exchange_once"),
        # the integrals take values at the quadrature points, not callables
        (geometry, "_cost_integrand"), (geometry, "_gradient_integrand"),
        (geometry, "_quad_sum_vec"),
        # the descent measures offsets and sums its gradient inline
        (geometry, "_cost_gradient"), (geometry, "_offsets"),
        # its stop and decrease tests are plain float expressions
        (geometry, "_hypot_below"), (geometry, "_armijo"),
        # the descent is the linear kind's, so f' has no reader
        (geometry.PerformanceFunction, "dfn"),
        # a cost is its kind: no user-supplied callable to spot-check
        (geometry.PerformanceFunction, "validate"),
        # the config is parsed once, from one key table: no field readers
        (cli, "_get"), (cli, "_number"), (cli, "_numbers"), (cli, "_count"),
        (cli, "_seed"), (cli, "_nonnegative"),
        # one writer emits a run's files, snapshots and summary
        (cli, "write_summary"), (cli, "write_snapshots"),
        (cli, "_trace_minima"), (cli, "_ensure_out"),
        # reference forms that only tests call live in tests/oracles.py
        (partition, "voronoi_cost"), (dyadic, "full_interval_cost"),
        (geometry.HalfPlane, "flipped"), (geometry.UniformDensity, "sup_norm"),
        (geometry.GridDensity, "sup_norm"),
        (geometry.PerformanceFunction, "lipschitz_on"),
        (netsim, "phase_frequencies"),
        (switching, "check_uniform_persistency"),
        (switching, "empirical_persistency"),
        (switching, "spiral_radius_offsets"),
        # one per-pair window statistic, in switching
        (netsim, "_wilson"),
        # one sort of pieces against a line: a clip is region_split's
        # inside side, and the snap lives in region_split
        (geometry, "split_convex"), (geometry, "_snap"),
        # one interior-distance rule: the vertex-to-edge pass gives the
        # distance and a piece contact test the zero
        (geometry, "_convex_distance"), (geometry, "_pieces_below"),
        # one rule per predicate: np.hypot decides netsim range,
        # ConvexPolygon.contains a point in a piece, and region_split's
        # projection the side of a half-plane
        (netsim, "_in_range"), (netsim, "_HYPOT_ULPS"),
        (geometry, "_contains_point"), (geometry.HalfPlane, "signed"),
        (geometry.HalfPlane, "contains"),
        # one ring dedupe, whatever form the ring comes in; a fraction
        # is clamped where it is computed
        (geometry, "_ring_array"), (gossip, "_sat"),
        # the residual reads each pair's movement from the partition's
        # memo: no bound orders or stops its splits
        (gossip, "_trade_bound"),
        # the exchange reads its fraction from gossip._fraction; tests
        # take a checked one from tests/oracles.py
        (gossip, "trade_fraction")]


@pytest.mark.parametrize("owner, name", GONE,
                         ids=[name for _, name in GONE])
def test_second_copies_stay_deleted(owner, name):
    assert not hasattr(owner, name)


def test_region_caches_one_map():
    # hasattr cannot see a default_factory field, so read the fields;
    # refused is not a cache but the merge verdicts on the region's own
    # pieces, which Environment.region carries to the regions cut from it
    assert [f.name for f in dataclasses.fields(geometry.Region)] == \
        ["pieces", "cache", "refused"]


def test_partition_keeps_two_memos():
    # the distance-limited exchange's no-ops, and one dict of answers per
    # region pair: adjacency at each delta and movement at each cost
    assert [f.name for f in dataclasses.fields(partition.Partition)] == \
        ["env", "regions", "exchange_cache", "pair_cache"]


def test_performance_is_a_kind_and_a_refine_level():
    assert [f.name for f in dataclasses.fields(geometry.PerformanceFunction)] \
        == ["kind", "refine"]


# the exchange, contact, step and degeneracy records are named tuples:
# their fields, in order, are their interface
RECORDS = {
    gossip.StepOutcome: ("partition", "changed", "pair", "h_before",
                         "h_after", "traded_area"),
    netsim.CommEvent: ("time", "pair", "changed", "traded_area", "h"),
    switching.TraceStep: ("t", "pair", "h", "residual", "min_centroid_gap",
                          "min_region_area", "max_piece_count"),
    partition.DegeneracyReport: ("min_centroid_gap", "min_region_area",
                                 "max_piece_count"),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_records_keep_their_fields_and_stay_immutable(record):
    names = RECORDS[record]
    assert record._fields == names
    rec = record(*range(len(names)))
    assert [getattr(rec, name) for name in names] == list(range(len(names)))
    for name in names + ("note",):
        with pytest.raises(AttributeError):
            setattr(rec, name, -1)


def test_balance_test_lives_beside_the_residual():
    assert gossipcover.is_mixed_centroidal is gossip.is_mixed_centroidal


SRC = Path(gossipcover.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"
# members that only the benchmark reads; moving one is a benchmark change
BENCH_READS = {
    "geometry.integrate": "bench/tracer.py times it by name",
    "partition.pair_rebalanced": "bench/tracer.py times it by name, and "
                                 "bench/workloads.py calls it",
    "switching.EvolutionTrace.h_series": "bench/workloads.py reads a "
                                         "run's H series",
    "netsim.NetTrace.h_series": "bench/workloads.py reads a run's H series",
}


def _members(tree: ast.Module):
    """(name, owner, node) of each module-level function and each
    non-dunder member of a module-level class; owner is the class name,
    or None."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, None, node
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    names = [member.name]
                elif isinstance(member, ast.AnnAssign):
                    names = [member.target.id]
                elif isinstance(member, ast.Assign):
                    names = [t.id for t in member.targets
                             if isinstance(t, ast.Name)]
                else:
                    continue
                for name in names:
                    if not (name.startswith("__") and name.endswith("__")):
                        yield name, node.name, member


def _references(tree: ast.Module):
    """(name, line) of each name, attribute and keyword argument read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.value.lineno


def test_src_holds_only_what_the_package_calls():
    # a member nothing in src/ refers to outside its own body is dead
    # unless it is public API or the benchmark reads it by name
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    refs = {stem: list(_references(tree)) for stem, tree in trees.items()}
    unread = set()
    for stem, tree in trees.items():
        for name, owner, node in _members(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if name in gossipcover.__all__ or any(
                    ref == name and (where != stem or line not in own)
                    for where, found in refs.items() for ref, line in found):
                continue
            unread.add(".".join(filter(None, (stem, owner, name))))
    assert unread == set(BENCH_READS)


def _imports(tree: ast.Module):
    """Each name an import binds, __future__ features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exports(tree: ast.Module) -> list:
    """The names a module lists in __all__, read as they are written."""
    return [name for node in tree.body if isinstance(node, ast.Assign)
            and [t.id for t in node.targets] == ["__all__"]
            for name in ast.literal_eval(node.value)]


def test_src_reads_every_name_it_imports():
    # a deletion can leave behind an import that nothing reads; a name
    # that __all__ lists is read as a re-export
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)} | set(_exports(tree))
        unread |= {f"{path.stem}.{name}" for name in _imports(tree)
                   if name not in read}
    assert unread == set()


def test_bench_targets_resolve_in_the_package():
    # the tracer looks its targets up by name, so a rename in src/ must
    # fail here rather than time nothing; bench/ itself is not imported
    tree = ast.parse((BENCH / "tracer.py").read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    assert targets
    missing = [f"{mod}.{name}" for mod, name in targets if not callable(
        getattr(importlib.import_module(f"gossipcover.{mod}"), name, None))]
    assert missing == []


TESTS = Path(__file__).resolve().parent


def _oracle_reads(tree: ast.Module) -> set:
    """The attributes a test module reads from oracles, imported under
    any alias."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "oracles"}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in aliases}


def test_every_oracle_has_a_test_reader():
    # an oracle is live when a test module reads it, or a live oracle
    # does; anything else is a dead helper
    defined = {}
    for node in ast.parse((TESTS / "oracles.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            defined.update((t.id, node) for t in node.targets
                           if isinstance(t, ast.Name))
    live = set().union(*(_oracle_reads(ast.parse(path.read_text()))
                         for path in sorted(TESTS.glob("test_*.py"))))
    todo = sorted(live & set(defined))
    while todo:
        for node in ast.walk(defined[todo.pop()]):
            if isinstance(node, ast.Name) and node.id in defined \
                    and node.id not in live:
                live.add(node.id)
                todo.append(node.id)
    assert set(defined) - live == set()


def test_sum_left_adds_left_to_right():
    # the builtin sum of Python 3.12 and later compensates, giving 1.0
    assert geometry.sum_left([1e16, 1.0, -1e16]) == 0.0
    values = [0.1, 0.7, 1e-17, 0.2]
    assert geometry.sum_left(values) == ((0.1 + 0.7) + 1e-17) + 0.2
    assert geometry.sum_left(x for x in ()) == 0


def _float_sums(tree: ast.Module):
    """Lines of builtin sum calls that may add floats: every one but a
    count of int constants or a sum from a start that is not a number."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sum"):
            continue
        first = node.args[0] if node.args else None
        counts = (isinstance(first, ast.GeneratorExp)
                  and isinstance(first.elt, ast.Constant)
                  and type(first.elt.value) is int)
        start = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "start"), None)
        typed = start is not None and not isinstance(start, ast.Constant)
        if not (counts or typed):
            yield node.lineno


def test_src_sums_floats_left_to_right():
    # builtin sum changes its float bits from Python 3.12 on, so every
    # float sum in src/ goes through geometry.sum_left
    found = {f"{path.stem}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _float_sums(ast.parse(path.read_text()))}
    assert found == set()


# the products src/ still routes through BLAS, whose kernel may decide
# their last bits (ROADMAP item 3): an entry leaves as its product is
# written elementwise, and a new product fails here
BLAS_PRODUCTS = {
    "geometry.region_split @": 1,
    "gossip._exchange @": 2,
    "geometry.bisector_halfplane @": 1,
    "geometry._ring_area np.dot": 2,
    "geometry._polar_moment_about @": 5,
}


def _blas_products(tree: ast.AST, where: str):
    """'where @' or 'where np.dot' for each product in the tree, where
    is the name of the innermost enclosing function."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and isinstance(node.op, ast.MatMult):
            yield f"{where} @"
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("dot", "matmul"):
            yield f"{where} {ast.unparse(node.func)}"
        yield from _blas_products(node, inner)


def test_src_routes_only_the_listed_products_through_blas():
    found = Counter()
    for path in sorted(SRC.glob("*.py")):
        found.update(f"{path.stem}.{site}" for site in _blas_products(
            ast.parse(path.read_text()), "<module>"))
    assert found == Counter(BLAS_PRODUCTS)
