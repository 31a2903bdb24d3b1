"""The three benchmark workloads.

Each workload builds the system under test from the benchmark seed and
hands it generated SQL, one statement at a time (see README.md for why
each one exists).  A :class:`Runner` is one built system plus its
seeded operation stream; the harness drives it through
``next_op`` / ``call`` / ``think`` / ``check`` and times only ``call``
and ``think``.
"""

import random
import traceback

from repro.chaos.env import build_ledger_fleet
from repro.chaos.invariants import InvariantChecker
from repro.common.errors import ReproError
from repro.fleet import FleetConfig
from repro.workloads.experiment import build_paper_setup
from repro.workloads.queries import guard_query, plan_choice_query
from repro.workloads.tpcd import customer_count

#: One node's compiled-plan cache capacity (MTCache's default).
PLAN_CACHE_SIZE = 128


class Op:
    __slots__ = ("kind", "sql", "bound", "expect", "tid")

    def __init__(self, kind, sql, bound=None, expect=None, tid=None):
        self.kind = kind        # "read" or "write"
        self.sql = sql
        self.bound = bound
        self.expect = expect    # sorted expected rows (None: checked elsewhere)
        self.tid = tid          # ledger transfer id


def _family_total(registry, family, **labels):
    """Sum a metric family's series whose labels include ``labels``."""
    total = 0
    for key, metric in registry.family(family).items():
        have = dict(key)
        if all(have.get(k) == v for k, v in labels.items()):
            total += metric.value
    return total


def cache_counts(caches, snapshot_store=None, fleet_registry=None):
    """Exact program counters summed over ``caches`` (MTCache nodes)."""
    counts = {
        "plan_hits": 0, "plan_misses": 0, "guard_pass": 0, "guard_fail": 0,
        "session_local": 0, "session_remote": 0, "records_applied": 0,
        "propagations": 0, "auto_stats_refreshes": 0,
    }
    for cache in caches:
        stats = cache.plan_cache_stats
        reg = cache.metrics
        counts["plan_hits"] += stats["hits"]
        counts["plan_misses"] += stats["misses"]
        counts["guard_pass"] += _family_total(reg, "currency_guard_total",
                                              outcome="pass")
        counts["guard_fail"] += _family_total(reg, "currency_guard_total",
                                              outcome="fail")
        counts["session_local"] += _family_total(reg, "session_guard_total",
                                                 outcome="local")
        counts["session_remote"] += _family_total(reg, "session_guard_total",
                                                  outcome="remote")
        counts["records_applied"] += _family_total(
            reg, "replication_records_applied_total")
        counts["propagations"] += _family_total(
            reg, "replication_refreshes_total")
        counts["auto_stats_refreshes"] += _family_total(
            reg, "auto_stats_refresh_total")
    store = snapshot_store.stats if snapshot_store is not None else {}
    counts["snapshot_hits"] = store.get("hits", 0)
    counts["snapshot_misses"] = store.get("misses", 0)
    if fleet_registry is not None:
        counts["scatter_splits"] = _family_total(fleet_registry,
                                                 "fleet_scatter_total")
        counts["scatter_legs"] = _family_total(fleet_registry,
                                               "fleet_scatter_legs_total")
    else:
        counts["scatter_splits"] = counts["scatter_legs"] = 0
    return counts


class Runner:
    """A built system plus its operation stream and check tallies."""

    #: Mean simulated think time between operations, in seconds.
    think_mean = 0.1

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.reads = 0
        self.local_reads = 0
        self.backend_rows = 0
        self.remote_reads = 0  # reads that sent any query to the back-end
        self.errors = []  # first few failure descriptions

    # -- hooks the workloads fill in -------------------------------------
    def next_op(self):
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def run_for(self, seconds):
        raise NotImplementedError

    def program_counts(self):
        raise NotImplementedError

    def verify(self, op, result):
        """True when ``result`` is the correct answer to ``op``."""
        return sorted(result.rows) == op.expect

    def finish(self):
        """End-of-phase audits; failures count into the tallies."""

    # -- what the harness calls ----------------------------------------
    def call(self, op):
        try:
            return self.execute(op)
        except ReproError as exc:
            return exc

    def think(self):
        self.run_for(self.rng.expovariate(1.0 / self.think_mean))

    def check(self, op, result):
        self.attempted += 1
        if isinstance(result, ReproError):
            self._fail(f"{op.sql}: {result!r}")
            return
        if op.kind == "read":
            self.reads += 1
            ctx = result.context
            if ctx is not None:
                if ctx.all_local:
                    self.local_reads += 1
                if ctx.remote_queries:
                    self.remote_reads += 1
                    self.backend_rows += sum(n for _, n in ctx.remote_queries)
        try:
            ok = self.verify(op, result)
        except Exception:  # a malformed result is a wrong result
            self._fail(f"{op.sql}: {traceback.format_exc(limit=2)}")
            return
        if not ok:
            rows = getattr(result, "rows", result)
            self._fail(f"{op.sql}: wrong result {rows!r:.200}")

    def _fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def tallies(self):
        """The harness-side counts (exact for a given seed and op index)."""
        return {
            "attempted": self.attempted, "failed": self.failed,
            "reads": self.reads, "local_reads": self.local_reads,
            "backend_rows": self.backend_rows,
            "remote_reads": self.remote_reads,
        }


# ----------------------------------------------------------------------
# fleet-point
# ----------------------------------------------------------------------
class FleetPoint:
    """3-node fleet over a 4-shard back-end; read-only, hot statements."""

    name = "fleet-point"
    rows = 4000
    point_keys = 20
    in_probes = 6
    #: (bound seconds, weight): the 1 s bound sits below the region's
    #: 2.5 s worst staleness, so those reads fall back when it is stale.
    bounds = ((1, 0.25), (10, 0.5), (60, 0.25))
    in_share = 0.2

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(seed)
        self.values = [rng.randrange(1_000_000) for _ in range(self.rows)]
        #: Hot point keys first, then the pool IN probes are drawn from.
        self.keys = rng.sample(range(self.rows), 200)

    def prepare(self):
        pass

    def build(self):
        return FleetPointRunner(self)


def _point_sql(key, bound):
    return (f"SELECT i.id, i.v FROM item i WHERE i.id = {key} "
            f"CURRENCY BOUND {bound} SEC ON (i)")


def _in_sql(keys, bound):
    return (f"SELECT i.id, i.v FROM item i WHERE i.id IN "
            f"({', '.join(map(str, keys))}) CURRENCY BOUND {bound} SEC ON (i)")


class FleetPointRunner(Runner):
    think_mean = 0.05

    def __init__(self, spec):
        super().__init__(spec.seed + 1)
        self.spec = spec
        fleet = FleetConfig(nodes=3, partitions=4).build()
        backend = fleet.backend
        backend.create_table(
            "CREATE TABLE item (id INT NOT NULL, v INT NOT NULL, "
            "PRIMARY KEY (id))"
        )
        for start in range(0, spec.rows, 500):
            backend.execute("INSERT INTO item VALUES " + ", ".join(
                f"({i}, {spec.values[i]})"
                for i in range(start, min(start + 500, spec.rows))
            ))
        backend.refresh_statistics()
        fleet.create_region("r", 2.0, 0.5, heartbeat_interval=0.5)
        fleet.create_matview("item_copy", "item", ["id", "v"], region="r")
        fleet.run_for(5.0)
        self.fleet = fleet
        self.hot = spec.keys[: spec.point_keys]
        # Every probe spans three shards, so each splits into three legs
        # whatever the seed.
        self.probes = []
        pool = iter(spec.keys[spec.point_keys:])
        while len(self.probes) < spec.in_probes:
            probe = []
            for key in pool:
                shard = backend.shard_of("item", key)
                if shard not in {backend.shard_of("item", k) for k in probe}:
                    probe.append(key)
                    if len(probe) == 3:
                        break
            self.probes.append(probe)
        # Node-side texts: a split statement reaches nodes as its legs.
        texts = set()
        for bound, _w in spec.bounds:
            for sql in ([_point_sql(k, bound) for k in self.hot]
                        + [_in_sql(p, bound) for p in self.probes]):
                legs = fleet.router.scatter_split(sql)
                texts.update([sql] if legs is None else [leg for _, leg in legs])
        if len(texts) > PLAN_CACHE_SIZE:
            raise ValueError(
                f"fleet-point statements ({len(texts)}) overflow the "
                f"{PLAN_CACHE_SIZE}-entry plan cache"
            )
        self._weights = [w for _, w in spec.bounds]
        self._bounds = [b for b, _ in spec.bounds]

    def next_op(self):
        rng = self.rng
        spec = self.spec
        bound = rng.choices(self._bounds, self._weights)[0]
        if rng.random() < spec.in_share:
            keys = rng.choice(self.probes)
            sql = _in_sql(keys, bound)
        else:
            keys = [rng.choice(self.hot)]
            sql = _point_sql(keys[0], bound)
        expect = sorted((k, spec.values[k]) for k in keys)
        return Op("read", sql, bound, expect)

    def execute(self, op):
        return self.fleet.execute(op.sql)

    def run_for(self, seconds):
        self.fleet.run_for(seconds)

    def program_counts(self):
        fleet = self.fleet
        return cache_counts(fleet.nodes, fleet.snapshot_store, fleet.metrics)


# ----------------------------------------------------------------------
# paper-tpcd
# ----------------------------------------------------------------------
#: (query, weight): Table 4.4's guard queries and Table 4.3's Q1/Q4/Q5/Q7.
PAPER_MIX = (("gq1", 0.25), ("gq2", 0.25), ("gq3", 0.1), ("q1", 0.1),
             ("q4", 0.1), ("q5", 0.1), ("q7", 0.1))
SCALE = 0.01


class PaperTpcd:
    """The paper's §4 MTCache over TPC-D SF 0.01 with its own queries."""

    name = "paper-tpcd"

    def __init__(self, seed):
        self.seed = seed
        #: The back-end's answers, from :meth:`prepare`'s own build.
        self.answers = None

    def prepare(self):
        """Compute the expected answers on an untimed build of its own."""
        self.answers = PaperTpcdRunner(self).compute_answers()

    def build(self):
        return PaperTpcdRunner(self)


class PaperTpcdRunner(Runner):
    think_mean = 0.25

    def __init__(self, spec):
        super().__init__(spec.seed + 1)
        self.spec = spec
        self.setup = build_paper_setup(scale_factor=SCALE, seed=spec.seed)
        self.n_customers = customer_count(SCALE)
        self._names = [q for q, _ in PAPER_MIX]
        self._weights = [w for _, w in PAPER_MIX]

    def compute_answers(self):
        """The back-end's own answers, computed outside any timed phase:
        the fixed statements run as-is (minus the currency clause) and
        the keyed lookups are grouped from one scan per table."""
        backend = self.setup.backend
        fixed = {}
        for sql in [guard_query("gq3", SCALE)] + [
            plan_choice_query(name, SCALE) for name in ("q1", "q4", "q5", "q7")
        ]:
            fixed[sql] = _backend_rows(backend, sql)
        customers = {}
        for row in backend.execute(
            "SELECT c.c_custkey, c.c_name, c.c_acctbal FROM customer c"
        ).rows:
            customers[row[0]] = [row]
        orders = {}
        for key, okey, price in backend.execute(
            "SELECT o.o_custkey, o.o_orderkey, o.o_totalprice FROM orders o"
        ).rows:
            orders.setdefault(key, []).append((okey, price))
        return {"fixed": fixed, "gq1": customers,
                "gq2": {k: sorted(v) for k, v in orders.items()}}

    def next_op(self):
        rng = self.rng
        name = rng.choices(self._names, self._weights)[0]
        answers = self.spec.answers
        if name in ("gq1", "gq2"):
            key = rng.randint(1, self.n_customers)
            sql = guard_query(name, SCALE, custkey=key)
            expect = answers[name].get(key, [])
        else:
            sql = (guard_query(name, SCALE) if name == "gq3"
                   else plan_choice_query(name, SCALE))
            expect = answers["fixed"][sql]
        return Op("read", sql, expect=expect)

    def execute(self, op):
        return self.setup.cache.execute(op.sql)

    def run_for(self, seconds):
        self.setup.run_for(seconds)

    def program_counts(self):
        cache = self.setup.cache
        return cache_counts([cache], cache.snapshot_store)


def _backend_rows(backend, sql):
    text = sql.split(" CURRENCY ")[0]
    return sorted(backend.execute(text).rows)


# ----------------------------------------------------------------------
# ledger-rw
# ----------------------------------------------------------------------
class LedgerRW:
    """3-node unsharded fleet running the ledger with 10 % writes."""

    name = "ledger-rw"
    accounts = 64
    write_rate = 0.1
    bounds = (0.0, 2.0, 600.0)
    preload = 100

    def __init__(self, seed):
        self.seed = seed

    def prepare(self):
        pass

    def build(self):
        return LedgerRunner(self)


class LedgerRunner(Runner):
    think_mean = 0.2

    def __init__(self, spec):
        super().__init__(spec.seed + 1)
        self.spec = spec
        self.fleet, self.workload = build_ledger_fleet(
            3, n_accounts=spec.accounts, write_rate=spec.write_rate,
            workload_seed=spec.seed,
        )
        self.checker = InvariantChecker(self.fleet)
        self.transfers = {}  # tid -> the two expected legs, sorted
        self._pending = None  # the read-your-writes re-read owed
        self._after_write = False
        for _ in range(spec.preload):
            op = self._transfer_op()
            self.fleet.execute(op.sql, session=self.workload.session)
            self._record(op)
        self.fleet.run_for(3.0)

    def _transfer_op(self):
        rng = self.rng
        n = self.spec.accounts
        tid = self.workload.next_tid
        self.workload.next_tid += 1
        src = rng.randrange(n)
        dst = (src + 1 + rng.randrange(n - 1)) % n
        amount = rng.randint(1, 99)
        sql = (f"INSERT INTO ledger VALUES "
               f"({tid}, 0, {src}, {amount}), ({tid}, 1, {dst}, -{amount})")
        legs = sorted([(tid, 0, src, amount), (tid, 1, dst, -amount)])
        return Op("write", sql, expect=legs, tid=tid)

    def _ledger_read(self, tid, bound):
        sql = (f"SELECT l.tid, l.leg, l.account, l.delta FROM ledger l "
               f"WHERE l.tid = {tid} CURRENCY BOUND {bound:g} SEC ON (l)")
        return Op("read", sql, bound, self.transfers[tid], tid)

    def _record(self, op):
        """Note a committed transfer (the conservation audit counts it)."""
        self.workload.committed.append(op.tid)
        self.transfers[op.tid] = op.expect

    def next_op(self):
        if self._pending is not None:
            op, self._pending = self._pending, None
            return op
        rng = self.rng
        if rng.random() < self.spec.write_rate:
            return self._transfer_op()
        bound = rng.choice(self.spec.bounds)
        if rng.random() < 0.3:
            key = rng.randrange(self.spec.accounts)
            sql = (f"SELECT a.id, a.grp FROM accounts a WHERE a.id = {key} "
                   f"CURRENCY BOUND {bound:g} SEC ON (a)")
            return Op("read", sql, bound, [(key, key % 8)])
        return self._ledger_read(rng.choice(self.workload.committed), bound)

    def execute(self, op):
        self._after_write = op.kind == "write"
        return self.fleet.execute(op.sql, bound=op.bound,
                                  session=self.workload.session)

    def think(self):
        # The read-your-writes re-read follows its write immediately.
        if not self._after_write:
            super().think()

    def run_for(self, seconds):
        self.fleet.run_for(seconds)

    def verify(self, op, result):
        if op.kind == "write":
            if result != 2:
                return False
            self._record(op)
            # Read the write straight back at the loosest bound, so the
            # session floor, not currency, decides local versus remote.
            self._pending = self._ledger_read(op.tid, max(self.spec.bounds))
            return True
        if op.tid is not None and self.checker.check_ryw(result, 2, tid=op.tid):
            return False
        return sorted(result.rows) == op.expect

    def finish(self):
        for violation in self.workload.audit(self.checker):
            self._fail(f"conservation: {violation}")

    def program_counts(self):
        fleet = self.fleet
        return cache_counts(fleet.nodes, fleet.snapshot_store, fleet.metrics)


WORKLOADS = {spec.name: spec for spec in (FleetPoint, PaperTpcd, LedgerRW)}
