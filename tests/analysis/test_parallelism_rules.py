"""REP-P001: rung sweeps must route through the executor protocol."""

from __future__ import annotations

import textwrap

from repro.analysis import lint_source


def rules_of(source: str, cost_scope: bool = True) -> set[str]:
    return {f.rule for f in lint_source(textwrap.dedent(source), cost_scope=cost_scope)}


VIOLATING = """
    def insert_batch(self, edges):
        '''Insert.'''
        self.cm.charge(work=len(edges), depth=1)
        for rung in self.rungs:
            rung.insert_batch(edges)
"""


def test_p001_fires_on_direct_rung_batch_loop():
    assert "REP-P001" in rules_of(VIOLATING)


def test_p001_fires_on_index_loop_over_rungs():
    violating = """
        def delete_batch(self, edges):
            '''Delete.'''
            self.cm.charge(work=len(edges), depth=1)
            for i in range(len(self.rungs)):
                self.rungs[i].delete_batch(edges)
    """
    assert "REP-P001" in rules_of(violating)


def test_p001_fires_on_apply_ops_replay():
    violating = """
        def replay(self, ops):
            '''Replay.'''
            self.cm.tick()
            for rung in self.rungs:
                rung.apply_ops(ops)
    """
    assert "REP-P001" in rules_of(violating)


def test_p001_silent_on_read_only_sweep():
    clean = """
        def check_invariants(self):
            '''Audit.'''
            for rung in self.rungs:
                rung.check_invariants()
    """
    assert "REP-P001" not in rules_of(clean)


def test_p001_silent_on_task_building_loop():
    clean = """
        def dispatch(self, method, edges):
            '''Dispatch through the executor.'''
            self.cm.charge(work=len(edges), depth=1)
            tasks = [
                RungTask(structure=rung, method=method, args=(edges,))
                for rung in self.rungs
            ]
            self.executor.run_structures(self.cm, tasks)
    """
    assert "REP-P001" not in rules_of(clean)


def test_p001_respects_suppression():
    suppressed = """
        def replay_in_order(self):
            '''Replay queued batches one rung at a time.'''
            self.cm.tick()
            for i in range(len(self.rungs)):  # reprolint: disable=REP-P001
                self.rungs[i].apply_ops(self.pending[i])
    """
    assert "REP-P001" not in rules_of(suppressed)


def test_p001_silent_outside_cost_scope():
    assert "REP-P001" not in rules_of(VIOLATING, cost_scope=False)

# -- REP-P002: per-edge Python-object allocation ------------------------------


ALLOCATING_LOOP = """
    def insert_batch(self, edges):
        '''Insert.'''
        self.cm.charge(work=len(edges), depth=1)
        for u, v in edges:
            self.adj.setdefault(u, set()).add(v)
"""


def test_p002_fires_on_setdefault_growth_in_edge_loop():
    assert "REP-P002" in rules_of(ALLOCATING_LOOP)


def test_p002_fires_on_class_construction_in_edge_loop():
    violating = """
        def insert_batch(self, edges):
            '''Insert.'''
            self.cm.charge(work=len(edges), depth=1)
            for u, v in edges:
                self.nodes.append(TreapNode(u, v))
    """
    assert "REP-P002" in rules_of(violating)


def test_p002_fires_on_per_item_mutation_allocation():
    violating = """
        def insert(self, key):
            '''File one key.'''
            self._root = _join(self._root, _Node(key))
    """
    assert "REP-P002" in rules_of(violating)


def test_p002_silent_on_allocation_free_edge_loop():
    clean = """
        def delete_batch(self, edges):
            '''Delete.'''
            self.cm.charge(work=len(edges), depth=1)
            for u, v in edges:
                self.adj[u].discard(v)
    """
    assert "REP-P002" not in rules_of(clean)


def test_p002_silent_on_raising_path():
    clean = """
        def insert_batch(self, edges):
            '''Insert.'''
            self.cm.charge(work=len(edges), depth=1)
            for u, v in edges:
                if u == v:
                    raise BatchError(f"self-loop {u}")
                self.adj[u].add(v)
    """
    assert "REP-P002" not in rules_of(clean)


def test_p002_silent_on_hoisted_allocation():
    clean = """
        def insert_batch(self, edges):
            '''Insert.'''
            self.cm.charge(work=len(edges), depth=1)
            touched = set()
            for u, v in edges:
                touched.add(u)
                touched.add(v)
    """
    assert "REP-P002" not in rules_of(clean)


def test_p002_respects_suppression():
    suppressed = """
        def insert_batch(self, edges):
            '''Insert.'''
            self.cm.charge(work=len(edges), depth=1)
            for u, v in edges:
                self.adj.setdefault(u, set()).add(v)  # reprolint: disable=REP-P002
    """
    assert "REP-P002" not in rules_of(suppressed)


def test_p002_silent_outside_cost_scope():
    assert "REP-P002" not in rules_of(ALLOCATING_LOOP, cost_scope=False)
