import pytest

from localcolor.graph import Graph, GraphError
from localcolor.sim import RoundBudgetExceeded, RoundTrace, Sleep, VertexProgram, run
from helpers import cycle


class Collect(VertexProgram):
    """Broadcast own ID for a fixed number of rounds, gathering everything
    heard; output = sorted transcript."""

    def __init__(self, vertex, rounds):
        self.vertex = vertex
        self.rounds = rounds
        self.heard = []

    def init(self, view):
        self.neighbors = view.neighbors
        return {w: (self.vertex,) for w in view.neighbors}, self.rounds == 0

    def step(self, round_no, inbox):
        for v, msg in sorted(inbox.items()):
            self.heard.extend(msg)
        if round_no >= self.rounds:
            self.output = tuple(sorted(self.heard))
            return {}, True
        relay = tuple(sorted(x for msg in inbox.values() for x in msg))
        return {w: relay for w in self.neighbors}, False


def test_run_is_deterministic():
    g = cycle(8)
    out1, t1 = run(g, lambda v: Collect(v, 3))
    out2, t2 = run(g, lambda v: Collect(v, 3))
    assert out1 == out2
    assert t1.rounds == t2.rounds == 3


def test_output_depends_only_on_local_ball():
    # after r rounds a vertex has seen exactly its r-ball; C10 and C12
    # look identical within radius 2 of vertex 0 once relabeled to match
    big = Graph.from_edges(range(-5, 6), [(i, i + 1) for i in range(-5, 5)])
    small = Graph.from_edges(range(-3, 4), [(i, i + 1) for i in range(-3, 3)])
    out_big, _ = run(big, lambda v: Collect(v, 2))
    out_small, _ = run(small, lambda v: Collect(v, 2))
    assert out_big[0] == out_small[0]


def test_messages_to_non_neighbors_rejected():
    class Bad(VertexProgram):
        def init(self, view):
            return {view.vertex + 2: "x"}, True

    g = Graph.from_edges(range(4), [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(GraphError):
        run(g, lambda v: Bad())


def test_round_cap_enforced():
    class Forever(VertexProgram):
        def init(self, view):
            self.neighbors = view.neighbors
            return {}, False

        def step(self, round_no, inbox):
            return {}, False

    g = cycle(4)
    with pytest.raises(RoundBudgetExceeded):
        run(g, lambda v: Forever(), round_cap=5)


def test_trace_composition():
    t = RoundTrace()
    t.add_phase("a", 3)
    sub = RoundTrace()
    sub.add_phase("b", 2)
    t.extend(sub, "pre:")
    branches = [RoundTrace(), RoundTrace()]
    branches[0].add_phase("x", 7)
    branches[1].add_phase("y", 4)
    t.merge_parallel("par", branches)
    assert t.rounds == 3 + 2 + 7
    assert t.phase_breakdown == [("a", 3), ("pre:b", 2), ("par", 7)]


def test_halted_at_init_still_delivers_outbox():
    class OneShot(VertexProgram):
        def __init__(self, v):
            self.v = v

        def init(self, view):
            self.neighbors = view.neighbors
            return {w: self.v for w in view.neighbors}, self.v == 0

        def step(self, round_no, inbox):
            self.output = sorted(inbox.values())
            return {}, True

    g = Graph.from_edges([0, 1], [(0, 1)])
    out, trace = run(g, lambda v: OneShot(v))
    assert out[1] == [0]  # vertex 0 halted at init but its message arrived
    assert trace.rounds == 1


class Scripted(VertexProgram):
    """Returns ``plan[round_no]`` (round 0 is init; halts on rounds the plan
    leaves out) and logs (round, vertex, inbox) for every step."""

    def __init__(self, vertex, plan, log):
        self.vertex = vertex
        self.plan = plan
        self.log = log

    def init(self, view):
        return self.plan[0]

    def step(self, round_no, inbox):
        self.log.append((round_no, self.vertex, dict(inbox)))
        return self.plan.get(round_no, ({}, True))


def run_scripted(g, plans, round_cap=None):
    log = []
    _, trace = run(g, lambda v: Scripted(v, plans[v], log), round_cap)
    return log, trace


def test_mail_wakes_a_sleeping_vertex():
    g = Graph.from_edges([0, 1], [(0, 1)])
    plans = {0: {0: ({}, Sleep(10))},
             1: {0: ({}, False), 1: ({}, False), 2: ({0: "hi"}, True)}}
    log, trace = run_scripted(g, plans)
    assert log == [(1, 1, {}), (2, 1, {}), (3, 0, {1: "hi"})]
    assert trace.rounds == 3


def test_due_wake_up_delivers_empty_inbox():
    g = Graph.from_edges([0, 1], [(0, 1)])
    plans = {0: {0: ({}, Sleep(4))}, 1: {0: ({}, True)}}
    log, trace = run_scripted(g, plans)
    assert log == [(4, 0, {})]
    assert trace.rounds == 4


def test_skipped_silent_rounds_still_count():
    g = Graph.from_edges([0, 1], [(0, 1)])
    plans = {0: {0: ({}, Sleep(7)), 7: ({}, Sleep(20))},
             1: {0: ({}, Sleep(12))}}
    log, trace = run_scripted(g, plans)
    assert log == [(7, 0, {}), (12, 1, {}), (20, 0, {})]
    assert trace.rounds == 20
    # the same schedule busy-waiting every round takes as many rounds
    busy = {0: {r: ({}, False) for r in range(20)}, 1: {r: ({}, False) for r in range(12)}}
    _, busy_trace = run_scripted(g, busy)
    assert busy_trace.rounds == trace.rounds


def test_round_cap_enforced_across_a_skip():
    g = Graph.from_edges([0, 1], [(0, 1)])
    plans = {0: {0: ({}, Sleep(30))}, 1: {0: ({}, True)}}
    with pytest.raises(RoundBudgetExceeded):
        run_scripted(g, plans, round_cap=29)
    _, trace = run_scripted(g, plans, round_cap=30)
    assert trace.rounds == 30


def test_due_vertices_stepped_in_ascending_id_order():
    # round 2: 0 wakes on schedule, 1 wakes on mail, 2 was never asleep
    g = Graph.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    plans = {0: {0: ({}, Sleep(2))},
             1: {0: ({}, Sleep(5))},
             2: {0: ({}, False), 1: ({1: "x"}, False)}}
    log, _ = run_scripted(g, plans)
    assert [(r, v) for r, v, _ in log] == [(1, 2), (2, 0), (2, 1), (2, 2)]


def test_sleep_must_end_in_a_later_round():
    g = Graph.from_edges([0, 1], [(0, 1)])
    plans = {0: {0: ({}, False), 1: ({}, Sleep(1))}, 1: {0: ({}, True)}}
    with pytest.raises(GraphError, match="sleep"):
        run_scripted(g, plans)


def test_message_to_non_neighbor_from_step_rejected():
    g = Graph.from_edges(range(4), [(0, 1), (1, 2), (2, 3)])
    plans = {0: {0: ({}, False), 1: ({}, False), 2: ({3: "x"}, True)},
             1: {0: ({}, True)}, 2: {0: ({}, True)}, 3: {0: ({}, True)}}
    with pytest.raises(GraphError, match="vertex 0 addressed non-neighbor 3"):
        run_scripted(g, plans)


def test_halting_step_still_delivers_outbox():
    g = Graph.from_edges([0, 1], [(0, 1)])
    plans = {0: {0: ({}, False), 1: ({1: "bye"}, True)},
             1: {0: ({}, Sleep(9))}}
    log, trace = run_scripted(g, plans)
    assert log == [(1, 0, {}), (2, 1, {0: "bye"})]
    assert trace.rounds == 2
