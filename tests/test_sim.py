import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from localcolor.basecolor import linial_coloring
from localcolor.graph import Graph, GraphError
from localcolor.io import gen_path
from localcolor.sim import (Done, RoundBudgetExceeded, RoundTrace, Sleep, VertexProgram,
                            default_round_cap, run)
from helpers import cycle, relabel


class Collect(VertexProgram):
    """Broadcast own ID for a fixed number of rounds, gathering everything
    heard; output = sorted transcript."""

    def __init__(self, vertex, rounds):
        self.vertex = vertex
        self.rounds = rounds
        self.heard = []

    def init(self, neighbors):
        self.neighbors = neighbors
        return {w: (self.vertex,) for w in neighbors}, self.rounds == 0

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
        def __init__(self, v):
            self.v = v

        def init(self, neighbors):
            return {self.v + 2: "x"}, True

    g = Graph.from_edges(range(4), [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(GraphError):
        run(g, Bad)


def test_round_cap_enforced():
    class Forever(VertexProgram):
        def init(self, neighbors):
            self.neighbors = neighbors
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
    assert t.rounds == 3 + 2
    assert t.phase_breakdown == [("a", 3), ("pre:b", 2)]


def test_init_is_handed_the_adjacency_tuple_and_the_factory_the_vertex():
    made, handed = [], {}

    class Record(VertexProgram):
        def __init__(self, v):
            self.v = v

        def init(self, neighbors):
            handed[self.v] = neighbors
            return {}, True

    def factory(v):
        made.append(v)
        return Record(v)

    g = relabel(gen_path(30), 5)
    run(g, factory)
    assert made == list(g.adj)
    assert handed.keys() == g.adj.keys()
    assert all(handed[v] is g.adj[v] for v in g.adj)


def test_halted_at_init_still_delivers_outbox():
    class OneShot(VertexProgram):
        def __init__(self, v):
            self.v = v

        def init(self, neighbors):
            self.neighbors = neighbors
            return {w: self.v for w in neighbors}, self.v == 0

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

    def init(self, neighbors):
        return self.plan[0]

    def step(self, round_no, inbox):
        self.log.append((round_no, self.vertex, dict(inbox)))
        return self.plan.get(round_no, ({}, True))


def run_scripted(g, plans, round_cap=None):
    log = []
    _, trace = run(g, lambda v: Scripted(v, plans[v], log), round_cap)
    return log, trace


def test_mail_reaches_a_sleeping_vertex_at_its_wake_up():
    # the mail does not wake vertex 0: it is held and handed over at round 10
    g = Graph.from_edges([0, 1], [(0, 1)])
    plans = {0: {0: ({}, Sleep(10))},
             1: {0: ({}, False), 1: ({}, False), 2: ({0: "hi"}, True)}}
    log, trace = run_scripted(g, plans)
    assert log == [(1, 1, {}), (2, 1, {}), (10, 0, {1: "hi"})]
    assert trace.rounds == 10


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
    # round 2: 1 and 3 asked for it at init, 0 asked in round 1 (so the
    # calendar holds them as 1, 3, 0), and 2 was never asleep
    g = Graph.from_edges([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
    plans = {0: {0: ({}, False), 1: ({}, Sleep(2))},
             1: {0: ({}, Sleep(2))},
             2: {0: ({}, False), 1: ({}, False)},
             3: {0: ({}, Sleep(2))}}
    log, _ = run_scripted(g, plans)
    assert [(r, v) for r, v, _ in log] == [(1, 0), (1, 2), (2, 0), (2, 1), (2, 2), (2, 3)]


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
             1: {0: ({}, Sleep(3))}}
    log, trace = run_scripted(g, plans)
    assert log == [(1, 0, {}), (3, 1, {0: "bye"})]
    assert trace.rounds == 3


def test_held_mail_keeps_the_latest_message_per_sender():
    # vertex 2 sleeps through rounds 1-4 while 0 and 1 write to it; mail
    # sent in round 5, the round it wakes in, waits for its next step
    g = Graph.from_edges([0, 1, 2], [(0, 2), (1, 2)])
    plans = {0: {0: ({}, False), 1: ({2: "a"}, False), 2: ({2: "b"}, Sleep(5)),
                 5: ({2: "e"}, True)},
             1: {0: ({2: "c"}, Sleep(4)), 4: ({2: "d"}, True)},
             2: {0: ({}, Sleep(5)), 5: ({}, Sleep(7))}}
    log, trace = run_scripted(g, plans)
    assert [(r, v) for r, v, _ in log] == [(1, 0), (2, 0), (4, 1), (5, 0), (5, 2), (7, 2)]
    assert log[4] == (5, 2, {0: "b", 1: "d"})
    assert log[5] == (7, 2, {0: "e"})
    assert trace.rounds == 7


def test_mail_to_a_halted_vertex_neither_wakes_it_nor_extends_the_run():
    # 0 halts at init and 1 in round 1; 2 keeps writing to both until it halts
    g = Graph.from_edges([0, 1, 2], [(0, 2), (1, 2)])
    plans = {0: {0: ({2: "x"}, True)},
             1: {0: ({}, False), 1: ({}, True)},
             2: {0: ({0: 1, 1: 1}, False), 1: ({0: 2, 1: 2}, False),
                 2: ({0: 3, 1: 3}, True)}}
    log, trace = run_scripted(g, plans)
    assert log == [(1, 1, {2: 1}), (1, 2, {0: "x"}), (2, 2, {})]
    assert trace.rounds == 2


def test_done_later_than_the_last_step_sets_the_rounds():
    # 0 is done at init until round 9, 2 in round 1 until round 6; 1 is
    # last stepped in round 3
    g = Graph.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    plans = {0: {0: ({}, Done(9))},
             1: {0: ({}, Sleep(3))},
             2: {0: ({}, False), 1: ({1: "x"}, Done(6))}}
    log, trace = run_scripted(g, plans)
    assert log == [(1, 2, {}), (3, 1, {2: "x"})]
    assert trace.rounds == 9
    # a Done until before the last stepped round leaves the rounds alone
    plans[0] = {0: ({}, Done(2))}
    _, trace = run_scripted(g, plans)
    assert trace.rounds == 6


def test_mail_to_a_done_vertex_is_dropped_and_does_not_extend_the_run():
    # 0 is done until round 3; 1 writes to it in rounds 1-4, and 0 is
    # never stepped
    g = Graph.from_edges([0, 1], [(0, 1)])
    plans = {0: {0: ({1: "bye"}, Done(3))},
             1: {0: ({}, False), 1: ({0: 1}, False), 2: ({0: 2}, False),
                 3: ({0: 3}, False), 4: ({0: 4}, True)}}
    log, trace = run_scripted(g, plans)
    assert log == [(1, 1, {0: "bye"}), (2, 1, {}), (3, 1, {}), (4, 1, {})]
    assert trace.rounds == 4


@pytest.mark.parametrize("round_no, until", [(0, 0), (0, -1), (2, 2), (2, 1)])
def test_done_must_last_past_the_current_round(round_no, until):
    g = Graph.from_edges([0, 1], [(0, 1)])
    plan = {0: ({}, Done(until))} if round_no == 0 else \
        {0: ({}, False), 1: ({}, False), 2: ({}, Done(until))}
    with pytest.raises(GraphError, match=f"round {round_no} to be done until round {until}"):
        run_scripted(g, {0: plan, 1: {0: ({}, True)}})


def test_done_past_the_round_cap_exceeds_the_budget():
    g = Graph.from_edges([0, 1], [(0, 1)])
    plans = {0: {0: ({}, False), 1: ({}, Done(8))}, 1: {0: ({}, True)}}
    with pytest.raises(RoundBudgetExceeded, match="round budget 7 exceeded"):
        run_scripted(g, plans, round_cap=7)
    _, trace = run_scripted(g, plans, round_cap=8)
    assert trace.rounds == 8


class Hoard(VertexProgram):
    """Broadcast the round number for ``rounds`` rounds, keeping every
    inbox handed over next to a copy taken at its step."""

    def __init__(self, rounds):
        self.rounds = rounds
        self.kept = []

    def init(self, neighbors):
        self.neighbors = neighbors
        return dict.fromkeys(neighbors, 0), False

    def step(self, round_no, inbox):
        self.kept.append((inbox, dict(inbox)))
        if round_no == self.rounds:
            self.output = self.kept
            return {}, True
        return dict.fromkeys(self.neighbors, round_no), False


def test_handed_over_inboxes_are_never_reused_or_mutated():
    # the engine may drop its own references to an inbox, but a program
    # that keeps one finds it as it was at its step
    g = cycle(6)
    out, trace = run(g, lambda v: Hoard(4))
    assert trace.rounds == 4
    kept = [pair for v in g.adj for pair in out[v]]
    assert len(kept) == 4 * g.n
    assert len({id(inbox) for inbox, _ in kept}) == len(kept)
    for v in g.adj:
        for round_no, (inbox, copy) in enumerate(out[v], 1):
            assert inbox == copy == dict.fromkeys(g.adj[v], round_no - 1)


class Scribble(VertexProgram):
    """Steps for ``rounds`` rounds, sending to the neighbors named in
    ``sends[round_no]``; keeps every inbox next to a copy taken at its
    step, then empties the inbox and writes the round number into it."""

    def __init__(self, rounds, sends):
        self.rounds = rounds
        self.sends = sends
        self.output = []

    def init(self, neighbors):
        return dict.fromkeys(self.sends.get(0, ()), "init"), False

    def step(self, round_no, inbox):
        self.output.append((inbox, dict(inbox)))
        inbox.clear()
        inbox[-1] = round_no
        outbox = dict.fromkeys(self.sends.get(round_no, ()), round_no)
        return outbox, round_no == self.rounds


def test_a_vertex_without_mail_gets_a_fresh_mutable_inbox_at_every_step():
    # on the path 0-1-2 only 0 sends, to 1 at init and in round 2; every
    # other inbox is empty, and writing into one reaches no later inbox
    g = Graph.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    sends = {0: {0: (1,), 2: (1,)}}
    out, trace = run(g, lambda v: Scribble(4, sends.get(v, {})))
    assert trace.rounds == 4
    copies = {v: [copy for _, copy in out[v]] for v in g.adj}
    assert copies == {0: [{}] * 4, 1: [{0: "init"}, {}, {0: 2}, {}], 2: [{}] * 4}
    kept = [inbox for v in g.adj for inbox, _ in out[v]]
    assert len({id(inbox) for inbox in kept}) == len(kept) == 12
    for v in g.adj:
        for round_no, (inbox, _) in enumerate(out[v], 1):
            assert inbox == {-1: round_no}


def test_a_sleepers_first_mail_is_handed_over_at_its_wake_up():
    # 0 is stepped in round 1, which empties its mailbox, and sleeps until
    # round 4; 1 and 2 write to it in rounds 2 and 3, and 1's later
    # message replaces its earlier one
    g = Graph.from_edges([0, 1, 2], [(0, 1), (0, 2)])
    plans = {0: {0: ({}, False), 1: ({}, Sleep(4))},
             1: {0: ({}, False), 1: ({}, False), 2: ({0: "a"}, False), 3: ({0: "b"}, True)},
             2: {0: ({}, Sleep(3)), 3: ({0: "c"}, True)}}
    log, trace = run_scripted(g, plans)
    assert log[-1] == (4, 0, {1: "b", 2: "c"})
    assert [(r, v) for r, v, _ in log] == [(1, 0), (1, 1), (2, 1), (3, 1), (3, 2), (4, 0)]
    assert trace.rounds == 4


def test_mail_to_a_vertex_that_halted_with_or_without_mail_is_dropped():
    # in round 1, 0 writes to 2 before 1 and 2 halt: 1 halts with no mail
    # pending and 2 with 0's message unread; 0 writes to both after that
    g = Graph.from_edges([0, 1, 2], [(0, 1), (0, 2)])
    plans = {0: {0: ({}, False), 1: ({2: "x"}, False), 2: ({1: "y", 2: "y"}, False),
                 3: ({1: "z", 2: "z"}, True)},
             1: {0: ({}, False), 1: ({}, True)},
             2: {0: ({}, False), 1: ({}, True)}}
    log, trace = run_scripted(g, plans)
    assert log == [(1, 0, {}), (1, 1, {}), (1, 2, {}), (2, 0, {}), (3, 0, {})]
    assert trace.rounds == 3


def test_mail_less_live_vertices_count_as_active_in_the_budget_error():
    # at round 3 vertex 0 is awake, 1 sleeps with no mail, 2 has halted
    g = Graph.from_edges([0, 1, 2], [(0, 1), (1, 2)])
    plans = {0: {r: ({}, False) for r in range(5)}, 1: {0: ({}, Sleep(9))},
             2: {0: ({}, True)}}
    with pytest.raises(RoundBudgetExceeded, match="2 vertices active"):
        run_scripted(g, plans, round_cap=2)


def test_run_memory():
    # Linial on a relabelled 20,000-vertex path peaks at 397 B per vertex.
    # Giving every live vertex its own empty mailbox, made up front and
    # again in every round, with the color kept twice per program, peaked
    # at 469 B (Python 3.11)
    g = relabel(gen_path(20000), 1)
    tracemalloc.start()
    try:
        col, trace = linial_coloring(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.rounds == 2 and len(col.assignment) == g.n
    assert peak / g.n < 430, peak / g.n


def test_default_round_cap_uses_exact_integer_log():
    # float log2 rounds 2**60 - 1 up to 60.0; the cap uses floor(log2 n)
    assert default_round_cap(SimpleNamespace(n=2 ** 60 - 1, max_degree=0)) == 10 * (59 + 50)
    assert default_round_cap(SimpleNamespace(n=2 ** 60, max_degree=0)) == 10 * (60 + 50)
    assert default_round_cap(cycle(5)) == 10 * (2 + 2 + 50)
    assert default_round_cap(Graph.from_edges([0], [])) == 10 * (1 + 0 + 50)


# -- differential check against a round-by-round reference engine ----------

def reference_run(g, make_program, round_cap):
    """The contract of ``run`` spelled out one round at a time: every round
    looks at every live vertex, and mail sent in a round is posted after
    it, to the vertices still live, latest message per sender.  A vertex
    done until round t is not live, but round t counts as one in which
    something is due."""
    programs = {}
    next_step = {}  # live vertex -> round it is stepped next
    lasting = {}    # done vertex -> round the run lasts until
    held = {v: {} for v in g.adj}
    sent = []

    def settle(v, out, h, r):
        for w, msg in out.items():
            if w not in g.adj[v]:
                raise GraphError(f"vertex {v} addressed non-neighbor {w}")
            sent.append((v, w, msg))
        if not h:
            next_step[v] = r + 1
        elif isinstance(h, Sleep):
            if h.until <= r:
                raise GraphError(f"vertex {v} asked in round {r} "
                                 f"to sleep until round {h.until}")
            next_step[v] = h.until
        else:
            next_step.pop(v, None)
            if isinstance(h, Done):
                if h.until <= r:
                    raise GraphError(f"vertex {v} asked in round {r} "
                                     f"to be done until round {h.until}")
                lasting[v] = h.until

    def post():
        for v, w, msg in sent:
            if w in next_step:
                held[w][v] = msg
        sent.clear()

    for v, nbrs in g.adj.items():
        programs[v] = make_program(v)
        out, h = programs[v].init(nbrs)
        settle(v, out, h, 0)
    post()
    rounds = r = 0
    while next_step or max(lasting.values(), default=0) > r:
        r += 1
        due = sorted(v for v, t in next_step.items() if t == r)
        if not due and r not in lasting.values():
            continue
        if r > round_cap:
            raise RoundBudgetExceeded(f"round budget {round_cap} exceeded; "
                                      f"{len(next_step)} vertices active")
        rounds = r
        for v in due:
            inbox, held[v] = held[v], {}
            out, h = programs[v].step(r, inbox)
            settle(v, out, h, r)
        post()
    return {v: getattr(p, "output", None) for v, p in programs.items()}, rounds


class Tally(Scripted):
    """Scripted, with the number of steps taken as its output."""

    output = 0

    def step(self, round_no, inbox):
        self.output += 1
        return super().step(round_no, inbox)


HORIZON = 6


@st.composite
def scripted_runs(draw):
    """A small graph, a plan per vertex for rounds 0..HORIZON (a round a
    plan leaves out halts the vertex) and a round cap.  Outboxes mostly
    address neighbors, and sleeps and dones mostly end later, so most runs
    finish."""
    n = draw(st.integers(1, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.integers(0, 3))]
    g = Graph.from_edges(range(n), edges)
    plans = {}
    for v in range(n):
        nbrs = list(g.adj[v])
        plan = {}
        for r in range(HORIZON + 1):
            if r and not draw(st.integers(0, 5)):
                continue
            targets = draw(st.lists(st.sampled_from(nbrs), max_size=3)) if nbrs else []
            if not draw(st.integers(0, 39)):
                targets.append((v + 1) % n)  # not a neighbor, or v itself
            out = {w: f"{v}@{r}" for w in targets}
            kind = draw(st.integers(0, 47))
            if kind < 4:
                h = True
            elif kind < 18:
                h = False
            elif kind < 36:
                h = Sleep(draw(st.integers(r + 1, HORIZON + 2)))
            elif kind < 46:
                h = Done(draw(st.integers(r + 1, HORIZON + 2)))
            else:  # not in a later round
                h = (Sleep if kind == 46 else Done)(draw(st.integers(r - 1, r)))
            plan[r] = (out, h)
        plans[v] = plan
    cap = draw(st.one_of(st.none(), st.integers(1, HORIZON + 2)))
    return g, plans, cap


def outcome(engine, g, plans, cap):
    log = []
    try:
        result = engine(g, lambda v: Tally(v, plans[v], log), cap)
    except (GraphError, RoundBudgetExceeded) as exc:
        return log, (type(exc), str(exc))
    return log, result


@settings(max_examples=300, deadline=None)
@given(scripted_runs())
def test_run_matches_round_by_round_reference(case):
    g, plans, cap = case

    def engine(g, make, cap):
        outputs, trace = run(g, make, cap)
        return outputs, trace.rounds

    def reference(g, make, cap):
        return reference_run(g, make, default_round_cap(g) if cap is None else cap)

    assert outcome(engine, g, plans, cap) == outcome(reference, g, plans, cap)
