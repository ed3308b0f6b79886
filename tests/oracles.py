"""Independent reference implementations the real code is checked against.

Nothing here shares machinery with the package: the cone oracle is plain
bounded enumeration, delta tallies are per-instruction loops, simple
cycles come from trying every node sequence, segment candidates from
recursion over every simple path, and the trace check tests one step at
a time.  The one exception is the reference session: the verifier's
earlier per-candidate loop over the package's cone solver, kept to pin
every count and verdict of the candidate-table session.
"""

from dataclasses import dataclass, field
from itertools import permutations

from flowattest.cone import Reach, solve_cone
from flowattest.errors import SchemaError, UnknownBlockError
from flowattest.events import project
from flowattest.vectors import is_nonneg, vsub
from flowattest.verify import VerificationResult


def cone_member_bruteforce(target, generators):
    """Bounded enumeration: each scalar runs over 0..min_d residual[d]//v[d],
    largest-footprint generators first, with a divisibility check once a
    single generator remains."""
    if any(t < 0 for t in target):
        return None
    gens = list(generators)
    order = sorted(range(len(gens)), key=lambda i: (-sum(gens[i]), i))

    def last_check(i, residual):
        v = gens[i]
        quotient = None
        for r, vd in zip(residual, v):
            if vd == 0:
                if r != 0:
                    return None
            else:
                q, rem = divmod(r, vd)
                if rem or (quotient is not None and q != quotient):
                    return None
                quotient = q
        return {i: quotient if quotient is not None else 0}

    def rec(pos, residual):
        if all(r == 0 for r in residual):
            return {order[p]: 0 for p in range(pos, len(order))}
        if pos == len(order):
            return None
        if pos == len(order) - 1:
            found = last_check(order[pos], residual)
            return found
        i = order[pos]
        v = gens[i]
        bounds = [r // vd for r, vd in zip(residual, v) if vd > 0]
        bound = min(bounds) if bounds else 0
        for x in range(bound, -1, -1):
            nxt = [r - x * vd for r, vd in zip(residual, v)]
            sub = rec(pos + 1, nxt)
            if sub is not None:
                sub[i] = x
                return sub
        return None

    found = rec(0, list(target))
    if found is None:
        return None
    return tuple(found.get(i, 0) for i in range(len(gens)))


def simple_cycles_bruteforce(succ):
    """Every simple cycle of a small digraph, as the set of its rotations
    that start at the cycle's least node: each sequence of distinct nodes
    headed by its least node is a cycle when consecutive nodes, and the
    last and the first, are joined by edges."""
    nodes = sorted(succ)
    found = set()
    for k in range(1, len(nodes) + 1):
        for seq in permutations(nodes, k):
            if seq[0] != min(seq):
                continue
            if all(seq[(i + 1) % k] in succ[seq[i]] for i in range(k)):
                found.add(seq)
    return found


def tally_instructions(table, instructions):
    """Naive per-instruction accumulation, one counter at a time."""
    total = [0] * table.dimension
    for mnemonic in instructions:
        vec = table.attribution[mnemonic]
        for i in range(table.dimension):
            total[i] = total[i] + vec[i]
    return tuple(total)


def count_call_strings(call_sites, entry_fn):
    """Call-site strings per function, by DFS over the call graph.

    ``call_sites`` maps a function to its (site block, callee) pairs; a
    function's count is the number of distinct site paths reaching it from
    the entry function.  Finite because the call graph is acyclic.
    """
    counts = {}

    def walk(fn):
        counts[fn] = counts.get(fn, 0) + 1
        for _site, callee in call_sites.get(fn, ()):
            walk(callee)

    walk(entry_fn)
    return counts


def segment_candidates_bruteforce(cfg, table, graph):
    """Every segment's distinct candidates and simple-path count, one
    simple path at a time.

    ``graph`` is the call-string expansion of ``cfg``.  Paths come from
    plain recursion from every measurement point to the first measurement
    point reached, and each path is summed from scratch.  Its loops are
    the nonzero simple cycles of the measurement-point-free subgraph that
    share a node with the path or, transitively, with an attached cycle;
    cycles are listed from their least node.  Returns ({(start block, end
    block): {(start stack, end stack, base, loops, base instructions, loop
    instructions)}}, {(start block, end block): simple paths}) with loops
    sorted; a successor listed twice counts its paths twice.
    """
    delta = {b: tally_instructions(table, blk.instructions) for b, blk in cfg.blocks.items()}

    def point(node):
        return cfg.blocks[node.block].is_measurement_point

    def total(nodes):
        vec = [0] * table.dimension
        for node in nodes:
            for i, x in enumerate(delta[node.block]):
                vec[i] += x
        return tuple(vec)

    def instructions(nodes):
        return sum(cfg.blocks[node.block].instruction_count for node in nodes)

    inner = {
        node: set(n for n in nexts if not point(n))
        for node, nexts in graph.succ.items()
        if not point(node)
    }
    cycles = []

    def close(path):
        for nxt in inner[path[-1]]:
            if nxt == path[0]:
                if any(total(path)):
                    cycles.append((set(path), total(path), instructions(path)))
            elif nxt > path[0] and nxt not in path:
                close(path + [nxt])

    for node in sorted(inner):
        close([node])

    found = {}
    paths = {}

    def walk(path):
        for nxt in graph.succ[path[-1]]:
            if point(nxt):
                key = (path[0].block, nxt.block)
                paths[key] = paths.get(key, 0) + 1
                attached = []
                touched = set(path)
                grew = True
                while grew:
                    grew = False
                    for cycle in cycles:
                        if cycle not in attached and cycle[0] & touched:
                            attached.append(cycle)
                            touched |= cycle[0]
                            grew = True
                loops = dict((vec, count) for _, vec, count in attached)
                ordered = tuple(sorted(loops))
                found.setdefault(key, set()).add(
                    (
                        path[0].stack,
                        nxt.stack,
                        total(path[1:] + [nxt]),
                        ordered,
                        instructions(path[1:] + [nxt]),
                        tuple(loops[v] for v in ordered),
                    )
                )
            elif nxt not in path:
                walk(path + [nxt])

    for node in graph.succ:
        if point(node):
            walk([node])
    return found, paths


def validate_trace_per_step(cfg, trace):
    """The trace check one step at a time, from the block records and the
    edge list: an empty trace and the first unknown id raise, in the
    package's words; then the endpoints, every step's instruction count
    and every adjacent pair are tested."""
    steps = trace.steps
    if not steps:
        raise SchemaError("trace is empty")
    for step in steps:
        if step not in cfg.blocks:
            raise UnknownBlockError(f"trace references unknown block '{step}'")
    for end in (steps[0], steps[-1]):
        if not cfg.blocks[end].is_measurement_point:
            return False
    for step in steps:
        if cfg.blocks[step].instruction_count == 0:
            return False
    edges = {(edge.src, edge.dst) for edge in cfg.edges}
    for i in range(len(steps) - 1):
        if (steps[i], steps[i + 1]) not in edges:
            return False
    return True


@dataclass
class ReferenceSession:
    """The session fields :func:`reference_verify_segment` reads and writes,
    plus its own projection memo, which it shares with nothing."""

    db: object
    config: object = None
    feasible: frozenset | None = frozenset({()})
    rejected: bool = False
    cache: dict = field(default_factory=dict)
    cache_hits: int = 0
    cache_lookups: int = 0
    projected: dict = field(default_factory=dict)


def _reference_projection(config, cand):
    """(projected base, deduplicated nonzero projected loop vectors, each
    one's first loop index, reachability map or None below two)."""
    base = project(config, cand.base) if config is not None else cand.base
    owner = {}
    for j, loop in enumerate(cand.loops):
        pv = project(config, loop) if config is not None else loop
        if any(pv):
            owner.setdefault(pv, j)
    generators = tuple(owner)
    reach = Reach(generators) if len(generators) >= 2 else None
    return base, generators, tuple(owner.values()), reach


def reference_verify_segment(session, m):
    """One measurement decided by the per-candidate loop: every candidate
    whose entry stack is feasible is tried in database order, and every
    nonnegative residual goes to ``solve_cone``.  The skip rule, the dedup
    cache, the feasible-set update and the rejection reasons are the
    verifier's; ``elapsed`` stays 0."""
    if session.rejected:
        raise RuntimeError("session is already rejected; state is frozen")
    db, config = session.db, session.config
    key = (m.start, m.end)
    expected = config.dimension if config is not None else db.dimension
    if len(m.delta) != expected:
        raise SchemaError(
            f"measurement delta has dimension {len(m.delta)}, session expects {expected}"
        )
    if key in db.skip_segments:
        candidates = db.entries.get(key, ())
        session.feasible = frozenset(c.end.stack for c in candidates) or None
        return VerificationResult(
            verdict="accepted",
            reason="skip",
            accepting=tuple(f"{key[0]}->{key[1]}#{i}" for i in range(len(candidates))),
        )
    cache_key = (m.start, m.end, m.delta, session.feasible)
    session.cache_lookups += 1
    hit = session.cache.get(cache_key)
    if hit is not None:
        session.cache_hits += 1
        accepting, witness, session.feasible = hit
        return VerificationResult(
            verdict="accepted", accepting=accepting, witness=witness, cache_hit=True
        )
    candidates = db.entries.get(key, ())
    if key not in session.projected:
        session.projected[key] = [_reference_projection(config, c) for c in candidates]
    tried = solver_calls = solver_nodes = 0
    accepting = []
    exits = set()
    witness = None
    for index, (cand, proj) in enumerate(zip(candidates, session.projected[key])):
        if session.feasible is not None and cand.start.stack not in session.feasible:
            continue
        base, generators, owner, reach = proj
        tried += 1
        target = vsub(m.delta, base)
        if not is_nonneg(target):
            continue
        solution = solve_cone(target, generators, reach)
        solver_calls += 1
        solver_nodes += solution.lp_solves
        if solution.witness is None:
            continue
        accepting.append(f"{key[0]}->{key[1]}#{index}")
        exits.add(cand.end.stack)
        if witness is None:
            full = [0] * len(cand.loops)
            for value, j in zip(solution.witness, owner):
                full[j] = value
            witness = tuple(full)
    accepting = tuple(accepting)
    if accepting:
        verdict, reason = "accepted", None
        session.feasible = frozenset(exits)
        session.cache[cache_key] = (accepting, witness, session.feasible)
    else:
        verdict = "rejected"
        if tried:
            reason = "cone-infeasible"
        else:
            reason = "no-feasible-stack" if key in db.entries else "no-such-segment"
        session.rejected = True
    return VerificationResult(
        verdict=verdict,
        reason=reason,
        accepting=accepting,
        witness=witness,
        candidates_tried=tried,
        solver_calls=solver_calls,
        solver_nodes=solver_nodes,
    )
