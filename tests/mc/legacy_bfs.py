"""The breadth-first search as it was before sleep sets and the memo.

``Explorer.bfs`` used to expand every enabled action of every state and
run every handler it reached.  The loop is kept here, and only here, as
the oracle: the reduced search must find the same states in the same
order, report the same violations with the same paths, and take no more
transitions.  It is the old method body verbatim; ``self`` is the
explorer.
"""

from collections import deque

from repro.mc.explorer import ExplorationResult, Violation


def legacy_bfs(self, root, max_depth=5, max_states=10_000):
    """Bounded breadth-first exploration from ``root``, unreduced."""
    result = ExplorationResult()
    visited = {root.digest()}
    result.states_explored = 1
    for name in self.check(root):
        result.violations.append(Violation(property_name=name, path=(), world=root))
    frontier: deque = deque([(root, ())])
    while frontier:
        world, path = frontier.popleft()
        relative_depth = world.depth - root.depth
        result.max_depth = max(result.max_depth, relative_depth)
        if relative_depth >= max_depth:
            continue
        for action in self.enabled_actions(world):
            for successor in self.successors(world, action):
                result.transitions += 1
                key = successor.digest()
                if key in visited:
                    continue
                if result.states_explored >= max_states:
                    result.truncated = True
                    return result
                visited.add(key)
                result.states_explored += 1
                new_path = path + (action,)
                for name in self.check(successor):
                    result.violations.append(
                        Violation(property_name=name, path=new_path, world=successor)
                    )
                frontier.append((successor, new_path))
    return result
