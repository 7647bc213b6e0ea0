"""Round-robin task scheduler over a layer's active nodes (Section 6.2).

"Each worker uses a 'state array' to store the 'state' of each tree
node, where the (2i+1)-th item and the (2i+2)-th item are the child
nodes of the i-th item.  Each worker scans this state array and finds
responsible active nodes according to a round-robin strategy ... the
i-th active tree node is assigned to the (i mod w)-th worker."

The naive alternative the paper rejects — one agent worker handling all
active nodes — is kept as :class:`SingleAgentScheduler` for the Table 3
ablation.
"""

from __future__ import annotations

from ..errors import TrainingError


class RoundRobinScheduler:
    """Assigns the i-th active node to worker ``i mod w``."""

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise TrainingError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers

    def assign(self, active_nodes: list[int]) -> dict[int, list[int]]:
        """Map worker id -> the active nodes it is responsible for.

        Every worker appears in the result (possibly with an empty list),
        so callers can iterate workers uniformly.
        """
        assignment: dict[int, list[int]] = {w: [] for w in range(self.n_workers)}
        for i, node in enumerate(active_nodes):
            assignment[i % self.n_workers].append(node)
        return assignment


class SingleAgentScheduler:
    """The naive strategy: one agent worker handles every active node.

    "The most naive approach is to appoint one worker as an agent to
    handle all the active nodes.  However, this method will incur
    significant pressure on the agent."  Kept for the ablation bench.
    """

    def __init__(self, n_workers: int, agent: int = 0) -> None:
        if n_workers < 1:
            raise TrainingError(f"n_workers must be >= 1, got {n_workers}")
        if not 0 <= agent < n_workers:
            raise TrainingError(
                f"agent {agent} out of range [0, {n_workers})"
            )
        self.n_workers = n_workers
        self.agent = agent

    def assign(self, active_nodes: list[int]) -> dict[int, list[int]]:
        """All nodes to the agent; everyone else idles."""
        assignment: dict[int, list[int]] = {w: [] for w in range(self.n_workers)}
        assignment[self.agent] = list(active_nodes)
        return assignment
